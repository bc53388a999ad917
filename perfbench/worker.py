"""One benchmark process: import the program, warm up, run, check, report.

Started by run.py with a plan file. Prints one JSON object as its last line.
Roles:
  probe    import and warm up only; report the set-up time
  measure  untraced timed phase of whole cycles for --seconds
  trace    whole cycles for --seconds, each run once untraced and once with
           spans installed; report per-layer metrics and the difference in
           CPU time between the two passes
  short    one cycle, untraced, all checks
Times are taken both as this process's CPU time and as wall time.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# CPU seconds `reference_work` takes at the nominal speed, about its time on
# the 2-core host of the README's figures when no neighbour shares the core
REFERENCE_NOMINAL_S = 0.0025


def _surplus(theta: float, x: float) -> float:
    return theta * x - 0.5 * x * x


def reference_work(numpy_rounds: int, call_rounds: int) -> float:
    """Run a fixed piece of work and return the CPU seconds it took.

    The work is the benchmark's own and never changes. On a shared host the
    CPU time of the same work changes by half as neighbours come and go
    (another thread on the same core, frequency, cache), in phases of
    seconds; timed around each op, this work gives the machine's speed at
    that moment. It has two kinds of rounds, because kinds of code slow
    down by different shares: small numpy calls with an interpreted float
    loop, and Python function calls with dict and list updates. Each
    workload sets its mix (workloads.REFERENCE_MIX).
    """
    import numpy as np

    c0 = time.process_time()
    acc = 0.0
    for i in range(numpy_rounds):
        x = np.random.default_rng(i).random(500)
        x.sort()
        acc += float(np.cumsum(x)[np.searchsorted(x, 0.5)])
        for j in range(300):
            acc += j * 0.5
    best: dict[int, float] = {}
    values = []
    for i in range(call_rounds):
        v = _surplus(i * 1e-4, 0.5)
        if v > best.get(i & 63, -1.0):
            best[i & 63] = v
        values.append(v)
    return time.process_time() - c0


def _import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import emprice
    import emprice.cli

    if Path(emprice.__file__).resolve().parent != (src / "emprice").resolve():
        raise SystemExit(f"imported emprice from {emprice.__file__}, not from {src}")
    return emprice


class Pass:
    """Outputs and latencies of consecutive whole cycles.

    A CLI output equal to the first output at the same cycle position is
    stored as None, which keeps memory flat however long the run. Repeated
    calls to `run` continue the op numbering and add to `wall`.

    With `reference` (a call of `reference_work`), the reference work runs
    before the first op and after each op, and `speed` holds, per op, its
    nominal time over the mean of the two timings around the op.
    """

    def __init__(self, runner, cycle, first_cli: dict, reference=None):
        self.runner = runner
        self.cycle = cycle
        self.first_cli = first_cli
        self.reference = reference
        self.latencies: list[float] = []       # process CPU seconds per op
        self.wall_latencies: list[float] = []  # wall seconds per op
        self.speed: list[float] = []
        self.outputs: list[tuple[int, int, object]] = []  # (position, index, output)
        self.wall = 0.0
        self.cpu = 0.0
        self.cycles = 0

    def run(self, cycles: int | None = None, seconds: float | None = None, before_op=None) -> None:
        clock, cpu_clock = time.perf_counter, time.process_time
        start, cpu_start = clock(), cpu_clock()
        done = 0
        before = self.reference() if self.reference is not None else 0.0
        while True:
            for pos, op in enumerate(self.cycle):
                index = len(self.outputs)
                if before_op is not None:
                    before_op(index)
                c0, t0 = cpu_clock(), clock()
                out = self.runner.run(op, index)
                t1, c1 = clock(), cpu_clock()
                self.latencies.append(c1 - c0)
                self.wall_latencies.append(t1 - t0)
                if self.reference is not None:
                    after = self.reference()
                    self.speed.append(2.0 * REFERENCE_NOMINAL_S / (before + after))
                    before = after
                if op["kind"] == "cli":
                    first = self.first_cli.setdefault(pos, out)
                    if first is not out and out == first:
                        out = None
                self.outputs.append((pos, index, out))
            done += 1
            if cycles is not None and done >= cycles:
                break
            if seconds is not None and clock() - start >= seconds:
                break
        self.wall += clock() - start
        self.cpu += cpu_clock() - cpu_start
        self.cycles += done


def _check(emprice, plan, first_cli, passes) -> "workloads.Checker":
    import workloads

    checker = workloads.Checker(emprice, plan["seed"])
    cycle = plan["cycle"]
    reference = passes[0]
    for pos, index, out in reference.outputs:
        checker.check(cycle[pos], pos, index, first_cli[pos] if out is None else out)
    mc_outputs = {index: out for _, index, out in reference.outputs}
    for other in passes[1:]:
        for pos, index, out in other.outputs:
            op = cycle[pos]
            if op["kind"] == "cli":
                checker.check(op, pos, index, first_cli[pos] if out is None else out)
            else:
                checker.check_twin(op, index, out, mc_outputs[index])
    checker.finish()
    return checker


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--role", choices=["probe", "measure", "trace", "short"], required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() of the spawn")
    parser.add_argument("--spans", help="where the trace role writes its spans")
    args = parser.parse_args()

    emprice = _import_program(Path(args.root))
    sys.path.insert(0, str(HERE))
    import workloads

    plan = json.loads(Path(args.plan).read_text())
    cycle = plan["cycle"]
    api = {
        "run_coverage": emprice.experiments.run_coverage,
        "run_regret": emprice.experiments.run_regret,
        "cli_main": emprice.cli.main,
    }
    runner = workloads.Runner(emprice, api, plan["seed"])
    runner.run(cycle[0], -1)  # warm-up
    # CPU time of this process since exec, rescaled to the nominal speed by
    # reference work timed right after it; wall time for the table
    setup_cpu_s = time.process_time()
    setup_wall_s = time.monotonic() - args.spawned_at
    reference = functools.partial(reference_work, *plan["reference_mix"])
    reference()  # its first call pays for numpy's lazy set-up
    speed = REFERENCE_NOMINAL_S / statistics.median(reference() for _ in range(3))
    report: dict = {"setup_s": setup_cpu_s * speed, "setup_cpu_s": setup_cpu_s, "setup_wall_s": setup_wall_s}
    if args.role == "probe":
        print(json.dumps(report))
        return 0

    first_cli: dict = {}
    main_pass = Pass(runner, cycle, first_cli, reference if args.role in ("short", "measure") else None)
    passes = [main_pass]
    if args.role == "short":
        main_pass.run(cycles=1)
    elif args.role == "measure":
        main_pass.run(seconds=args.seconds)
    else:
        import tracing

        # warm every op of the cycle, so that the two passes differ only by
        # the spans; then alternate untraced and traced cycles, so that drift
        # in machine speed falls on both alike
        for op in cycle:
            runner.run(op, -1)
        tracer = tracing.Tracer(emprice)
        traced_api = {
            "run_coverage": tracer.span("experiments", "experiments.run_coverage", api["run_coverage"]),
            "run_regret": tracer.span("experiments", "experiments.run_regret", api["run_regret"]),
            "cli_main": tracer.span("cli", "cli.main", api["cli_main"]),
        }
        traced = Pass(workloads.Runner(emprice, traced_api, plan["seed"]), cycle, first_cli)
        passes.append(traced)

        def mark(index: int) -> None:
            tracer.op = index

        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            main_pass.run(cycles=1)
            tracer.install()
            try:
                traced.run(cycles=1, before_op=mark)
            finally:
                tracer.uninstall()
        report["per_layer"] = tracer.metrics(len(traced.latencies))
        report["per_layer"]["trace.overhead_s"] = traced.cpu - main_pass.cpu
        if args.spans:
            report["spans"] = tracer.write(args.spans)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checker = _check(emprice, plan, first_cli, passes)
    report.update(
        latencies=main_pass.latencies,
        wall_latencies=main_pass.wall_latencies,
        speed=main_pass.speed,
        wall=main_pass.wall,
        cpu=main_pass.cpu,
        attempted=sum(len(p.latencies) for p in passes),
        failed=checker.failed,
        correct=checker.correct,
        problems=checker.problems,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
