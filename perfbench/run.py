"""Benchmark of the emprice library and CLI: four closed-loop workloads.

    python3 perfbench/run.py --workload mc-coverage --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --short          # every workload, one cycle, all checks

Run from the root of a source checkout: the program is imported from ./src.
Each run generates its inputs from --seed, then starts single-threaded worker
processes one after another (worker.py): with --trace 0, four set-up probes
and one measuring worker, whose timed phase repeats whole cycles of the
workload's operations for --seconds; with --trace 1, one worker that runs the
cycles untraced and then traced. The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBES = 4
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# Op times are the worker's CPU time per op, rescaled to the nominal machine
# speed by the reference work timed around each op (worker.reference_work):
# on a shared host, wall time counts time other tenants take from the
# process, and CPU time runs slow by up to half while they share its core.
# Set-up time is CPU time from exec to the first timed op, rescaled by the
# reference work timed right after it. Raw CPU and wall figures are printed
# in the table.
END_TO_END_UNITS = {
    "ops_per_s_norm": "op/s",
    "op_p50_ms_norm": "ms",
    "op_p90_ms_norm": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def _worker(role: str, plan: Path, seconds: float, deadline: float, spans: Path | None = None) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--plan", str(plan),
           "--role", role, "--seconds", repr(seconds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{role} worker did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{role} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _end_to_end(report: dict, setups: list[float]) -> dict:
    lat_ms = np.asarray(report["latencies"]) * np.asarray(report["speed"]) * 1e3
    values = {
        "ops_per_s_norm": lat_ms.size / lat_ms.sum() * 1e3,
        "op_p50_ms_norm": float(np.percentile(lat_ms, 50)),
        "op_p90_ms_norm": float(np.percentile(lat_ms, 90)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _raw_figures(report: dict, setups: list[dict]) -> dict:
    """Unscaled figures, for the table only: CPU time and wall time."""
    cpu_ms = np.asarray(report["latencies"]) * 1e3
    wall_ms = np.asarray(report["wall_latencies"]) * 1e3
    return {
        "machine_speed_p50": (float(np.median(report["speed"])), "x nominal"),
        "op_p50_ms_cpu": (float(np.percentile(cpu_ms, 50)), "ms"),
        "setup_s_cpu": (statistics.median(s["setup_cpu_s"] for s in setups), "s"),
        "ops_per_s_wall": (wall_ms.size / report["wall"], "op/s"),
        "op_p50_ms_wall": (float(np.percentile(wall_ms, 50)), "ms"),
        "op_p90_ms_wall": (float(np.percentile(wall_ms, 90)), "ms"),
        "setup_s_wall": (statistics.median(s["setup_wall_s"] for s in setups), "s"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, short: bool = False) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(workloads.make_plan(workload, seed, workdir)))
        raw = {}
        if short:
            report = _worker("short", plan_path, 0.0, deadline)
            metrics = _end_to_end(report, [report["setup_s"]])
        elif trace:
            spans = OUT / f"spans-{workload}-seed{seed}.npz"
            report = _worker("trace", plan_path, seconds, deadline, spans)
            metrics = {name: {"value": value, "unit": _layer_unit(name)}
                       for name, value in report["per_layer"].items()}
        else:
            probes = [_worker("probe", plan_path, 0.0, deadline) for _ in range(PROBES)]
            report = _worker("measure", plan_path, seconds, deadline)
            metrics = _end_to_end(report, [p["setup_s"] for p in probes + [report]])
            raw = _raw_figures(report, probes + [report])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in report["problems"]:
        print(f"{workload}: check failed: {problem}", file=sys.stderr)
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }, raw


def _layer_unit(name: str) -> str:
    if name == "trace.overhead_s":
        return "s"
    return "s/op" if name.endswith("_s") else "count/op"


def _print_table(workload: str, result: dict, raw: dict) -> None:
    print(f"{workload}: attempted {result['attempted']} ops, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in raw.items():
        print(f"  {name:32s} {value:.6g} {unit}  (unscaled, not in the result)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--short", action="store_true", help="one cycle of every workload, all checks on")
    args = parser.parse_args(argv)
    if not args.short and args.workload is None:
        parser.error("--workload is required unless --short is given")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds at least 1")
    if not (ROOT / "src" / "emprice" / "__init__.py").is_file():
        print(f"error: no emprice sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    # set-up time is import from bytecode, as for an installed package
    compileall.compile_dir(ROOT / "src" / "emprice", quiet=1)
    compileall.compile_dir(HERE, maxlevels=0, quiet=1)
    OUT.mkdir(exist_ok=True)

    names = workloads.WORKLOADS if args.short and args.workload is None else (args.workload,)
    results, raws = {}, {}
    try:
        for name in names:
            results[name], raws[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.short)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        _print_table(name, result, raws[name])
    if args.short:
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = results[args.workload]
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
