"""The four workloads: their inputs, their operations and the checks on them.

A plan (made by `make_plan` in the parent process, before any timing) lists
one cycle of operations; a run repeats whole cycles. Monte Carlo operations
get a fresh seed per operation, derived from the run's seed and the
operation's position; CLI operations reread the same sample files every
cycle, so their outputs must repeat exactly.

Operations tagged with FAULT are expected to fail their checks while the
screening solver multiplies the ironed virtual value by v(theta, x) instead of
v_theta(theta, x) (emprice.solvers.optimal_screening_menu). Their inputs do
not depend on the seed, so the failed share of a run is the same for every
seed and run length. A failure of any other operation makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

FAULT = "screening-virtual-surplus"
MC_LAWS = ("beta:0.25:0.25", "uniform", "beta:4:4")
LEVELS = (0.90, 0.95, 0.99)
FIXED_PRICE = 0.5
COVERAGE_N = 500
BOOTSTRAP = 1000
COVERAGE_REPS = 2
REGRET_SIZES = tuple(range(10, 301, 10))
REGRET_REPS = 2
SCREEN_GRID = 1000
# Samples drawn from the run's seed per (law, n) of the screening workload:
# solve time depends on the draw, and more draws per run steady the run's
# figures from seed to seed.
SCREEN_DRAWS = 3
# The program bisects choice thresholds of the screening kind to 1e-12; the
# menu-value check allows each edge to sit anywhere within twice that.
THRESHOLD_TOL = 2e-12
# Samples for screening ops that the fault makes fail on some draws and not on
# others are drawn from this fixed key, so whether they fail does not depend
# on the run's seed.
REFERENCE_KEY = 0
AUCTION_SELLER_VALUES = (0.0, 0.25)
AUCTION_BIDDERS = (2, 3, 5)
AUCTION_DELTA = 1.0

WORKLOADS = ("mc-coverage", "mc-regret", "screening-solve", "auction-reserve")
# Rounds of each kind of reference work (worker.reference_work) that gauges
# the machine's speed around every op: (numpy rounds, call rounds), about
# 2.5 ms of CPU either way. Screening ops spend their time in Python-level
# valuation calls, which slow down more than numpy-heavy code when a
# neighbour shares the core; README.md gives the measurements.
REFERENCE_MIX = {"screening-solve": (40, 2800)}
DEFAULT_REFERENCE_MIX = (60, 0)


def op_seed(seed: int, index: int) -> int:
    """Seed of the operation at `index` (-1 is the warm-up operation)."""
    return seed * 1_000_000 + index + 1


def _draw(key: list[int], spec: str, n: int) -> np.ndarray:
    gen = np.random.default_rng(key)
    parts = spec.split(":")
    if parts[0] == "uniform":
        values = gen.random(n)
    else:
        values = gen.beta(float(parts[1]), float(parts[2]), n)
    if np.unique(values).size != n or values.min() <= 0.0:
        raise RuntimeError(f"degenerate sample for {spec} n={n}; pick another seed")
    return values


def _write(path: Path, values: np.ndarray) -> str:
    path.write_text("".join(f"{v:.17g}\n" for v in values))
    return str(path)


def make_plan(workload: str, seed: int, workdir: Path) -> dict:
    """One cycle of operations for the workload; writes the sample files."""
    if workload == "mc-coverage":
        cycle = [
            {"kind": "coverage", "law": law, "target": target}
            for law in MC_LAWS
            for target in ("coverage-fixed", "coverage-optimal")
        ]
    elif workload == "mc-regret":
        cycle = [{"kind": "regret", "law": law} for law in MC_LAWS]
    elif workload == "screening-solve":
        cycle = []
        screen = ["solve", "--env", "screening", "--grid-size", str(SCREEN_GRID)]
        seeded = [(law, n) for law in ("uniform", "beta:0.5:0.5") for n in (500, 1000, 2000)]
        fixed = [(law, n) for law in ("beta:4:4", "beta:2:5") for n in (200, 2000)]
        sampled = [(law, n, [seed, 1, k], False) for k, (law, n) in enumerate(seeded * SCREEN_DRAWS)]
        sampled += [(law, n, [REFERENCE_KEY, 3, len(seeded) + k], True) for k, (law, n) in enumerate(fixed)]
        for k, (law, n, key, faulty) in enumerate(sampled):
            path = _write(workdir / f"screen-{k}.txt", _draw(key, law, n))
            op = {"kind": "cli", "check": "screen-sample", "law": law, "n": n, "sample": path,
                  "argv": screen + ["--estimator", "interp", "--sample", path]}
            if faulty:
                op["fault"] = FAULT
            cycle.append(op)
        for spec in ("uniform", "beta:2:2"):
            cycle.append({"kind": "cli", "check": "screen-law", "law": spec, "fault": FAULT,
                          "argv": screen + ["--dist", spec]})
    elif workload == "auction-reserve":
        cycle = []
        for k, (law, n) in enumerate((("uniform", 1000), ("beta:2:2", 10_000))):
            path = _write(workdir / f"auction-{k}.txt", _draw([seed, 2, k], law, n))
            for m in AUCTION_BIDDERS:
                for c in AUCTION_SELLER_VALUES:
                    cycle.append({"kind": "cli", "check": "reserve", "sample": path, "bidders": m,
                                  "seller_value": c,
                                  "argv": ["auction", "--sample", path, "--bidders", str(m),
                                           "--seller-value", repr(c)]})
            m = AUCTION_BIDDERS[k + 1]
            cycle.append({"kind": "cli", "check": "guarantee", "n": n, "bidders": m,
                          "argv": ["auction", "--bound-n", str(n), "--bidders", str(m),
                                   "--delta", repr(AUCTION_DELTA), "--kind", "interp"]})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "cycle": cycle,
            "reference_mix": REFERENCE_MIX.get(workload, DEFAULT_REFERENCE_MIX)}


class Runner:
    """Executes operations against an imported `emprice` package.

    `api` maps "run_coverage", "run_regret" and "cli_main" to the callables to
    use, so a traced run can pass wrapped entry points.
    """

    def __init__(self, emprice, api: dict, seed: int):
        self.ep = emprice
        self.api = api
        self.seed = seed

    def run(self, op: dict, index: int):
        if op["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.api["cli_main"](op["argv"])
            return code, out.getvalue(), err.getvalue()
        ep = self.ep
        if op["kind"] == "coverage":
            cfg = ep.McConfig(
                distributions=(op["law"],),
                sample_sizes=(COVERAGE_N,),
                target=ep.McTarget(op["target"]),
                replications=COVERAGE_REPS,
                bootstrap_draws=BOOTSTRAP,
                levels=LEVELS,
                seed=op_seed(self.seed, index),
                fixed_menu=ep.Menu.uniform_price(FIXED_PRICE),
            )
            return self.api["run_coverage"](cfg)
        cfg = ep.McConfig(
            distributions=(op["law"],),
            sample_sizes=REGRET_SIZES,
            target=ep.McTarget.REGRET_SHARE,
            replications=REGRET_REPS,
            seed=op_seed(self.seed, index),
        )
        return self.api["run_regret"](cfg)


class Checker:
    """Checks every operation's output against `checks` references.

    CLI operations repeat their inputs each cycle: the first output of each
    is checked in full and later ones must equal it byte for byte.
    """

    def __init__(self, emprice, seed: int):
        import checks  # scipy-heavy; imported after the timed phase

        self.ref = checks
        self.ep = emprice
        self.seed = seed
        self.problems: list[str] = []      # run-level problems
        self.failed = 0
        self.unexpected = 0
        self._first_output: dict[int, tuple] = {}
        self._failed_at: dict[int, bool] = {}
        self._covered: dict[tuple[str, float], list[int]] = {}
        self._laws_checked: set[str] = set()

    @property
    def correct(self) -> bool:
        return self.unexpected == 0 and not self.problems

    def check(self, op: dict, position: int, index: int, output) -> None:
        """position: the op's place in the cycle; index: its place in the run."""
        try:
            errors = self._dispatch(op, position, index, output)
        except Exception as exc:  # a malformed output must not end the run
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        self._failed_at[index] = bool(errors)
        self._record(op, index, errors)

    def check_twin(self, op: dict, index: int, output, twin) -> None:
        """A Monte Carlo op rerun on the same seed must reproduce `twin`."""
        if output != twin:
            self._record(op, index, ["output differs from the first run of this op"])
        elif self._failed_at[index]:
            self.failed += 1

    def _record(self, op: dict, index: int, errors: list[str]) -> None:
        if not errors:
            return
        self.failed += 1
        if op.get("fault") != FAULT or any(i.startswith("output differs") for i in errors):
            self.unexpected += 1
            if len(self.problems) < 20:
                self.problems.append(f"op {index} {op.get('argv') or op}: {'; '.join(errors)}")

    def _dispatch(self, op, position, index, output) -> list[str]:
        if op["kind"] == "coverage":
            return self._coverage(op, index, output)
        if op["kind"] == "regret":
            return self._regret(op, index, output)
        first = self._first_output.get(position)
        if first is not None:
            return first[1] if output == first[0] else ["output differs from the first run of this op"]
        code, out, err = output
        if code != 0:
            errors = [f"exit code {code}: {err.strip()[:200]}"]
        else:
            errors = getattr(self, "_" + op["check"].replace("-", "_"))(op, json.loads(out))
        self._first_output[position] = (output, errors)
        return errors

    # -- Monte Carlo -------------------------------------------------------

    def _law_truths(self, law: str) -> None:
        """The program's (fixed-menu profit, optimal profit) against scipy."""
        if law in self._laws_checked:
            return
        self._laws_checked.add(law)
        ep, ref = self.ep, self.ref
        fixed, optimal = ep.true_values(law, ep.Menu.uniform_price(FIXED_PRICE), ep.linear_unit_demand())
        want_fixed = ref.fixed_menu_profit(law, FIXED_PRICE)
        want_opt = ref.posted_price_optimum(law)
        if not math.isclose(fixed, want_fixed, rel_tol=1e-9, abs_tol=1e-12):
            self.problems.append(f"{law}: fixed-menu profit {fixed!r}, scipy {want_fixed!r}")
        if not math.isclose(optimal, want_opt, rel_tol=1e-9, abs_tol=1e-12):
            self.problems.append(f"{law}: optimal profit {optimal!r}, scipy {want_opt!r}")

    def _coverage(self, op, index, result) -> list[str]:
        self._law_truths(op["law"])
        rows = result.rows
        errors = []
        if len(rows) != len(LEVELS) or result.replications != COVERAGE_REPS or result.bootstrap_draws != BOOTSTRAP:
            return [f"unexpected shape: {len(rows)} rows, R={result.replications}, B={result.bootstrap_draws}"]
        for row, level in zip(rows, LEVELS):
            hits = row.value * COVERAGE_REPS
            se = math.sqrt(row.value * (1.0 - row.value) / COVERAGE_REPS)
            if row.level != level or row.n != COVERAGE_N or row.seed != op_seed(self.seed, index):
                errors.append(f"row labels {row}")
            if abs(hits - round(hits)) > 1e-9 or not math.isclose(row.mc_se, se, abs_tol=1e-12):
                errors.append(f"coverage {row.value!r} with se {row.mc_se!r} is not a count of {COVERAGE_REPS}")
            else:
                self._covered.setdefault((op["target"], level), [0, 0])
                tally = self._covered[(op["target"], level)]
                tally[0] += round(hits)
                tally[1] += COVERAGE_REPS
        return errors

    def _regret(self, op, index, result) -> list[str]:
        self._law_truths(op["law"])
        rows = result.rows
        seed = op_seed(self.seed, index)
        if [r.n for r in rows] != list(REGRET_SIZES) or result.replications != REGRET_REPS:
            return [f"unexpected rows: {[r.n for r in rows]}"]
        errors = []
        for i, row in enumerate(rows):
            if row.seed != seed:
                errors.append(f"row seed {row.seed}")
            if op["law"] == "uniform":
                mean, se = self.ref.uniform_regret_cell(seed, 0, i, row.n, REGRET_REPS)
                if not (math.isclose(row.value, mean, abs_tol=1e-9) and math.isclose(row.mc_se, se, abs_tol=1e-9)):
                    errors.append(f"n={row.n}: share {row.value!r} se {row.mc_se!r}, closed form {mean!r} se {se!r}")
            elif not -1e-9 <= row.value <= 1.0 + 1e-9:
                errors.append(f"n={row.n}: share {row.value!r} outside [0, 1]")
        return errors

    def finish(self) -> None:
        """Run-level checks: pooled coverage per target and level."""
        for (target, level), (hits, reps) in sorted(self._covered.items()):
            tol = self.ref.coverage_tolerance(level, reps)
            if abs(hits / reps - level) > tol:
                self.problems.append(
                    f"{target} pooled coverage {hits}/{reps} at level {level} is off by more than {tol:.3f}"
                )

    # -- CLI ---------------------------------------------------------------

    def _screen_sample(self, op, payload) -> list[str]:
        ref = self.ref
        F = ref.InterpCdf(ref.read_values(op["sample"]))
        value = payload["optimal_value"]
        own = ref.menu_profit([(it["x"], it["p"]) for it in payload["items"]], F.cdf, THRESHOLD_TOL)
        posted = ref.best_posted_offer_interp(F)
        first_best = ref.first_best_interp(F)
        errors = self._screen_common(payload, value, own)
        if value < posted - 1e-12:
            errors.append(f"value {value!r} below the best single posted offer {posted!r}")
        if value > first_best + 1e-12:
            errors.append(f"value {value!r} above the first-best value {first_best!r}")
        return errors

    def _screen_law(self, op, payload) -> list[str]:
        ref = self.ref
        value = payload["optimal_value"]
        dist = ref.law(op["law"])
        own = ref.menu_profit([(it["x"], it["p"]) for it in payload["items"]], dist.cdf, THRESHOLD_TOL)
        errors = self._screen_common(payload, value, own)
        optimum = ref.screening_optimum_law(op["law"])
        if not math.isclose(value, optimum, rel_tol=1e-4):
            errors.append(f"value {value!r}, but the optimum int psi_+^2/2 dF is {optimum!r}")
        return errors

    @staticmethod
    def _screen_common(payload, value, own) -> list[str]:
        errors = []
        if payload.get("method") != "screening_ironed" or payload.get("grid_size") != SCREEN_GRID:
            errors.append(f"method {payload.get('method')!r}, grid {payload.get('grid_size')!r}")
        profit, slack = own
        if abs(value - profit) > slack + 1e-12 * max(1.0, abs(profit)):
            errors.append(f"reported value {value!r}, menu evaluates to {profit!r} (slack {slack:.3g})")
        return errors

    def _reserve(self, op, payload) -> list[str]:
        revenue = self.ref.AuctionRevenue(self.ref.read_values(op["sample"]), op["bidders"], op["seller_value"])
        value, reserve = payload["value"], payload["reserve"]
        own = float(revenue(reserve)[0])
        best = revenue.grid_maximum()
        errors = []
        if payload.get("mode") != "revenue" or payload.get("bidders") != op["bidders"]:
            errors.append(f"mode {payload.get('mode')!r}, bidders {payload.get('bidders')!r}")
        if not math.isclose(value, own, rel_tol=1e-9, abs_tol=1e-12):
            errors.append(f"value {value!r} at reserve {reserve!r}, quadrature gives {own!r}")
        if value < best - 1e-9 * max(1.0, abs(best)):
            errors.append(f"value {value!r} below the grid maximum {best!r}")
        return errors

    def _guarantee(self, op, payload) -> list[str]:
        want = self.ref.interp_deviation_bound(op["n"], AUCTION_DELTA, op["bidders"])
        lipschitz = 2.0 * op["bidders"] * (op["bidders"] - 1)
        errors = []
        for part in ("profit", "regret"):
            got = payload[part]
            if not math.isclose(got["bound"], want, rel_tol=1e-12, abs_tol=1e-300):
                errors.append(f"{part} bound {got['bound']!r}, formula gives {want!r}")
            if got["n"] != op["n"] or got["lipschitz"] != lipschitz or got["delta"] != AUCTION_DELTA:
                errors.append(f"{part} fields {got}")
        return errors
