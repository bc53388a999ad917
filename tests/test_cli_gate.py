"""The CLI input gate: the golden argument lists, with one flag value at a time
replaced by an edge value, plus the cases that once went wrong.

Every case must exit 0, 1 or 2 without a traceback or a warning (a real
process prints warnings on stderr; pytest would capture them). On exit 1
stderr is one `error:` line; on exit 2 argparse's usage block may come
before that line. On exit 0 stderr is empty and stdout parses as JSON (as
CSV for `simulate`) whose every number is finite. Flags that size work keep
small values: their edge values are rejected before any work runs, and
`--workers` never goes above 1.
"""

import contextlib
import io
import json
import math
import re
import warnings

from emprice.cli import main

from test_golden import GOLDEN, INFER, SAMPLE, SOLVE_AUCTION

EDGES = ("0", "-1", "nan", "inf", "-inf", "1e308", "5e-324", "2.5", "abc", "")

SIMULATE = (
    ["simulate", "--target", "regret", "--dist", "uniform", "--sizes", "10", "--reps", "2", "--seed", "1"],
    ["simulate", "--target", "coverage-optimal", "--dist", "beta:2:5", "--sizes", "10", "--reps", "2",
     "--bootstrap", "100", "--levels", "0.9", "--menu-price", "0.4", "--cost", "0.1", "--seed", "1",
     "--workers", "1"],
)

# base lists beyond the goldens: each cost flag under its own --env
BASES = (
    *SOLVE_AUCTION.values(),
    *(["infer", *argv] for argv in INFER.values()),
    *SIMULATE,
    ["solve", "--dist", "beta:2:5", "--env", "screening", "--cost-scale", "0.2", "--cost-power", "1.5",
     "--grid-size", "200", "--x-max", "2", "--theta-max", "1.5"],
)

SCREENING = ["solve", "--env", "screening"]
EXTRA = (
    # reserves far outside the support printed NaN
    ["auction", "--sample", SAMPLE, "--bidders", "2", "--reserve=-1e308"],
    ["auction", "--sample", SAMPLE, "--bidders", "2", "--reserve=1e308"],
    # huge kernel flags printed Infinity; now the gap exceeds delta
    ["bound", "--kind", "kernel", "--n", "100", "--delta", "0.1", "--tv-bound", "1e308", "--bandwidth", "0.1"],
    ["bound", "--kind", "kernel", "--n", "100", "--delta", "0.1", "--tv-bound", "1", "--bandwidth", "0.1",
     "--lipschitz", "1e308"],
    ["bound", "--kind", "kernel", "--n", "100", "--delta", "0.1", "--tv-bound", "1", "--bandwidth", "1e308"],
    # a linear cost whose c(x_max) overflows warned in the price solver
    ["solve", "--dist", "beta:2:5", "--cost", "1e308", "--x-max", "2"],
    # quantile grids that collapse at float resolution
    *([*SCREENING, "--dist", law] for law in
      ("beta:2:1e-8", "beta:2:5:0:1e-9", "beta:1e3:0.25:0.2:0.9", "beta:1e4:0.25:0.2:0.9", "beta:0.25:0.25")),
    # a cost flag of the other --env, and --sample beside its alternative
    [*SCREENING, "--cost", "0.3", "--dist", "uniform"],
    ["solve", "--env", "linear", "--cost-power", "3", "--dist", "uniform"],
    ["infer", "--target", "optimal", "--sample", SAMPLE, "--cost-scale", "0.3", "--seed", "1"],
    ["solve", "--dist", "uniform", "--sample", SAMPLE],
    ["auction", "--bound-n", "100", "--bidders", "2", "--sample", SAMPLE],
    # a linear cost under --env screening posts one price, on any law
    [*SCREENING, "--cost-power", "1", "--cost-scale", "0.2", "--dist", "beta:2:5"],
    [*SCREENING, "--cost-power", "1", "--cost-scale", "0.2", "--sample", SAMPLE],
    [*SCREENING, "--cost-power", "1", "--sample", SAMPLE, "--estimator", "interp", "--theta-max", "2"],
    ["infer", "--target", "optimal", "--env", "screening", "--cost-power", "1", "--sample", SAMPLE,
     "--bootstrap", "100", "--seed", "2"],
    ["infer", "--target", "regret", "--env", "screening", "--cost-power", "1", "--sample", SAMPLE,
     "--menu", str(GOLDEN / "menu-a.json"), "--bootstrap", "100", "--seed", "3"],
)

_ERROR_LINE = re.compile(r"^(emprice( \w+)?: )?error: \S")


def _cases() -> list[list[str]]:
    cases = []
    for argv in BASES:
        for i in range(1, len(argv) - 1):
            if argv[i].startswith("--") and not argv[i + 1].startswith("--"):
                # --flag=value keeps values such as -1 from reading as flags
                cases += [[*argv[:i], f"{argv[i]}={edge}", *argv[i + 2:]] for edge in EDGES]
    return cases + [list(argv) for argv in EXTRA]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _reject(text: str):
    raise ValueError(f"non-finite constant {text}")


def _fault(argv: list[str]) -> str | None:
    """What is wrong with the case's exit, or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    except Exception as exc:  # any escape is the fault
        return f"raised {type(exc).__name__}: {exc}"
    if caught:
        return f"warned {caught[0].category.__name__}: {caught[0].message}"
    out, err = out.getvalue(), err.getvalue()
    if "Traceback" in err:
        return "traceback on stderr"
    if code == 0:
        if err:
            return f"exit 0 with stderr {err!r}"
        try:
            if argv[0] == "simulate":
                for field in ",".join(out.splitlines()).split(","):
                    try:
                        value = float(field)
                    except ValueError:
                        continue
                    if not math.isfinite(value):
                        raise ValueError(f"non-finite field {field}")
            else:
                json.loads(out, parse_float=_finite, parse_constant=_reject)
        except ValueError as exc:
            return f"exit 0 with bad output: {exc}"
        return None
    if code not in (1, 2):
        return f"exit {code}"
    lines = err.splitlines()
    if out or not err.endswith("\n") or not lines or not _ERROR_LINE.match(lines[-1]):
        return f"exit {code} with stdout {out!r} and stderr {err!r}"
    if len(lines) > 1 and (code == 1 or not lines[0].startswith("usage: ")
                           or any("error:" in line for line in lines[:-1])):
        return f"exit {code} with stderr {err!r}"
    return None


def test_every_case_exits_cleanly():
    cases = _cases()
    assert len(cases) > 800
    faults = [(argv, fault) for argv in cases if (fault := _fault(argv)) is not None]
    assert faults == []
