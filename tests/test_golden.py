"""Golden outputs: Monte Carlo CSV and `emprice infer`, `solve` and `auction`
JSON bytes pinned against files in tests/golden.

The files hold the exact bytes `run_regret` and `run_coverage` printed for
small configurations, the exact stdout of `emprice infer` for every target,
that of `emprice solve` and `emprice auction` for both environment kinds
and every auction mode, on the committed sample and menu files, and that of
`emprice bound` and `auction --bound-n` for every bound kind, and that of
`emprice estimate` for every estimator. A performance change must
leave every byte alone; a change that means to move these numbers
regenerates the files it moves with `python tests/test_golden.py NAME ...`
(every file when no name is given) and says why in CHANGES.md.
"""

import contextlib
import io
from dataclasses import replace
from pathlib import Path

import pytest

import emprice as ep
from emprice.cli import main
from emprice.experiments import McConfig, McTarget

GOLDEN = Path(__file__).parent / "golden"
LAWS = ("beta:0.25:0.25", "uniform", "beta:4:4", "beta:2:5")

CONFIGS = {
    "regret.csv": McConfig(LAWS, (10, 40, 100), McTarget.REGRET_SHARE, replications=5, seed=2024),
    "coverage-fixed.csv": McConfig(
        LAWS, (30, 60), McTarget.FIXED_PROFIT_COVERAGE,
        replications=4, bootstrap_draws=100, levels=(0.9, 0.95), seed=2025,
    ),
    "coverage-optimal.csv": McConfig(
        LAWS, (30,), McTarget.OPTIMAL_PROFIT_COVERAGE,
        replications=4, bootstrap_draws=100, levels=(0.9, 0.95), seed=2026,
    ),
}


SAMPLE = str(GOLDEN / "infer-sample.txt")  # Beta(2,3), n=120
SMALL_SAMPLE = str(GOLDEN / "infer-sample-small.txt")  # Beta(2,3), n=30
MENU_A, MENU_B = str(GOLDEN / "menu-a.json"), str(GOLDEN / "menu-b.json")

# `infer` has no --grid-size flag, so the screening case runs the default grid
# on a small sample with the smallest bootstrap the CLI accepts
INFER = {
    "infer-profit.json": ["--target", "profit", "--sample", SAMPLE, "--menu", MENU_A, "--seed", "11"],
    "infer-compare.json": [
        "--target", "compare", "--sample", SAMPLE, "--menu", MENU_A, "--menu-b", MENU_B, "--seed", "12",
    ],
    "infer-regret.json": ["--target", "regret", "--sample", SAMPLE, "--menu", MENU_B, "--seed", "13"],
    "infer-optimal-ecdf.json": ["--target", "optimal", "--sample", SAMPLE, "--cost", "0.1", "--seed", "14"],
    "infer-optimal-interp.json": [
        "--target", "optimal", "--estimator", "interp", "--sample", SAMPLE, "--bootstrap", "300", "--seed", "15",
    ],
    "infer-optimal-screening.json": [
        "--target", "optimal", "--env", "screening", "--estimator", "interp", "--sample", SMALL_SAMPLE,
        "--bootstrap", "100", "--seed", "16",
    ],
    "infer-profit-percentile.json": [
        "--target", "profit", "--sample", SAMPLE, "--menu", MENU_B, "--percentile", "--level", "0.9",
        "--bootstrap", "500", "--seed", "17",
    ],
}


# linear cases and the auction tail case run the grid-then-refine searches,
# the auction revenue cases the exact per-segment reserve, and the screening
# cases the closed-form surplus maximizer of the power cost a * x**p
SOLVE_AUCTION = {
    "solve-beta-4-4.json": ["solve", "--dist", "beta:4:4"],
    "solve-beta-2-5-cost.json": ["solve", "--dist", "beta:2:5", "--cost", "0.2"],
    "solve-interp.json": ["solve", "--sample", SAMPLE, "--estimator", "interp"],
    "solve-ecdf.json": ["solve", "--sample", SAMPLE],
    "solve-screening-uniform.json": ["solve", "--dist", "uniform", "--env", "screening", "--grid-size", "500"],
    "solve-screening-interp.json": [
        "solve", "--sample", SAMPLE, "--estimator", "interp", "--env", "screening", "--grid-size", "500",
    ],
    "auction-revenue-2.json": ["auction", "--sample", SAMPLE, "--bidders", "2"],
    "auction-revenue-3-seller.json": ["auction", "--sample", SAMPLE, "--bidders", "3", "--seller-value", "0.1"],
    "auction-tail.json": ["auction", "--sample", SAMPLE, "--bidders", "3", "--mode", "tail"],
    "auction-reserve.json": ["auction", "--sample", SAMPLE, "--bidders", "2", "--reserve", "0.4"],
    # the optimum lies strictly inside a knot segment, at its stationary point
    "auction-revenue-5-interior.json": [
        "auction", "--sample", SAMPLE, "--bidders", "5", "--seller-value", "0.6",
    ],
    "auction-bound-interp.json": [
        "auction", "--bound-n", "1000", "--bidders", "3", "--delta", "1.0", "--kind", "interp",
    ],
    "bound-dkw-samples.json": [
        "bound", "--kind", "dkw", "--delta", "0.4", "--lipschitz", "4", "--samples-needed", "--alpha", "0.05",
    ],
    "bound-interp-samples.json": [
        "bound", "--kind", "interp", "--delta", "0.01", "--lipschitz", "4", "--samples-needed", "--alpha", "0.01",
    ],
    "bound-interp.json": ["bound", "--kind", "interp", "--n", "500", "--delta", "0.4", "--lipschitz", "4"],
    "bound-kernel.json": [
        "bound", "--kind", "kernel", "--n", "500", "--delta", "0.4", "--tv-bound", "1", "--bandwidth", "0.05",
        "--lipschitz", "4",
    ],
    "estimate-ecdf.json": ["estimate", "--sample", SAMPLE, "--estimator", "ecdf"],
    "estimate-interp.json": ["estimate", "--sample", SAMPLE, "--estimator", "interp"],
    "estimate-kernel.json": ["estimate", "--sample", SAMPLE, "--estimator", "kernel", "--grid-points", "5"],
}


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _infer(argv: list[str]) -> str:
    return _cli(["infer", *argv])


def _run(cfg: McConfig) -> str:
    run = ep.run_regret if cfg.target is McTarget.REGRET_SHARE else ep.run_coverage
    return run(cfg).to_csv()


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_bytes_match_golden(name, workers):
    cfg = replace(CONFIGS[name], workers=workers)
    assert _run(cfg) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(INFER))
def test_infer_json_bytes_match_golden(name):
    assert _infer(INFER[name]) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(SOLVE_AUCTION))
def test_solve_auction_json_bytes_match_golden(name):
    assert _cli(SOLVE_AUCTION[name]) == (GOLDEN / name).read_text()


def test_screening_power_one_prints_the_linear_solve():
    # a linear cost picks the exact price solver under either --env: the
    # ironing grid posted 0.364252 here, with method screening_ironed
    argv = ["solve", "--env", "screening", "--cost-power", "1", "--cost-scale", "0.2", "--dist", "beta:2:5"]
    assert _cli(argv) == (GOLDEN / "solve-beta-2-5-cost.json").read_text()


def test_screening_power_one_solves_on_a_sample():
    # the ECDF, which ironing cannot take (exit 1), posts the linear price
    argv = ["solve", "--env", "screening", "--cost-power", "1", "--cost-scale", "0.2", "--sample", SAMPLE]
    assert _cli(argv) == _cli(["solve", "--sample", SAMPLE, "--cost", "0.2"])


def test_usage_error_leaves_later_calls_alone():
    # the parser is built once per process: a failed parse must not change
    # what later calls print
    from emprice.cli import build_parser

    assert build_parser() is build_parser()
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--sample", SAMPLE, "--frobnicate"]) == 2
        assert main(["auction", "--sample", SAMPLE]) == 2
    assert "--frobnicate" in err.getvalue() and "--bidders" in err.getvalue()
    for name in ("solve-ecdf.json", "solve-beta-4-4.json", "auction-revenue-2.json", "auction-reserve.json"):
        assert _cli(SOLVE_AUCTION[name]) == (GOLDEN / name).read_text()


def _render(name: str) -> str:
    if name in CONFIGS:
        return _run(CONFIGS[name])
    if name in INFER:
        return _infer(INFER[name])
    return _cli(SOLVE_AUCTION[name])


if __name__ == "__main__":
    import sys

    names = sys.argv[1:] or [*CONFIGS, *INFER, *SOLVE_AUCTION]
    unknown = sorted(set(names) - {*CONFIGS, *INFER, *SOLVE_AUCTION})
    if unknown:
        sys.exit(f"unknown golden file(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN / name).write_text(_render(name))
