"""Golden outputs: Monte Carlo CSV bytes pinned against files in tests/golden.

The files hold the exact bytes `run_regret` and `run_coverage` printed for
small configurations. A performance change must leave every byte alone; a
change that means to move these numbers regenerates the files with
`python tests/test_golden.py` and says why in CHANGES.md.
"""

from dataclasses import replace
from pathlib import Path

import pytest

import emprice as ep
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


def _run(cfg: McConfig) -> str:
    run = ep.run_regret if cfg.target is McTarget.REGRET_SHARE else ep.run_coverage
    return run(cfg).to_csv()


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_bytes_match_golden(name, workers):
    cfg = replace(CONFIGS[name], workers=workers)
    assert _run(cfg) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, cfg in CONFIGS.items():
        (GOLDEN / name).write_text(_run(cfg))
