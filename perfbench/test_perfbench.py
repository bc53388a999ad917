"""Tests of the benchmark itself: `python3 -m pytest perfbench -q` from the repo root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402


def _grid_sample(n: int) -> np.ndarray:
    # knots at k/n make the interpolated ECDF exactly the Uniform[0, 1] CDF
    return np.arange(1, n + 1) / n


def test_menu_profit_single_offer():
    # x = 1/2 at p = 1/4: bought above theta = 1/2, margin 1/4 - 1/8
    F = checks.InterpCdf(_grid_sample(1000))
    assert checks.menu_profit([(0.5, 0.25)], F.cdf) == (pytest.approx(0.0625, abs=1e-15), 0.0)
    # an edge at 1/2 moving by 1e-6 moves mass 1e-6 at margin 1/8
    assert checks.menu_profit([(0.5, 0.25)], F.cdf, 1e-6)[1] == pytest.approx(0.125e-6, rel=1e-6)


def test_menu_profit_skips_dominated_items():
    # (0.5, 0.4) is never chosen over the outside option and (1, 0.5) on [0, 1]
    F = checks.InterpCdf(_grid_sample(1000))
    with_item = checks.menu_profit([(1.0, 0.5), (0.5, 0.4)], F.cdf)[0]
    assert with_item == pytest.approx(checks.menu_profit([(1.0, 0.5)], F.cdf)[0], abs=1e-15)


def test_uniform_screening_references():
    F = checks.InterpCdf(_grid_sample(1000))
    assert checks.first_best_interp(F) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert checks.best_posted_offer_interp(F) == pytest.approx(2.0 / 27.0, abs=1e-12)


def test_beta22_screening_optimum_matches_grid_integral():
    grid = np.linspace(0.0, 1.0, 2_000_001)
    psi = grid - (1 - grid) ** 2 * (1 + 2 * grid) / np.maximum(6 * grid * (1 - grid), 1e-300)
    dens = 6 * grid * (1 - grid)
    brute = np.trapezoid(0.5 * np.maximum(psi, 0.0) ** 2 * dens, grid)
    assert checks.screening_optimum_law("beta:2:2") == pytest.approx(brute, rel=1e-6)


def test_auction_revenue_uniform_closed_form():
    # two bidders, Uniform[0, 1]: revenue 1/3 + r^2 - 4 r^3 / 3, maximal at r = 1/2
    revenue = checks.AuctionRevenue(_grid_sample(1000), bidders=2, seller_value=0.0)
    r = np.array([0.0, 0.25, 0.5, 0.9])
    assert revenue(r) == pytest.approx(1 / 3 + r**2 - 4 * r**3 / 3, abs=1e-12)
    assert revenue.grid_maximum() == pytest.approx(5.0 / 12.0, abs=1e-12)


def test_auction_seller_value_enters_as_sale_probability():
    revenue0 = checks.AuctionRevenue(_grid_sample(500), bidders=3, seller_value=0.0)
    revenue1 = checks.AuctionRevenue(_grid_sample(500), bidders=3, seller_value=0.25)
    r = np.array([0.1, 0.6])
    assert revenue0(r) - revenue1(r) == pytest.approx(0.25 * (1 - r**3), abs=1e-12)


def test_uniform_regret_cell_uses_the_documented_stream():
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, 0, 3, 0])))
    theta = np.sort(gen.random(40))
    rho = theta[np.argmax(theta * (40 - np.arange(40)) / 40)]
    mean, se = checks.uniform_regret_cell(7, 0, 3, 40, 1)
    assert mean == pytest.approx(1 - 4 * rho * (1 - rho), abs=1e-15)
    assert se == 0.0


def test_short_mode_checks_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--short"], capture_output=True,
                          text=True, cwd=HERE.parent, timeout=600)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == {"mc-coverage", "mc-regret", "screening-solve", "auction-reserve"}
    for name, result in results.items():
        assert result["correct"], name
        assert result["attempted"] >= 3
        assert set(result["metrics"]) == {"ops_per_s_norm", "op_p50_ms_norm", "op_p90_ms_norm", "setup_s", "peak_rss_mb"}
    # only the screening ops tagged with the virtual-surplus fault may fail
    assert all(r["failed"] == 0 for n, r in results.items() if n != "screening-solve")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "mc-regret",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
