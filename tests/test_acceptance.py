"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line per criterion (run with `pytest -s` to see
them on success). The statistical reproductions (coverage tables, regret
curves, tail-frequency checks) use fixed seeds and are judged at the stated
tolerances; the solver and guarantee checks are exact-oracle based.
"""

import math

import numpy as np
import pytest

import emprice as ep
from emprice.experiments import McConfig, McTarget
from emprice.rng import substream

from conftest import random_continuous_cdf, random_exact_cdf, random_menu

THREE_LAWS = ("beta:0.25:0.25", "uniform", "beta:4:4")
LEVELS = (0.90, 0.95, 0.99)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def env():
    return ep.linear_unit_demand(0.0, 1.0, 1.0, 0.0)


def test_criterion_1_fixed_mechanism_coverage():
    cfg = McConfig(
        distributions=THREE_LAWS,
        sample_sizes=(500,),
        target=McTarget.FIXED_PROFIT_COVERAGE,
        replications=1000,
        bootstrap_draws=1000,
        levels=LEVELS,
        seed=20_240_501,
    )
    result = ep.run_coverage(cfg)
    worst = max(abs(row.value - row.level) for row in result.rows)
    detail = "; ".join(f"{r.distribution}@{r.level:g}->{r.value:.3f}" for r in result.rows)
    _report("1 fixed-mechanism coverage within 0.03", worst <= 0.03, f"worst gap {worst:.4f}: {detail}")


def test_criterion_2_optimal_profit_coverage():
    cfg = McConfig(
        distributions=THREE_LAWS,
        sample_sizes=(500,),
        target=McTarget.OPTIMAL_PROFIT_COVERAGE,
        replications=1000,
        bootstrap_draws=1000,
        levels=LEVELS,
        seed=20_240_502,
    )
    result = ep.run_coverage(cfg)
    worst = max(abs(row.value - row.level) for row in result.rows)
    detail = "; ".join(f"{r.distribution}@{r.level:g}->{r.value:.3f}" for r in result.rows)
    _report("2 optimal-profit coverage within 0.03", worst <= 0.03, f"worst gap {worst:.4f}: {detail}")


def _rolling_median(x: np.ndarray, half_width: int = 3) -> np.ndarray:
    return np.array([
        np.median(x[max(0, i - half_width): i + half_width + 1]) for i in range(x.size)
    ])


def test_criterion_3_regret_share_small_samples():
    sizes = tuple(range(10, 301, 10))
    cfg = McConfig(
        distributions=THREE_LAWS,
        sample_sizes=sizes,
        target=McTarget.REGRET_SHARE,
        replications=1000,
        seed=20_240_503,
    )
    result = ep.run_regret(cfg)
    ok = True
    details = []
    for law in THREE_LAWS:
        rows = [r for r in result.rows if r.distribution == law]
        by_n = {r.n: r.value for r in rows}
        at_50 = by_n[50]
        curve = np.array([by_n[n] for n in sizes])
        smoothed = _rolling_median(curve)
        monotone = bool(np.all(np.diff(smoothed) <= 1e-12))
        ok &= (at_50 < 0.04) and monotone
        details.append(f"{law}: share(50)={at_50:.4f} monotone={monotone}")
    _report("3 regret share <4% at n=50, smoothed curve decreasing", ok, "; ".join(details))


def test_criterion_4_exact_solver_checks(env):
    # brute-force oracle on 1e6 grid points for the uniform law
    grid = np.linspace(0.0, 1.0, 1_000_001)
    oracle_vals = grid * (1.0 - grid)
    oracle = float(oracle_vals.max())
    res = ep.optimal_profit(ep.Uniform(0, 1), env)
    (x, p), = res.menu.items
    price_ok = abs(p - 0.5) <= 1e-6
    value_ok = abs(res.optimal_value - oracle) <= 1e-6 and abs(res.optimal_value - 0.25) <= 1e-6
    enum = ep.optimal_profit(ep.ecdf(ep.Sample(np.array([0.3, 0.5, 0.9]))), env)
    enum_ok = enum.optimal_value == 1.0 / 3.0
    _report(
        "4 exact solver checks",
        price_ok and value_ok and enum_ok,
        f"p*={p!r}, value={res.optimal_value!r}, enum={enum.optimal_value!r}",
    )


def test_criterion_5_lipschitz_suites(env):
    L = ep.lipschitz_constant(env)
    assert L == 4.0
    gen = np.random.default_rng(55)
    profit_violations = 0
    worst_profit = 0.0
    for _ in range(1000):
        menu = random_menu(gen)
        F, G = random_exact_cdf(gen), random_exact_cdf(gen)
        gap = abs(ep.expected_profit(menu, F, env) - ep.expected_profit(menu, G, env))
        slack = gap - L * ep.sup_distance(F, G)
        worst_profit = max(worst_profit, slack)
        if slack > 1e-9:
            profit_violations += 1
    value_violations = 0
    worst_value = 0.0
    for _ in range(500):
        F, G = random_exact_cdf(gen), random_exact_cdf(gen)
        gap = abs(
            ep.optimal_profit(F, env).optimal_value - ep.optimal_profit(G, env).optimal_value
        )
        slack = gap - L * ep.sup_distance(F, G)
        worst_value = max(worst_value, slack)
        if slack > 1e-6:  # solver tolerance
            value_violations += 1
    _report(
        "5 profit and value-function Lipschitz suites",
        profit_violations == 0 and value_violations == 0,
        f"worst profit slack {worst_profit:.2e}, worst value slack {worst_value:.2e}",
    )


def test_criterion_6_dkw_empirical_validity():
    R, n = 5000, 100
    deltas = (0.05, 0.10, 0.15)
    ks = np.arange(1, n + 1) / n
    sups = np.empty(R)
    for r in range(R):
        v = np.sort(substream(2718, r).random(n))
        sups[r] = max(np.abs(ks - v).max(), np.abs(ks - 1 / n - v).max())
    ok = True
    details = []
    for d in deltas:
        freq = float((sups > d).mean())
        bound = 2.0 * math.exp(-2.0 * n * d * d)
        ok &= freq <= bound
        details.append(f"delta={d}: {freq:.4f}<=min(1,{bound:.4f})")
    _report("6 DKW violation frequencies within bound", ok, "; ".join(details))


def test_criterion_7_envelope_finite_difference(env):
    L = ep.lipschitz_constant(env)
    t = 1e-3
    gen = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        F = random_continuous_cdf(gen)
        G = random_continuous_cdf(gen)
        res_f = ep.optimal_profit(F, env)
        mixed = ep.Mixture(np.array([1.0 - t, t]), (F, G))
        fd = (ep.optimal_profit(mixed, env).optimal_value - res_f.optimal_value) / t
        direction = ep.expected_profit(res_f.menu, G, env) - ep.expected_profit(res_f.menu, F, env)
        worst = max(worst, abs(fd - direction))
    _report(
        "7 envelope identity finite-difference check",
        worst <= 0.05 * L,
        f"worst |fd - directional| = {worst:.4f} vs {0.05 * L}",
    )


def test_criterion_8_regret_tail_bound(env):
    n, R = 500, 2000
    top = 0.25
    regrets = np.empty(R)
    for r in range(R):
        values = np.sort(substream(888, r).random(n))
        menu = ep.optimal_profit(ep.ecdf(ep.Sample(values)), env).menu
        regrets[r] = top - ep.expected_profit(menu, ep.Uniform(0, 1), env)
    ok = True
    details = []
    for delta in (0.2, 0.4):
        freq = float((regrets > 2 * delta).mean())
        bound = ep.deviation_bound(ep.DkwBound(), n, delta / 4.0)
        ok &= freq <= bound
        details.append(f"delta={delta}: {freq:.5f}<={bound:.5f}")
    _report("8 regret tail frequencies within DKW guarantee", ok, "; ".join(details))


def test_criterion_9_auction():
    gen = np.random.default_rng(99)
    violations = 0
    worst = 0.0
    for _ in range(500):
        F, G = random_exact_cdf(gen), random_exact_cdf(gen)
        base = ep.sup_distance(F, G)
        for m in (2, 3, 5):
            second = ep.sup_distance(ep.SecondOrderCdf(F, m), ep.SecondOrderCdf(G, m))
            slack = second - 2 * m * (m - 1) * base
            worst = max(worst, slack)
            if slack > 1e-9:
                violations += 1

    setting = ep.AuctionSetting(2, 0.0, ep.Uniform(0, 1))
    r_star, value = ep.optimal_reserve(setting)
    from scipy import integrate

    tail, _ = integrate.quad(lambda th: th * 2.0 * (1.0 - th), 0.5, 1.0, epsabs=1e-12)
    oracle = 0.5 * 2.0 * 0.5 * 0.5 + tail
    reserve_ok = abs(r_star - 0.5) <= 1e-6 and abs(value - oracle) <= 1e-8

    truth_best = ep.auction_profit(0.5, setting)
    medians = []
    for n in (100, 1000, 10_000):
        regs = []
        for run in range(40):
            u = substream(909, n, run).random(n)
            sample = ep.Sample(u)
            fhat = ep.interp_ecdf(sample, 0.0)
            r_hat, _ = ep.optimal_reserve(ep.AuctionSetting(2, 0.0, fhat))
            regs.append(truth_best - ep.auction_profit(r_hat, setting))
        medians.append(float(np.median(regs)))
    decay_ok = medians[0] > medians[1] > medians[2] and medians[2] < 0.005
    _report(
        "9 auction: Lipschitz factor, reserve oracle, sample-based regret",
        violations == 0 and reserve_ok and decay_ok,
        f"worst slack {worst:.2e}; r*={r_star:.8f}, value={value:.10f}; medians={medians}",
    )


def test_criterion_10_determinism(env):
    sample = ep.draw_sample(ep.BetaCdf(4, 4), 200, 1001)
    menu = ep.Menu(((1.0, 0.5),))
    a = ep.bootstrap_ci_profit(menu, sample, env, 300, 0.95, 12)
    b = ep.bootstrap_ci_profit(menu, sample, env, 300, 0.95, 12)
    boot_ok = a == b
    opt_a = ep.bootstrap_ci_optimal_profit(sample, env, 300, 0.95, 12)
    opt_b = ep.bootstrap_ci_optimal_profit(sample, env, 300, 0.95, 12)
    boot_ok &= opt_a == opt_b

    from dataclasses import replace

    cfg = McConfig(
        distributions=("uniform", "beta:4:4"),
        sample_sizes=(60,),
        target=McTarget.FIXED_PROFIT_COVERAGE,
        replications=16,
        bootstrap_draws=150,
        levels=(0.9,),
        seed=31,
    )
    csv1 = ep.run_coverage(cfg).to_csv()
    csv2 = ep.run_coverage(replace(cfg, workers=2)).to_csv()
    csv8 = ep.run_coverage(replace(cfg, workers=8)).to_csv()
    workers_ok = csv1 == csv2 == csv8

    rcfg = McConfig(("uniform",), (40,), McTarget.REGRET_SHARE, replications=20, seed=77)
    regret_ok = ep.run_regret(rcfg).to_csv() == ep.run_regret(replace(rcfg, workers=4)).to_csv()

    _report(
        "10 determinism across reruns and worker counts",
        boot_ok and workers_ok and regret_ok,
        f"bootstrap={boot_ok}, coverage workers={workers_ok}, regret workers={regret_ok}",
    )
