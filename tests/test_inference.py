import math

import numpy as np
import pytest

import emprice as ep
from emprice.inference import bootstrap_roots, mean_statistic, optimal_value_statistic
from emprice.rng import seed_path


@pytest.fixture
def fixed_menu():
    return ep.Menu(((1.0, 0.5),))


class TestPluginVariance:
    def test_degenerate_sample(self, linear_env, fixed_menu):
        s = ep.Sample(np.full(6, 0.7))
        assert ep.plugin_normal_ci(fixed_menu, s, linear_env).std_error == 0.0

    def test_two_point_sample(self, linear_env, fixed_menu):
        s = ep.Sample(np.array([0.3, 0.7]))
        assert ep.plugin_normal_ci(fixed_menu, s, linear_env).std_error == math.sqrt(0.0625 / s.n)

    def test_empty_menu(self, linear_env):
        s = ep.Sample(np.array([0.2, 0.5, 0.9]))
        assert ep.plugin_normal_ci(ep.Menu.empty(), s, linear_env).std_error == 0.0


class TestBootstrapProfit:
    def test_degenerate_sample_zero_width(self, linear_env, fixed_menu):
        s = ep.Sample(np.full(8, 0.7))
        est = ep.bootstrap_ci_profit(fixed_menu, s, linear_env, 200, 0.95, 1)
        assert est.point == 0.5
        assert est.ci_low == est.ci_high == 0.5
        assert est.std_error == 0.0

    def test_bit_identical_reruns(self, linear_env, fixed_menu):
        s = ep.draw_sample(ep.Uniform(0, 1), 120, 4)
        a = ep.bootstrap_ci_profit(fixed_menu, s, linear_env, 300, 0.9, 7)
        b = ep.bootstrap_ci_profit(fixed_menu, s, linear_env, 300, 0.9, 7)
        assert a == b

    def test_interval_brackets_point(self, linear_env, fixed_menu):
        s = ep.draw_sample(ep.BetaCdf(4, 4), 200, 2)
        est = ep.bootstrap_ci_profit(fixed_menu, s, linear_env, 500, 0.95, 5)
        assert est.ci_low <= est.point <= est.ci_high

    def test_width_monotone_in_level(self, linear_env, fixed_menu):
        s = ep.draw_sample(ep.Uniform(0, 1), 150, 8)
        widths = []
        for level in (0.90, 0.95, 0.99):
            est = ep.bootstrap_ci_profit(fixed_menu, s, linear_env, 400, level, 11)
            widths.append(est.ci_high - est.ci_low)
        assert widths[0] <= widths[1] <= widths[2]

    def test_validation(self, linear_env, fixed_menu):
        s = ep.Sample(np.array([0.5]))
        with pytest.raises(ValueError):
            ep.bootstrap_ci_profit(fixed_menu, s, linear_env, 50, 0.95, 1)
        with pytest.raises(ValueError):
            ep.bootstrap_ci_profit(fixed_menu, s, linear_env, 200, 1.2, 1)

    def test_percentile_flag(self, linear_env, fixed_menu):
        s = ep.draw_sample(ep.Uniform(0, 1), 100, 3)
        est = ep.bootstrap_ci_profit(fixed_menu, s, linear_env, 300, 0.9, 9, percentile=True)
        assert est.method is ep.CiMethod.PERCENTILE_BOOTSTRAP
        assert est.ci_low <= est.ci_high

    def test_plugin_agreement_with_bootstrap_se(self, linear_env, fixed_menu):
        for seed, (a, b) in enumerate([(0.25, 0.25), (1.0, 1.0), (4.0, 4.0)]):
            s = ep.draw_sample(ep.BetaCdf(a, b), 500, 100 + seed)
            est = ep.bootstrap_ci_profit(fixed_menu, s, linear_env, 1000, 0.95, seed)
            plugin_se = ep.plugin_normal_ci(fixed_menu, s, linear_env).std_error
            assert est.std_error == pytest.approx(plugin_se, rel=0.15)

    def test_unbiasedness_of_plugin_point(self, linear_env, fixed_menu):
        # mean of pi(m, ecdf) over 2000 samples of size 20 matches pi(m, F0)
        truth = ep.expected_profit(fixed_menu, ep.Uniform(0, 1), linear_env)
        R, n = 2000, 20
        points = np.empty(R)
        for r in range(R):
            u = ep.substream(555, r).random(n)
            w = ep.per_consumer_profit(fixed_menu, u, linear_env)
            points[r] = w.mean()
        se = points.std(ddof=1) / math.sqrt(R)
        assert abs(points.mean() - truth) <= 3 * se


class TestBootstrapOptimalProfit:
    def test_degenerate_sample(self, linear_env):
        s = ep.Sample(np.full(5, 0.7))
        est = ep.bootstrap_ci_optimal_profit(s, linear_env, 200, 0.95, 1)
        assert est.point == 0.7
        assert est.ci_low == est.ci_high == 0.7

    def test_point_matches_enumeration(self, linear_env):
        s = ep.Sample(np.array([0.3, 0.5, 0.9]))
        est = ep.bootstrap_ci_optimal_profit(s, linear_env, 100, 0.95, 1)
        assert est.point == 1.0 / 3.0

    def test_fast_resample_path_matches_solver(self, linear_env):
        # the bincount shortcut must agree with re-running the solver
        s = ep.draw_sample(ep.BetaCdf(0.25, 0.25), 60, 12)
        stat = optimal_value_statistic(s, linear_env)
        idx = np.random.default_rng(0).integers(0, s.n, (25, s.n))
        for row, got in zip(idx, stat.on_resamples(idx)):
            resample = ep.Sample(s.values[row])
            want = ep.optimal_profit(ep.ecdf(resample), linear_env).optimal_value
            assert got == pytest.approx(want, abs=1e-12)

    def test_interp_estimator_point(self, linear_env):
        s = ep.draw_sample(ep.Uniform(0.05, 1.0), 40, 6)
        est = ep.bootstrap_ci_optimal_profit(s, linear_env, 150, 0.9, 2, estimator="interp")
        want = ep.optimal_profit(ep.interp_ecdf(s, 0.0), linear_env).optimal_value
        assert est.point == want

    def test_unknown_estimator(self, linear_env):
        s = ep.Sample(np.array([0.4, 0.6]))
        with pytest.raises(ValueError):
            ep.bootstrap_ci_optimal_profit(s, linear_env, 100, 0.9, 1, estimator="spline")


class TestBootstrapCompare:
    def test_identical_menus(self, linear_env, fixed_menu):
        s = ep.draw_sample(ep.Uniform(0, 1), 80, 5)
        res = ep.bootstrap_compare(fixed_menu, fixed_menu, s, linear_env, 200, 0.95, 3)
        assert res.diff_point == 0.0
        assert res.ci_low == res.ci_high == 0.0
        assert not res.reject_equal

    def test_profitable_menu_beats_outside_option(self, linear_env, fixed_menu):
        s = ep.draw_sample(ep.Uniform(0, 1), 500, 9)
        res = ep.bootstrap_compare(fixed_menu, ep.Menu.empty(), s, linear_env, 500, 0.95, 4)
        assert res.reject_equal
        assert res.diff_point == pytest.approx(0.25, abs=0.08)

    def test_degenerate_sample(self, linear_env, fixed_menu):
        s = ep.Sample(np.full(5, 0.9))
        other = ep.Menu(((1.0, 0.8),))
        res = ep.bootstrap_compare(fixed_menu, other, s, linear_env, 200, 0.95, 3)
        assert res.ci_low == res.ci_high == pytest.approx(-0.3, abs=1e-12)


class TestBootstrapRegret:
    def test_empirically_optimal_menu_has_zero_regret(self, linear_env):
        s = ep.draw_sample(ep.Uniform(0, 1), 60, 14)
        menu_hat = ep.optimal_profit(ep.ecdf(s), linear_env).menu
        est = ep.bootstrap_ci_regret(menu_hat, s, linear_env, 150, 0.95, 2)
        assert est.point == pytest.approx(0.0, abs=1e-12)

    def test_outside_option_regret_point(self, linear_env):
        s = ep.Sample(np.array([0.3, 0.5, 0.9]))
        est = ep.bootstrap_ci_regret(ep.Menu.empty(), s, linear_env, 100, 0.95, 2)
        assert est.point == 1.0 / 3.0

    def test_degenerate_sample(self, linear_env):
        s = ep.Sample(np.full(4, 0.7))
        est = ep.bootstrap_ci_regret(ep.Menu(((1.0, 0.7),)), s, linear_env, 100, 0.95, 2)
        assert est.point == 0.0
        assert est.ci_low == est.ci_high == 0.0

    def test_shared_resample_identity(self, linear_env, fixed_menu):
        s = ep.draw_sample(ep.BetaCdf(4, 4), 90, 21)
        opt = ep.bootstrap_ci_optimal_profit(s, linear_env, 200, 0.95, 6)
        reg = ep.bootstrap_ci_regret(fixed_menu, s, linear_env, 200, 0.95, 6)
        profit_point = float(ep.per_consumer_profit(fixed_menu, s.values, linear_env).mean())
        assert reg.point == opt.point - profit_point


class TestPluginNormal:
    def test_symmetric_interval(self, linear_env, fixed_menu):
        s = ep.draw_sample(ep.Uniform(0, 1), 200, 17)
        est = ep.plugin_normal_ci(fixed_menu, s, linear_env, 0.95)
        assert est.method is ep.CiMethod.PLUGIN_NORMAL
        assert est.ci_high - est.point == pytest.approx(est.point - est.ci_low, abs=1e-15)

    def test_z_matches_scipy_norm_ppf(self):
        from scipy import stats

        # per-consumer profits -1/4, -1/4, 1/4, 1/4: the point is 0 and the
        # plug-in standard error 1/8, so ci_high = z/8 holds z's every bit
        env = ep.linear_unit_demand(0.0, 3.0, 1.0, 1.0)
        menu = ep.Menu(((0.5, 0.25), (1.0, 1.25)))
        s = ep.Sample(np.array([0.6, 0.7, 2.5, 2.6]))
        gen = np.random.default_rng(10)
        levels = [*gen.uniform(0.0, 1.0, size=10_000), 0.90, 0.95, 0.99]
        for level in levels:
            est = ep.plugin_normal_ci(menu, s, env, level)
            assert est.point == 0.0 and est.std_error == 0.125
            assert est.ci_high * 8 == stats.norm.ppf(1.0 - (1.0 - level) / 2.0)

    def test_estimate_serialization(self, linear_env, fixed_menu):
        s = ep.draw_sample(ep.Uniform(0, 1), 50, 1)
        est = ep.bootstrap_ci_profit(fixed_menu, s, linear_env, 200, 0.95, 5)
        d = est.to_dict()
        assert d["method"] == "centered_bootstrap"
        assert d["b_draws"] == 200 and d["seed"] == 5


# ---------------------------------------------------------------------------
# The bootstrap engine against the per-draw loop it replaced
# ---------------------------------------------------------------------------


def reference_roots(stat_of_idx, n, b_draws, path, point):
    """G_b = sqrt(n) * (stat(resample_b) - point), one substream per draw."""
    root_n = math.sqrt(n)
    out = np.empty(b_draws)
    for b in range(b_draws):
        idx = ep.substream(*path, b).integers(0, n, size=n)
        out[b] = root_n * (stat_of_idx(idx) - point)
    return out


def reference_ecdf_optimum(values, env):
    """Per-draw linear-ECDF optimum: one bincount per resample."""
    n = values.size
    margins = float(env.x_max) * (values - float(env.c_bar))

    def stat(idx):
        counts = np.bincount(idx, minlength=n)
        tails = np.cumsum(counts[::-1])[::-1]
        return max(float(np.max(margins * (tails / n))), 0.0)

    return stat


def reference_interp_optimum(values, env, lower):
    """Per-draw solve against the interpolated resample ECDF, at the default grids."""

    def stat(idx):
        distinct, counts = np.unique(values[idx], return_counts=True)
        probs = np.concatenate([[0.0], np.cumsum(counts)]) / idx.size
        F = ep.PiecewiseLinear(np.concatenate([[lower], distinct]), probs)
        return ep.optimal_profit(F, env).optimal_value

    return stat


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


ENGINE_SEEDS = [7, (3, -5), (2**40 + 3, 11, -1)]


class TestEngineMatchesPerDrawLoop:
    @pytest.mark.parametrize("seed", ENGINE_SEEDS, ids=["int", "negative", "multiword"])
    @pytest.mark.parametrize("n", [1, 2, 37, 500])
    @pytest.mark.parametrize("b_draws", [100, 1000, 1001])
    def test_linear_statistics(self, b_draws, n, seed):
        # unit cost 0.3 puts order statistics on both sides of the margin sign
        env = ep.linear_unit_demand(0.0, 1.0, 1.0, 0.3)
        s = ep.draw_sample(ep.Uniform(0, 1), n, 40 + n)
        path = seed_path(seed)
        wa = ep.per_consumer_profit(ep.Menu(((1.0, 0.45),)), s.values, env)
        wb = ep.per_consumer_profit(ep.Menu(((0.5, 0.2), (1.0, 0.5))), s.values, env)
        opt_stat = reference_ecdf_optimum(s.values, env)
        opt_point = ep.optimal_profit(ep.ecdf(s), env).optimal_value
        diff = wa - wb
        cases = [
            (mean_statistic(wa), lambda idx: wa[idx].mean(), float(wa.mean())),
            (mean_statistic(diff), lambda idx: diff[idx].mean(), float(diff.mean())),
            (optimal_value_statistic(s, env), opt_stat, opt_point),
        ]
        for stat, ref_stat, ref_point in cases:
            assert stat.point == ref_point
            got = bootstrap_roots(stat, b_draws, seed)
            assert_same_bits(got.roots, reference_roots(ref_stat, n, b_draws, path, ref_point))
        # regret scores both functionals on the same resamples
        reg = ep.bootstrap_ci_regret(ep.Menu(((1.0, 0.45),)), s, env, b_draws, 0.9, seed)
        want = reference_roots(lambda idx: opt_stat(idx) - wa[idx].mean(), n, b_draws, path,
                               float(opt_point - wa.mean()))
        alpha = 1.0 - 0.9
        q_lo, q_hi = np.quantile(want, [alpha / 2.0, 1.0 - alpha / 2.0])
        assert reg.point == float(opt_point - wa.mean())
        assert (reg.ci_low, reg.ci_high) == (reg.point - q_hi / math.sqrt(n), reg.point - q_lo / math.sqrt(n))
        assert reg.std_error == float(want.std(ddof=1)) / math.sqrt(n)

    def test_all_margins_negative(self):
        # every type below cost: products are negative or signed zeros
        env = ep.linear_unit_demand(0.0, 1.0, 1.0, 0.1)
        s = ep.Sample(np.array([0.05, 0.08]))
        stat = optimal_value_statistic(s, env)
        want = reference_roots(reference_ecdf_optimum(s.values, env), 2, 1001, (5,), stat.point)
        assert_same_bits(bootstrap_roots(stat, 1001, 5).roots, want)

    def test_one_resample_per_block(self, linear_env):
        # n above the block's index budget: every block holds a single resample
        s = ep.draw_sample(ep.BetaCdf(2, 3), 20_000, 9)
        w = ep.per_consumer_profit(ep.Menu(((1.0, 0.45),)), s.values, linear_env)
        for stat, ref in [
            (mean_statistic(w), lambda idx: w[idx].mean()),
            (optimal_value_statistic(s, linear_env), reference_ecdf_optimum(s.values, linear_env)),
        ]:
            want = reference_roots(ref, s.n, 100, (7,), stat.point)
            assert_same_bits(bootstrap_roots(stat, 100, 7).roots, want)

    @pytest.mark.parametrize("b_draws", [100, 1001])
    def test_interp_row_fallback(self, linear_env, b_draws):
        s = ep.draw_sample(ep.BetaCdf(2, 3), 37, 3)
        stat = optimal_value_statistic(s, linear_env, "interp")
        ref = reference_interp_optimum(s.values, linear_env, 0.0)
        want = reference_roots(ref, s.n, b_draws, (2**40 + 3, 11, -1), stat.point)
        assert_same_bits(bootstrap_roots(stat, b_draws, (2**40 + 3, 11, -1)).roots, want)

    def test_screening_row_fallback(self):
        env = ep.environment_from_config(
            {"kind": "screening", "theta_min": 0.0, "theta_max": 1.0, "x_max": 1.0,
             "cost": {"scale": 0.5, "power": 2.0}}
        )
        s = ep.draw_sample(ep.BetaCdf(2, 3), 37, 4)
        stat = optimal_value_statistic(s, env, "interp")
        ref = reference_interp_optimum(s.values, env, 0.0)
        want = reference_roots(ref, s.n, 100, (3, -5), stat.point)
        assert_same_bits(bootstrap_roots(stat, 100, (3, -5)).roots, want)

    def test_engine_rejects_few_draws(self):
        with pytest.raises(ValueError):
            bootstrap_roots(mean_statistic(np.ones(5)), 99, 1)
