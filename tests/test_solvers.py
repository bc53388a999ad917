"""Solvers: uniform price, ironing and the screening menu.

`_hull_reference` is the monotone-chain lower hull that ironed before PAVA,
and `_screening_reference` the screening solve that maximized the surplus on
every quantile segment and priced the levels by the scalar envelope loop;
the solvers must reproduce both bit for bit. With `_golden_maximizers`, the
golden section the screening solver ran before the closed form, the reference
is what the closed form is checked against. `_full_grid_price_reference` is
the price solve that scored every grid candidate and refined with the array
objective; the bound-pruned scan must reproduce it bit for bit.
"""

import numpy as np
import pytest

import emprice as ep
from emprice.numerics import argmax_refine
from emprice.rng import substream
from emprice.solvers import _minorant_slopes, _price_candidates, _surplus_maximizers, posts_offer

from conftest import random_exact_cdf, random_menu
from test_mechanisms import _menu_from_allocation_reference
from test_numerics import _bits, _golden_max_brackets


def _hull_reference(x, y):
    hull = [0]
    for i in range(1, x.size):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (x[b] - x[a]) * (y[i] - y[a]) - (y[b] - y[a]) * (x[i] - x[a])
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    slopes = np.empty(x.size - 1)
    for a, b in zip(hull[:-1], hull[1:]):
        slopes[a:b] = (y[b] - y[a]) / (x[b] - x[a])
    return hull, slopes


def _golden_maximizers(w, env):
    """Maximizers of the surplus w * x - c(x) on [0, x_max] by golden section
    and the boundary rules, and the golden-section steps taken."""
    x_max = float(env.x_max)

    def surplus(x):
        return w * x - np.asarray(env.cost(x))

    x_star, best, iters = _golden_max_brackets(surplus, np.zeros_like(w), np.full_like(w, x_max))
    f_hi = surplus(np.full_like(w, x_max))
    x_star = np.where(f_hi >= best, x_max, x_star)
    best = np.maximum(best, f_hi)
    f_lo = surplus(np.zeros_like(w))
    x_star = np.where(f_lo >= best, 0.0, x_star)
    return np.where(w <= 0.0, 0.0, x_star), iters


def _closed_form_maximizers(w, env):
    return _surplus_maximizers(w, env), 0


def _screening_reference(F, env, grid_size, maximizers=_closed_form_maximizers):
    table = ep.ironed_virtual_value(F, grid_size)
    w = _hull_reference(table.quantiles, table.cumulative)[1]
    x_star, iters = maximizers(w, env)
    x_star = np.maximum.accumulate(x_star)
    breaks, levels = [], []
    for t, x in zip(table.thetas[:-1], x_star):
        if not levels or x != levels[-1]:
            breaks.append(float(t))
            levels.append(float(x))
    menu = _menu_from_allocation_reference(ep.Allocation(tuple(breaks), tuple(levels)), env)
    return menu, ep.expected_profit(menu, F, env), iters


def _full_grid_price_reference(F, env, grid_size):
    """(menu, value, golden-section steps) of the price solve on a law with
    no enumeration: every candidate of the grid scored, then refined."""
    c_bar, x_max = float(env.cost.scale), float(env.x_max)

    def objective(rho):
        return x_max * (rho - c_bar) * (1.0 - F.cdf_left_array(rho))

    lo, hi = F.support
    cand = np.unique(np.concatenate([np.linspace(lo, hi, max(grid_size, 2)), F.special_points()]))
    rho, value, steps = argmax_refine(
        cand, objective(cand), lambda r: float(objective(np.asarray([r]))[0]), lo, hi, F.atoms()[0]
    )
    menu = ep.Menu(((x_max, rho * x_max),)) if posts_offer(rho, value) else ep.Menu.empty()
    return menu, ep.expected_profit(menu, F, env), steps


def _price_laws():
    sample = ep.Sample(substream(78, 40).beta(2.0, 3.0, 40))
    return {
        "uniform": ep.Uniform(0, 1),
        "uniform-0.2-0.9": ep.parse_distribution("uniform:0.2:0.9"),
        **{f"beta-{a}-{b}": ep.BetaCdf(a, b) for a, b in ((0.1, 0.1), (0.25, 0.25), (4, 4), (2, 5), (300, 2))},
        "beta-2-2-0.5-3": ep.parse_distribution("beta:2:2:0.5:3"),
        "pointmass": ep.PointMass(0.7),
        "mixture-atom": ep.Mixture(np.array([0.3, 0.7]), (ep.PointMass(0.4), ep.BetaCdf(2, 3))),
        "kernel": ep.kernel_cdf(sample, ep.KernelSpec(ep.KernelShape.EPANECHNIKOV), 0.05),
        "interp": ep.interp_ecdf(sample, 0.0),
    }


# (x_max, c_bar); c_bar = 3 is at or above every law's top type
_PRICE_ENVS = [(1.0, 0.0), (1.0, 0.2), (1.0, 3.0), (2.0, 0.2)]


def _interp_law(n):
    return ep.interp_ecdf(ep.Sample(substream(77, n).uniform(0.01, 1.0, n)), 0.0)


_REFERENCE_LAWS = {
    "beta-half": ep.BetaCdf(0.5, 0.5),
    "beta-2-5": ep.BetaCdf(2, 5),
    "beta-4-4": ep.BetaCdf(4, 4),
    **{f"interp-{n}": _interp_law(n) for n in (10, 120, 500, 2000)},
}


class TestOptimalUniformPrice:
    def test_enumeration_on_sample_points(self, linear_env):
        F = ep.ecdf(ep.Sample(np.array([0.3, 0.5, 0.9])))
        res = ep.optimal_uniform_price(F, linear_env)
        assert res.menu.items == ((1.0, 0.5),)
        assert res.optimal_value == 1.0 / 3.0
        assert res.method is ep.SolveMethod.UNIFORM_PRICE_ENUMERATION

    def test_uniform_continuous(self, linear_env):
        res = ep.optimal_uniform_price(ep.Uniform(0, 1), linear_env)
        (x, p), = res.menu.items
        assert p == pytest.approx(0.5, abs=1e-6)
        assert res.optimal_value == pytest.approx(0.25, abs=1e-9)

    def test_point_mass_full_extraction(self):
        env = ep.linear_unit_demand(0, 1, 1, 0.2)
        res = ep.optimal_uniform_price(ep.PointMass(0.7), env)
        assert res.menu.items == ((1.0, 0.7),)
        assert res.optimal_value == pytest.approx(0.5, abs=1e-12)

    def test_smallest_price_on_ties(self, linear_env):
        # both observations give profit 0.25: 0.25*1 < 0.5*... pick equal-profit pair
        F = ep.ecdf(ep.Sample(np.array([0.5, 1.0])))
        res = ep.optimal_uniform_price(F, linear_env)
        # 0.5 * 1 == 1.0 * 0.5 == 0.5: tie resolved at the smaller price
        assert res.menu.items == ((1.0, 0.5),)

    def test_wrong_kind_rejected(self):
        env = ep.separable_screening(cost=ep.PowerCost(0.5, 2.0))
        with pytest.raises(ep.UnsupportedPairError):
            ep.optimal_uniform_price(ep.Uniform(0, 1), env)

    def test_cost_above_support_yields_empty_menu(self):
        env = ep.linear_unit_demand(0, 1, 1, 2.0)
        res = ep.optimal_uniform_price(ep.ecdf(ep.Sample(np.array([0.2, 0.8]))), env)
        assert res.menu.items == ()
        assert res.optimal_value == 0.0

    def test_value_matches_expected_profit_invariant(self, linear_env):
        gen = np.random.default_rng(8)
        for _ in range(25):
            F = random_exact_cdf(gen)
            res = ep.optimal_uniform_price(F, linear_env)
            assert res.optimal_value == pytest.approx(
                ep.expected_profit(res.menu, F, linear_env), abs=1e-9
            )


class TestPrunedPriceScan:
    @pytest.mark.parametrize("x_max,c_bar", _PRICE_ENVS)
    @pytest.mark.parametrize("name", sorted(_price_laws()))
    def test_matches_full_grid_scan(self, name, x_max, c_bar):
        F = _price_laws()[name]
        env = ep.linear_unit_demand(0.0, 1.0, x_max, c_bar)
        # grid sizes at the edges of the 64- and 8-candidate strides
        for grid_size in (1, 2, 7, 8, 9, 63, 64, 65, 10_000):
            res = ep.optimal_uniform_price(F, env, grid_size)
            menu, value, steps = _full_grid_price_reference(F, env, grid_size)
            assert [tuple(map(_bits, item)) for item in res.menu.items] == [
                tuple(map(_bits, item)) for item in menu.items
            ]
            assert (_bits(res.optimal_value), res.refine_iterations) == (_bits(value), steps)
            assert res.method is ep.SolveMethod.UNIFORM_PRICE_GRID and res.grid_size == grid_size
            if c_bar >= F.support[1]:
                assert res.menu.items == ()

    @pytest.mark.parametrize("a,b", [(0.25, 0.25), (1.0, 1.0), (4.0, 4.0)])
    def test_scores_few_candidates(self, a, b, linear_env):
        # the laws of the regret benchmark, with Beta(1, 1) for the uniform:
        # the solve evaluates F at under a tenth of the 10^4 grid, so a scan
        # that fell back to the full grid fails here
        sizes = []

        class Counted(ep.BetaCdf):
            def cdf_array(self, theta):
                sizes.append(np.size(theta))
                return super().cdf_array(theta)

        res = ep.optimal_uniform_price(Counted(a, b), linear_env)
        assert 0 < sum(sizes) < 1000
        assert res == ep.optimal_uniform_price(ep.BetaCdf(a, b), linear_env)


class TestPriceCandidates:
    _LAWS = {
        "uniform": ep.Uniform(0, 1),
        "beta-4-4": ep.BetaCdf(4, 4),
        "beta-2-2-0.5-3": ep.BetaCdf(2, 2, 0.5, 3),
        "mixture-kinks": ep.Mixture(np.array([0.4, 0.6]), (ep.Uniform(0.1, 0.3), ep.Uniform(0.0, 1.0))),
        "mixture-kink-on-grid": ep.Mixture(np.array([0.5, 0.5]), (ep.Uniform(0.0, 0.5), ep.Uniform(0.0, 1.0))),
        "pointmass": ep.PointMass(0.7),
        "narrow": ep.Uniform(0.3, 0.3 + 1e-13),
        "negative-zero-bottom": ep.Uniform(-0.0, 1.0),
        "negative-zero-top": ep.Uniform(-1.0, -0.0),
        "mixture-zero-atom": ep.Mixture(np.array([0.5, 0.5]), (ep.PointMass(-0.0), ep.Uniform(-1.0, 1.0))),
    }

    @pytest.mark.parametrize("name", sorted(_LAWS))
    def test_match_np_unique_bit_for_bit(self, name):
        F = self._LAWS[name]
        for grid_size in (2, 3, 5, 64, 10_000):
            want = np.unique(np.concatenate([np.linspace(*F.support, grid_size), F.special_points()]))
            assert _bits(_price_candidates(F, grid_size)) == _bits(want)

    @pytest.mark.parametrize("name", ["uniform", "beta-4-4", "beta-2-2-0.5-3"])
    def test_grid_holding_every_special_point_is_not_sorted(self, name, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique ran")

        F = self._LAWS[name]
        want = np.linspace(*F.support, 10_000)
        monkeypatch.setattr(np, "unique", no_sort)
        got = _price_candidates(F, 10_000)
        monkeypatch.undo()
        assert _bits(got) == _bits(want)


class TestIroning:
    def test_hull_of_decreasing_pair(self):
        # knots (0,0), (1/2,1), (1,1): the chord of slope 1 is the minorant
        slopes = _minorant_slopes(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 1.0]))[1]
        assert np.allclose(slopes, [1.0, 1.0], atol=1e-15)

    def test_nondecreasing_input_unchanged(self):
        table = ep.ironed_virtual_value(ep.Uniform(0, 1), 64)
        assert np.allclose(table.psi_bar, table.psi, atol=1e-12)

    def test_constant_input_unchanged(self):
        q = np.linspace(0, 1, 9)
        slopes = _minorant_slopes(q, 0.7 * q)[1]
        assert np.allclose(slopes, 0.7, atol=1e-15)

    def test_minorant_below_with_equal_endpoints(self):
        gen = np.random.default_rng(13)
        for _ in range(20):
            F = ep.BetaCdf(float(gen.uniform(0.3, 4)), float(gen.uniform(0.3, 4)))
            table = ep.ironed_virtual_value(F, 200)
            idx = np.asarray(table.hull)
            ironed = np.interp(table.quantiles, table.quantiles[idx], table.cumulative[idx])
            assert np.all(ironed <= table.cumulative + 1e-12)
            assert ironed[0] == table.cumulative[0]
            assert ironed[-1] == table.cumulative[-1]
            assert np.all(np.diff(table.psi_bar) >= -1e-12)

    def test_step_distribution_rejected(self):
        with pytest.raises(ep.MissingDensityError):
            ep.ironed_virtual_value(ep.ecdf(ep.Sample(np.array([0.5]))), 10)

    @pytest.mark.parametrize("law", sorted(_REFERENCE_LAWS))
    def test_blocks_and_slopes_match_hull_reference(self, law):
        for G in (64, 500, 2000):
            table = ep.ironed_virtual_value(_REFERENCE_LAWS[law], G)
            hull, slopes = _hull_reference(table.quantiles, table.cumulative)
            assert table.hull == tuple(hull), G
            assert table.psi_bar.tobytes() == slopes.tobytes(), G

    def test_collinear_knots_close_to_hull_reference(self):
        # rounding in the knot slopes can make PAVA keep a collinear run split
        # where the hull merges it; the chords then agree to rounding only
        for G in (8, 64, 500, 2000):
            q = np.linspace(0.0, 1.0, G + 1)
            for y in (0.7 * q, -0.3 * q, q / 3.0, np.maximum(0.2 * q, 1.5 * q - 0.65)):
                assert np.allclose(_minorant_slopes(q, y)[1], _hull_reference(q, y)[1], rtol=0, atol=1e-13)


# the valuation is v = theta * x; the test ids name it
_U_X = pytest.mark.parametrize("cost", [ep.PowerCost(0.5, 2.0)], ids=["u=x"])


class TestScreeningSolver:
    @_U_X
    @pytest.mark.parametrize("law", sorted(_REFERENCE_LAWS))
    def test_matches_per_segment_reference(self, law, cost):
        F = _REFERENCE_LAWS[law]
        env = ep.separable_screening(cost=cost)
        for G in (64, 500, 2000):
            res = ep.optimal_screening_menu(F, env, G)
            menu, value, iters = _screening_reference(F, env, G)
            assert res.menu.items == menu.items, G
            assert res.optimal_value == value, G
            assert res.refine_iterations == iters, G

    @_U_X
    @pytest.mark.parametrize("law", [(0.5, 0.5), (2, 5), (4, 4)], ids=str)
    def test_brute_force_oracle(self, law, cost):
        # dynamic programme over nondecreasing allocations on 801 quantities:
        # maximize the unironed virtual surplus sum dq * (psi * x - c(x))
        # on the solver's 2000 quantile segments
        F = ep.BetaCdf(*law)
        env = ep.separable_screening(cost=cost)
        table = ep.ironed_virtual_value(F, 2000)
        xs = np.linspace(0.0, env.x_max, 801)
        c = cost(xs)
        best = np.zeros_like(xs)  # best surplus so far, ending at quantity xs[j]
        for psi, dq in zip(table.psi, np.diff(table.quantiles)):
            best = np.maximum.accumulate(best) + dq * (psi * xs - c)
        assert ep.optimal_screening_menu(F, env, 2000).optimal_value >= best.max() - 1e-6

    @pytest.mark.parametrize("law", ["beta:2:1e-8", "beta:2:5:0:1e-9"])
    def test_collapsed_quantile_grid_raises_named_error(self, law):
        # the grid's thresholds repeat where the law's quantile outruns float
        # resolution: a point mass near 1, or a support of width 1e-9
        F = ep.parse_distribution(law)
        with pytest.raises(ep.CollapsedGridError, match="collapses at float resolution"):
            ep.optimal_screening_menu(F, ep.separable_screening(cost=ep.PowerCost(0.5, 2.0)), 2000)

    def test_uniform_zero_cost_matches_uniform_pricing(self):
        env = ep.separable_screening(cost=ep.PowerCost(0.0, 1.0))
        res = ep.optimal_screening_menu(ep.Uniform(0, 1), env, 2000)
        assert res.menu.items == ((1.0, 0.5),)
        assert res.optimal_value == pytest.approx(0.25, abs=1e-12)

    def test_interior_first_order_condition(self):
        # v = theta * x, c = x^2 / 2: the ironed-surplus maximizer is clamp(psi_bar),
        # and psi_bar(theta) = 2 * theta - 1 for uniform types
        env = ep.separable_screening(cost=ep.PowerCost(0.5, 2.0))
        res = ep.optimal_screening_menu(ep.Uniform(0, 1), env, 2000)
        # recover allocation levels from the menu via choice
        th = 0.75
        got = ep.consumer_choice(res.menu, th, env).quantity
        assert got == pytest.approx(0.5, abs=2e-3)

    def test_uniform_quadratic_cost_oracle(self):
        # closed form: x(theta) = 2 * theta - 1 above 1/2, p(theta) = theta^2 - 1/4,
        # value int_{1/2}^{1} (theta^2 - 1/4 - (2 * theta - 1)^2 / 2) d theta = 1/12
        env = ep.separable_screening(cost=ep.PowerCost(0.5, 2.0))
        res = ep.optimal_screening_menu(ep.Uniform(0, 1), env, 2000)
        assert res.optimal_value == pytest.approx(1.0 / 12.0, abs=1e-4)

    def test_no_trade_below_ironed_zero(self):
        env = ep.separable_screening(cost=ep.PowerCost(0.5, 2.0))
        res = ep.optimal_screening_menu(ep.Uniform(0, 1), env, 2000)
        for th in (0.1, 0.3, 0.49):
            assert ep.consumer_choice(res.menu, th, env).quantity == 0.0

    def test_allocation_levels_satisfy_foc(self):
        env = ep.separable_screening(cost=ep.PowerCost(0.5, 2.0))
        G = 500
        table = ep.ironed_virtual_value(ep.Uniform(0, 1), G)
        res = ep.optimal_screening_menu(ep.Uniform(0, 1), env, G)
        mids = table.segment_thetas
        want = np.clip(table.psi_bar, 0.0, 1.0)
        got = np.array([ep.consumer_choice(res.menu, th, env).quantity for th in mids])
        # menu levels change on segment boundaries; compare away from them
        assert np.quantile(np.abs(got - want), 0.9) <= 5e-3

    def test_value_matches_expected_profit_invariant(self):
        env = ep.separable_screening(cost=ep.PowerCost(0.5, 2.0))
        res = ep.optimal_screening_menu(ep.BetaCdf(2, 2), env, 400)
        assert res.optimal_value == pytest.approx(
            ep.expected_profit(res.menu, ep.BetaCdf(2, 2), env), abs=1e-9
        )

    @_U_X
    def test_dominates_random_menus(self, cost):
        # laws with a positive density, as the screening solver requires
        env = ep.separable_screening(cost=cost)
        gen = np.random.default_rng(11)
        for _ in range(10):
            if gen.integers(0, 2):
                a = float(gen.uniform(0.0, 0.4))
                F = ep.Uniform(a, float(gen.uniform(a + 0.2, 1.0)))
            else:
                F = ep.BetaCdf(float(gen.uniform(0.5, 5.0)), float(gen.uniform(0.5, 5.0)))
            top = ep.optimal_profit(F, env).optimal_value
            for _ in range(100):
                menu = random_menu(gen)
                assert top >= ep.expected_profit(menu, F, env) - 1e-6

    def test_non_separable_valuation_rejected(self):
        # v = theta^2 x is not theta * x; solving it anyway priced below
        # the empty menu (value -0.0192 at G = 200), so no such environment
        # can be built to hand to the solver
        with pytest.raises(ep.InvalidEnvironmentError, match="valuation_separable"):
            ep.Environment(
                types=ep.TypeSpace(0.0, 1.0), x_max=1.0,
                valuation=lambda th, x: np.asarray(th) ** 2 * np.asarray(x),
                cost=ep.PowerCost(0.5, 2.0),
            )


class TestClosedFormScreening:
    """The screening solver takes the surplus maximizer in closed form; golden
    section on the same surplus, the solve before it, is the reference."""

    @pytest.mark.parametrize("power", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("law", ["uniform", "beta-2-5", "interp-120"])
    def test_matches_golden_section(self, law, power):
        F = {"uniform": ep.Uniform(0, 1), "beta-2-5": ep.BetaCdf(2, 5), "interp-120": _interp_law(120)}[law]
        w = np.unique(ep.ironed_virtual_value(F, 500).psi_bar)
        for scale in (0.0, 0.2, 0.5):
            for x_max in (0.3, 1.0, 2.0):
                closed = ep.separable_screening(cost=ep.PowerCost(scale, power), x_max=x_max)
                got = ep.optimal_screening_menu(F, closed, 500)
                want, want_value, iters = _screening_reference(F, closed, 500, _golden_maximizers)
                assert got.refine_iterations == 0 and iters > 0
                if scale == 0.0 or power == 1.0:
                    # a linear surplus: the boundary rules decide both paths
                    assert got.menu.items == want.items
                    assert got.optimal_value == want_value
                    continue
                # on a flat surplus golden section resolves x only to about
                # sqrt(eps * |f| / f''), 4.4e-8 at worst here (p = 1.5, x_max = 2);
                # where the maximizer is x_max itself it can stop that far below
                # it and keep one spurious level (uniform, a = 0.5, p = 1.5)
                near_top = [item for item in want.items if x_max - 1e-7 < item[0] < x_max]
                assert len(near_top) <= 1
                kept = [item for item in want.items if item not in near_top]
                assert len(got.menu.items) == len(kept)
                assert np.max(np.abs(np.subtract(got.menu.items, kept))) <= 1e-7
                # per distinct ironed value, the closed form scores at least
                # what golden section finds
                x_closed, x_golden = _surplus_maximizers(w, closed), _golden_maximizers(w, closed)[0]
                gain = (w * x_closed - closed.cost(x_closed)) - (w * x_golden - closed.cost(x_golden))
                assert gain.min() >= -1e-15

    def test_power_cost_keeps_the_bits_of_the_expression(self):
        x = np.linspace(0.0, 2.0, 1001)
        for scale in (0.0, 0.2, 0.5, 1.7):
            for power in (1.0, 1.5, 2.0, 3.0, 4.25):
                cost = ep.PowerCost(scale, power)
                assert np.array_equal(cost(x), scale * np.asarray(x) ** power)
                assert cost(0.7) == scale * np.asarray(0.7) ** power


class TestDispatch:
    def test_empirical_step_linear(self, linear_env):
        F = ep.ecdf(ep.Sample(np.array([0.3, 0.5, 0.9])))
        assert ep.optimal_profit(F, linear_env) == ep.optimal_uniform_price(F, linear_env)

    def test_uniform_value(self, linear_env):
        assert ep.optimal_profit(ep.Uniform(0, 1), linear_env).optimal_value == pytest.approx(0.25, abs=1e-9)

    def test_point_mass_value(self, linear_env):
        assert ep.optimal_profit(ep.PointMass(0.7), linear_env).optimal_value == pytest.approx(0.7, abs=1e-12)

    def test_nonpositive_grid_size_rejected(self, linear_env):
        screening_env = ep.separable_screening(cost=ep.PowerCost(0.5, 2.0))
        for env in (linear_env, screening_env):
            with pytest.raises(ValueError, match="grid_size"):
                ep.optimal_profit(ep.Uniform(0, 1), env, 0)

    def test_unsupported_pair_names_supported_ones(self):
        env = ep.separable_screening(cost=ep.PowerCost(0.5, 2.0))
        F = ep.ecdf(ep.Sample(np.array([0.5])))
        with pytest.raises(ep.UnsupportedPairError, match="a linear cost \\(power 1\\) accepts any distribution"):
            ep.optimal_profit(F, env)

    @pytest.mark.parametrize("law", ["ecdf", "beta-2-5", "interp", "pointmass"])
    def test_power_one_posts_the_linear_price(self, law):
        # the cost picks the solver: PowerCost(c, 1) built either way posts
        # the price solver's offer, on any law, the ECDF included
        sample = ep.Sample(substream(79, 60).beta(2.0, 5.0, 60))
        F = {"ecdf": ep.ecdf(sample), "beta-2-5": ep.BetaCdf(2, 5), "interp": ep.interp_ecdf(sample, 0.0),
             "pointmass": ep.PointMass(0.7)}[law]
        linear = ep.linear_unit_demand(0.0, 1.0, 1.0, 0.2)
        power_one = ep.separable_screening(ep.PowerCost(0.2, 1.0))
        assert linear == power_one
        got = ep.optimal_profit(F, power_one)
        assert got == ep.optimal_profit(F, linear) == ep.optimal_uniform_price(F, linear)
        assert got.method is not ep.SolveMethod.SCREENING_IRONED

    def test_grid_accurate_screening_price_is_gone(self):
        # p = 1 ran the ironing grid and posted 0.364252 on Beta(2, 5) with
        # c = 0.2; the price solver's 0.364170 earns more
        env = ep.separable_screening(ep.PowerCost(0.2, 1.0))
        exact = ep.optimal_profit(ep.BetaCdf(2, 5), env)
        ironed = ep.optimal_screening_menu(ep.BetaCdf(2, 5), env)
        assert exact.menu.items[0][1] == pytest.approx(0.364170, abs=1e-6)
        assert exact.optimal_value > ironed.optimal_value


class TestValueFunctionProperties:
    def test_lipschitz_smoke(self, linear_env):
        gen = np.random.default_rng(9)
        L = ep.lipschitz_constant(linear_env)
        for _ in range(100):
            F, G = random_exact_cdf(gen), random_exact_cdf(gen)
            gap = abs(
                ep.optimal_profit(F, linear_env).optimal_value
                - ep.optimal_profit(G, linear_env).optimal_value
            )
            assert gap <= L * ep.sup_distance(F, G) + 1e-6

    def test_dominates_random_menus(self, linear_env):
        gen = np.random.default_rng(10)
        for _ in range(10):
            F = random_exact_cdf(gen)
            top = ep.optimal_profit(F, linear_env).optimal_value
            for _ in range(100):
                menu = random_menu(gen)
                assert top >= ep.expected_profit(menu, F, linear_env) - 1e-6

    def test_asymptotic_optimality_median_regret(self, linear_env):
        laws = {
            "beta-quarter": ep.BetaCdf(0.25, 0.25),
            "uniform": ep.Uniform(0, 1),
            "beta-4-4": ep.BetaCdf(4, 4),
        }
        sizes = (10, 100, 1000, 10_000)
        runs = 200
        for law_idx, (name, F0) in enumerate(laws.items()):
            top = ep.optimal_profit(F0, linear_env).optimal_value
            medians = []
            for n in sizes:
                u = np.empty((runs, n))
                for r in range(runs):
                    u[r] = substream(1234, law_idx, n, r).random(n)
                thetas = np.sort(F0.quantile_array(u.reshape(-1)).reshape(runs, n), axis=1)
                regrets = np.empty(runs)
                for r in range(runs):
                    menu = ep.optimal_profit(ep.ecdf(ep.Sample(thetas[r])), linear_env).menu
                    regrets[r] = top - ep.expected_profit(menu, F0, linear_env)
                medians.append(float(np.median(regrets)))
            assert all(a > b for a, b in zip(medians, medians[1:])), (name, medians)
            assert medians[-1] < 0.01, (name, medians)
