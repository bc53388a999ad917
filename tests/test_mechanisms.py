import dataclasses

import numpy as np
import pytest

import emprice as ep
from emprice.mechanisms import _choice_ladder, one_offer_profits, per_consumer_profit

from conftest import random_exact_cdf, random_menu


class TestConsumerChoice:
    def test_buying_dominates(self, linear_env):
        out = ep.consumer_choice(ep.Menu(((1.0, 0.4),)), 0.7, linear_env)
        assert (out.quantity, out.price) == (1.0, 0.4)
        assert out.utility == pytest.approx(0.3, abs=1e-12)

    def test_indifference_resolved_for_the_firm(self, linear_env):
        out = ep.consumer_choice(ep.Menu(((1.0, 0.4),)), 0.4, linear_env)
        assert (out.quantity, out.price) == (1.0, 0.4)
        assert out.utility == 0.0

    def test_individual_rationality_binds(self, linear_env):
        out = ep.consumer_choice(ep.Menu(((1.0, 0.4),)), 0.3, linear_env)
        assert (out.quantity, out.price) == (0.0, 0.0)

    def test_profit_tie_broken_by_lowest_quantity(self):
        env = ep.linear_unit_demand(0.0, 1.0, 1.0, 0.4)
        out = ep.consumer_choice(ep.Menu(((1.0, 0.4),)), 0.4, env)
        assert out.quantity == 0.0  # both sides yield zero profit


class TestExpectedProfit:
    def test_uniform_price_against_uniform(self, linear_env):
        menu = ep.Menu(((1.0, 0.5),))
        assert ep.expected_profit(menu, ep.Uniform(0, 1), linear_env) == pytest.approx(0.25, abs=1e-12)

    def test_empirical_average(self, linear_env):
        menu = ep.Menu(((1.0, 0.5),))
        F = ep.ecdf(ep.Sample(np.array([0.3, 0.7])))
        assert ep.expected_profit(menu, F, linear_env) == 0.25

    def test_outside_option_only(self, linear_env):
        assert ep.expected_profit(ep.Menu.empty(), ep.Uniform(0, 1), linear_env) == 0.0

    def test_atom_at_threshold_goes_to_the_firm(self, linear_env):
        menu = ep.Menu(((1.0, 0.5),))
        mix = ep.Mixture(np.array([0.5, 0.5]), (ep.PointMass(0.5), ep.Uniform(0, 1)))
        # atom of 1/2 at the indifference type buys; continuous part adds 1/2 * 1/2
        want = 0.5 * 0.5 + 0.5 * 0.25
        assert ep.expected_profit(menu, mix, linear_env) == pytest.approx(want, abs=1e-12)

    def test_quantity_beyond_x_max_rejected(self, linear_env):
        with pytest.raises(ep.InvalidMenuError):
            ep.expected_profit(ep.Menu(((1.5, 0.5),)), ep.Uniform(0, 1), linear_env)

    def test_matches_per_consumer_average_on_samples(self, linear_env):
        gen = np.random.default_rng(5)
        for _ in range(20):
            menu = random_menu(gen)
            s = ep.Sample(gen.uniform(0, 1, size=30))
            direct = per_consumer_profit(menu, s.values, linear_env).mean()
            assert ep.expected_profit(menu, ep.ecdf(s), linear_env) == pytest.approx(direct, abs=1e-15)

    def test_brute_force_choice_agreement_continuous(self, linear_env):
        # region-mass integration vs direct choice at a fine midpoint grid
        gen = np.random.default_rng(12)
        grid = np.linspace(0.0005, 0.9995, 1000)
        for _ in range(10):
            menu = random_menu(gen)
            w = per_consumer_profit(menu, grid, linear_env)
            approx = w.mean()  # Riemann approximation of the uniform integral
            exact = ep.expected_profit(menu, ep.Uniform(0, 1), linear_env)
            assert exact == pytest.approx(approx, abs=2e-3)


_THRESH_TOL = 1e-12


def _reference_crossing(env, x_lo, p_lo, x_hi, p_hi):
    """Threshold search before the closed form: scalar bisection on the
    utility gap to 1e-12 (closed form only for the linear kind)."""
    lo, hi = env.types.lower, env.types.upper
    if env.kind is ep.MarketKind.LINEAR_UNIT_DEMAND:
        t = (p_hi - p_lo) / (x_hi - x_lo)
        if t > hi:
            return None
        return max(t, lo)

    def gap(th):
        return float(np.asarray(env.valuation(th, x_hi)) - np.asarray(env.valuation(th, x_lo))) - (p_hi - p_lo)

    if gap(hi) < 0.0:
        return None
    if gap(lo) >= 0.0:
        return lo
    a, b = lo, hi
    while b - a > _THRESH_TOL:
        m = 0.5 * (a + b)
        if gap(m) >= 0.0:
            b = m
        else:
            a = m
    return b


def _reference_ladder(menu, env):
    best_by_x = {}
    for x, p in menu.items:
        if x > 0.0 and (x not in best_by_x or p < best_by_x[x]):
            best_by_x[x] = p
    ladder, thresholds = [(0.0, 0.0)], []
    for x in sorted(best_by_x):
        p = best_by_x[x]
        while True:
            t = _reference_crossing(env, ladder[-1][0], ladder[-1][1], x, p)
            if t is None:
                break
            prev_t = thresholds[-1] if thresholds else env.types.lower
            if len(ladder) > 1 and t <= prev_t:
                ladder.pop()
                thresholds.pop()
                continue
            ladder.append((x, p))
            thresholds.append(t)
            break
    return ladder, thresholds


_ENVS = pytest.mark.parametrize(
    "env",
    [
        ep.linear_unit_demand(0.0, 1.0, 1.0, 0.0),
        ep.linear_unit_demand(0.2, 1.5, 2.0, 0.3),
        ep.separable_screening(ep.PowerCost(0.5, 2.0), 0.1, 1.2, 1.0),
    ],
    ids=["linear", "linear-cost-shifted", "screening"],
)


def _reference_total(menu, F, env):
    """Expected profit as a scalar loop over the choice ladder: the interval
    terms, then the atom terms, added one at a time onto 0.0."""
    ladder, thresholds = _choice_ladder(menu, env)
    if not thresholds:
        return 0.0
    margins = [p - float(np.asarray(env.cost(x))) for x, p in ladder]
    t = np.asarray(thresholds)
    right = F.cdf_array(t)
    left = F.cdf_left_array(t)
    total = 0.0
    for k in range(1, len(ladder)):
        upper = left[k] if k < len(thresholds) else 1.0
        total += margins[k] * (upper - right[k - 1])
    for k in range(len(thresholds)):
        mass = right[k] - left[k]
        if mass > 0.0:
            total += mass * max(margins[k], margins[k + 1])
    return total


def _reference_per_consumer(menu, thetas, env):
    """Per-type profit with the firm-side tie rule as a loop over edge types."""
    ladder, thresholds = _choice_ladder(menu, env)
    margins = np.asarray([p - float(np.asarray(env.cost(x))) for x, p in ladder])
    if not thresholds:
        return np.zeros(thetas.shape)
    tarr = np.asarray(thresholds)
    idx = np.searchsorted(tarr, thetas, side="right")
    for i in np.nonzero(np.isin(thetas, tarr))[0]:
        k = int(idx[i])
        if k >= 1 and margins[k - 1] >= margins[k]:
            idx[i] = k - 1
    return margins[idx]


def _ladder_menu(gen, env, max_levels=8):
    """Menu of up to `max_levels` items, every one of them chosen by some type."""
    k = int(gen.integers(1, max_levels + 1))
    bps = np.unique(gen.uniform(env.types.lower, env.types.upper, size=k))
    qs = np.sort(gen.uniform(0.05, env.x_max, size=bps.size))
    return ep.menu_from_allocation(ep.Allocation(tuple(bps), tuple(qs)), env)


def _same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


class TestRegionProfits:
    """The array routine behind `expected_profit` and `per_consumer_profit`
    gives the scalar ladder loop's bits, atoms on thresholds included."""

    @_ENVS
    def test_expected_profit_matches_ladder_loop(self, env):
        gen = np.random.default_rng(41)
        for i in range(400):
            menu = random_menu(gen, max_items=8) if i % 2 else _ladder_menu(gen, env)
            _, thresholds = _choice_ladder(menu, env)
            laws = [random_exact_cdf(gen), ep.Uniform(env.types.lower, env.types.upper)]
            if thresholds:
                t = thresholds[int(gen.integers(len(thresholds)))]
                laws.append(ep.Mixture(np.array([0.4, 0.6]), (ep.PointMass(t), random_exact_cdf(gen))))
            for F in laws:
                if isinstance(F, ep.EmpiricalStep):
                    continue  # averaged over the observations instead
                assert _same_bits(ep.expected_profit(menu, F, env), _reference_total(menu, F, env))

    @_ENVS
    def test_per_consumer_matches_edge_loop(self, env):
        gen = np.random.default_rng(43)
        for i in range(200):
            menu = random_menu(gen, max_items=8) if i % 2 else _ladder_menu(gen, env)
            _, thresholds = _choice_ladder(menu, env)
            thetas = np.concatenate([gen.uniform(env.types.lower, env.types.upper, 20), thresholds])
            got = per_consumer_profit(menu, thetas, env)
            assert _same_bits(got, _reference_per_consumer(menu, thetas, env))


class TestOneOfferProfits:
    """The vectorized one-offer routine must equal `expected_profit` on the
    one-item menu and on a ladder with a dominated duplicate item (the ladder
    keeps the cheaper item of each quantity)."""

    @_ENVS
    def test_matches_ladder(self, env):
        gen = np.random.default_rng(17)
        laws = [ep.Uniform(0, 1), ep.BetaCdf(0.25, 0.25), ep.PointMass(0.7),
                ep.Mixture(np.array([0.5, 0.5]), (ep.PointMass(0.2), ep.BetaCdf(2, 5))),
                # mass above the type space, where nobody is counted as buying
                ep.Uniform(0, 2)]
        laws += [random_exact_cdf(gen) for _ in range(6)]
        x_max = float(env.x_max)
        for F in laws:
            for x in (x_max, 0.5 * x_max, 0.0):
                # thresholds below, at and above the type space, and on atoms
                prices = np.concatenate([gen.uniform(0.01, 2.5, 12), [0.05, 5.0], np.array([0.2, 0.7, 1.5]) * x])
                prices = prices[prices > 0.0]
                got = one_offer_profits(x, prices, F, env)
                for p, profit in zip(prices, got):
                    ladder = ep.expected_profit(ep.Menu(((x, p), (x, p + 1.0))), F, env)
                    one = ep.expected_profit(ep.Menu(((x, p),)), F, env)
                    # bit for bit: a zero profit is +0.0 on every path
                    assert np.float64(one).tobytes() == np.float64(profit).tobytes() == np.float64(ladder).tobytes()

    def test_quantity_beyond_x_max_rejected(self, linear_env):
        with pytest.raises(ep.InvalidMenuError):
            one_offer_profits(1.5, np.array([0.5]), ep.Uniform(0, 1), linear_env)


class TestChoiceLadder:
    @pytest.mark.parametrize("theta_min,theta_max", [(0.0, 1.0), (0.2, 2.0)], ids=["x-unit", "x-wide"])
    def test_closed_form_matches_bisection(self, theta_min, theta_max):
        env = ep.separable_screening(cost=ep.PowerCost(0.5, 2.0), theta_min=theta_min, theta_max=theta_max)
        gen = np.random.default_rng(31)
        for _ in range(3000):
            menu = random_menu(gen, max_items=8)
            items, thresholds = _choice_ladder(menu, env)
            ref_items, ref_thresholds = _reference_ladder(menu, env)
            assert items == ref_items
            assert np.all(np.abs(np.subtract(thresholds, ref_thresholds)) <= _THRESH_TOL + 1e-15)

    @pytest.mark.parametrize("theta_min,theta_max", [(0.0, 1.0), (0.2, 2.0)])
    def test_linear_kind_bit_identical(self, theta_min, theta_max):
        env = ep.linear_unit_demand(theta_min, theta_max, 1.0, 0.1)
        gen = np.random.default_rng(32)
        for _ in range(3000):
            menu = random_menu(gen, max_items=8)
            assert _choice_ladder(menu, env) == _reference_ladder(menu, env)


class TestMenuValidation:
    def test_free_positive_quantity_rejected(self):
        with pytest.raises(ep.InvalidMenuError):
            ep.Menu(((0.5, 0.0),))

    def test_outside_option_dropped_and_items_sorted(self):
        m = ep.Menu(((0.0, 0.0), (0.8, 0.6), (0.4, 0.3)))
        assert m.items == ((0.4, 0.3), (0.8, 0.6))

    def test_negative_price_rejected(self):
        with pytest.raises(ep.InvalidMenuError):
            ep.Menu(((0.5, -0.1),))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinate_rejected(self, bad):
        for item in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ep.InvalidMenuError, match="outside quantity/price domain"):
                ep.Menu(((0.2, 0.1), item))

    def test_numpy_and_int_coordinates_give_float_items(self):
        want = ep.Menu(((0.5, 0.25), (1.0, 1.0), (2.0, 3.0))).items
        got = ep.Menu(((np.float64(0.5), np.float64(0.25)), (1, 1), (np.int64(2), 3))).items
        assert got == want
        assert all(type(c) is float for item in got for c in item)


class TestMenuFromAllocation:
    def test_unit_demand_indicator(self, linear_env):
        menu = ep.menu_from_allocation(ep.Allocation((0.4,), (1.0,)), linear_env)
        assert menu.items == ((1.0, 0.4),)

    def test_zero_allocation(self, linear_env):
        menu = ep.menu_from_allocation(ep.Allocation((0.4,), (0.0,)), linear_env)
        assert menu.items == ()

    def test_two_step_envelope_prices(self, linear_env):
        menu = ep.menu_from_allocation(ep.Allocation((0.4, 0.8), (0.5, 1.0)), linear_env)
        assert len(menu.items) == 2
        (x1, p1), (x2, p2) = menu.items
        assert (x1, x2) == (0.5, 1.0)
        assert p1 == pytest.approx(0.2, abs=1e-12)
        assert p2 == pytest.approx(0.6, abs=1e-12)

    def test_decreasing_allocation_rejected(self):
        nan, inf = float("nan"), float("inf")
        for breakpoints, quantities in [
            ((0.2, 0.6), (0.8, 0.5)),
            ((0.1, 0.2), (nan, 1.0)),
            ((0.1, 0.2), (0.5, nan)),
            ((0.1, 0.2), (0.5, inf)),
            ((nan, 0.2), (0.5, 1.0)),
            ((0.1, nan), (0.5, 1.0)),
            ((0.1, inf), (0.5, 1.0)),
        ]:
            with pytest.raises(ValueError):
                ep.Allocation(breakpoints, quantities)

    def test_round_trip_recovers_allocation(self, linear_env):
        gen = np.random.default_rng(21)
        for _ in range(25):
            k = int(gen.integers(1, 5))
            bps = np.sort(gen.uniform(0.05, 0.95, size=k))
            bps = np.unique(bps)
            qs = np.sort(gen.uniform(0.05, 1.0, size=bps.size))
            alloc = ep.Allocation(tuple(bps), tuple(qs))
            menu = ep.menu_from_allocation(alloc, linear_env)
            for th in np.linspace(0.001, 0.999, 97):
                if np.any(np.abs(bps - th) < 1e-6):
                    continue
                want = 0.0
                for b, q in zip(bps, qs):
                    if th >= b:
                        want = q
                got = ep.consumer_choice(menu, th, linear_env).quantity
                assert got == pytest.approx(want, abs=1e-9)

    def test_round_trip_screening_kind(self):
        env = ep.separable_screening(cost=ep.PowerCost(0.25, 2.0))
        alloc = ep.Allocation((0.3, 0.7), (0.25, 1.0))
        menu = ep.menu_from_allocation(alloc, env)
        for th in (0.1, 0.45, 0.6, 0.8, 0.95):
            want = 0.0 if th < 0.3 else (0.25 if th < 0.7 else 1.0)
            assert ep.consumer_choice(menu, th, env).quantity == pytest.approx(want, abs=1e-9)


def _menu_from_allocation_reference(allocation, env):
    """The envelope prices as a scalar loop: merge equal levels, drop zero
    ones, then three valuation calls and one running-rent update per level."""
    merged = []
    for b, q in zip(allocation.breakpoints, allocation.quantities):
        if merged and q == merged[-1][1]:
            continue
        merged.append((b, q))
    merged = [(b, q) for b, q in merged if q > 0.0]
    if not merged:
        return ep.Menu.empty()

    def v(th, x):
        return float(np.asarray(env.valuation(th, x)))

    items = []
    rent = 0.0
    for k, (b, q) in enumerate(merged):
        items.append((q, v(b, q) - rent))
        upper = merged[k + 1][0] if k + 1 < len(merged) else env.types.upper
        rent += v(upper, q) - v(b, q)
    return ep.Menu(tuple(items))


def _random_allocation(gen, env):
    """Up to 12 levels drawn with repetition from {0, x_max} and three random
    quantities, so zero, leading-zero and repeated levels all occur; a third
    of them start at theta_min."""
    bps = np.unique(gen.uniform(env.types.lower, env.types.upper, size=int(gen.integers(0, 13))))
    if bps.size and gen.random() < 1 / 3:
        bps[0] = env.types.lower
    pool = np.concatenate([[0.0, env.x_max], gen.uniform(0.0, env.x_max, size=3)])
    return ep.Allocation(tuple(bps), tuple(np.sort(gen.choice(pool, size=bps.size))))


def _menu_or_error(build, allocation, env):
    try:
        return build(allocation, env).items
    except ep.InvalidMenuError as exc:
        return str(exc)


class TestMenuFromAllocationParity:
    """The array pricing gives the scalar loop's bits, level for level."""

    @pytest.mark.parametrize(
        "env",
        [
            ep.separable_screening(ep.PowerCost(0.5, 2.0)),
            ep.separable_screening(ep.PowerCost(0.5, 2.0), 0.2, 2.0, 1.5),
            ep.linear_unit_demand(0.2, 1.5, 2.0, 0.3),
        ],
        ids=["screening-identity", "screening-wide", "linear"],
    )
    def test_matches_loop_bit_for_bit(self, env):
        gen = np.random.default_rng(61)
        seen = set()
        for _ in range(3000):
            alloc = _random_allocation(gen, env)
            q = np.asarray(alloc.quantities)
            seen.update(
                kind
                for kind, hit in (
                    ("empty", q.size == 0),
                    ("leading-zero", q.size > 1 and q[0] == 0.0 < q[-1]),
                    ("repeated", np.any((q[1:] == q[:-1]) & (q[1:] > 0.0))),
                )
                if hit
            )
            got = _menu_or_error(ep.menu_from_allocation, alloc, env)
            want = _menu_or_error(_menu_from_allocation_reference, alloc, env)
            if isinstance(want, str):
                assert got == want
            else:
                assert isinstance(got, tuple) and _same_bits(got, want)
        assert seen == {"empty", "leading-zero", "repeated"}

    def test_two_valuation_calls_per_menu(self):
        calls = []
        base = ep.separable_screening(ep.PowerCost(0.5, 2.0))

        def valuation(th, x):
            calls.append(np.shape(x))
            return base.valuation(th, x)

        env = dataclasses.replace(base, valuation=valuation)
        # building env checked it once
        calls.clear()
        alloc = ep.Allocation(tuple(np.linspace(0.0, 0.9, 41)), tuple(np.linspace(0.0, 1.0, 41)))
        menu = ep.menu_from_allocation(alloc, env)
        assert len(menu.items) == 40
        assert calls == [(40,), (40,)]


class TestIncentiveProperties:
    def test_ic_and_ir_exhaustive(self, linear_env):
        gen = np.random.default_rng(3)
        grid = np.linspace(0, 1, 101)
        for _ in range(30):
            menu = random_menu(gen)
            for th in grid:
                out = ep.consumer_choice(menu, th, linear_env)
                assert out.utility >= -1e-12  # IR
                for x, p in menu.items:
                    alt = th * x - p
                    assert out.utility >= alt - 1e-12  # IC

    def test_monotone_choice(self, linear_env):
        gen = np.random.default_rng(4)
        grid = np.linspace(0, 1, 201)
        for _ in range(30):
            menu = random_menu(gen)
            qs = [ep.consumer_choice(menu, th, linear_env).quantity for th in grid]
            assert np.all(np.diff(qs) >= -1e-15)

    def test_profit_lipschitz_in_distribution(self, linear_env):
        # module-level smoke; the full 1000-triple suite runs in acceptance
        gen = np.random.default_rng(6)
        L = ep.lipschitz_constant(linear_env)
        for _ in range(200):
            menu = random_menu(gen)
            F, G = random_exact_cdf(gen), random_exact_cdf(gen)
            gap = abs(
                ep.expected_profit(menu, F, linear_env) - ep.expected_profit(menu, G, linear_env)
            )
            assert gap <= L * ep.sup_distance(F, G) + 1e-9


class TestMenuJson:
    def test_round_trip(self, tmp_path):
        menu = ep.Menu(((0.5, 0.2), (1.0, 1.0 / 3.0)))
        path = tmp_path / "menu.json"
        ep.write_menu(path, menu)
        assert ep.read_menu(path) == menu

    def test_dict_schema(self):
        d = ep.menu_to_dict(ep.Menu(((1.0, 0.5),)))
        assert d == {"items": [{"x": 1.0, "p": 0.5}]}

    def test_malformed_payload(self):
        with pytest.raises(ep.InvalidMenuError):
            ep.menu_from_dict({"entries": []})
