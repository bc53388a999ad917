"""Auction: the second-order CDF, revenue, the reserve solvers and guarantees.

`_grid_reserve_reference` is the grid-then-refine reserve search that ran on
piecewise-linear laws before the exact per-segment solve; the exact reserve
must score at least as well as it and as every point of its grid.
"""

import math
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import emprice as ep
import emprice.auction
from emprice.auction import (
    ProfitMode,
    SecondOrderCdf,
    _exact_reserve,
    _gauss_legendre,
    _gl_integral_segments,
    _gl_order,
    _phi,
    _segment_integrals,
)
from emprice.numerics import argmax_refine

from conftest import random_exact_cdf

# float64 rounding of a revenue value near 1 that sums up to 2e4 segments
ROUNDING = 2e-15


def _compensated_suffix_sums(x):
    """Neumaier-compensated sums of x[k:] for every k, and 0 past the end."""
    out = np.zeros(x.size + 1)
    total = comp = 0.0
    for k in range(x.size - 1, -1, -1):
        term = float(x[k])
        new = total + term
        comp += (total - new) + term if abs(total) >= abs(term) else (term - new) + total
        total = new
        out[k] = total + comp
    return out


def _grid_reserve_reference(setting, grid_size=10_000):
    """The grid-then-refine reserve search: (reserve, value, revenue on the
    grid). The search keeps its plain cumulative sums; the returned grid
    revenue uses compensated ones, so its rounding does not grow with n."""
    F, m, c = setting.cdf, setting.bidders, setting.seller_value
    lo, hi = F.support
    grid = np.unique(np.concatenate([np.linspace(lo, hi, grid_size + 1), F.special_points()]))
    seg = _gl_integral_segments(SecondOrderCdf(F, m).cdf_array, grid[:-1], grid[1:], _gl_order(m))
    y = F.cdf_array(grid)

    def revenue(above):
        return grid * m * y ** (m - 1) * (1.0 - y) + (hi - grid * _phi(y, m) - above) - c * (1.0 - y**m)

    vals = revenue(np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]]))
    r, _, _ = argmax_refine(grid, vals, lambda r: ep.auction_profit(r, setting), lo, hi)
    return r, ep.auction_profit(r, setting), revenue(_compensated_suffix_sums(seg))


def _random_flat_law(gen, segments, widen):
    """Piecewise-linear law with `segments` knot segments on a random support,
    F = 0 on a leading run of knots, F = 1 on a trailing run, and interior
    plateaus where a knot repeats its predecessor's level. `widen` is added
    to every knot from the last one with F = 0 on: the F = 0 run gets longer
    (the whole law moves right when the run is one knot), which puts the
    optimum on it for many (M, c)."""
    lo = float(gen.uniform(0.0, 0.3))
    thetas = np.unique(np.concatenate([[lo], lo + np.sort(gen.uniform(0.05, 1.2, segments))]))
    k = thetas.size
    probs = np.sort(gen.uniform(0.0, 1.0, k))
    idx = np.arange(k)
    probs = probs[np.maximum.accumulate(np.where(gen.random(k) < 0.2, 0, idx))]
    zeros = int(gen.integers(1, max(2, k // 4)))
    probs[:zeros] = 0.0
    probs[k - int(gen.integers(1, max(2, k // 4))):] = 1.0
    thetas = thetas + np.where(idx >= zeros - 1, widen, 0.0)
    return ep.PiecewiseLinear(thetas, probs)


def _exact_revenue(F, m, c, r):
    """Revenue at reserve r in rational arithmetic, from its definition:
    r P(exactly one value >= r) + E[Y2; Y2 >= r] - c P(some value >= r), with
    Y2 the second-highest value. On a knot segment theta = a + b y is linear
    in y = F(theta), and dF_(2;M) = M (M-1) y^(M-2) (1 - y) dy, so each
    segment's share of E[Y2; Y2 >= r] has a closed form in y."""
    t = [Fraction(v) for v in F.thetas.tolist()]
    p = [Fraction(v) for v in F.probs.tolist()]
    r, c = Fraction(r), Fraction(c)

    def moment(a, b, y):
        # antiderivative in y of (a + b y) M (M-1) (y^(M-2) - y^(M-1))
        return m * (m - 1) * (a * (y ** (m - 1) / (m - 1) - y**m / m)
                              + b * (y**m / m - y ** (m + 1) / (m + 1)))

    y_r = Fraction(0) if r <= t[0] else Fraction(1)
    for k in range(len(t) - 1):
        if t[k] <= r <= t[k + 1]:
            y_r = p[k] + (r - t[k]) * (p[k + 1] - p[k]) / (t[k + 1] - t[k])
            break
    second = Fraction(0)
    for k in range(len(t) - 1):
        if t[k + 1] > r and p[k + 1] > p[k]:
            b = (t[k + 1] - t[k]) / (p[k + 1] - p[k])
            a = t[k] - b * p[k]
            second += moment(a, b, p[k + 1]) - moment(a, b, y_r if t[k] < r else p[k])
    return r * m * y_r ** (m - 1) * (1 - y_r) + second - c * (1 - y_r**m)


class TestSecondOrderCdf:
    def test_uniform_two_bidders(self):
        assert SecondOrderCdf(ep.Uniform(0, 1), 2).cdf(0.5) == 0.75

    def test_endpoints(self):
        F = ep.BetaCdf(2, 3)
        assert SecondOrderCdf(F, 4).cdf(1.0) == 1.0
        assert SecondOrderCdf(F, 4).cdf(-0.2) == 0.0

    def test_needs_two_bidders(self):
        with pytest.raises(ValueError):
            SecondOrderCdf(ep.Uniform(0, 1), 1).cdf(0.5)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_wrapper_is_valid_cdf(self, m):
        F2 = SecondOrderCdf(ep.BetaCdf(0.25, 0.25), m)
        grid = np.linspace(-0.1, 1.1, 400)
        vals = F2.cdf_array(grid)
        assert np.all(np.diff(vals) >= -1e-15)
        assert F2.cdf(0.0 - 1e-9) == 0.0
        assert F2.cdf(1.0) == 1.0

    def test_lipschitz_factor_smoke(self):
        gen = np.random.default_rng(31)
        for _ in range(60):
            F, G = random_exact_cdf(gen), random_exact_cdf(gen)
            base = ep.sup_distance(F, G)
            for m in (2, 3, 5):
                second = ep.sup_distance(SecondOrderCdf(F, m), SecondOrderCdf(G, m))
                assert second <= 2 * m * (m - 1) * base + 1e-9


class TestAuctionProfit:
    def test_tail_mode_at_lowest_type(self):
        setting = ep.AuctionSetting(3, 0.0, ep.BetaCdf(2, 2))
        assert ep.auction_profit(0.0, setting, ProfitMode.SECOND_ORDER_TAIL) == 1.0

    def test_revenue_uniform_half_reserve(self):
        setting = ep.AuctionSetting(2, 0.0, ep.Uniform(0, 1))
        assert ep.auction_profit(0.5, setting) == pytest.approx(5.0 / 12.0, abs=1e-10)

    def test_revenue_zero_reserve_is_mean_second_order_statistic(self):
        setting = ep.AuctionSetting(2, 0.0, ep.Uniform(0, 1))
        assert ep.auction_profit(0.0, setting) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_revenue_matches_density_quadrature_oracle(self):
        # independent route: direct integral of theta * f2 plus the reserve term
        F = ep.BetaCdf(2, 2)
        m, c, r = 3, 0.1, 0.4

        def f2(th):
            y = F.cdf(th)
            return m * (m - 1) * y ** (m - 2) * (1 - y) * F.density_array(np.array([th]))[0]

        tail, _ = integrate.quad(lambda th: th * f2(th), r, 1.0, epsabs=1e-12, limit=300)
        y = F.cdf(r)
        want = r * m * y ** (m - 1) * (1 - y) + tail - c * (1 - y**m)
        setting = ep.AuctionSetting(m, c, F)
        assert ep.auction_profit(r, setting) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("c", [0.0, 0.4])
    def test_revenue_above_support_is_zero(self, c):
        # no bidder meets a reserve above the top type; revenue was top - r
        F = ep.PiecewiseLinear(np.array([0.0, 0.4, 1.0]), np.array([0.0, 0.3, 1.0]))
        for law in (ep.Uniform(0, 1), F):
            setting = ep.AuctionSetting(3, c, law)
            assert ep.auction_profit(1.0, setting) == 0.0
            assert ep.auction_profit(1.0 + 1e-9, setting) == 0.0
            assert ep.auction_profit(2.0, setting) == 0.0

    def test_seller_value_ignored_by_tail_mode(self):
        a = ep.AuctionSetting(2, 0.0, ep.Uniform(0, 1))
        b = ep.AuctionSetting(2, 0.3, ep.Uniform(0, 1))
        assert ep.auction_profit(0.4, a, ProfitMode.SECOND_ORDER_TAIL) == ep.auction_profit(
            0.4, b, ProfitMode.SECOND_ORDER_TAIL
        )


class TestOptimalReserve:
    def test_uniform_two_bidders(self):
        setting = ep.AuctionSetting(2, 0.0, ep.Uniform(0, 1))
        r, v = ep.optimal_reserve(setting)
        assert r == pytest.approx(0.5, abs=1e-6)
        assert v == pytest.approx(5.0 / 12.0, abs=1e-8)

    def test_seller_value_shifts_reserve(self):
        setting = ep.AuctionSetting(2, 0.2, ep.Uniform(0, 1))
        r, _ = ep.optimal_reserve(setting)
        assert r == pytest.approx(0.6, abs=1e-6)

    def test_tail_mode_degenerates_to_lowest_type(self):
        setting = ep.AuctionSetting(2, 0.0, ep.BetaCdf(2, 2))
        r, v = ep.optimal_reserve(setting, ProfitMode.SECOND_ORDER_TAIL)
        assert r == 0.0
        assert v == 1.0

    def test_dominates_random_reserves(self):
        setting = ep.AuctionSetting(3, 0.05, ep.BetaCdf(2, 2))
        r, v = ep.optimal_reserve(setting)
        gen = np.random.default_rng(2)
        for rr in gen.uniform(0, 1, size=200):
            assert v >= ep.auction_profit(float(rr), setting) - 1e-9

    def test_interpolated_sample_reserve_low_regret(self):
        # the empirical argmax converges slowly (cube-root), so judge the
        # reserve by its forgone revenue under the truth, not by |r - 0.5|
        s = ep.draw_sample(ep.Uniform(0, 1), 4000, 77)
        setting_hat = ep.AuctionSetting(2, 0.0, ep.interp_ecdf(s, 0.0))
        r, _ = ep.optimal_reserve(setting_hat)
        truth = ep.AuctionSetting(2, 0.0, ep.Uniform(0, 1))
        regret = ep.auction_profit(0.5, truth) - ep.auction_profit(r, truth)
        assert 0.0 <= regret < 0.01

    def test_step_distribution_rejected(self):
        with pytest.raises(ep.EmpriceError, match="interpolate"):
            ep.AuctionSetting(2, 0.0, ep.ecdf(ep.Sample(np.array([0.2, 0.8]))))

    def test_setting_validation(self):
        with pytest.raises(ValueError):
            ep.AuctionSetting(1, 0.0, ep.Uniform(0, 1))
        with pytest.raises(ValueError, match="at most 1000 bidders, got 1001"):
            ep.AuctionSetting(emprice.auction.MAX_BIDDERS + 1, 0.0, ep.Uniform(0, 1))
        with pytest.raises(ValueError, match="must be an integer, got 2.5"):
            ep.AuctionSetting(2.5, 0.0, ep.Uniform(0, 1))
        F = ep.PiecewiseLinear(np.array([0.0, 0.4, 1.0]), np.array([0.0, 0.3, 1.0]))
        assert ep.optimal_reserve(ep.AuctionSetting(3.0, 0.1, F)) == ep.optimal_reserve(ep.AuctionSetting(3, 0.1, F))
        with pytest.raises(ValueError):
            ep.AuctionSetting(2, -0.1, ep.Uniform(0, 1))


class TestExactReserve:
    def test_oracle_on_random_piecewise_linear_laws(self):
        gen = np.random.default_rng(71)
        sizes = [1, 2, 3, 5, 9, 40, 200, 1500, 6000, 19_999]
        for i, segments in enumerate(sizes):
            F = _random_flat_law(gen, segments, 1.0 * (i % 2))
            knots_at_one = F.thetas[F.probs == 1.0]
            for m in (2, 3, 5, 8):
                for c in (0.0, 0.1, 0.25, 0.9):
                    setting = ep.AuctionSetting(m, c, F)
                    r, v = ep.optimal_reserve(setting)
                    case = (segments, m, c)
                    assert v == ep.auction_profit(r, setting), case
                    _, ref_v, grid_vals = _grid_reserve_reference(setting)
                    tol = ROUNDING * max(1.0, abs(v))
                    assert v >= ref_v - tol, case
                    assert v >= grid_vals.max() - tol, case
                    # R is constant where F = 0 and where F = 1: the smallest
                    # maximizer is the lowest type, or the first knot at 1
                    if F.cdf(r) == 0.0:
                        assert r == F.thetas[0], case
                    if F.cdf(r) == 1.0:
                        assert r == knots_at_one[0], case

    @pytest.mark.parametrize(
        "thetas,probs,c,want",
        [
            # F = 0 up to 0.5, then steep: revenue falls past 0.5
            ([0.0, 0.5, 0.6, 0.8], [0.0, 0.0, 0.9, 1.0], 0.0, 0.0),
            ([0.0, 0.2, 0.5, 0.6, 0.8], [0.0, 0.0, 0.0, 0.9, 1.0], 0.0, 0.0),
            # the seller values the item above every type: revenue is 0 from
            # the first knot where F = 1 on, and negative below it
            ([0.0, 0.3, 0.6, 0.8], [0.0, 0.5, 1.0, 1.0], 0.9, 0.6),
            ([0.1, 0.3, 0.6, 0.7, 0.8], [0.0, 0.5, 1.0, 1.0, 1.0], 0.9, 0.6),
        ],
    )
    def test_smallest_maximizer_on_flat_segment(self, thetas, probs, c, want):
        setting = ep.AuctionSetting(2, c, ep.PiecewiseLinear(np.asarray(thetas), np.asarray(probs)))
        r, v = ep.optimal_reserve(setting)
        assert r == want
        assert v == ep.auction_profit(want, setting)
        _, ref_v, _ = _grid_reserve_reference(setting)
        assert v >= ref_v - ROUNDING

    def test_value_matches_exact_rational_oracle(self):
        # flat runs and F = 0 / F = 1 runs included; M = 100 on few segments,
        # where the rationals grow with y^(M+1)
        gen = np.random.default_rng(29)
        cases = [(segments, m) for segments in (1, 2, 3, 7, 20, 60, 200) for m in (2, 3, 5, 8)]
        cases += [(segments, 100) for segments in (1, 2, 5, 20)]
        for i, (segments, m) in enumerate(cases):
            F = _random_flat_law(gen, segments, 0.5 * (i % 2))
            for c in (0.0, 0.1, 0.25, 0.9):
                setting = ep.AuctionSetting(m, c, F)
                r, v = ep.optimal_reserve(setting)
                exact = _exact_revenue(F, m, c, r)
                assert abs(Fraction(v) - exact) <= Fraction(1e-14) * abs(exact), (segments, m, c)

    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_solve_evaluates_cdf_once_per_segment(self, m):
        # the probability-space rule needs F only at the candidates and a few
        # single points; a rule at theta-space nodes needs 8 points a segment
        sizes = []

        class Counted(ep.PiecewiseLinear):
            def cdf_array(self, theta):
                sizes.append(np.size(theta))
                return super().cdf_array(theta)

        F = ep.interp_ecdf(ep.Sample(np.random.default_rng(m).beta(2.0, 2.0, 2000)), 0.0)
        counted = ep.AuctionSetting(m, 0.25, Counted(F.thetas, F.probs))
        assert ep.optimal_reserve(counted) == ep.optimal_reserve(ep.AuctionSetting(m, 0.25, F))
        assert 0 < sum(sizes) < 2 * F.thetas.size

    def test_interior_optimum_is_the_stationary_point(self):
        # the golden pin auction-revenue-5-interior.json solves this setting
        sample = ep.read_sample(Path(__file__).parent / "golden" / "infer-sample.txt")
        F = ep.interp_ecdf(sample, 0.0)
        r, _ = ep.optimal_reserve(ep.AuctionSetting(5, 0.6, F))
        t, p = F.thetas, F.probs
        k = int(np.searchsorted(t, r)) - 1
        assert t[k] < r < t[k + 1]
        s = (p[k + 1] - p[k]) / (t[k + 1] - t[k])
        assert r == 0.5 * ((1.0 - p[k]) / s + t[k] + 0.6)

    def test_analytic_law_keeps_grid_search(self, monkeypatch):
        # the reserve grid reaches the grid-then-refine search on analytic laws only
        setting = ep.AuctionSetting(2, 0.2, ep.Uniform(0, 1))
        F = ep.PiecewiseLinear(np.array([0.0, 0.4, 1.0]), np.array([0.0, 0.3, 1.0]))
        interp = ep.AuctionSetting(2, 0.2, F)
        fine, exact = ep.optimal_reserve(setting), ep.optimal_reserve(interp)
        monkeypatch.setattr(emprice.auction, "_RESERVE_GRID", 7)
        coarse, _ = ep.optimal_reserve(setting)
        assert coarse != fine
        assert coarse == pytest.approx(0.6, abs=1e-6)
        assert ep.optimal_reserve(interp) == exact


def _one_pass_segments(f, lows, highs, order):
    """`_gl_integral_segments` in one pass over all segments, without blocks."""
    nodes, weights = _gauss_legendre(order)
    mid = 0.5 * (lows + highs)
    half = 0.5 * (highs - lows)
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    return half * (f(pts.reshape(-1)).reshape(pts.shape) @ weights)


def _candidates(F, c):
    """Each knot segment's clipped stationary point, as `_exact_reserve` has it."""
    t, p = F.thetas, F.probs
    with np.errstate(divide="ignore", invalid="ignore"):
        stationary = 0.5 * ((1.0 - p[:-1]) / (np.diff(p) / np.diff(t)) + t[:-1] + c)
    return np.fmin(np.fmax(stationary, t[:-1]), t[1:])


def _every_candidate_reserve(F, m, c):
    """`_exact_reserve` with the partial quadrature run on every candidate,
    clipped or not."""
    t, p = F.thetas, F.probs
    r = _candidates(F, c)

    def survival(y):
        return 1.0 - y ** (m - 1) * (m - (m - 1) * y)

    whole = _segment_integrals(survival, m, p[:-1], p[1:], np.diff(t))
    above_next = np.concatenate([np.cumsum(whole[:0:-1])[::-1], [0.0]])
    y = F.cdf_array(r)
    vals = (r - c) * (1.0 - y**m) + _segment_integrals(survival, m, y, p[1:], t[1:] - r) + above_next
    best = float(r[np.argmax(vals)])
    return float(t[0]) if F.cdf(best) == 0.0 else best


def _interior_law(gen, segments, c):
    """Piecewise-linear law above c whose every segment but the last puts the
    revenue's stationary point strictly inside it: the slope on [t_k, t_k+1]
    is (1 - p_k) / (t_k - c + v (t_k+1 - t_k)) with 0 < v < 2."""
    gaps = gen.uniform(0.2, 1.0, segments) / segments
    # t_0 - c exceeds every gap, so each step adds less than 1 - p_k
    thetas = c + 1.0 / segments + np.concatenate([[0.0], np.cumsum(gaps)])
    probs = np.zeros(segments + 1)
    for k in range(segments):
        slope = (1.0 - probs[k]) / (thetas[k] - c + gen.uniform(0.1, 1.9) * gaps[k])
        probs[k + 1] = probs[k] + slope * gaps[k]
    probs[-1] = 1.0
    return ep.PiecewiseLinear(thetas, probs)


class TestQuadratureParity:
    """The exact reserve integrates only interior candidates, in blocks: it
    must pick the reserve that quadrature on every candidate picks, and the
    blocks must give every segment the bits of one pass, both in probability
    space on piecewise-linear laws and in theta on analytic ones. The golden
    sample has 120 knots and crosses no block, so these tests pin the
    blocking."""

    @pytest.mark.parametrize("segments", [1, 2, 1023, 1024, 1025, 5000, 8193])
    def test_reserve_matches_every_candidate_quadrature(self, segments):
        gen = np.random.default_rng(segments)
        interior = 0
        for c in (0.0, 0.25, 0.6):
            sample = ep.Sample(gen.beta(2.0, 2.0, segments))
            laws = [_random_flat_law(gen, segments, 0.5), ep.interp_ecdf(sample, 0.0),
                    _interior_law(gen, segments, c)]
            for i, F in enumerate(laws):
                r = _candidates(F, c)
                interior += int(np.sum((F.thetas[:-1] < r) & (r < F.thetas[1:])))
                for m in (2, 3, 5, 8, 100):
                    assert _exact_reserve(F, m, c) == _every_candidate_reserve(F, m, c), (i, c, m)
        # the interior laws put all but one candidate per law inside its segment
        assert interior >= 3 * (segments - 1)

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 100])
    def test_segment_blocks_do_not_move_bits(self, m, monkeypatch):
        # sizes straddle one and two block boundaries; each block size must
        # give the bits of one pass over every segment
        block = emprice.auction._BLOCK_NODES
        gen = np.random.default_rng(m)
        for n in (block - 1, block, block + 1, 2 * block + 3):
            y_lo = gen.uniform(0.0, 1.0, n)
            y_hi = np.minimum(1.0, y_lo + np.where(gen.random(n) < 0.2, 0.0, gen.uniform(0.0, 0.1, n)))
            width = gen.uniform(0.0, 0.01, n)
            args = (partial(_phi, m=m), m, y_lo, y_hi, width)
            got = _segment_integrals(*args)
            for size in (n, 1000, 7):
                monkeypatch.setattr(emprice.auction, "_BLOCK_NODES", size)
                assert np.array_equal(_segment_integrals(*args), got), (n, size)
            monkeypatch.undo()

    @pytest.mark.parametrize("order", [8, 21, 51])
    def test_blocks_match_one_pass(self, order):
        # sizes straddle the first block boundary, where a block ends on a
        # multiple of four rows and a last block under four rows joins the
        # one before; they stay under 9,216 nodes, below which BLAS computes
        # the one-pass reference on one thread, so its bits hold still
        step = emprice.auction._BLOCK_NODES // order // 4 * 4
        gen = np.random.default_rng(order)
        f2 = SecondOrderCdf(ep.interp_ecdf(ep.Sample(gen.beta(2.0, 2.0, 200)), 0.0), 5).cdf_array
        for n in [*range(step - 1, step + 9)] * 4:
            lows = np.sort(gen.uniform(0.0, 0.9, n))
            highs = lows + gen.uniform(0.0, 0.1, n)
            assert np.array_equal(_gl_integral_segments(f2, lows, highs, order),
                                  _one_pass_segments(f2, lows, highs, order)), n


class TestAuctionGuarantees:
    def test_two_bidders_constant(self):
        profit, regret = ep.auction_regret_guarantee(ep.DkwBound(), 500, 0.4, 2)
        assert profit.lipschitz == 4.0
        assert regret.lipschitz == 4.0

    def test_three_bidders_dkw_value(self):
        profit, _ = ep.auction_regret_guarantee(ep.DkwBound(), 500, 0.6, 3)
        assert profit.bound == pytest.approx(2.0 * math.exp(-2.5), abs=1e-9)

    def test_interp_kind_value(self):
        profit, _ = ep.auction_regret_guarantee(ep.InterpEcdfBound(), 100, 1.2, 2)
        assert profit.bound == pytest.approx(2.0 * math.exp(-2 * 100 * (0.3 - 0.01) ** 2), rel=1e-12)

    def test_bidders_validated(self):
        with pytest.raises(ValueError):
            ep.auction_regret_guarantee(ep.DkwBound(), 100, 0.1, 1)
