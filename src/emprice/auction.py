"""Single-item auction with M symmetric bidders: reserve pricing and guarantees.

With i.i.d. private values from F, the second-highest of M draws has CDF

    F_(2;M)(theta) = M F(theta)^{M-1} (1 - F(theta)) + F(theta)^M,

a monotone transform phi(F) of the value distribution, which makes it
Lipschitz in F with constant 2M(M-1). Two profit objectives are exposed for a
second-price auction with reserve r:

- SECOND_ORDER_TAIL: the survival mass 1 - F_(2;M)(r). It is nonincreasing in
  r (its maximizer is always the lowest type), so it is useful for the
  linearity/guarantee analysis but degenerate as a design objective.
- EXPECTED_REVENUE (default for reserve optimization): reserve-price revenue
  plus the mass of the second order statistic above r, net of the seller's
  opportunity cost of sale,

      r M F(r)^{M-1} (1 - F(r)) + int_r^{top} theta dF_(2;M)(theta)
        - c (1 - F(r)^M),

  with the integral computed by parts (so only CDF evaluations are needed):
  int_r^{top} theta dF_(2;M) = top - r F_(2;M)(r) - int_r^{top} F_(2;M).
  That last integral is exact piecewise Gauss-Legendre when F is piecewise
  linear (the integrand is a polynomial per knot segment) and adaptive
  quadrature to 1e-10 otherwise.

The best revenue reserve on a piecewise-linear F (every interpolated
estimate) is exact: on each knot segment the revenue is unimodal, so its
maximizer there is the clipped stationary point of the first-order
condition, and one vectorized pass scores every segment's candidate. Only
candidates strictly inside their segment need quadrature from the candidate
to the segment's end; at either end that integral is already known. Analytic
laws use a grid plus golden-section refinement; the tail objective's reserve
is the lowest type of the support. All quadrature runs in blocks of about
`_BLOCK_NODES` nodes, with the bits of one pass over all segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, partial

import numpy as np

from .distributions import Cdf, PiecewiseLinear
from .errors import EmpriceError
from .guarantees import BoundKind, GuaranteeResult, regret_guarantee
from .numerics import argmax_refine

__all__ = [
    "ProfitMode",
    "AuctionSetting",
    "SecondOrderCdf",
    "auction_profit",
    "optimal_reserve",
    "auction_regret_guarantee",
]

_RESERVE_GRID = 10_000
# quadrature nodes per block in `_gl_integral_segments`: 64 KB per temporary
_BLOCK_NODES = 8192


class ProfitMode(Enum):
    SECOND_ORDER_TAIL = "tail"
    EXPECTED_REVENUE = "revenue"


@dataclass(frozen=True)
class AuctionSetting:
    bidders: int
    seller_value: float
    cdf: Cdf

    def __post_init__(self) -> None:
        if self.bidders < 2:
            raise ValueError("auction requires at least two bidders")
        if self.seller_value < 0:
            raise ValueError("seller value must be nonnegative")
        if not self.cdf.is_continuous:
            raise EmpriceError(
                "auction setting needs an absolutely continuous value distribution; "
                "interpolate sample-based estimates first"
            )


def _phi(y: np.ndarray, m: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    return m * y ** (m - 1) * (1.0 - y) + y**m


@dataclass(frozen=True)
class SecondOrderCdf(Cdf):
    """Distribution of the second-highest of `bidders` draws from `base`."""

    base: Cdf
    bidders: int

    def __post_init__(self) -> None:
        if self.bidders < 2:
            raise ValueError("need at least two bidders")

    @property
    def support(self) -> tuple[float, float]:
        return self.base.support

    @property
    def has_density(self) -> bool:
        return self.base.has_density

    def cdf_array(self, theta):
        return _phi(self.base.cdf_array(theta), self.bidders)

    def cdf_left_array(self, theta):
        return _phi(self.base.cdf_left_array(theta), self.bidders)

    def density_array(self, theta):
        y = self.base.cdf_array(theta)
        m = self.bidders
        return m * (m - 1) * y ** (m - 2) * (1.0 - y) * self.base.density_array(theta)

    def atoms(self):
        locs, _ = self.base.atoms()
        if locs.size == 0:
            return locs, np.empty(0)
        masses = self.cdf_array(locs) - self.cdf_left_array(locs)
        return locs, masses

    def special_points(self):
        return self.base.special_points()


@cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the `order`-point rule on [-1, 1], read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gl_order(bidders: int) -> int:
    # F_(2;M) is a polynomial of degree M per knot segment of a piecewise-linear
    # F, which an order-k rule integrates exactly for M <= 2k - 1
    return max(8, (bidders + 3) // 2)


def _gl_integral_segments(f2_eval, lows: np.ndarray, highs: np.ndarray, order: int) -> np.ndarray:
    """Gauss-Legendre integral of `f2_eval` on each [low, high].

    The integrand runs on blocks of at most about `_BLOCK_NODES` nodes, so
    every temporary is a small array that the allocator reuses rather than
    fresh pages, and no matrix-vector product is large enough for BLAS to
    split it across threads. The product sums rows in groups of four and a
    row's bits depend on whether it falls in a group or in the remainder, so
    blocks start on multiples of four rows and a last block shorter than four
    rows joins the one before: every segment gets the bits of one
    single-threaded pass over all segments.
    """
    nodes, weights = _gauss_legendre(order)
    n = lows.size
    step = max(4, _BLOCK_NODES // order // 4 * 4)
    bounds = [0, *range(step, n - 3, step), n]
    out = np.empty(n)
    for s, e in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (lows[s:e] + highs[s:e])
        half = 0.5 * (highs[s:e] - lows[s:e])
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        vals = f2_eval(pts.reshape(-1)).reshape(pts.shape)
        out[s:e] = half * (vals @ weights)
    return out


def _integral_f2_above(F: Cdf, bidders: int, r: float) -> float:
    """int_r^{top} F_(2;M)(theta) dtheta."""
    f2 = SecondOrderCdf(F, bidders)
    lo, hi = F.support
    if r >= hi:
        return 0.0
    a = max(r, lo)
    if isinstance(F, PiecewiseLinear):
        t = F.thetas
        start = int(np.searchsorted(t, a, side="right")) - 1
        start = max(start, 0)
        lows = np.maximum(t[start:-1], a)
        highs = t[start + 1 :]
        keep = highs > lows
        order = _gl_order(bidders)
        return float(np.sum(_gl_integral_segments(f2.cdf_array, lows[keep], highs[keep], order)))
    # imported here, so that start-up loads no scipy
    from scipy import integrate

    kinks = [p for p in F.special_points() if a < p < hi]
    points = kinks if 0 < len(kinks) <= 80 else None
    val, _ = integrate.quad(
        lambda th: float(f2.cdf_array(np.asarray([th]))[0]),
        a,
        hi,
        epsabs=1e-10,
        epsrel=1e-10,
        limit=500,
        points=points,
    )
    return float(val)


def auction_profit(r: float, setting: AuctionSetting, mode: ProfitMode = ProfitMode.EXPECTED_REVENUE) -> float:
    """Seller's objective at reserve r, per the chosen mode."""
    F = setting.cdf
    m = setting.bidders
    if mode is ProfitMode.SECOND_ORDER_TAIL:
        return 1.0 - SecondOrderCdf(F, m).cdf(r)
    lo, hi = F.support
    y = F.cdf(r)
    f2_r = float(_phi(np.asarray([y]), m)[0])
    # above the top type no bidder buys, so the by-parts term is 0, not hi - r
    expected_second = hi - r * f2_r - _integral_f2_above(F, m, r) if r <= hi else 0.0
    reserve_term = r * m * y ** (m - 1) * (1.0 - y)
    sale_prob = 1.0 - y**m
    return reserve_term + expected_second - setting.seller_value * sale_prob


def _exact_reserve(F: PiecewiseLinear, bidders: int, seller_value: float) -> float:
    """Smallest maximizer of expected revenue over the support of F.

    By parts, revenue is R(r) = (r - c)(1 - y^M) + int_r^{top} (1 - F_(2;M))
    with y = F(r). On a knot segment y is linear with slope s, and
    R'(r) = M y^{M-1} [(1 - y) - (r - c) s], whose bracket falls in r: the
    segment's maximizer is the stationary point
    r* = ((1 - y_k) / s + t_k + c) / 2 clipped to [t_k, t_{k+1}].
    """
    t, p = F.thetas, F.probs
    m, c = bidders, seller_value
    # a flat segment gives (1 - p) / 0: +inf (R rises where 0 < F < 1) clips
    # to its right end, and nan (F = 1, R = 0) falls to its left end under
    # fmax; where F = 0, R is constant
    with np.errstate(divide="ignore", invalid="ignore"):
        stationary = 0.5 * ((1.0 - p[:-1]) / (np.diff(p) / np.diff(t)) + t[:-1] + c)
    r = np.fmin(np.fmax(stationary, t[:-1]), t[1:])

    order = _gl_order(m)

    def survival(theta: np.ndarray) -> np.ndarray:
        # 1 - phi(y), with phi(y) = y^{M-1} (M - (M-1) y); it is exactly 0
        # where F = 1, so candidates there score exactly 0 and tie exactly
        y = F.cdf_array(theta)
        return 1.0 - y ** (m - 1) * (m - (m - 1) * y)

    whole = _gl_integral_segments(survival, t[:-1], t[1:], order)
    # the integral over the segments after each candidate's own
    above_next = np.concatenate([np.cumsum(whole[:0:-1])[::-1], [0.0]])
    # the integral from each candidate to its segment's end: a candidate at
    # the left end has the inputs, so the bits, of `whole`, one at the right
    # end has half-width 0 and integral exactly 0, and only interior ones need
    # quadrature
    part = np.where(r == t[:-1], whole, 0.0)
    inside = (t[:-1] < r) & (r < t[1:])
    part[inside] = _gl_integral_segments(survival, r[inside], t[1:][inside], order)
    y = F.cdf_array(r)
    vals = (r - c) * (1.0 - y**m) + part + above_next
    best = float(r[np.argmax(vals)])
    # R is constant where F = 0, so there the lowest type is the smallest maximizer
    return float(t[0]) if F.cdf(best) == 0.0 else best


def optimal_reserve(
    setting: AuctionSetting,
    mode: ProfitMode = ProfitMode.EXPECTED_REVENUE,
) -> tuple[float, float]:
    """Best reserve price; returns (reserve, value) and the smallest maximizer
    wins ties.

    The tail objective is nonincreasing, so its reserve is the lowest type.
    For expected revenue on a piecewise-linear F the reserve is exact: the
    best of each knot segment's clipped first-order-condition solution. Other
    laws take the best of a `_RESERVE_GRID`-interval grid plus the special
    points and refine it by golden section. The value is `auction_profit` at
    the reserve.
    """
    F = setting.cdf
    m = setting.bidders
    if mode is ProfitMode.SECOND_ORDER_TAIL:
        best_r = float(F.support[0])
        return best_r, float(auction_profit(best_r, setting, mode))
    if isinstance(F, PiecewiseLinear):
        best_r = _exact_reserve(F, m, setting.seller_value)
        return best_r, float(auction_profit(best_r, setting, mode))

    lo, hi = F.support
    grid = np.unique(np.concatenate([
        np.linspace(lo, hi, _RESERVE_GRID + 1),
        np.asarray([p for p in F.special_points() if lo <= p <= hi]),
    ]))
    seg = _gl_integral_segments(SecondOrderCdf(F, m).cdf_array, grid[:-1], grid[1:], _gl_order(m))
    integral_above = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    y = F.cdf_array(grid)
    vals = (
        grid * m * y ** (m - 1) * (1.0 - y)
        + (hi - grid * _phi(y, m) - integral_above)
        - setting.seller_value * (1.0 - y**m)
    )
    best_r, _, _ = argmax_refine(grid, vals, partial(auction_profit, setting=setting, mode=mode), lo, hi)
    return best_r, float(auction_profit(best_r, setting, mode))


def auction_regret_guarantee(
    kind: BoundKind, n: int, delta: float, bidders: int
) -> tuple[GuaranteeResult, GuaranteeResult]:
    """Profit and regret guarantees with the auction constant L = 2M(M-1)."""
    if bidders < 2:
        raise ValueError("need at least two bidders")
    lipschitz = 2.0 * bidders * (bidders - 1)
    return regret_guarantee(kind, n, delta, lipschitz)
