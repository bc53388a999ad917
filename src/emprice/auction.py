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
  That last integral is exact when F is piecewise linear, and adaptive
  quadrature to 1e-10 otherwise.

On a knot segment [a, b] of a piecewise-linear F, y = F(theta) is linear, so
any g(F) integrates in probability space:

    int_a^b g(F) dtheta = (b - a) int_0^1 g(y_a + u (y_b - y_a)) du.

F_(2;M) and its survival are polynomials of degree M in y, which the
(M // 2 + 1)-point Gauss-Legendre rule in u integrates exactly, with no CDF
evaluation at the nodes (`_segment_integrals`).

The best revenue reserve on a piecewise-linear F (every interpolated
estimate) is exact: on each knot segment the revenue is unimodal, so its
maximizer there is the clipped stationary point of the first-order
condition, and one vectorized pass scores every segment's candidate. Only
candidates strictly inside their segment need quadrature from the candidate
to the segment's end; at either end that integral is already known. Analytic
laws use a grid plus golden-section refinement, with an at-least-8-point rule
per grid interval in theta (`_gl_integral_segments`); the tail objective's
reserve is the lowest type of the support. Quadrature runs in blocks of
about `_BLOCK_NODES` nodes or segments, with the bits of one pass over all
segments.
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
    "MAX_BIDDERS",
    "ProfitMode",
    "AuctionSetting",
    "SecondOrderCdf",
    "auction_profit",
    "optimal_reserve",
    "auction_regret_guarantee",
]

_RESERVE_GRID = 10_000
# quadrature nodes per block in `_gl_integral_segments`, and segments per
# block in `_segment_integrals`: 64 KiB per temporary
_BLOCK_NODES = 8192
# the most bidders a setting takes; its exact rule, leggauss(501), builds in
# about 20 ms, where leggauss's companion matrix grows with the square of M
MAX_BIDDERS = 1000


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
        if self.bidders > MAX_BIDDERS:
            raise ValueError(f"auction takes at most {MAX_BIDDERS} bidders, got {self.bidders}")
        # the quadrature order is an integer function of the count
        if self.bidders != int(self.bidders):
            raise ValueError(f"the number of bidders must be an integer, got {self.bidders}")
        object.__setattr__(self, "bidders", int(self.bidders))
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
    # the theta-space rule for analytic laws, whose F_(2;M) is no polynomial:
    # at least 8 nodes, and more for many bidders, since phi has degree M in F
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


def _segment_integrals(g, degree: int, y_lo: np.ndarray, y_hi: np.ndarray, width: np.ndarray) -> np.ndarray:
    """int of g(F) over segments of the given widths on which F runs linearly
    from y_lo to y_hi, for an elementwise polynomial g of at most `degree`.

    Each is width * sum_j w_j g(y_lo + u_j (y_hi - y_lo)), the Gauss-Legendre
    rule of order degree // 2 + 1 mapped to u in [0, 1], which is exact. The
    node columns are summed elementwise, one segment per row, so a segment's
    bits do not depend on the rows around it; rows run in blocks of
    `_BLOCK_NODES`.
    """
    nodes, weights = _gauss_legendre(degree // 2 + 1)
    units = [(0.5 * (1.0 + x), 0.5 * w) for x, w in zip(nodes.tolist(), weights.tolist())]
    out = np.empty(y_lo.size)
    for s in range(0, y_lo.size, _BLOCK_NODES):
        lo = y_lo[s : s + _BLOCK_NODES]
        rise = y_hi[s : s + _BLOCK_NODES] - lo
        acc = np.zeros(lo.size)
        for u, w in units:
            acc += w * g(lo + u * rise)
        out[s : s + _BLOCK_NODES] = width[s : s + _BLOCK_NODES] * acc
    return out


def _integral_f2_above(F: Cdf, bidders: int, r: float) -> float:
    """int_r^{top} F_(2;M)(theta) dtheta."""
    lo, hi = F.support
    if r >= hi:
        return 0.0
    a = max(r, lo)
    if isinstance(F, PiecewiseLinear):
        # the segments after a: the first starts at a, the rest at their knots
        t, p = F.thetas, F.probs
        k = int(np.searchsorted(t, a, side="right"))
        y_lo = np.concatenate([[F.cdf(a)], p[k:-1]])
        width = np.diff(np.concatenate([[a], t[k:]]))
        phi = partial(_phi, m=bidders)
        return float(np.sum(_segment_integrals(phi, bidders, y_lo, p[k:], width)))
    # imported here, so that start-up loads no scipy
    from scipy import integrate

    f2 = SecondOrderCdf(F, bidders)
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
    # y^(M-1) (1 - y) is 0 at y = 0 and y = 1, where a reserve far outside the
    # support can overflow r * m to inf, and inf * 0 is NaN
    reserve_term = r * m * y ** (m - 1) * (1.0 - y) if 0.0 < y < 1.0 else 0.0
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

    def survival(y: np.ndarray) -> np.ndarray:
        # 1 - phi(y), with phi(y) = y^{M-1} (M - (M-1) y); it is exactly 0
        # where F = 1, so candidates there score exactly 0 and tie exactly
        return 1.0 - y ** (m - 1) * (m - (m - 1) * y)

    whole = _segment_integrals(survival, m, p[:-1], p[1:], np.diff(t))
    # the integral over the segments after each candidate's own
    above_next = np.concatenate([np.cumsum(whole[:0:-1])[::-1], [0.0]])
    # the integral from each candidate to its segment's end: a candidate at
    # the left end has the inputs, so the bits, of `whole`, one at the right
    # end has width 0 and integral exactly 0, and only interior ones need
    # quadrature
    y = F.cdf_array(r)
    part = np.where(r == t[:-1], whole, 0.0)
    inside = (t[:-1] < r) & (r < t[1:])
    part[inside] = _segment_integrals(survival, m, y[inside], p[1:][inside], t[1:][inside] - r[inside])
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
