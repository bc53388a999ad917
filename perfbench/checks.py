"""Reference computations the benchmark checks the program against.

Nothing here imports `emprice`: every value is worked out from the model's
definitions with numpy and scipy, so a fault in the program cannot hide in
its own check. The stream convention for Monte Carlo samples is taken from
the package's documentation: replication r of cell (d, i) draws its uniforms
from PCG64 seeded by SeedSequence([seed, d, i, r]).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, stats

# Screening environment of the screening workload: v = theta * x, c = x^2 / 2
# on types [0, 1] and quantities [0, 1].
SCREEN_COST_SCALE = 0.5


def law(spec: str):
    """scipy frozen distribution for "uniform" or "beta:a:b" on [0, 1]."""
    parts = spec.split(":")
    if parts[0] == "uniform":
        return stats.uniform(0.0, 1.0)
    if parts[0] == "beta":
        return stats.beta(float(parts[1]), float(parts[2]))
    raise ValueError(f"unknown law {spec!r}")


def read_values(path: str) -> np.ndarray:
    return np.sort(np.loadtxt(path, dtype=float, ndmin=1))


class InterpCdf:
    """Linear interpolation of the ECDF through (0, 0) and (v_(k), k/n)."""

    def __init__(self, values: np.ndarray):
        v = np.sort(np.asarray(values, dtype=float))
        self.knots = np.concatenate([[0.0], v])
        self.levels = np.arange(v.size + 1, dtype=float) / v.size

    def cdf(self, t):
        return np.interp(t, self.knots, self.levels, left=0.0, right=1.0)


# --------------------------------------------------------------------------
# mc-coverage / mc-regret
# --------------------------------------------------------------------------

def posted_price_optimum(spec: str) -> float:
    """max over rho of rho * (1 - F(rho)) for the law, by dense grid plus Brent."""
    dist = law(spec)
    grid = np.linspace(0.0, 1.0, 200_001)
    vals = grid * dist.sf(grid)
    k = int(np.argmax(vals))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    res = optimize.minimize_scalar(
        lambda r: -r * dist.sf(r), bounds=(lo, hi), method="bounded", options={"xatol": 1e-13}
    )
    return max(float(vals[k]), float(-res.fun))


def fixed_menu_profit(spec: str, price: float) -> float:
    """Profit of the single offer (1, price) with zero cost."""
    return price * float(law(spec).sf(price))


def uniform_regret_cell(seed: int, d_idx: int, n_idx: int, n: int, reps: int) -> tuple[float, float]:
    """(mean regret share, its Monte Carlo standard error) of one Uniform cell.

    The price is the first argmax of theta_(k) * (n - k + 1) / n over the
    sorted sample, its true profit rho * (1 - rho), and the optimum 1/4.
    """
    shares = np.empty(reps)
    weights = (n - np.arange(1, n + 1) + 1) / n
    for r in range(reps):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, d_idx, n_idx, r])))
        theta = np.sort(gen.random(n))
        rho = float(theta[int(np.argmax(theta * weights))])
        shares[r] = (0.25 - rho * (1.0 - rho)) / 0.25
    se = float(shares.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return float(shares.mean()), se


def coverage_tolerance(level: float, replications: int, z: float = 4.5) -> float:
    """The paper's 0.03 around nominal, widened by z Monte Carlo errors."""
    return 0.03 + z * math.sqrt(level * (1.0 - level) / replications)


# --------------------------------------------------------------------------
# screening-solve: v = theta * x, c = x^2 / 2
# --------------------------------------------------------------------------

def menu_profit(items: list[tuple[float, float]], cdf, edge_tol: float = 0.0) -> tuple[float, float]:
    """Expected profit of a menu when each type picks max theta*x - p.

    The chosen item as a function of theta follows the upper envelope of
    the lines theta*x_k - p_k (outside option (0, 0) included); region
    edges are closed-form crossings, and regions are weighted by F.

    Returns (profit, slack): slack bounds how far the profit moves when
    every region edge moves right by up to edge_tol, as it does when a
    program locates the edges by bisection to that tolerance.
    """
    best: dict[float, float] = {}
    for x, p in items:
        if x > 0.0 and (x not in best or p < best[x]):
            best[x] = p
    hull: list[tuple[float, float]] = [(0.0, 0.0)]
    edges: list[float] = []
    for x in sorted(best):
        p = best[x]
        while True:
            x0, p0 = hull[-1]
            t = (p - p0) / (x - x0)
            if len(hull) > 1 and t <= edges[-1]:
                hull.pop()
                edges.pop()
                continue
            break
        if t >= 1.0:
            continue
        hull.append((x, p))
        edges.append(max(t, 0.0))
    if not edges:
        return 0.0, 0.0
    xs = np.array([x for x, _ in hull[1:]])
    ps = np.array([p for _, p in hull[1:]])
    margins = ps - SCREEN_COST_SCALE * xs**2
    lower = np.asarray(edges)
    upper = np.concatenate([edges[1:], [1.0]])
    mass = cdf(upper) - cdf(lower)
    jumps = np.abs(np.diff(np.concatenate([[0.0], margins])))
    slack = float(np.sum(jumps * (cdf(np.minimum(lower + edge_tol, 1.0)) - cdf(lower))))
    return float(np.sum(margins * mass)), slack


def best_posted_offer_interp(F: InterpCdf) -> float:
    """max over t of t^2 (1 - F(t)) / 2: the best single offer (x = t at price t^2).

    F is linear on each knot segment, so the objective is a cubic there; the
    maximum sits at a knot or at the segment's interior stationary point.
    """
    t0, t1 = F.knots[:-1], F.knots[1:]
    q0, q1 = F.levels[:-1], F.levels[1:]
    slope = (q1 - q0) / (t1 - t0)
    a = q0 - slope * t0  # F = a + slope * t on the segment
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = 2.0 * (1.0 - a) / (3.0 * slope)
    inside = (t_star > t0) & (t_star < t1)
    cand = np.concatenate([F.knots, t_star[inside]])
    return float(np.max(0.5 * cand**2 * (1.0 - F.cdf(cand))))


def first_best_interp(F: InterpCdf) -> float:
    """E[theta^2] / 2: each type served x = theta, so surplus theta^2 / 2."""
    t0, t1 = F.knots[:-1], F.knots[1:]
    mass = np.diff(F.levels)
    return float(0.5 * np.sum(mass * (t0 * t0 + t0 * t1 + t1 * t1) / 3.0))


def screening_optimum_law(spec: str) -> float:
    """int psi_+^2 / 2 dF with psi = theta - (1 - F) / f, for a regular law."""
    if spec == "uniform":
        return 1.0 / 12.0
    dist = law(spec)

    def integrand(t: float) -> float:
        psi = t - dist.sf(t) / dist.pdf(t)
        return 0.5 * max(psi, 0.0) ** 2 * dist.pdf(t)

    val, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    return float(val)


# --------------------------------------------------------------------------
# auction-reserve: second-price auction with reserve, M bidders
# --------------------------------------------------------------------------

class AuctionRevenue:
    """Seller revenue of a second-price auction with reserve r, net of the
    seller's value c on a sale, for M i.i.d. bidders from an interpolated ECDF:

        r P(exactly one value >= r) + E[Y2; Y2 >= r] - c P(max >= r).

    E[Y2; Y2 >= r] integrates theta against dF2 = M (M-1) F^(M-2) (1-F) dF in
    the quantile variable y = F(theta), where theta is linear in y on every
    knot segment, so each segment's integral is an exact polynomial antiderivative.
    """

    def __init__(self, values: np.ndarray, bidders: int, seller_value: float):
        self.F = InterpCdf(values)
        self.m = int(bidders)
        self.c = float(seller_value)
        t, y = self.F.knots, self.F.levels
        self.beta = (t[1:] - t[:-1]) / (y[1:] - y[:-1])  # dtheta / dy
        self.alpha = t[:-1] - self.beta * y[:-1]         # theta = alpha + beta * y
        whole = self._antideriv(y[1:]) - self._antideriv(y[:-1])
        self.tail = np.concatenate([np.cumsum(whole[::-1])[::-1], [0.0]])  # sum over segments k..end

    def _antideriv(self, y, seg=None):
        m = self.m
        a = self.alpha if seg is None else self.alpha[seg]
        b = self.beta if seg is None else self.beta[seg]
        return m * (m - 1) * (
            a * (y ** (m - 1) / (m - 1) - y**m / m) + b * (y**m / m - y ** (m + 1) / (m + 1))
        )

    def __call__(self, r) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        t = self.F.knots
        m = self.m
        y_r = self.F.cdf(r)
        seg = np.clip(np.searchsorted(t, r, side="right") - 1, 0, t.size - 2)
        above = self._antideriv(self.F.levels[seg + 1], seg) - self._antideriv(y_r, seg) + self.tail[seg + 1]
        above = np.where(r >= t[-1], 0.0, above)
        return r * m * y_r ** (m - 1) * (1.0 - y_r) + above - self.c * (1.0 - y_r**m)

    def grid_maximum(self, points: int = 20_001) -> float:
        """Maximum over every knot, every segment midpoint and a uniform grid."""
        t = self.F.knots
        grid = np.concatenate([t, 0.5 * (t[:-1] + t[1:]), np.linspace(t[0], t[-1], points)])
        return float(np.max(self(grid)))


def interp_deviation_bound(n: int, delta: float, bidders: int) -> float:
    """P(profit gap > delta) bound for the interpolated ECDF in an M-bidder
    auction: 2 exp(-2 n (delta / L - 1/n)^2) with L = 2 M (M - 1), capped at 1."""
    eff = delta / (2.0 * bidders * (bidders - 1)) - 1.0 / n
    return min(1.0, 2.0 * math.exp(-2.0 * n * eff * eff))
