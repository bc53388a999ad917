"""Optimal menus and the value function. Every environment has v = theta * x
and a `PowerCost` c(x) = a * x**p, and the power p picks the solver.

A linear cost (p = 1, c(x) = c_bar * x): a single take-it-or-leave-it offer of
the full quantity is optimal among all menus (Riley and Zeckhauser 1983), so
the solver posts the type threshold that maximizes
(rho - c_bar) * (1 - F(rho-)), against any law. For an empirical step
distribution the maximizer sits on a sample point, so exact enumeration
applies (`ecdf_uniform_prices`, vectorized over many samples); for other
distributions the best point of a 10^4-point grid (plus every atom and kink)
is refined by golden section to 1e-10. The grid is scanned coarse to fine
(`_pruned_price_scan`): F is nondecreasing, so
x_max * max(b - c_bar, 0) * (1 - F(a-)) bounds the objective strictly inside
a cell [a, b] between scored candidates, and a cell is scored further only
if its bound reaches the best score so far less 1e-9 * max(1, |best|). The
margin decides how many cells are scanned, never which point wins: it is
seven orders of magnitude wider than rounding and than betainc's last-bit
falls near 1. So the grid's first argmax, its bracket and the solve keep the
bits of scoring every candidate; on Beta laws the default grid needs 2-7% of
its CDF evaluations.

A convex cost (p > 1), the screening solver: with an absolutely continuous
estimate with positive density, the optimal allocation pointwise maximizes
the ironed virtual surplus

    psi_bar(theta) * v_theta(theta, x) - c(x)  =  psi_bar(theta) * x - a * x**p,

where psi_bar irons the virtual value J(theta) = theta - (1 - F(theta)) / f(theta).
It is maximized once per distinct ironed value, in closed form:
x* = (psi_bar / (a * p))**(1 / (p - 1)) clipped to [0, x_max] for a > 0 and
p > 1, and the boundary rules (0 or x_max) for a linear surplus (a = 0, or
p = 1 when `optimal_screening_menu` is called directly).
Ironing happens in quantile space: per-segment virtual values are cumulated
into a piecewise-linear function whose greatest convex minorant has slopes
psi_bar. Pool-adjacent-violators (weighted isotonic regression of the knot
slopes) finds the minorant's blocks; each block's slope is the chord of the
cumulated knots at its ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import Cdf, EmpiricalStep
from .environment import Environment
from .errors import CollapsedGridError, MissingDensityError, UnsupportedPairError
from .mechanisms import Allocation, Menu, expected_profit, menu_from_allocation, menu_to_dict
from .numerics import argmax_refine

__all__ = [
    "SolveMethod",
    "SolveResult",
    "IronedTable",
    "posts_offer",
    "ecdf_uniform_prices",
    "optimal_uniform_price",
    "ironed_virtual_value",
    "optimal_screening_menu",
    "optimal_profit",
]

_PRICE_GRID = 10_000
# candidate strides of the levels of `_pruned_price_scan`
_SCAN_STRIDES = (64, 8, 1)
_SCREENING_GRID = 2000


class SolveMethod(Enum):
    UNIFORM_PRICE_ENUMERATION = "uniform_price_enumeration"
    UNIFORM_PRICE_GRID = "uniform_price_grid"
    SCREENING_IRONED = "screening_ironed"


@dataclass(frozen=True)
class SolveResult:
    menu: Menu
    optimal_value: float
    method: SolveMethod
    grid_size: int
    refine_iterations: int = 0

    def to_dict(self) -> dict:
        out = menu_to_dict(self.menu)
        out.update(
            optimal_value=self.optimal_value,
            method=self.method.value,
            grid_size=self.grid_size,
            refine_iterations=self.refine_iterations,
        )
        return out


@dataclass(frozen=True)
class IronedTable:
    """Virtual values on a uniform quantile grid and their ironed version."""

    quantiles: np.ndarray      # grid q_0 = 0 < ... < q_G = 1
    thetas: np.ndarray         # types at the grid quantiles
    segment_thetas: np.ndarray  # types at segment midpoints (length G)
    psi: np.ndarray            # per-segment virtual values (length G)
    psi_bar: np.ndarray        # per-segment ironed values (length G)
    cumulative: np.ndarray     # knots of the cumulated virtual value (length G+1)
    hull: tuple[int, ...]      # knot indices bounding the minorant's blocks


def posts_offer(rho, value):
    """Whether the best uniform threshold rho is posted as an offer: only a
    positive price with positive profit is; otherwise the menu is empty."""
    return (value > 0.0) & (rho > 0.0)


def ecdf_uniform_prices(values: np.ndarray, starts: np.ndarray, env: Environment) -> tuple[np.ndarray, np.ndarray]:
    """Best uniform type threshold and its profit against each of several
    empirical distributions, in one vectorized pass.

    `values` holds the sorted samples back to back and `starts` the index
    where each (non-empty) sample begins. The candidates are a sample's
    distinct values: at the first occurrence of a value at position j of a
    sample of n, F(rho-) = j / n, and repeats are skipped. The first maximizer
    wins, so ties go to the smallest price.
    """
    values = np.asarray(values, dtype=float)
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.diff(starts, append=values.size)
    if starts.size == 0 or starts[0] != 0 or np.any(lengths < 1):
        raise ValueError("need non-empty samples starting at index 0")
    c_bar, x_max = float(env.cost.scale), float(env.x_max)
    index = np.arange(values.size)
    j = index - np.repeat(starts, lengths)
    objective = x_max * (values - c_bar) * (1.0 - j / np.repeat(lengths, lengths))
    repeat = np.zeros(values.size, dtype=bool)
    repeat[1:] = values[1:] == values[:-1]
    repeat[starts] = False
    objective[repeat] = -np.inf
    best = np.maximum.reduceat(objective, starts)
    first = np.minimum.reduceat(np.where(objective == np.repeat(best, lengths), index, values.size), starts)
    return values[first], best


def _pruned_price_scan(F: Cdf, cand: np.ndarray, c_bar: float, x_max: float) -> np.ndarray:
    """The objective x_max * (rho - c_bar) * (1 - F(rho-)) on the sorted
    candidates, or -inf where the cell bound of the module docstring shows
    that a candidate is not the best.

    The first level scores every 64th candidate and the last one; the next
    levels score every 8th candidate, then every candidate, of the cells the
    bound leaves open. A NaN bound or best never closes a cell.
    """
    n = cand.size
    values = np.full(n, -np.inf)
    survival = np.empty(n)

    def score(idx: np.ndarray) -> None:
        rho = cand[idx]
        survival[idx] = 1.0 - F.cdf_left_array(rho)
        values[idx] = x_max * (rho - c_bar) * survival[idx]

    ends = np.append(np.arange(0, n - 1, _SCAN_STRIDES[0]), n - 1)
    score(ends)
    for stride in _SCAN_STRIDES[1:]:
        best = float(values[ends].max())
        bound = x_max * np.maximum(cand[ends[1:]] - c_bar, 0.0) * survival[ends[:-1]]
        cell = np.flatnonzero(~(bound < best - 1e-9 * max(1.0, abs(best))))
        # every stride-th candidate strictly inside each open cell
        start = ends[cell]
        count = (ends[cell + 1] - start - 1) // stride
        step = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count) + 1
        new = np.repeat(start, count) + stride * step
        score(new)
        ends = np.sort(np.concatenate([ends, new]))
    return values


def _price_candidates(F: Cdf, grid_size: int) -> np.ndarray:
    """The sorted distinct points of a grid_size-point grid on F's support and
    of F's special points, as np.unique gives them. A strictly increasing grid
    that already holds every special point, bit for bit, is that set as it is,
    so np.unique's sort runs only when a point must be merged in or a repeat
    dropped."""
    lo, hi = F.support
    grid = np.linspace(lo, hi, grid_size)
    special = np.asarray(F.special_points(), dtype=float)
    at = np.minimum(np.searchsorted(grid, special), grid.size - 1)
    if np.all(grid[1:] > grid[:-1]) and np.array_equal(grid[at].view(np.int64), special.view(np.int64)):
        return grid
    return np.unique(np.concatenate([grid, special]))


def optimal_uniform_price(F: Cdf, env: Environment, grid_size: int = _PRICE_GRID) -> SolveResult:
    """Best single full-quantity offer against F under a linear cost."""
    if env.cost.power != 1.0:
        raise UnsupportedPairError(f"uniform pricing needs a linear cost (power 1), got power {env.cost.power:g}")
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    c_bar = float(env.cost.scale)
    x_max = float(env.x_max)

    def objective(rho: float) -> float:
        return x_max * (rho - c_bar) * (1.0 - F.cdf_left(rho))

    if isinstance(F, EmpiricalStep):
        rho, val = ecdf_uniform_prices(F.sample.values, np.zeros(1, dtype=np.intp), env)
        best_rho, best_val = float(rho[0]), float(val[0])
        method, iters = SolveMethod.UNIFORM_PRICE_ENUMERATION, 0
    else:
        lo, hi = F.support
        cand = _price_candidates(F, max(int(grid_size), 2))
        values = _pruned_price_scan(F, cand, c_bar, x_max)
        best_rho, best_val, iters = argmax_refine(cand, values, objective, lo, hi, F.atoms()[0])
        method = SolveMethod.UNIFORM_PRICE_GRID

    if posts_offer(best_rho, best_val):
        menu = Menu(((x_max, best_rho * x_max),))
    else:
        menu = Menu.empty()
    value = expected_profit(menu, F, env)
    return SolveResult(menu, value, method, int(grid_size), iters)


def _minorant_slopes(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block boundaries (knot indices) of the greatest convex minorant and its
    per-segment slopes: PAVA on the knot slopes weighted by segment width
    gives the blocks, and each block's slope is the chord across it."""
    # imported here, so that start-up loads no scipy
    from scipy.optimize import isotonic_regression

    dx = np.diff(x)
    blocks = isotonic_regression(np.diff(y) / dx, weights=dx).blocks
    a, b = blocks[:-1], blocks[1:]
    return blocks, np.repeat((y[b] - y[a]) / (x[b] - x[a]), b - a)


def ironed_virtual_value(F: Cdf, grid_size: int = _SCREENING_GRID) -> IronedTable:
    """Virtual values on a uniform quantile grid, ironed by the chord slopes of
    the cumulated virtual value's greatest convex minorant."""
    if not F.has_density:
        raise MissingDensityError("ironing requires an absolutely continuous distribution")
    G = int(grid_size)
    if G < 1:
        raise ValueError("grid_size must be at least 1")
    q = np.linspace(0.0, 1.0, G + 1)
    q_mid = 0.5 * (q[:-1] + q[1:])
    thetas = F.quantile_array(q)
    # a top midpoint level within a float step of 1 can invert to the upper
    # end, where a density such as Beta(0.25, 0.25)'s reads 0: take the
    # largest float whose unit coordinate (theta - lo) / (hi - lo) is below 1,
    # which on a rescaled support can lie more than one step below hi
    lo, hi = F.support
    top = np.nextafter(hi, lo)
    while (top - lo) / (hi - lo) >= 1.0:
        top = np.nextafter(top, lo)
    theta_mid = np.minimum(F.quantile_array(q_mid), top)
    dens = F.density_array(theta_mid)
    if np.any(dens <= 0.0) or not np.all(np.isfinite(dens)):
        raise MissingDensityError("ironing requires a strictly positive density on the support")
    psi = theta_mid - (1.0 - q_mid) / dens

    # cumulative virtual value: piecewise linear with slope psi per segment
    big_psi = np.concatenate([[0.0], np.cumsum(psi * np.diff(q))])
    blocks, psi_bar = _minorant_slopes(q, big_psi)
    return IronedTable(q, thetas, theta_mid, psi, psi_bar, big_psi, tuple(blocks.tolist()))


def _surplus_maximizers(w: np.ndarray, env: Environment) -> tuple[np.ndarray, int]:
    """For each ironed value w, the quantity in [0, x_max] that maximizes the
    surplus w * x - a * x**p."""
    x_max = float(env.x_max)

    def surplus(x: np.ndarray) -> np.ndarray:
        return w * x - np.asarray(env.cost(x))

    # the stationary point for a > 0 and p > 1; a linear surplus (p = 1 or
    # a = 0) is left to the boundary rules below
    a, p = env.cost.scale, env.cost.power
    if a > 0.0 and p > 1.0:
        # for p near 1 the power overflows to inf, which clips to x_max
        with np.errstate(over="ignore"):
            x_star = np.clip((np.maximum(w, 0.0) / (a * p)) ** (1.0 / (p - 1.0)), 0.0, x_max)
    else:
        x_star = np.zeros_like(w)
    best = surplus(x_star)
    # exact boundary when the surplus is monotone on [0, x_max]
    f_hi = surplus(np.full_like(w, x_max))
    x_star = np.where(f_hi >= best, x_max, x_star)
    best = np.maximum(best, f_hi)
    f_lo = surplus(np.zeros_like(w))
    x_star = np.where(f_lo >= best, 0.0, x_star)
    # nonpositive ironed values never trade
    return np.where(w <= 0.0, 0.0, x_star)


def optimal_screening_menu(F: Cdf, env: Environment, grid_size: int = _SCREENING_GRID) -> SolveResult:
    """Menu from pointwise maximization of the ironed virtual surplus."""
    table = ironed_virtual_value(F, grid_size)
    # the surplus psi_bar * x - c(x) depends on psi_bar alone: solve once per
    # distinct ironed value
    w, seg = np.unique(table.psi_bar, return_inverse=True)
    x_star = _surplus_maximizers(w, env)
    # ironing plus supermodularity make the allocation monotone; enforce
    # against float noise from independent solves
    x_star = np.maximum.accumulate(x_star[seg])

    # one allocation step at the first segment and wherever x* rises
    change = np.flatnonzero(np.diff(x_star, prepend=-np.inf))
    thresholds = table.thetas[change]
    if np.any(np.diff(thresholds) <= 0.0):
        raise CollapsedGridError(
            f"this law's quantile grid collapses at float resolution: on [{F.support[0]:g}, "
            f"{F.support[1]:g}], two of its {grid_size} levels where the allocation steps invert to one type"
        )
    allocation = Allocation(tuple(thresholds.tolist()), tuple(x_star[change].tolist()))
    menu = menu_from_allocation(allocation, env)
    value = expected_profit(menu, F, env)
    return SolveResult(menu, value, SolveMethod.SCREENING_IRONED, int(grid_size))


def optimal_profit(F: Cdf, env: Environment, grid_size: int | None = None) -> SolveResult:
    """Value function: a linear cost posts one price against any law, a
    convex cost irons, which needs a density."""
    if env.cost.power == 1.0:
        return optimal_uniform_price(F, env, _PRICE_GRID if grid_size is None else grid_size)
    if not F.has_density:
        raise UnsupportedPairError(
            "no solver for this pair: a cost power above 1 needs a distribution with a "
            "density (piecewise-linear or analytic); a linear cost (power 1) accepts any distribution"
        )
    return optimal_screening_menu(F, env, _SCREENING_GRID if grid_size is None else grid_size)
