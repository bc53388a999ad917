"""Type distributions: analytic families, empirical variants, and sup distance.

Every distribution is a `Cdf` with right-continuous evaluation F(theta), left
limits F(theta-), a generalized inverse quantile inf{theta : F(theta) >= q},
and inverse-transform sampling. The sup distance between two CDFs is computed
exactly at every jump and kink of either argument (both one-sided limits) and
on a 10^4-point grid for the smooth parts; for step and piecewise-linear
variants this is the exact supremum.

Quantiles of variants without a closed-form inverse (Beta, kernel-smoothed,
mixtures) are found by bisection to 1e-12, which keeps sampling deterministic
for a given stream. The Beta CDF itself is the regularized incomplete beta
function (continued-fraction evaluation via scipy.special.betainc).

Beta quantiles take the bisection's own path without evaluating the CDF at
each step: a guide gives an approximate inverse, and the descent compares
each of the bisection's midpoints 0.5*(lo+hi) with it. The guide is a
quintic Hermite table of the quantile, built once per (alpha, beta) with
`scipy.special.betaincinv` and cached for the process. Levels q <= 1/2 are
interpolated in s = q^(1/min(alpha, 8)) and levels above in
(1-q)^(1/min(beta, 8)), in which the quantile stays smooth into the tails;
a guess evaluates no CDF. On the support [0, 1] the bisection's midpoints
are the exact nodes k/2^42, so the final cell needs no descent: hi is the
smallest node at or above the guess, and lo the node below. Supports whose
midpoints round walk the descent, and their guess takes one Newton step on
F, since a miss there has no one-cell repair. Two CDF evaluations then
check the final cell, F(lo) < q <= F(hi), the only ones most levels make on
[0, 1]. A check fails at
ordinary levels too, where the guess is within a last bit of a node and
lands one cell off, and near q = 1 or at q = 0. On [0, 1] a failed level
tests the neighbouring cell with one more evaluation; what still fails goes
through the plain bisection. While F is nondecreasing on the midpoints, only
one final cell has F(lo) < q <= F(hi), and the plain bisection ends in it,
so a checked cell is the plain result bit for bit, whatever the accuracy of
the guide: a poor guess costs only evaluations. Guide, check and repair run
in blocks of levels, so that their temporaries stay small.

Sample files are read without decimal-to-binary conversion where a line has
the shape d.ddd: one digit, a point and D = 1 to 24 digits, as `write_sample`
writes values in [0, 10). The file is read once into a buffer with 24 bytes
in front; each line's last 24 bytes are read as three 8-byte words, masked
to the line's own digits, checked to be digits and converted eight digits at
a time (SWAR), which gives the integer m of d.ddd when it is below 2^64. The
value x = m / 10^D is then divided in x87 extended precision and rounded to a
double. m and 10^D (D <= 27) are exact in the 64-bit significand, so the
quotient r is x rounded to 64 bits. Every midpoint between two doubles has
54 significant bits, so it is a 64-bit value too: a midpoint strictly between
x and r would be nearer to x than r is. Rounding r to 53 bits therefore gives
the double nearest x, as `float()` does, unless r is itself a midpoint, which
the low 11 bits of its significand (0x400) show; about one line in 2048 is,
and it goes to `float()` with every line of another shape. The reader runs
only where long double has that 64-bit significand.
"""

from __future__ import annotations

import functools
import os
import re
import stat
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import EmpriceError
from .rng import substream

__all__ = [
    "Cdf",
    "Uniform",
    "BetaCdf",
    "PointMass",
    "Mixture",
    "EmpiricalStep",
    "PiecewiseLinear",
    "KernelShape",
    "KernelSpec",
    "KernelSmoothed",
    "Sample",
    "draw_sample",
    "sup_distance",
    "read_sample",
    "write_sample",
]

_BISECT_TOL = 1e-12
_SUP_GRID = 10_000
# cells of the Beta quantile guide's table, per half of the levels, and the
# largest power m of its abscissa s = q^(1/m)
_GUIDE_CELLS = 1024
_GUIDE_POWER = 8.0
# levels per block of a Beta quantile call: each float temporary (96 KiB)
# stays below glibc's default 128 KiB mmap threshold
_QUANTILE_BLOCK = 12_288


@dataclass(frozen=True)
class Sample:
    """Sorted i.i.d. observations of consumer types."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("sample must be a non-empty 1-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample values must be finite")
        v = np.sort(v)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sample) and np.array_equal(self.values, other.values)


class Cdf:
    """Base class; subclasses implement the vectorized evaluation hooks."""

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    @property
    def has_density(self) -> bool:
        return False

    @property
    def is_continuous(self) -> bool:
        locs, _ = self.atoms()
        return locs.size == 0

    def cdf_array(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cdf_left_array(self, theta: np.ndarray) -> np.ndarray:
        # continuous variants coincide with the right value
        return self.cdf_array(theta)

    def density_array(self, theta: np.ndarray) -> np.ndarray:
        raise EmpriceError(f"{type(self).__name__} has no density")

    def quantile_array(self, q: np.ndarray) -> np.ndarray:
        return _bisect_quantile(self, np.asarray(q, dtype=float))

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """(locations, masses) of point masses; empty for continuous variants."""
        return np.empty(0), np.empty(0)

    def special_points(self) -> np.ndarray:
        """Jump and kink locations, used for exact sup-distance evaluation."""
        return np.asarray(self.support, dtype=float)

    # scalar conveniences
    def cdf(self, theta: float) -> float:
        return float(self.cdf_array(np.asarray([theta]))[0])

    def cdf_left(self, theta: float) -> float:
        return float(self.cdf_left_array(np.asarray([theta]))[0])

    def quantile(self, q: float) -> float:
        return float(self.quantile_array(np.asarray([q]))[0])


def _check_levels(q) -> np.ndarray:
    """q as a float array; raises unless every level lies in [0, 1]."""
    q = np.asarray(q, dtype=float)
    if np.any((q < 0) | (q > 1)):
        raise ValueError("quantile levels must lie in [0, 1]")
    return q


def _bisect_steps(F: Cdf) -> int:
    lo_s, hi_s = F.support
    # 42 halvings, ceil(log2(1e12)) + 2, take a unit bracket below 1e-12
    return max(8, int(np.ceil(np.log2(max(hi_s - lo_s, 1e-300) / _BISECT_TOL))) + 2)


def _bisect_quantile(F: Cdf, q: np.ndarray, guess: np.ndarray | None = None) -> np.ndarray:
    """Generalized inverse by elementwise bisection.

    Invariant: F(hi) >= q everywhere, F(lo) < q (or lo is the support edge),
    so the limit is inf{theta : F(theta) >= q}. Elementwise, hence identical
    results whether calls are batched or not.

    With `guess`, an approximate inverse, the descent compares each midpoint
    with the guess instead of evaluating F. The final cell is then checked,
    F(lo) < q <= F(hi), and the levels that fail go through the plain
    bisection. Where F is nondecreasing on the midpoints, the only cell that
    can pass is the one the plain bisection ends in, so the bits are the same.
    On [0, 1] every midpoint is an exact node k/2^K, so `_guided_unit_quantile`
    finds the descent's cell in closed form and repairs one-cell misses.
    """
    _check_levels(q)
    lo_s, hi_s = F.support
    steps = _bisect_steps(F)
    if guess is not None and (lo_s, hi_s) == (0.0, 1.0):
        return _guided_unit_quantile(F, q, guess, steps)
    lo = np.full(q.shape, lo_s, dtype=float)
    hi = np.full(q.shape, hi_s, dtype=float)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        ge = F.cdf_array(mid) >= q if guess is None else mid >= guess
        hi = np.where(ge, mid, hi)
        lo = np.where(ge, lo, mid)
    if guess is not None:
        miss = ~((F.cdf_array(hi) >= q) & (F.cdf_array(lo) < q))
        if miss.any():
            hi[miss] = _bisect_quantile(F, q[miss])
    return hi


def _unit_cell(guess: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), the cell where the guided descent on [0, 1] ends.

    The descent's midpoints there are the nodes k/2^steps, and it ends on the
    smallest node at or above the guess: hi = ceil(guess * 2^steps) / 2^steps,
    clipped to [2^-steps, 1], with lo one node below. fmin and fmax send a NaN
    guess to hi = 1, where the descent ends when no comparison holds.
    """
    nodes = 2.0**steps
    hi = np.asarray(np.fmax(np.fmin(np.ceil(guess * nodes), nodes), 1.0) / nodes)
    return hi - 1.0 / nodes, hi


def _guided_unit_quantile(F: Cdf, q: np.ndarray, guess: np.ndarray, steps: int) -> np.ndarray:
    """The guided bisection on the support [0, 1], without the descent.

    A level whose cell from `_unit_cell` fails the check tests the cell one
    node up (F(hi) < q) or down (F(lo) >= q) with one evaluation of F; what
    still fails, NaN levels included, goes through the plain bisection.
    """
    lo, hi = _unit_cell(guess, steps)
    cell = 2.0**-steps
    f_hi = F.cdf_array(hi)
    f_lo = F.cdf_array(lo)
    up = (f_hi < q) & (hi < 1.0)
    near = up | ((f_lo >= q) & (lo > 0.0))
    miss = ~((f_hi >= q) & (f_lo < q))
    if near.any():
        # the neighbour shares a node with the cell, on the side that passed:
        # up needs F(new hi) >= q, down needs F(new lo) < q
        is_up = up[near]
        new_hi = hi[near] + np.where(is_up, cell, -cell)
        f_new = F.cdf_array(np.where(is_up, new_hi, new_hi - cell))
        ok = np.where(is_up, f_new >= q[near], f_new < q[near])
        hi[near] = np.where(ok, new_hi, hi[near])
        miss[near] = ~ok
    if miss.any():
        hi[miss] = _bisect_quantile(F, q[miss])
    return hi


@dataclass(frozen=True)
class Uniform(Cdf):
    a: float
    b: float

    def __post_init__(self) -> None:
        if not -np.inf < self.a < self.b < np.inf:
            raise ValueError("uniform requires finite a < b")

    @property
    def support(self) -> tuple[float, float]:
        return (self.a, self.b)

    @property
    def has_density(self) -> bool:
        return True

    def cdf_array(self, theta):
        return np.clip((np.asarray(theta, dtype=float) - self.a) / (self.b - self.a), 0.0, 1.0)

    def cdf(self, theta):
        # cdf_array's bits on a float: max(x, 0.0) keeps a NaN x, as np.clip does
        return min(max((float(theta) - self.a) / (self.b - self.a), 0.0), 1.0)

    cdf_left = cdf

    def density_array(self, theta):
        th = np.asarray(theta, dtype=float)
        inside = (th >= self.a) & (th <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def quantile_array(self, q):
        q = _check_levels(q)
        return self.a + q * (self.b - self.a)


@dataclass(frozen=True)
class BetaCdf(Cdf):
    """Beta(alpha, beta) rescaled to [lo, hi]."""

    alpha: float
    beta: float
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.alpha < np.inf and 0 < self.beta < np.inf):
            raise ValueError("beta shape parameters must be positive and finite")
        if not -np.inf < self.lo < self.hi < np.inf:
            raise ValueError("beta support requires finite lo < hi")

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    @property
    def has_density(self) -> bool:
        return True

    def cdf_array(self, theta):
        x = np.clip((np.asarray(theta, dtype=float) - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return _special().betainc(self.alpha, self.beta, x)

    def cdf(self, theta):
        # cdf_array's bits on a float, as in Uniform.cdf
        x = min(max((float(theta) - self.lo) / (self.hi - self.lo), 0.0), 1.0)
        return float(_special().betainc(self.alpha, self.beta, x))

    cdf_left = cdf

    def density_array(self, theta):
        special = _special()
        th = np.asarray(theta, dtype=float)
        x = (th - self.lo) / (self.hi - self.lo)
        out = np.zeros_like(x)
        inside = (x > 0.0) & (x < 1.0)
        xi = x[inside]
        ln = (self.alpha - 1) * np.log(xi) + (self.beta - 1) * np.log1p(-xi)
        ln -= special.betaln(self.alpha, self.beta)
        out[inside] = np.exp(ln) / (self.hi - self.lo)
        return out

    def quantile_array(self, q):
        q = _check_levels(q)
        out = np.empty(q.shape)
        levels, flat = q.reshape(-1), out.reshape(-1)
        # on [0, 1] a guess one cell off is repaired with one evaluation of F;
        # the descent of other supports has no repair, so there the guess gets
        # a Newton step on F to keep such misses from the plain bisection
        polish = (self.lo, self.hi) != (0.0, 1.0)
        for start in range(0, levels.size, _QUANTILE_BLOCK):
            block = levels[start:start + _QUANTILE_BLOCK]
            guess = _beta_guess(self.alpha, self.beta, block, polish)
            guess *= self.hi - self.lo
            guess += self.lo
            flat[start:start + _QUANTILE_BLOCK] = _bisect_quantile(self, block, guess)
        return out


@functools.cache
def _special():
    """scipy.special, imported on first use, so that start-up loads no scipy."""
    from scipy import special

    return special


@functools.lru_cache(maxsize=16)
def _guide_table(a: float, b: float) -> tuple:
    """Quintic Hermite table of the Beta(a, b) quantile on the levels [0, 1/2].

    The abscissa is s = q^(1/m), m = min(a, 8). F(x) ~ C x^a near 0, so for
    a <= 8 the quantile is smooth in s up to q = 0; the cap keeps the nodes
    spread over the levels that occur when a is large. The K+1 nodes are
    evenly spaced in s; each holds betaincinv, the slope
    x' = dx/ds = m s^(m-1) / f(x) and the curvature
    x'' = (m-1)/s x' - ((a-1)/x - (b-1)/(1-x)) x'^2, and each cell keeps the
    coefficients of its quintic in the local coordinate t in [0, 1]. Returns
    (K / s_end, m, the node quantiles, the coefficients low order first,
    log B(a, b)).
    """
    special = _special()
    m = min(a, _GUIDE_POWER)
    # numpy scalars: extreme shapes overflow or divide by zero to inf or NaN,
    # which only costs the check, instead of raising
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s_end = np.float64(0.5) ** (1.0 / m)
        h = s_end / _GUIDE_CELLS
        s = np.linspace(0.0, s_end, _GUIDE_CELLS + 1)
        x = special.betaincinv(a, b, s**m)
        log_beta = special.betaln(a, b)
        # f(x) = x^(a-1) (1-x)^(b-1) / B(a, b), in logs so that large shapes
        # neither overflow nor underflow
        slope = m * np.exp((m - 1.0) * np.log(s) - (a - 1.0) * np.log(x) - (b - 1.0) * np.log1p(-x) + log_beta)
        curve = (m - 1.0) / s * slope - ((a - 1.0) / x - (b - 1.0) / (1.0 - x)) * slope**2
        dx = np.diff(x)
        # at s = 0, and where s^m underflows, the tail
        # x ~ c s + (b-1) c^2 s^2 / (a+1), c = (a B(a, b))^(1/a), gives both
        # derivatives for m = a; with a zero curvature there, most levels of
        # cell 0 missed their bisection cell when a < 1. For m < a the slope
        # is infinite at s = 0: take a secant and no curvature
        if m == a:
            c = np.exp((np.log(a) + log_beta) / a)
            tail_slope, tail_curve = c, 2.0 * (b - 1.0) * c * c / (a + 1.0)
        else:
            tail_slope, tail_curve = np.append(dx, dx[-1]) / h, 0.0
        tail = ~(np.isfinite(slope) & np.isfinite(curve) & (x > 0.0))
        slope = np.where(tail, tail_slope, slope) * h
        curve = np.where(tail, tail_curve, curve) * (h * h)
        v0, v1, w0, w1 = slope[:-1], slope[1:], curve[:-1], curve[1:]
        coef = (
            x[:-1],
            v0,
            0.5 * w0,
            10.0 * dx - 6.0 * v0 - 4.0 * v1 - 1.5 * w0 + 0.5 * w1,
            -15.0 * dx + 8.0 * v0 + 7.0 * v1 + 1.5 * w0 - w1,
            6.0 * dx - 3.0 * v0 - 3.0 * v1 - 0.5 * w0 + 0.5 * w1,
        )
        return 1.0 / h, m, x, coef, log_beta


def _lower_guess(a: float, b: float, p: np.ndarray, polish: bool) -> np.ndarray:
    """Approximate Beta(a, b) quantiles of levels p in [0, 1/2] (NaN allowed).

    The table's quintic at s = p^(1/m), clipped to the table cell: one power
    and a Horner pass per level, no evaluation of F. With `polish`, one
    Newton step on F(y) = p comes before the clip. A NaN or non-finite value
    only costs the check.
    """
    scale, m, x, (c0, c1, c2, c3, c4, c5), log_beta = _guide_table(a, b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # fmax sends NaN to cell 0, so the table is never indexed by garbage
        u = np.fmin(np.fmax(p ** (1.0 / m) * scale, 0.0), float(_GUIDE_CELLS))
        j = np.minimum(u.astype(np.intp), _GUIDE_CELLS - 1)
        u -= j
        y = c5[j]
        for c in (c4, c3, c2, c1, c0):
            y *= u
            y += c[j]
        if polish:
            step = _special().betainc(a, b, y) - p
            step /= np.exp((a - 1.0) * np.log(y) + (b - 1.0) * np.log1p(-y) - log_beta)
            y -= step
        return np.fmin(np.fmax(y, x[j]), x[j + 1])


def _beta_guess(a: float, b: float, q: np.ndarray, polish: bool) -> np.ndarray:
    """Approximate Beta(a, b) quantiles on [0, 1] of checked 1-D levels q.

    A level above 1/2 takes 1 minus the Beta(b, a) quantile of 1 - q (exact
    in floats for q >= 1/2), so both tails use a table of lower levels.
    """
    upper = q > 0.5
    guess = np.empty_like(q)
    guess[~upper] = _lower_guess(a, b, q[~upper], polish)
    guess[upper] = 1.0 - _lower_guess(b, a, 1.0 - q[upper], polish)
    return guess


@dataclass(frozen=True)
class PointMass(Cdf):
    theta0: float

    def __post_init__(self) -> None:
        if not -np.inf < self.theta0 < np.inf:
            raise ValueError("point mass location must be finite")

    @property
    def support(self) -> tuple[float, float]:
        return (self.theta0, self.theta0)

    def cdf_array(self, theta):
        return (np.asarray(theta, dtype=float) >= self.theta0).astype(float)

    def cdf_left_array(self, theta):
        return (np.asarray(theta, dtype=float) > self.theta0).astype(float)

    def quantile_array(self, q):
        q = _check_levels(q)
        return np.full(q.shape, self.theta0, dtype=float)

    def atoms(self):
        return np.asarray([self.theta0]), np.asarray([1.0])

    def special_points(self):
        return np.asarray([self.theta0])


@dataclass(frozen=True)
class Mixture(Cdf):
    weights: np.ndarray
    components: tuple[Cdf, ...]

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", tuple(self.components))
        if w.ndim != 1 or w.size != len(self.components) or w.size == 0:
            raise ValueError("one weight per component required")
        if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")

    @property
    def support(self) -> tuple[float, float]:
        los, his = zip(*(c.support for c in self.components))
        return (min(los), max(his))

    @property
    def has_density(self) -> bool:
        return all(c.has_density for c in self.components)

    def _weighted(self, method: str, theta) -> np.ndarray:
        """sum_i w_i * component_i.method(theta), added in component order."""
        th = np.asarray(theta, dtype=float)
        out = np.zeros(th.shape, dtype=float)
        for w, c in zip(self.weights, self.components):
            out += w * getattr(c, method)(th)
        return out

    def cdf_array(self, theta):
        return self._weighted("cdf_array", theta)

    def cdf_left_array(self, theta):
        return self._weighted("cdf_left_array", theta)

    def density_array(self, theta):
        return self._weighted("density_array", theta)

    def atoms(self):
        locs: dict[float, float] = {}
        for w, c in zip(self.weights, self.components):
            al, am = c.atoms()
            for loc, m in zip(al, am):
                locs[float(loc)] = locs.get(float(loc), 0.0) + float(w) * float(m)
        if not locs:
            return np.empty(0), np.empty(0)
        keys = np.asarray(sorted(locs))
        return keys, np.asarray([locs[k] for k in keys])

    def special_points(self):
        return np.unique(np.concatenate([c.special_points() for c in self.components]))


@dataclass(frozen=True)
class EmpiricalStep(Cdf):
    """Right-continuous empirical distribution: jumps of 1/n at each observation."""

    sample: Sample

    @property
    def support(self) -> tuple[float, float]:
        v = self.sample.values
        return (float(v[0]), float(v[-1]))

    def cdf_array(self, theta):
        th = np.asarray(theta, dtype=float)
        return np.searchsorted(self.sample.values, th, side="right") / self.sample.n

    def cdf_left_array(self, theta):
        th = np.asarray(theta, dtype=float)
        return np.searchsorted(self.sample.values, th, side="left") / self.sample.n

    def quantile_array(self, q):
        q = _check_levels(q)
        n = self.sample.n
        k = np.maximum(np.ceil(q * n).astype(int), 1)
        return self.sample.values[k - 1]

    def atoms(self):
        locs, counts = np.unique(self.sample.values, return_counts=True)
        return locs, counts / self.sample.n

    def special_points(self):
        return np.unique(self.sample.values)


@dataclass(frozen=True)
class PiecewiseLinear(Cdf):
    """Continuous piecewise-linear CDF through (thetas, probs) knots."""

    thetas: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.thetas, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "thetas", t)
        object.__setattr__(self, "probs", p)
        if t.ndim != 1 or t.shape != p.shape or t.size < 2:
            raise ValueError("need matching 1-D knot arrays with at least two knots")
        if np.any(np.diff(t) <= 0):
            raise ValueError("knot locations must be strictly increasing")
        if np.any(np.diff(p) < 0) or abs(p[0]) > 1e-12 or abs(p[-1] - 1.0) > 1e-12:
            raise ValueError("knot values must be nondecreasing from 0 to 1")

    @property
    def support(self) -> tuple[float, float]:
        return (float(self.thetas[0]), float(self.thetas[-1]))

    @property
    def has_density(self) -> bool:
        return True

    def cdf_array(self, theta):
        th = np.asarray(theta, dtype=float)
        return np.interp(th, self.thetas, self.probs, left=0.0, right=1.0)

    def density_array(self, theta):
        th = np.asarray(theta, dtype=float)
        slopes = np.diff(self.probs) / np.diff(self.thetas)
        idx = np.clip(np.searchsorted(self.thetas, th, side="right") - 1, 0, slopes.size - 1)
        inside = (th >= self.thetas[0]) & (th < self.thetas[-1])
        return np.where(inside, slopes[idx], 0.0)

    def quantile_array(self, q):
        q = _check_levels(q)
        # leftmost knot index with prob >= q; exact for flat runs
        i = np.searchsorted(self.probs, q, side="left")
        i = np.clip(i, 0, self.probs.size - 1)
        out = self.thetas[i].astype(float).copy()
        interior = (i > 0) & (q > self.probs[np.maximum(i - 1, 0)])
        j = i[interior]
        p0 = self.probs[j - 1]
        p1 = self.probs[j]
        t0 = self.thetas[j - 1]
        t1 = self.thetas[j]
        out[interior] = t0 + (q[interior] - p0) * (t1 - t0) / (p1 - p0)
        return out

    def special_points(self):
        return self.thetas


class KernelShape(Enum):
    UNIFORM = "uniform"
    TRIANGLE = "triangle"
    EPANECHNIKOV = "epanechnikov"


@dataclass(frozen=True)
class KernelSpec:
    """Compactly supported kernel on [-1, 1] with a closed-form first
    absolute moment k1 = int |u| K(u) du, which sets the kernel bound's gap
    k1 h (B + 1) (`guarantees.KernelBound`).
    """

    shape: KernelShape

    @property
    def k1(self) -> float:
        return {KernelShape.UNIFORM: 0.5, KernelShape.TRIANGLE: 1.0 / 3.0, KernelShape.EPANECHNIKOV: 3.0 / 8.0}[self.shape]

    def density(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        a = np.abs(u)
        if self.shape is KernelShape.UNIFORM:
            return np.where(a <= 1.0, 0.5, 0.0)
        if self.shape is KernelShape.TRIANGLE:
            return np.maximum(1.0 - a, 0.0)
        return np.where(a <= 1.0, 0.75 * (1.0 - u * u), 0.0)

    def integrated(self, u: np.ndarray) -> np.ndarray:
        """Kernel CDF: int_{-inf}^{u} K."""
        u = np.clip(np.asarray(u, dtype=float), -1.0, 1.0)
        if self.shape is KernelShape.UNIFORM:
            return 0.5 * (u + 1.0)
        if self.shape is KernelShape.TRIANGLE:
            below = 0.5 * (1.0 + u) ** 2
            above = 1.0 - 0.5 * (1.0 - u) ** 2
            return np.where(u <= 0.0, below, above)
        return 0.25 * (2.0 + 3.0 * u - u**3)


@dataclass(frozen=True)
class KernelSmoothed(Cdf):
    """Kernel CDF estimate: average of integrated kernels at the observations."""

    sample: Sample
    kernel: KernelSpec
    h: float

    def __post_init__(self) -> None:
        if not self.h > 0:
            raise ValueError("bandwidth must be positive")

    @property
    def support(self) -> tuple[float, float]:
        v = self.sample.values
        return (float(v[0]) - self.h, float(v[-1]) + self.h)

    @property
    def has_density(self) -> bool:
        return True

    def _reduce(self, theta, fn):
        th = np.asarray(theta, dtype=float)
        v = self.sample.values
        # chunk the outer product so huge (eval x sample) grids stay bounded
        chunk = max(1, int(2e7) // max(v.size, 1))
        flat = th.reshape(-1)
        res = np.empty(flat.shape, dtype=float)
        for s in range(0, flat.size, chunk):
            block = flat[s : s + chunk, None]
            res[s : s + chunk] = fn((block - v[None, :]) / self.h).mean(axis=1)
        return res.reshape(th.shape)

    def cdf_array(self, theta):
        return self._reduce(theta, self.kernel.integrated)

    def density_array(self, theta):
        return self._reduce(theta, self.kernel.density) / self.h

    def special_points(self):
        v = np.unique(self.sample.values)
        return np.unique(np.concatenate([v - self.h, v, v + self.h]))


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def draw_sample(F: Cdf, n: int, seed: int) -> Sample:
    """n i.i.d. draws by inverse transform on the stream keyed by (seed,)."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    u = substream(seed).random(n)
    return Sample(F.quantile_array(u))


def sup_distance(F: Cdf, G: Cdf) -> float:
    """sup over the real line of |F - G|.

    Evaluated at both one-sided limits of every jump/kink of either argument
    plus a 10^4-point grid: exact whenever the sup is attained at a knot
    (always the case for step and piecewise-linear inputs).
    """
    lo = min(F.support[0], G.support[0])
    hi = max(F.support[1], G.support[1])
    if hi <= lo:
        pts = np.asarray([lo])
    else:
        pts = np.linspace(lo, hi, _SUP_GRID)
    cand = np.unique(np.concatenate([pts, F.special_points(), G.special_points()]))
    right = np.abs(F.cdf_array(cand) - G.cdf_array(cand))
    left = np.abs(F.cdf_left_array(cand) - G.cdf_left_array(cand))
    return float(max(right.max(), left.max()))


def read_sample(path: str | Path, header: bool = False) -> Sample:
    """Read one observation per line; `header` skips the first line.

    Lines d.ddd (one digit, a point, 1 to 24 digits; the shape
    `write_sample` gives values in [0, 10)) are read exactly without
    `float()`: m / 10^D divided in 64-bit precision rounds to the same
    double as the decimal itself unless the quotient is a double midpoint
    (module docstring). Midpoints, m of 2^64 or more and lines of any other
    shape go to `float()`. The general text path reads the whole file
    instead when its first data line is not d.ddd, when more than 1/8 of
    the lines are left over, or when a leftover line is one `float()`
    rejects (a blank line, a comma column, a bad value) or holds a byte
    that a text split treats otherwise than a split on b"\n" (\r, \x0b,
    \x0c, \x1c-\x1f, non-ASCII). Either way the values and the errors are
    those of the general path.
    """
    exact = _read_sample_exact(path, header) if _EXTENDED else None
    if exact is None:
        return _read_sample_text(path, header)
    return Sample(exact[0])


def _read_sample_text(path: str | Path, header: bool) -> Sample:
    """The general path: decoded text, blank lines, a comma column."""
    raw = Path(path).read_text().strip().splitlines()
    if header:
        raw = raw[1:]
    try:
        # one bare number per line; float() itself strips the whitespace
        vals = np.fromiter(map(float, raw), float, count=len(raw))
    except ValueError:
        # blank lines, a comma column, or a bad line (whose message follows)
        vals = np.asarray([float(line.strip().split(",")[0]) for line in raw if line.strip()])
    if vals.size == 0:
        raise ValueError(f"no observations found in {path}")
    return Sample(vals)


# x87 extended precision: a 64-bit significand in the low 8 of 16 bytes,
# which division rounds to all 64 bits (1/3 there ends in ...AAAB)
_EXTENDED = (
    np.finfo(np.longdouble).nmant == 63
    and np.dtype(np.longdouble).itemsize == 16
    and (np.ones(1, np.longdouble) / 3).view(np.uint64)[0] == 0xAAAAAAAAAAAAAAAB
)
# bytes in front of the first line, so that each line's three 8-byte words
# start inside the buffer
_PAD = 24
# lines per block of the exact reader: its temporaries stay below glibc's
# default 128 KiB mmap threshold
_READ_BLOCK = 2048
_FAST_LINE = re.compile(rb"[0-9]\.[0-9]{1,24}")
_BLANK_LINE = re.compile(rb"[ \t]*")
# bytes that str.splitlines or str.strip treat as a break or as whitespace
# and that a split on b"\n" and float() on bytes do not
_TEXT_ONLY_BYTE = re.compile(rb"[\r\x0b\x0c\x1c-\x1f\x80-\xff]")
_ZEROS = np.uint64(0x3030303030303030)
_ABOVE_NINE = np.uint64(0x7676767676767676)
_HIGH_BITS = np.uint64(0x8080808080808080)


def _line_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per line length L (capped at 27), for the last 24 bytes of a line
    read as three words: the masks of each word's own digits, the powers
    10^k of the words' digit counts and the bound on the leading part of
    m, and the divisor 10^(L-2). Lengths outside 3..26 get bound 0."""
    masks = np.zeros((28, 3), np.uint64)
    powers = np.zeros((28, 4), np.uint64)
    scale = np.ones(28, np.longdouble)
    power = np.longdouble(1)
    for length in range(3, 27):
        digits = length - 2
        power *= 10  # exact up to 10^27
        scale[length] = power
        for col, k in enumerate((min(max(digits - 16, 0), 8), min(max(digits - 8, 0), 8), min(digits, 8))):
            masks[length, col] = (2**64 - 1) ^ (2 ** (8 * (8 - k)) - 1)  # the word's top k bytes
            powers[length, col] = 10**k
        # T below this bound keeps m = T * 10^8 + (last 8 digits) below
        # 2^64 + 10^8: m wraps at most once, and then to below its last 8
        # digits
        powers[length, 3] = (2**64 - 1) // 10**8 + 1
    return masks, powers, scale


_LINE_MASKS, _LINE_POWERS, _LINE_SCALE = _line_tables()


def _read_sample_exact(path: str | Path, header: bool) -> tuple[np.ndarray, int] | None:
    """The values of the file's lines in file order and the number of lines
    left to `float()`, or None where the general path must read the file."""
    with Path(path).open("rb", buffering=0) as f:
        info = os.fstat(f.fileno())
        if not stat.S_ISREG(info.st_mode) or info.st_size == 0:
            return None
        size = info.st_size
        data = bytearray(_PAD + size + 1)
        if f.readinto(memoryview(data)[_PAD : _PAD + size]) != size:
            return None
    # the general path's strip drops trailing blanks
    stop = _PAD + size
    while stop > _PAD and data[stop - 1] in b" \t\n":
        stop -= 1
    if stop == _PAD:
        return None
    data[_PAD - 1] = data[stop] = 10
    start = _PAD
    if header:
        start = data.find(b"\n", _PAD, stop + 1) + 1
        if start > stop or _TEXT_ONLY_BYTE.search(data, _PAD, start - 1) or _BLANK_LINE.fullmatch(data, _PAD, start - 1):
            return None
    if not _FAST_LINE.fullmatch(data, start, data.find(b"\n", start, stop + 1)):
        return None

    # bounds[i] and bounds[i + 1] are the line breaks around line i
    bounds = np.flatnonzero(np.frombuffer(data, np.uint8, stop + 1) == 10)[int(header):]
    n = bounds.size - 1
    tails = np.ndarray((len(data) - 23,), "V24", data, 0, (1,))
    head = np.frombuffer(data, np.uint8)
    out = np.empty(n)
    missed = []
    count = 0
    for i in range(0, n, _READ_BLOCK):
        miss = _read_block_exact(tails, head, bounds[i : i + _READ_BLOCK + 1], out[i : i + _READ_BLOCK])
        count += miss.size
        if 8 * count > n:
            return None
        missed.append(miss + i)
    for i in np.concatenate(missed).tolist():
        lo, hi = int(bounds[i]) + 1, int(bounds[i + 1])
        if _TEXT_ONLY_BYTE.search(data, lo, hi):
            return None
        try:
            out[i] = float(data[lo:hi])
        except ValueError:
            return None
    return out, count


def _read_block_exact(tails: np.ndarray, head: np.ndarray, bounds: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the value of each d.ddd line between consecutive `bounds` into
    `out`; return the indices of the lines left to `float()`.

    `tails[j]` is the 24 bytes from `j`, `head` the buffer's bytes."""
    ends = bounds[1:]
    starts = bounds[:-1] + 1
    length = np.minimum(ends - starts, 27)
    # each line's last 24 bytes as three words of digit values, with the
    # bytes before the line's digits set to 0; a byte above 9 flags a
    # non-digit
    z = tails[ends - 24].view(np.uint64).reshape(-1, 3)
    z ^= _ZEROS
    z &= _LINE_MASKS.take(length, axis=0)
    flags = z + _ABOVE_NINE
    flags |= z
    flags = flags[:, 0] | flags[:, 1] | flags[:, 2]
    # the digit before the point
    lead = head[starts] - 48
    dot = head[1:][starts]
    # SWAR: eight digit bytes to one integer in three multiplies
    z *= 2561
    z >>= 8
    z &= 0x00FF00FF00FF00FF
    z *= 6553601
    z >>= 16
    z &= 0x0000FFFF0000FFFF
    z *= 42949672960001
    z >>= 32
    powers = _LINE_POWERS.take(length, axis=0)
    top = lead.astype(np.uint64)
    top *= powers[:, 0]
    top += z[:, 0]
    top *= powers[:, 1]
    top += z[:, 1]
    m = top * powers[:, 2]
    m += z[:, 2]
    ok = (flags & _HIGH_BITS) == 0
    ok &= lead < 10
    ok &= dot == 46
    ok &= top < powers[:, 3]
    ok &= m >= z[:, 2]
    r = m.astype(np.longdouble)
    r /= _LINE_SCALE.take(length)
    ok &= (r.view(np.uint64)[::2] & 0x7FF) != 0x400
    out[...] = r
    return np.flatnonzero(~ok)


def write_sample(path: str | Path, sample: Sample, header: bool = False) -> None:
    """Write one observation per line with 17 significant digits."""
    lines = []
    if header:
        lines.append("theta")
    lines.extend(f"{v:.17g}" for v in sample.values)
    Path(path).write_text("\n".join(lines) + "\n")
