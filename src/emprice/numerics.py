"""One-dimensional maximization shared by the price and reserve solvers.

`argmax_refine` takes the best point of a grid and refines it inside its
bracketing cell with `golden_max`, which runs golden section on any number of
brackets at once.
"""

from __future__ import annotations

import numpy as np

__all__ = ["golden_max", "argmax_refine"]

_RATIO = (np.sqrt(5.0) - 1.0) / 2.0
_TOL = 1e-10
_MAX_STEPS = 200


def golden_max(f, lo, hi) -> tuple[np.ndarray, np.ndarray, int]:
    """Golden-section maximization over each bracket [lo[i], hi[i]].

    `f` maps an array of points, one per bracket, to their values. Each step
    keeps the better interior point of every bracket and evaluates `f` once,
    at the new ones. Steps run until every bracket is at most 1e-10 wide, or
    200 times. Returns (argmax, value, steps); a one-element bracket follows
    the scalar golden-section recurrence exactly.
    """
    a, b = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    c = b - _RATIO * (b - a)
    d = a + _RATIO * (b - a)
    fc, fd = f(c), f(d)
    steps = 0
    while np.max(b - a) > _TOL and steps < _MAX_STEPS:
        steps += 1
        # keep [a, d] with c as its upper interior point, or [c, b] with d as
        # its lower one; x is the new interior point
        left = fc >= fd
        x = np.where(left, d - _RATIO * (d - a), c + _RATIO * (b - c))
        fx = f(x)
        a, b, c, d, fc, fd = np.where(left, (a, d, x, c, fx, fc), (c, b, d, x, fd, fx))
    left = fc >= fd
    return np.where(left, c, d), np.where(left, fc, fd), steps


def argmax_refine(points, values, f, lo: float, hi: float, atoms=()) -> tuple[float, float, int]:
    """Best point of a grid, refined by golden section inside its bracket.

    The first argmax of `values` (the smallest point on ties) is bracketed by
    its neighbours in `points`, or by `lo`/`hi` at the ends, and refined with
    `golden_max(f, ...)` unless an atom lies strictly inside the bracket,
    where `f` may jump. The refined point replaces the grid point when its
    value is higher, or equal at a smaller point. Returns (point, value,
    golden-section steps).
    """
    k = int(np.argmax(values))
    best_x, best_val = float(points[k]), float(values[k])
    blo = float(points[k - 1]) if k > 0 else lo
    bhi = float(points[k + 1]) if k + 1 < len(points) else hi
    atoms = np.asarray(atoms, dtype=float)
    if not bhi > blo or np.any((atoms > blo) & (atoms < bhi)):
        return best_x, best_val, 0
    x, val, steps = golden_max(f, np.asarray([blo]), np.asarray([bhi]))
    x, val = float(x[0]), float(val[0])
    if val > best_val or (val == best_val and x < best_x):
        best_x, best_val = x, val
    return best_x, best_val, steps
