"""One-dimensional maximization shared by the price and reserve solvers.

`argmax_refine` takes the best point of a grid and refines it inside its
bracketing cell with `golden_max`, a golden section on one bracket. The
objective of the golden section maps a float to a float, and the recurrence
runs on Python floats: each step keeps the better interior point and
evaluates the objective once, at the new one. A caller may give the grid
value -inf where it has shown that a point cannot be the maximizer (the
price solver's pruned scan does): the first argmax, and so the bracket, stay
those of the full grid.
"""

from __future__ import annotations

import numpy as np

__all__ = ["golden_max", "argmax_refine"]

_RATIO = float((np.sqrt(5.0) - 1.0) / 2.0)
_TOL = 1e-10
_MAX_STEPS = 200


def golden_max(f, lo: float, hi: float) -> tuple[float, float, int]:
    """Golden-section maximization over the bracket [lo, hi].

    `f` maps a float to its value. Each step keeps [a, d] with c as its upper
    interior point, or [c, b] with d as its lower one, and evaluates `f` once,
    at the new interior point. Steps run until the bracket is at most 1e-10
    wide, or 200 times. Returns (argmax, value, steps).
    """
    a, b = float(lo), float(hi)
    c = b - _RATIO * (b - a)
    d = a + _RATIO * (b - a)
    fc, fd = f(c), f(d)
    steps = 0
    while b - a > _TOL and steps < _MAX_STEPS:
        steps += 1
        if fc >= fd:
            b, c, d, fd = d, d - _RATIO * (d - a), c, fc
            fc = f(c)
        else:
            a, c, d, fc = c, d, c + _RATIO * (b - c), fd
            fd = f(d)
    return (c, fc, steps) if fc >= fd else (d, fd, steps)


def argmax_refine(points, values, f, lo: float, hi: float, atoms=()) -> tuple[float, float, int]:
    """Best point of a grid, refined by golden section inside its bracket.

    The first argmax of `values` (the smallest point on ties) is bracketed by
    its neighbours in `points`, or by `lo`/`hi` at the ends, and refined with
    `golden_max(f, ...)`, `f` a float -> float objective, unless an atom lies
    strictly inside the bracket, where `f` may jump. The refined point
    replaces the grid point when its value is higher, or equal at a smaller
    point. Returns (point, value, golden-section steps).
    """
    k = int(np.argmax(values))
    best_x, best_val = float(points[k]), float(values[k])
    blo = float(points[k - 1]) if k > 0 else lo
    bhi = float(points[k + 1]) if k + 1 < len(points) else hi
    atoms = np.asarray(atoms, dtype=float)
    if not bhi > blo or np.any((atoms > blo) & (atoms < bhi)):
        return best_x, best_val, 0
    x, val, steps = golden_max(f, blo, bhi)
    if val > best_val or (val == best_val and x < best_x):
        best_x, best_val = x, val
    return best_x, best_val, steps
