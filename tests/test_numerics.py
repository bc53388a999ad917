"""The shared golden section and grid-then-refine search.

`_golden_max_reference` is the scalar golden section the price solver used
before the shared one; `golden_max` must reproduce it bit for bit (argmax,
value and step count). Both take a float -> float objective; `_scalar` makes
one of an array objective, evaluated on a one-element array.
`_golden_max_brackets` runs the same recurrence on arrays of brackets at once:
it is the golden section the screening solver ran before its closed form, and
the reference `test_solvers` checks that closed form against.
"""

import math

import numpy as np
import pytest

from emprice.numerics import argmax_refine, golden_max

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_max_reference(f, lo, hi, tol=1e-10, max_steps=201):
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while b - a > tol:
        it += 1
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        if it >= max_steps:
            break
    x = c if fc >= fd else d
    return x, max(fc, fd), it


def _scalar(f):
    """The float -> float objective of an array objective f."""
    return lambda r: float(f(np.asarray([r]))[0])


def _golden_max_brackets(f, lo, hi):
    """Golden-section maximization over each bracket [lo[i], hi[i]].

    `f` maps an array of points, one per bracket, to their values. Each step
    keeps the better interior point of every bracket and evaluates `f` once,
    at the new ones. Steps run until every bracket is at most 1e-10 wide, or
    200 times. Returns the argmax and value arrays and the step count.
    """
    a, b = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    steps = 0
    while np.max(b - a) > 1e-10 and steps < 200:
        steps += 1
        # keep [a, d] with c as its upper interior point, or [c, b] with d as
        # its lower one; x is the new interior point
        left = fc >= fd
        x = np.where(left, d - _GOLDEN * (d - a), c + _GOLDEN * (b - c))
        fx = f(x)
        a, b, c, d, fc, fd = np.where(left, (a, d, x, c, fx, fc), (c, b, d, x, fd, fx))
    left = fc >= fd
    return np.where(left, c, d), np.where(left, fc, fd), steps


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


OBJECTIVES = {
    "quadratic": lambda x: -(x - 0.3) ** 2,
    "increasing": lambda x: x,
    "decreasing": lambda x: -x,
    "flat": lambda x: np.zeros_like(x),
    "kink": lambda x: -np.abs(x - 0.61803),
    "step": lambda x: np.where(x < 0.4, 1.0, 0.0),
    "price": lambda x: (x - 0.2) * (1.0 - x**2),
    "wavy": lambda x: np.sin(7.0 * x) + 0.1 * x,
}
BRACKETS = [(0.0, 1.0), (-3.0, 7.5), (0.25, 0.2500001), (0.1, 0.1 + 5e-11), (0.4, 0.4), (-1e5, 1e5), (1e-12, 2e-12)]


@pytest.mark.parametrize("lo,hi", BRACKETS)
@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_one_bracket_matches_scalar_reference(name, lo, hi):
    f = OBJECTIVES[name]
    x_ref, v_ref, it_ref = _golden_max_reference(_scalar(f), lo, hi)
    x, v, steps = golden_max(_scalar(f), lo, hi)
    assert (_bits(x), _bits(v), steps) == (_bits(x_ref), _bits(v_ref), it_ref)
    # the array reference follows the same recurrence on a one-element bracket
    xs, vs, steps = _golden_max_brackets(f, np.asarray([lo]), np.asarray([hi]))
    assert (_bits(xs[0]), _bits(vs[0]), steps) == (_bits(x_ref), _bits(v_ref), it_ref)


def test_each_step_evaluates_once_on_floats():
    calls = []

    def f(x):
        calls.append(type(x))
        return -(x - 0.3) ** 2

    x, v, steps = golden_max(f, 0, 1)
    assert type(x) is float and type(v) is float and type(steps) is int
    assert len(calls) == steps + 2 and set(calls) == {float}


def test_brackets_step_together():
    # every bracket follows the scalar recurrence for as many steps as the
    # slowest one needs
    lo = np.asarray([0.0, -2.0, 0.3, 0.5, 1.0])
    hi = np.asarray([1.0, 5.0, 0.3 + 1e-8, 0.5, 4.0])
    peak = np.asarray([0.2, 4.9, 0.3, 0.5, 0.0])
    x, v, steps = _golden_max_brackets(lambda r: -(r - peak) ** 2, lo, hi)
    assert steps == max(
        _golden_max_reference(lambda r, p=p: -(r - p) ** 2, a, b)[2] for a, b, p in zip(lo, hi, peak)
    )
    for i, (a, b, p) in enumerate(zip(lo, hi, peak)):
        x_ref, v_ref, _ = _golden_max_reference(lambda r: -(r - p) ** 2, a, b, tol=-1.0, max_steps=steps)
        assert (_bits(x[i]), _bits(v[i])) == (_bits(x_ref), _bits(v_ref))


def test_each_step_evaluates_once():
    calls = []

    def f(x):
        calls.append(x.size)
        return -(x - 0.3) ** 2

    _, _, steps = _golden_max_brackets(f, np.zeros(4), np.ones(4))
    assert len(calls) == steps + 2 and set(calls) == {4}


@pytest.mark.parametrize("lo,hi", [(0.0, 1e40), (-1e6, 1e6)])
def test_step_cap(lo, hi):
    # these brackets never narrow to 1e-10: the first is too wide for 200
    # steps, and float spacing near 1e6 is 1.2e-10. The scalar loop stopped
    # after 201 steps; golden_max stops one step earlier on the same recurrence
    g = _scalar(OBJECTIVES["increasing"])
    assert _golden_max_reference(g, lo, hi)[2] == 201
    x_ref, v_ref, _ = _golden_max_reference(g, lo, hi, max_steps=200)
    x, v, steps = golden_max(g, lo, hi)
    assert (_bits(x), _bits(v), steps) == (_bits(x_ref), _bits(v_ref), 200)


def quad(peak):
    # float -> float for the refinement, and elementwise on the grid
    return lambda x: -(x - peak) ** 2


class TestArgmaxRefine:
    points = np.asarray([0.2, 0.5, 0.8])

    def test_refined_point_wins_when_better(self):
        f = quad(0.4)
        x, v, steps = argmax_refine(self.points, f(self.points), f, 0.0, 1.0)
        assert steps > 0
        assert x == pytest.approx(0.4, abs=1e-9) and v > f(0.5)

    def test_grid_point_kept_when_refinement_is_worse(self):
        f = quad(0.4)
        x, v, steps = argmax_refine(self.points, np.asarray([0.0, 5.0, 0.0]), f, 0.0, 1.0)
        assert (x, v) == (0.5, 5.0) and steps > 0

    def test_first_argmax_and_equal_value_at_smaller_point(self):
        # ties in the grid keep the first point; a refined point of equal
        # value wins only if it is smaller
        flat = lambda x: 1.0
        x, v, _ = argmax_refine(self.points, np.ones(3), flat, 0.0, 1.0)
        assert v == 1.0 and 0.0 <= x < 0.2
        x, v, _ = argmax_refine(self.points, np.ones(3), flat, 0.2, 1.0)
        assert (x, v) == (0.2, 1.0)

    def test_atom_inside_bracket_skips_refinement(self):
        f = quad(0.4)
        x, v, steps = argmax_refine(self.points, f(self.points), f, 0.0, 1.0, atoms=np.asarray([0.45]))
        assert (x, v, steps) == (0.5, f(0.5), 0)

    def test_atom_on_bracket_end_does_not_skip(self):
        f = quad(0.4)
        x, _, steps = argmax_refine(self.points, f(self.points), f, 0.0, 1.0, atoms=np.asarray([0.2, 0.8]))
        assert steps > 0 and x == pytest.approx(0.4, abs=1e-9)

    @pytest.mark.parametrize("peak,lo,hi", [(0.05, 0.0, 0.5), (0.95, 0.5, 1.0)])
    def test_edge_brackets_use_lo_and_hi(self, peak, lo, hi):
        # k = 0 brackets [lo, points[1]]; k = last brackets [points[-2], hi]
        f = quad(peak)
        x, _, steps = argmax_refine(self.points, f(self.points), f, 0.0, 1.0)
        ref, _, it = _golden_max_reference(f, lo, hi)
        assert (_bits(x), steps) == (_bits(ref), it)
        assert math.isclose(x, peak, abs_tol=1e-9)

    def test_empty_bracket_returns_grid_point(self):
        f = quad(0.3)
        assert argmax_refine(np.asarray([0.3]), f(np.asarray([0.3])), f, 0.3, 0.3) == (0.3, 0.0, 0)
