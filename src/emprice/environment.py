"""Economic primitives: type space, valuation/cost structure, Lipschitz constant.

A consumer of type theta who buys quantity x at price p gets utility
``v(theta, x) - p``. The valuation is multiplicatively separable,
v(theta, x) = theta * u(x), so its type derivative is ``utility`` u(x)
itself. Every `Environment` checks this when it is built; the solvers and
mechanisms rely on it. The model also assumes, on the rectangle
Theta x [0, x_max]: v(theta_min, x) = v(theta, 0) = 0, v nondecreasing in
both arguments and supermodular (u nondecreasing); the cost c is
nondecreasing, convex, with c(0) = 0. These assumptions are what make menu
profit Lipschitz in the type distribution with constant

    L = 2 * ( v(theta_max, x_max)
              + (theta_max - theta_min) * u(x_max)
              + c(x_max) )

(u(x_max) is the type derivative of v at x_max, whatever theta).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
import math

import numpy as np

from .errors import InvalidEnvironmentError

__all__ = [
    "TypeSpace",
    "MarketKind",
    "Environment",
    "PowerCost",
    "AssumptionCheck",
    "ValidationReport",
    "linear_unit_demand",
    "separable_screening",
    "environment_from_config",
    "validate_environment",
    "lipschitz_constant",
]

_CHECK_TOL = 1e-9
_SEPARABLE_GRID = np.linspace(0.0, 1.0, 4)


@dataclass(frozen=True)
class TypeSpace:
    """Closed interval of consumer types [lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise InvalidEnvironmentError("type space bounds must be finite")
        if not 0.0 <= self.lower < self.upper:
            raise InvalidEnvironmentError(
                f"type space requires 0 <= lower < upper, got [{self.lower}, {self.upper}]"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


class MarketKind(Enum):
    """Analytic structure tag that tells the solvers which closed form applies."""

    LINEAR_UNIT_DEMAND = "linear_unit_demand"
    SEPARABLE_SCREENING = "separable_screening"


@dataclass(frozen=True)
class Environment:
    """Market primitives: types, quantity range, valuation v, utility u, and cost.

    ``valuation`` is v(theta, x) = theta * u(x) and ``utility`` is u(x); both
    must accept numpy arrays. Building one checks v = theta * u(x) on a 4 x 4
    grid and raises InvalidEnvironmentError otherwise. ``c_bar`` is the unit
    cost for the linear kind (None otherwise).
    """

    types: TypeSpace
    x_max: float
    valuation: Callable[[np.ndarray, np.ndarray], np.ndarray]
    utility: Callable[[np.ndarray], np.ndarray]
    cost: Callable[[np.ndarray], np.ndarray]
    kind: MarketKind
    c_bar: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_max) and self.x_max > 0):
            raise InvalidEnvironmentError("x_max must be positive and finite")
        if self.kind is MarketKind.LINEAR_UNIT_DEMAND:
            if self.c_bar is None or not (math.isfinite(self.c_bar) and self.c_bar >= 0):
                raise InvalidEnvironmentError("linear kind requires a finite c_bar >= 0")
        th = self.types.lower + self.types.width * _SEPARABLE_GRID[:, None]
        xs = self.x_max * _SEPARABLE_GRID
        gap = np.asarray(self.valuation(th, xs), dtype=float) - th * np.asarray(self.utility(xs), dtype=float)
        # a nan gap fails too
        if not np.max(np.abs(gap)) <= _CHECK_TOL:
            raise InvalidEnvironmentError("environment fails assumption checks: valuation_separable")

    @property
    def utility_is_identity(self) -> bool:
        """Whether u(x) = x, that is v(theta, x) = theta * x: true for the
        built-in identity utility, the default of `separable_screening`."""
        return self.utility is _IDENTITY_UTILITY


@dataclass(frozen=True)
class PowerCost:
    """The cost c(x) = scale * x**power, with scale >= 0 and power >= 1 for
    convexity; the screening solver maximizes its surplus in closed form."""

    scale: float
    power: float

    def __post_init__(self) -> None:
        a, p = self.scale, self.power
        if not (math.isfinite(a) and math.isfinite(p) and a >= 0 and p >= 1):
            raise InvalidEnvironmentError("screening cost needs finite scale >= 0 and power >= 1 for convexity")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.scale * np.asarray(x) ** self.power


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def _separable(utility: Callable[[np.ndarray], np.ndarray]):
    """(v, u) = (theta * u(x), u(x))."""

    def valuation(th, x):
        return np.asarray(th) * np.asarray(utility(np.asarray(x)))

    def u(x):
        return np.asarray(utility(np.asarray(x)), dtype=float)

    return valuation, u


# one (v, u) pair for u(x) = x, shared, so that an environment can tell it
_IDENTITY_VALUATION, _IDENTITY_UTILITY = _separable(_identity)


def linear_unit_demand(
    theta_min: float = 0.0,
    theta_max: float = 1.0,
    x_max: float = 1.0,
    c_bar: float = 0.0,
) -> Environment:
    """Environment with v(theta, x) = theta * x and linear cost c_bar * x."""
    return Environment(
        types=TypeSpace(theta_min, theta_max),
        x_max=x_max,
        valuation=_IDENTITY_VALUATION,
        utility=_IDENTITY_UTILITY,
        cost=lambda x: c_bar * np.asarray(x),
        kind=MarketKind.LINEAR_UNIT_DEMAND,
        c_bar=float(c_bar),
    )


def separable_screening(
    cost: Callable[[np.ndarray], np.ndarray],
    theta_min: float = 0.0,
    theta_max: float = 1.0,
    x_max: float = 1.0,
    utility: Callable[[np.ndarray], np.ndarray] = _identity,
) -> Environment:
    """Screening environment with valuation v(theta, x) = theta * u(x).

    ``utility`` is u, applied elementwise to quantity arrays; the default is
    u(x) = x. A `PowerCost` is kept as the cost as it is, so the solver can
    recognize it.
    """
    valuation, u = (_IDENTITY_VALUATION, _IDENTITY_UTILITY) if utility is _identity else _separable(utility)
    return Environment(
        types=TypeSpace(theta_min, theta_max),
        x_max=x_max,
        valuation=valuation,
        utility=u,
        cost=cost if isinstance(cost, PowerCost) else lambda x: np.asarray(cost(np.asarray(x))),
        kind=MarketKind.SEPARABLE_SCREENING,
    )


def environment_from_config(cfg: dict) -> Environment:
    """Build an environment from a plain config mapping.

    Keys: ``kind`` ("linear" | "screening"), ``theta_min``, ``theta_max``,
    ``x_max``, and either ``c_bar`` (linear) or ``cost`` = {"scale": a,
    "power": p} meaning c(x) = a * x**p (screening).
    """
    kind = cfg.get("kind", "linear")
    theta_min = float(cfg.get("theta_min", 0.0))
    theta_max = float(cfg.get("theta_max", 1.0))
    x_max = float(cfg.get("x_max", 1.0))
    if kind == "linear":
        return linear_unit_demand(theta_min, theta_max, x_max, float(cfg.get("c_bar", 0.0)))
    if kind == "screening":
        spec = cfg.get("cost", {"scale": 0.5, "power": 2.0})
        return separable_screening(
            cost=PowerCost(float(spec["scale"]), float(spec["power"])),
            theta_min=theta_min,
            theta_max=theta_max,
            x_max=x_max,
        )
    raise InvalidEnvironmentError(f"unknown environment kind {kind!r}")


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    worst_point: tuple[float, ...]
    worst_value: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[AssumptionCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AssumptionCheck]:
        return [c for c in self.checks if not c.passed]


def _grid_check(name, values, *axes, tol=_CHECK_TOL) -> AssumptionCheck:
    # values >= -tol everywhere means the inequality holds on the grid; axis
    # i of `values` is indexed by the points of axes[i]
    values = np.asarray(values, dtype=float)
    idx = np.unravel_index(int(np.argmin(values)), values.shape)
    worst = float(values[idx])
    pt = tuple(float(ax[i]) for ax, i in zip(axes, idx))
    return AssumptionCheck(name, worst >= -tol, pt, worst)


def validate_environment(env: Environment, grid_size: int = 50) -> ValidationReport:
    """Check the model assumptions on a grid; violations are reported, not
    raised. Separability was checked when the environment was built."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    th = np.linspace(env.types.lower, env.types.upper, grid_size)
    xs = np.linspace(0.0, env.x_max, grid_size)
    v = np.asarray(env.valuation(th[:, None], xs), dtype=float)
    c = np.asarray(env.cost(xs), dtype=float)
    checks = [
        _grid_check("valuation_zero_at_lowest_type", -np.abs(v[0, :]), xs),
        _grid_check("valuation_zero_at_zero_quantity", -np.abs(v[:, 0]), th),
        _grid_check("valuation_nondecreasing_in_type", np.diff(v, axis=0), th[:-1], xs),
        _grid_check("valuation_nondecreasing_in_quantity", np.diff(v, axis=1), th, xs[:-1]),
        # cross differences: v(t+,x+) - v(t+,x) - v(t,x+) + v(t,x) >= 0
        _grid_check("valuation_supermodular", np.diff(np.diff(v, axis=0), axis=1), th[:-1], xs[:-1]),
        _grid_check("cost_zero_at_zero", np.array([-abs(c[0])]), xs[:1]),
        _grid_check("cost_nondecreasing", np.diff(c), xs[:-1]),
        _grid_check("cost_convex", np.diff(c, 2), xs[1:-1]),
    ]
    return ValidationReport(tuple(checks))


def lipschitz_constant(env: Environment) -> float:
    """Menu-independent Lipschitz constant of profit in the type distribution.

    With v = theta * u(x), the type derivative of v at x_max is u(x_max)
    whatever theta.
    """
    report = validate_environment(env, grid_size=32)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures())
        raise InvalidEnvironmentError(f"environment fails assumption checks: {names}")
    ts = env.types
    v_top = float(np.asarray(env.valuation(ts.upper, env.x_max)))
    u_top = float(np.asarray(env.utility(env.x_max)))
    c_top = float(np.asarray(env.cost(env.x_max)))
    return 2.0 * (v_top + ts.width * u_top + c_top)
