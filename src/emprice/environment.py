"""Economic primitives: type space, valuation and cost, Lipschitz constant.

A consumer of type theta who buys quantity x at price p gets utility
``v(theta, x) - p``. The valuation is v(theta, x) = theta * x, so its type
derivative is x itself. Every `Environment` checks this when it is built;
the solvers and mechanisms rely on it. The cost is c_bar * x for the linear
kind and a `PowerCost` c(x) = a * x**p, a >= 0 and p >= 1, for the screening
kind. With types theta >= 0, v is then zero at x = 0, nondecreasing in both
arguments and supermodular on Theta x [0, x_max], and c is nondecreasing,
convex, with c(0) = 0. The one assumption left to check is
v(theta_min, x) = 0, that is theta_min * x_max <= 1e-9. Together they make
menu profit Lipschitz in the type distribution with constant

    L = 2 * ( theta_max * x_max + (theta_max - theta_min) * x_max + c(x_max) ).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

from .errors import InvalidEnvironmentError

__all__ = [
    "TypeSpace",
    "MarketKind",
    "Environment",
    "PowerCost",
    "linear_unit_demand",
    "separable_screening",
    "environment_from_config",
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
    """Market primitives: types, quantity range, valuation v, and cost.

    ``valuation`` is v(theta, x) = theta * x and must accept numpy arrays.
    Building one checks that v = theta * x on a 4 x 4 grid and that a
    screening kind's cost is a `PowerCost`; it raises InvalidEnvironmentError
    otherwise. ``c_bar`` is the unit cost for the linear kind (None otherwise).
    """

    types: TypeSpace
    x_max: float
    valuation: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cost: Callable[[np.ndarray], np.ndarray]
    kind: MarketKind
    c_bar: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_max) and self.x_max > 0):
            raise InvalidEnvironmentError("x_max must be positive and finite")
        if self.kind is MarketKind.LINEAR_UNIT_DEMAND:
            if self.c_bar is None or not (math.isfinite(self.c_bar) and self.c_bar >= 0):
                raise InvalidEnvironmentError("linear kind requires a finite c_bar >= 0")
        elif not isinstance(self.cost, PowerCost):
            raise InvalidEnvironmentError(
                f"separable screening needs a PowerCost(scale, power) cost, got {type(self.cost).__name__}"
            )
        th = self.types.lower + self.types.width * _SEPARABLE_GRID[:, None]
        xs = self.x_max * _SEPARABLE_GRID
        gap = np.asarray(self.valuation(th, xs), dtype=float) - th * xs
        # a nan gap fails too
        if not np.max(np.abs(gap)) <= _CHECK_TOL:
            raise InvalidEnvironmentError("environment fails assumption checks: valuation_separable")


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


def _valuation(th: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.asarray(th) * np.asarray(x)


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
        valuation=_valuation,
        cost=lambda x: c_bar * np.asarray(x),
        kind=MarketKind.LINEAR_UNIT_DEMAND,
        c_bar=float(c_bar),
    )


def separable_screening(
    cost: PowerCost,
    theta_min: float = 0.0,
    theta_max: float = 1.0,
    x_max: float = 1.0,
) -> Environment:
    """Screening environment with valuation v(theta, x) = theta * x and the
    cost c(x) = a * x**p of a `PowerCost`; any other cost raises
    InvalidEnvironmentError."""
    return Environment(
        types=TypeSpace(theta_min, theta_max),
        x_max=x_max,
        valuation=_valuation,
        cost=cost,
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


def lipschitz_constant(env: Environment) -> float:
    """Menu-independent Lipschitz constant of profit in the type distribution.

    With v = theta * x, the type derivative of v at x_max is x_max whatever
    theta. The valuation must vanish at the lowest type: theta_min * x_max
    above 1e-9 raises InvalidEnvironmentError.
    """
    ts = env.types
    if ts.lower * env.x_max > _CHECK_TOL:
        raise InvalidEnvironmentError("environment fails assumption checks: valuation_zero_at_lowest_type")
    c_top = float(np.asarray(env.cost(env.x_max)))
    return 2.0 * (ts.upper * env.x_max + ts.width * env.x_max + c_top)
