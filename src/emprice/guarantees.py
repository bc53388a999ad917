"""Finite-sample deviation bounds, profit/regret guarantees, sample complexity.

Every estimator's deviation bound is the DKW tail (Massart 1990) shifted by
a gap s(n) that the estimator adds to the ECDF's error:

    P(sup|F_hat - F0| > delta) <= p(n, delta) = min(1, 2 exp(-2 n (delta - s)^2)),  delta > s.

- empirical step CDF:   s = 0;
- interpolated ECDF:    s = 1/n, since it lies within 1/n of the step CDF;
- kernel CDF estimate:  s = b = k1 h (B + 1). The estimate is the ECDF
  smoothed by K, so for every sample sup|F_hat_h - F0| <= sup|F_n - F0| +
  k1 h sup f0; on the unit type space a density of total variation at most
  B has sup f0 <= B + 1.

Profit is L-Lipschitz in the distribution, so an empirically optimal mechanism
satisfies P(|profit gap| > delta) <= p(n, delta / L) and
P(regret > 2 delta) <= p(n, delta / L). The sample size for a target
confidence level inverts p in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .distributions import KernelSpec

__all__ = [
    "DkwBound",
    "InterpEcdfBound",
    "KernelBound",
    "BoundKind",
    "GuaranteeFlavor",
    "GuaranteeResult",
    "deviation_bound",
    "regret_guarantee",
    "sample_complexity",
]


@dataclass(frozen=True)
class DkwBound:
    """The step ECDF. Each kind's gap is s(n) = gap + atoms / n, and
    `requirement` is its error for delta <= s(n)."""

    name = "dkw"
    gap = 0.0
    atoms = 0.0
    requirement = "delta must be positive"


@dataclass(frozen=True)
class InterpEcdfBound:
    name = "interp_ecdf"
    gap = 0.0
    atoms = 1.0
    requirement = "interpolated-ECDF bound requires delta > 1/n"


@dataclass(frozen=True)
class KernelBound:
    """Kernel estimation of a density on the unit type space whose total
    variation is at most B: gap b = k1 h (B + 1)."""

    total_variation_bound: float
    kernel: KernelSpec
    bandwidth: float

    name = "kernel"
    atoms = 0.0

    def __post_init__(self) -> None:
        if not self.total_variation_bound > 0:
            raise ValueError("total variation bound must be positive")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")

    @property
    def gap(self) -> float:
        return self.kernel.k1 * self.bandwidth * (self.total_variation_bound + 1.0)

    @property
    def requirement(self) -> str:
        return f"kernel bound requires delta > b = k1*h*(B + 1) = {self.gap:g}"


BoundKind = DkwBound | InterpEcdfBound | KernelBound


class GuaranteeFlavor(Enum):
    PROFIT_DEVIATION = "profit_deviation"
    REGRET = "regret"


@dataclass(frozen=True)
class GuaranteeResult:
    """One guarantee: `bound` is the probability that the profit deviates by
    more than `delta` (or the regret exceeds 2 * `delta`)."""

    delta: float
    bound: float
    n: int
    lipschitz: float
    flavor: GuaranteeFlavor

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "bound": self.bound,
            "n": self.n,
            "lipschitz": self.lipschitz,
            "flavor": self.flavor.value,
        }


def deviation_bound(kind: BoundKind, n: int, delta: float) -> float:
    """p(n, delta), clamped to [0, 1]; delta must exceed the kind's gap."""
    if n < 1:
        raise ValueError("n must be at least 1")
    gap = kind.gap + kind.atoms / n
    if not delta > gap:
        raise ValueError(kind.requirement)
    delta -= gap
    return min(1.0, 2.0 * math.exp(-2.0 * n * delta * delta))


def regret_guarantee(
    kind: BoundKind, n: int, delta: float, lipschitz: float
) -> tuple[GuaranteeResult, GuaranteeResult]:
    """(profit-deviation guarantee, regret guarantee) for the given estimator:
    both events fail with probability at most p(n, delta / L)."""
    if not delta > 0 or not lipschitz > 0:
        raise ValueError("delta and lipschitz must be positive")
    p = deviation_bound(kind, n, delta / lipschitz)
    return (
        GuaranteeResult(delta, p, n, lipschitz, GuaranteeFlavor.PROFIT_DEVIATION),
        GuaranteeResult(delta, p, n, lipschitz, GuaranteeFlavor.REGRET),
    )


def sample_complexity(kind: BoundKind, delta: float, alpha: float, lipschitz: float) -> int:
    """Smallest N with p(N, eps) <= alpha, eps = delta / L.

    With the kind's gap s(n) = g + a/n, e = eps - g and l = ln(2/alpha)/2,
    the bound holds iff e > 0, n > a/e and n (e - a/n)^2 >= l, that is from
    the root (l + 2 a e + sqrt(l (l + 4 a e))) / (2 e^2) on. Every operation
    in the floating-point p is monotone in n, so p(n) <= alpha also holds
    from one n on, which a bracket from the root's ceiling and a bisection
    find.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not delta > 0 or not lipschitz > 0:
        raise ValueError("delta and lipschitz must be positive")
    eff = delta / lipschitz
    e, a = eff - kind.gap, kind.atoms
    if not e > 0:
        raise ValueError(kind.requirement)
    log_term = math.log(2.0 / alpha) / 2.0
    denom = 2.0 * e * e
    root = (log_term + 2.0 * a * e + math.sqrt(log_term * (log_term + 4.0 * a * e))) / denom if denom else math.inf
    if math.isinf(root):
        raise ValueError(f"delta / lipschitz = {eff:g} is too small: the sample size overflows")
    lowest = math.floor(a / e) + 1

    def holds(n: int) -> bool:
        return n >= lowest and deviation_bound(kind, n, eff) <= alpha

    # bracket the answer in (lo, hi] by steps that double away from the
    # root's ceiling, only in the direction the answer lies
    n = max(lowest, math.ceil(root))
    lo, hi, step = n - 1, n, 1
    while not holds(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while holds(lo):
        lo, hi, step = lo - step, lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi
