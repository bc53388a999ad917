"""Finite-sample deviation bounds, profit/regret guarantees, sample complexity.

Estimator deviation bounds p(n, delta) on P(sup|F_hat - F0| > delta):

- empirical step CDF:      2 * exp(-2 n delta^2)          (DKW with the sharp constant)
- interpolated ECDF:       2 * exp(-2 n (delta - 1/n)^2)  (valid for delta > 1/n)
- kernel CDF estimate:     deterministic radius q(n, h) = (2B + 1) k1 h + sqrt(k2 / (n h))
                           for densities of total variation at most B.

Profit is L-Lipschitz in the distribution, so an empirically optimal mechanism
satisfies P(|profit gap| > delta) <= p(n, delta / L) and
P(regret > 2 delta) <= p(n, delta / L); the kernel bound gives deterministic
radii instead. Those radii are not certain, although their flavor reads
"deterministic": 200 copies of 0.4 against Beta(2, 3) with B = 3.556, a uniform
kernel and h = 0.05 give sup|F_hat - F0| = 0.437 > q = 0.426. The sample size
for a target confidence level inverts either probabilistic bound in closed
form. Probability bounds are clamped at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .distributions import KernelSpec

__all__ = [
    "DkwBound",
    "InterpEcdfBound",
    "KernelDeterministicBound",
    "BoundKind",
    "GuaranteeFlavor",
    "GuaranteeResult",
    "deviation_bound",
    "regret_guarantee",
    "sample_complexity",
]


@dataclass(frozen=True)
class DkwBound:
    name = "dkw"


@dataclass(frozen=True)
class InterpEcdfBound:
    name = "interp_ecdf"


@dataclass(frozen=True)
class KernelDeterministicBound:
    """Radius q(n, h) for kernel estimation of a bounded-variation density;
    a sample can exceed it (see the module docstring)."""

    total_variation_bound: float
    kernel: KernelSpec
    bandwidth: float

    name = "kernel_deterministic"

    def __post_init__(self) -> None:
        if not self.total_variation_bound > 0:
            raise ValueError("total variation bound must be positive")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")


BoundKind = DkwBound | InterpEcdfBound | KernelDeterministicBound


class GuaranteeFlavor(Enum):
    """DETERMINISTIC labels the kernel radius, which is not certain (module docstring)."""

    PROFIT_DEVIATION = "profit_deviation"
    REGRET = "regret"
    DETERMINISTIC = "deterministic"


@dataclass(frozen=True)
class GuaranteeResult:
    """One guarantee: for probabilistic flavors, `bound` is the failure
    probability (profit deviation beyond delta, or regret beyond 2*delta);
    for the deterministic flavor, `bound` == `delta` is the kernel radius."""

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
    """p(n, delta), clamped to [0, 1]; the kernel variant ignores delta."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if isinstance(kind, KernelDeterministicBound):
        k = kind.kernel
        return (2.0 * kind.total_variation_bound + 1.0) * k.k1 * kind.bandwidth + math.sqrt(
            k.k2 / (n * kind.bandwidth)
        )
    if not delta > 0:
        raise ValueError("delta must be positive")
    if isinstance(kind, InterpEcdfBound):
        if delta <= 1.0 / n:
            raise ValueError("interpolated-ECDF bound requires delta > 1/n")
        delta -= 1.0 / n
    elif not isinstance(kind, DkwBound):
        raise TypeError(f"unknown bound kind {kind!r}")
    return min(1.0, 2.0 * math.exp(-2.0 * n * delta * delta))


def regret_guarantee(
    kind: BoundKind, n: int, delta: float, lipschitz: float
) -> tuple[GuaranteeResult, GuaranteeResult]:
    """(profit-deviation guarantee, regret guarantee) for the given estimator.

    Probabilistic kinds: both events fail with probability at most
    p(n, delta / L). Kernel kind: certain radii L*q (profit) and 2L*q (regret).
    """
    if not delta > 0 or not lipschitz > 0:
        raise ValueError("delta and lipschitz must be positive")
    if isinstance(kind, KernelDeterministicBound):
        q = deviation_bound(kind, n, delta)
        profit_r, regret_r = lipschitz * q, 2.0 * lipschitz * q
        return (
            GuaranteeResult(profit_r, profit_r, n, lipschitz, GuaranteeFlavor.DETERMINISTIC),
            GuaranteeResult(regret_r, regret_r, n, lipschitz, GuaranteeFlavor.DETERMINISTIC),
        )
    p = deviation_bound(kind, n, delta / lipschitz)
    return (
        GuaranteeResult(delta, p, n, lipschitz, GuaranteeFlavor.PROFIT_DEVIATION),
        GuaranteeResult(delta, p, n, lipschitz, GuaranteeFlavor.REGRET),
    )


def sample_complexity(kind: BoundKind, delta: float, alpha: float, lipschitz: float) -> int:
    """Smallest N with p(N, eps) <= alpha, eps = delta / L.

    With s = 0 (DKW) or 1 (interpolated ECDF) and l = ln(2/alpha)/2, the
    bound holds iff n > s/eps and n (eps - s/n)^2 >= l, that is from the root
    (l + 2 s eps + sqrt(l (l + 4 s eps))) / (2 eps^2) on. Every operation in
    the floating-point p is monotone in n, so p(n) <= alpha also holds from
    one n on, which a bracket from the root's ceiling and a bisection find.
    """
    if isinstance(kind, KernelDeterministicBound):
        raise ValueError("no sample-size inversion for the kernel bound at fixed bandwidth")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not delta > 0 or not lipschitz > 0:
        raise ValueError("delta and lipschitz must be positive")
    eff = delta / lipschitz
    s = 1.0 if isinstance(kind, InterpEcdfBound) else 0.0
    log_term = math.log(2.0 / alpha) / 2.0
    denom = 2.0 * eff * eff
    root = (log_term + 2.0 * s * eff + math.sqrt(log_term * (log_term + 4.0 * s * eff))) / denom if denom else math.inf
    if math.isinf(root):
        raise ValueError(f"delta / lipschitz = {eff:g} is too small: the sample size overflows")
    lowest = math.floor(s / eff) + 1

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
