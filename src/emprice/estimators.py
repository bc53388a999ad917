"""Consistent distribution estimators: ECDF, linear interpolation, kernel CDF.

The interpolated ECDF runs line segments from (theta_(k), k/n) to
(theta_(k+1), (k+1)/n) with theta_(0) an explicit lower bound below the
smallest observation, and equals 1 from the largest observation on. Its sup
distance to the plain ECDF is exactly 1/n when observations are distinct,
which is why it inherits the ECDF's uniform convergence at an n^-1 cost.
"""

from __future__ import annotations

import numpy as np

from .distributions import (
    Cdf,
    EmpiricalStep,
    KernelSmoothed,
    KernelSpec,
    PiecewiseLinear,
    Sample,
)
from .errors import TiedSampleError

__all__ = [
    "ecdf",
    "interp_ecdf",
    "kernel_cdf",
    "default_bandwidth",
]


def ecdf(sample: Sample) -> EmpiricalStep:
    """Empirical step CDF with jumps of multiplicity/n at each observation."""
    return EmpiricalStep(sample)


def interp_ecdf(sample: Sample, theta_lower: float) -> PiecewiseLinear:
    """Linearly interpolated ECDF anchored at (theta_lower, 0).

    Requires distinct observations (ties have probability zero under an
    absolutely continuous truth) and theta_lower strictly below the smallest
    observation.
    """
    v = sample.values
    # the values are sorted, so a tie is two equal neighbours
    if np.any(v[1:] == v[:-1]):
        raise TiedSampleError("interpolated ECDF requires distinct observations")
    if not theta_lower < v[0]:
        raise ValueError(
            f"theta_lower must lie strictly below the smallest observation ({float(v[0])!r})"
        )
    n = v.size
    thetas = np.concatenate([[theta_lower], v])
    probs = np.arange(n + 1, dtype=float) / n
    return PiecewiseLinear(thetas, probs)


def kernel_cdf(sample: Sample, kernel: KernelSpec, h: float) -> KernelSmoothed:
    """Kernel CDF estimate with compact support [min - h, max + h]."""
    return KernelSmoothed(sample, kernel, float(h))


def default_bandwidth(n: int) -> float:
    """Default bandwidth n^(-1/3); override per call where needed."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    return float(n) ** (-1.0 / 3.0)
