"""Plug-in and bootstrap inference for expected profit, optimal profit, regret.

The plug-in point estimate of profit under a fixed menu is the sample average
of per-consumer profit w(theta_i); because the profit functional is linear in
the distribution, its influence function is w(theta) - profit, so the
asymptotic variance is Var(w) and the plug-in variance estimator is the sample
variance of the w_i.

Confidence intervals come from the classical n-of-n bootstrap: draw b
resamples of the n observations with uniform weights, form the recentered
root G_b = sqrt(n) * (stat(resample) - stat(sample)), and invert its empirical
quantiles (type-7 interpolation) around the point estimate ("centered"
interval; a percentile interval is available behind a flag). Optimal profit
has no consistent plug-in variance, so it is bootstrap-only: the same scheme
with the solver's value replacing the fixed-menu profit.

Resample b of a call seeded with s draws its indices from the stream keyed by
(*path(s), b), so outer Monte Carlo replications can run in parallel on
disjoint streams; comparisons and regret bootstrap both statistics on shared
resamples.

One engine, `bootstrap_roots`, serves every target and the Monte Carlo
harness. It takes the PCG64 states of all B streams from
`rng.substream_states` in one vectorized pass, and `rng.resample_blocks`
draws each resample's indices exactly as
``substream(*path(s), b).integers(0, n, size=n)`` would. A `Statistic` then
scores the resamples a block at a time, as a function of a (k, n) index
array: means and the ECDF optimum under a linear cost are vectorized over
the block's rows, other solvers run once per row. Each row goes through the same
elementwise operations and reductions as a single resample would, so the
roots are bit-identical to scoring the draws one by one. A block holds a
fixed budget of indices rather than a fixed number of resamples, so its
memory stays small and constant whatever n is (see `_BLOCK_INDICES`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import PiecewiseLinear, Sample
from .environment import Environment
from .estimators import ecdf, interp_ecdf
from .mechanisms import Menu, per_consumer_profit
from .rng import resample_blocks, seed_path, substream_states
from .solvers import optimal_profit

# Resample indices scored per block: a block holds the largest whole number
# of resamples (at least one) that fits. The budget bounds the engine's memory
# for any n, and keeps each block's (k, n) index and work arrays of 8-byte
# values under 64 KiB: glibc's free() returns the top of the heap to the
# system only when it frees a chunk of at least 64 KiB, so smaller arrays
# reuse heap memory instead of faulting in fresh pages every block. At 16,000
# indices (125 KiB arrays) a B = 1000 bootstrap at n = 500 took about 2,400
# page faults in a process that had not imported scipy, and none in one that
# had (its import leaves glibc's thresholds raised). All B rows at once (4 MB)
# raised peak memory without running faster.
_BLOCK_INDICES = 8_000

__all__ = [
    "CiMethod",
    "ProfitEstimate",
    "ComparisonResult",
    "Statistic",
    "BootstrapRoots",
    "bootstrap_roots",
    "mean_statistic",
    "optimal_value_statistic",
    "plugin_normal_ci",
    "bootstrap_ci_profit",
    "bootstrap_ci_optimal_profit",
    "bootstrap_compare",
    "bootstrap_ci_regret",
]


class CiMethod(Enum):
    PLUGIN_NORMAL = "plugin_normal"
    CENTERED_BOOTSTRAP = "centered_bootstrap"
    PERCENTILE_BOOTSTRAP = "percentile_bootstrap"


@dataclass(frozen=True)
class ProfitEstimate:
    point: float
    std_error: float
    ci_low: float
    ci_high: float
    level: float
    method: CiMethod
    b_draws: int
    seed: int | tuple[int, ...] | None

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "std_error": self.std_error,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "level": self.level,
            "method": self.method.value,
            "b_draws": self.b_draws,
            "seed": list(self.seed) if isinstance(self.seed, tuple) else self.seed,
        }


@dataclass(frozen=True)
class ComparisonResult:
    diff_point: float
    ci_low: float
    ci_high: float
    level: float
    reject_equal: bool

    def to_dict(self) -> dict:
        return {
            "diff_point": self.diff_point,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "level": self.level,
            "reject_equal": self.reject_equal,
        }


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")


@dataclass(frozen=True)
class Statistic:
    """A functional of the sample for the bootstrap engine.

    ``point`` is its value on the sample of size ``n``; ``on_resamples`` maps
    a (k, n) block of resample indices, one resample per row, to the k
    values of the functional on those resamples.
    """

    point: float
    n: int
    on_resamples: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BootstrapRoots:
    """Recentered roots G_b = sqrt(n) * (stat(resample_b) - point)."""

    point: float
    n: int
    roots: np.ndarray

    def interval(self, level: float, percentile: bool = False) -> tuple[float, float]:
        """Centered (default) or percentile interval at the given level."""
        alpha = 1.0 - level
        q_lo, q_hi = np.quantile(self.roots, [alpha / 2.0, 1.0 - alpha / 2.0])
        root_n = math.sqrt(self.n)
        if percentile:
            return float(self.point + q_lo / root_n), float(self.point + q_hi / root_n)
        return float(self.point - q_hi / root_n), float(self.point - q_lo / root_n)

    def std_error(self) -> float:
        return float(self.roots.std(ddof=1)) / math.sqrt(self.n)


def bootstrap_roots(stat: Statistic, b_draws: int, seed: int | tuple[int, ...]) -> BootstrapRoots:
    """The bootstrap engine: roots of ``stat`` over b_draws n-of-n resamples.

    Resample b draws its indices from the stream ``(*seed_path(seed), b)``;
    the statistic scores them a block of ``_BLOCK_INDICES // n`` resamples
    at a time.
    """
    if b_draws < 100:
        raise ValueError("bootstrap needs at least 100 draws")
    states = substream_states(seed_path(seed), range(b_draws))
    values = np.empty(b_draws)
    block = max(1, _BLOCK_INDICES // stat.n)
    for lo, idx in zip(range(0, b_draws, block), resample_blocks(states, stat.n, block)):
        values[lo:lo + block] = stat.on_resamples(idx)
    return BootstrapRoots(stat.point, stat.n, math.sqrt(stat.n) * (values - stat.point))


def mean_statistic(w: np.ndarray) -> Statistic:
    """Sample mean of per-observation values w, e.g. per-consumer profit."""
    return Statistic(float(w.mean()), int(w.size), lambda idx: w[idx].mean(axis=1))


def _estimate(boot: BootstrapRoots, level: float, percentile: bool, b_draws: int, seed) -> ProfitEstimate:
    lo, hi = boot.interval(level, percentile)
    method = CiMethod.PERCENTILE_BOOTSTRAP if percentile else CiMethod.CENTERED_BOOTSTRAP
    return ProfitEstimate(boot.point, boot.std_error(), lo, hi, level, method, b_draws, seed)


def plugin_normal_ci(menu: Menu, sample: Sample, env: Environment, level: float = 0.95) -> ProfitEstimate:
    """Normal interval from the plug-in variance (fixed menus only)."""
    # imported here, so that start-up loads no scipy
    from scipy import special

    _check_level(level)
    w = per_consumer_profit(menu, sample.values, env)
    point = float(w.mean())
    se = math.sqrt(float(np.var(w)) / sample.n)
    z = float(special.ndtri(1.0 - (1.0 - level) / 2.0))
    return ProfitEstimate(point, se, point - z * se, point + z * se, level, CiMethod.PLUGIN_NORMAL, 0, None)


def bootstrap_ci_profit(
    menu: Menu,
    sample: Sample,
    env: Environment,
    b_draws: int = 1000,
    level: float = 0.95,
    seed: int | tuple[int, ...] = 0,
    percentile: bool = False,
) -> ProfitEstimate:
    """Bootstrap interval for expected profit under a fixed menu."""
    _check_level(level)
    stat = mean_statistic(per_consumer_profit(menu, sample.values, env))
    return _estimate(bootstrap_roots(stat, b_draws, seed), level, percentile, b_draws, seed)


def optimal_value_statistic(sample: Sample, env: Environment, estimator: str = "ecdf") -> Statistic:
    """The optimal-profit functional under the ECDF or the interpolated ECDF
    anchored at `env.types.lower`; the solver runs at its default grids."""
    values = sample.values
    n = values.size
    if estimator == "ecdf":
        # only a linear cost solves on a step law: a convex one raises here
        point = float(optimal_profit(ecdf(sample), env).optimal_value)
        c_bar, x_max = float(env.cost.scale), float(env.x_max)
        margins = x_max * (values - c_bar)

        def on_resamples(idx: np.ndarray) -> np.ndarray:
            k = idx.shape[0]
            counts = np.bincount((idx + n * np.arange(k)[:, None]).ravel(), minlength=k * n)
            tails = np.cumsum(counts.reshape(k, n)[:, ::-1], axis=1)[:, ::-1]
            # the maximizer over resample support equals the max over all
            # original order statistics, zero-count prices included
            best = np.max(margins * (tails / n), axis=1)
            return np.where(best < 0.0, 0.0, best)

        return Statistic(point, n, on_resamples)
    if estimator == "interp":
        lower = env.types.lower

        def interp_of(vals: np.ndarray) -> PiecewiseLinear:
            # resamples carry ties; interpolate through the distinct order
            # statistics at their ECDF heights (the continuous extension)
            distinct, counts = np.unique(vals, return_counts=True)
            probs = np.concatenate([[0.0], np.cumsum(counts)]) / vals.size
            return PiecewiseLinear(np.concatenate([[lower], distinct]), probs)

        point = float(optimal_profit(interp_ecdf(sample, lower), env).optimal_value)

        def solve(row: np.ndarray) -> float:
            return optimal_profit(interp_of(values[row]), env).optimal_value

        return Statistic(point, n, lambda idx: np.array([solve(row) for row in idx], dtype=float))
    raise ValueError(f"unknown estimator {estimator!r}; use 'ecdf' or 'interp'")


def bootstrap_ci_optimal_profit(
    sample: Sample,
    env: Environment,
    b_draws: int = 1000,
    level: float = 0.95,
    seed: int | tuple[int, ...] = 0,
    estimator: str = "ecdf",
    percentile: bool = False,
) -> ProfitEstimate:
    """Bootstrap interval for the optimal expected profit (bootstrap-only:
    there is no consistent plug-in variance for this functional)."""
    _check_level(level)
    stat = optimal_value_statistic(sample, env, estimator)
    return _estimate(bootstrap_roots(stat, b_draws, seed), level, percentile, b_draws, seed)


def bootstrap_compare(
    menu_a: Menu,
    menu_b: Menu,
    sample: Sample,
    env: Environment,
    b_draws: int = 1000,
    level: float = 0.95,
    seed: int | tuple[int, ...] = 0,
    percentile: bool = False,
) -> ComparisonResult:
    """Bootstrap the profit difference pi(A) - pi(B) on shared resamples."""
    _check_level(level)
    wa = per_consumer_profit(menu_a, sample.values, env)
    wb = per_consumer_profit(menu_b, sample.values, env)
    boot = bootstrap_roots(mean_statistic(wa - wb), b_draws, seed)
    lo, hi = boot.interval(level, percentile)
    return ComparisonResult(boot.point, lo, hi, level, not (lo <= 0.0 <= hi))


def bootstrap_ci_regret(
    menu: Menu,
    sample: Sample,
    env: Environment,
    b_draws: int = 1000,
    level: float = 0.95,
    seed: int | tuple[int, ...] = 0,
    estimator: str = "ecdf",
    percentile: bool = False,
) -> ProfitEstimate:
    """Bootstrap interval for regret = optimal profit - profit of the menu,
    with both functionals evaluated on shared resamples."""
    _check_level(level)
    w = per_consumer_profit(menu, sample.values, env)
    opt = optimal_value_statistic(sample, env, estimator)
    stat = Statistic(
        float(opt.point - w.mean()), sample.n, lambda idx: opt.on_resamples(idx) - w[idx].mean(axis=1)
    )
    return _estimate(bootstrap_roots(stat, b_draws, seed), level, percentile, b_draws, seed)
