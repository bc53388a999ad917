"""Monte Carlo harness: coverage of bootstrap intervals and regret-share curves.

Replication r of cell (distribution d, sample size i) draws its sample from
the stream keyed by (seed, d, i, r) and hands (seed, d, i, r) to the bootstrap
as its seed tuple, so every replication owns a disjoint family of streams and
results are byte-identical for any worker count. All floating-point
reductions run in replication order.

Ground truth is computed once per distribution, in the calling process: each
law is parsed once and its true optimum (regret) or true value (coverage) is
passed to the chunk tasks as a float. A regret task covers one distribution
and a run of replications across every sample size, in blocks of about 2^18
draws. Each block takes one quantile call for all of its uniforms and one
vectorized solve over the sorted rows of every cell: the first-argmax ECDF
price of each row (`solvers.ecdf_uniform_prices`, which `optimal_profit` on
one sample runs too) and the realized profit of each resulting offer from one
evaluation of F and its left limits (`mechanisms.one_offer_profits`, which
sums the choice regions with the same routine as `expected_profit`).

CSV schemas (17 significant digits for round-tripping):

    coverage: dist,n,level,R,B,coverage,mc_se,seed
    regret:   dist,n,R,mean_regret_share,mc_se,seed
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .distributions import BetaCdf, Cdf, Mixture, PointMass, Sample, Uniform
from .environment import Environment, linear_unit_demand
from .errors import EmpriceError
from .inference import bootstrap_roots, mean_statistic, optimal_value_statistic
from .mechanisms import Menu, expected_profit, one_offer_profits, per_consumer_profit
from .rng import substream_states, uniform_draws
from .solvers import ecdf_uniform_prices, optimal_profit, posts_offer

__all__ = [
    "McTarget",
    "McConfig",
    "McRow",
    "McResult",
    "parse_distribution",
    "distribution_label",
    "true_values",
    "law_in_type_space",
    "run_coverage",
    "run_regret",
]


class McTarget(Enum):
    FIXED_PROFIT_COVERAGE = "coverage-fixed"
    OPTIMAL_PROFIT_COVERAGE = "coverage-optimal"
    REGRET_SHARE = "regret"


# each family's accepted parameter counts, and the spec forms they give
_SPEC_FORMS = {
    "uniform": ((0, 2), "uniform or uniform:a:b"),
    "beta": ((2, 4), "beta:alpha:beta or beta:alpha:beta:lo:hi"),
    "pointmass": ((1,), "pointmass:t"),
}


def parse_distribution(spec: str) -> Cdf:
    """Parse "uniform", "uniform:a:b", "beta:alpha:beta", "beta:alpha:beta:lo:hi"
    or "pointmass:t"; any other number of parameters is an error."""
    name, *params = spec.strip().lower().split(":")
    if name not in _SPEC_FORMS:
        raise ValueError(f"unknown distribution spec {spec!r}")
    counts, forms = _SPEC_FORMS[name]
    if len(params) not in counts:
        raise ValueError(f"distribution spec {spec!r} has the wrong number of parameters; use {forms}")
    try:
        args = [float(p) for p in params]
    except ValueError as exc:
        raise ValueError(f"distribution spec {spec!r} has a non-numeric parameter") from exc
    if name == "uniform":
        return Uniform(*args) if args else Uniform(0.0, 1.0)
    if name == "beta":
        return BetaCdf(*args)
    return PointMass(*args)


def distribution_label(dist: str | Cdf) -> str:
    if isinstance(dist, str):
        return dist
    if isinstance(dist, Uniform):
        return f"uniform:{dist.a:g}:{dist.b:g}"
    if isinstance(dist, BetaCdf):
        bounds = "" if (dist.lo, dist.hi) == (0.0, 1.0) else f":{dist.lo:g}:{dist.hi:g}"
        return f"beta:{dist.alpha:g}:{dist.beta:g}{bounds}"
    if isinstance(dist, PointMass):
        return f"pointmass:{dist.theta0:g}"
    return type(dist).__name__.lower()


def _as_cdf(dist: str | Cdf) -> Cdf:
    return parse_distribution(dist) if isinstance(dist, str) else dist


def law_in_type_space(dist: str | Cdf, env: Environment) -> Cdf:
    """Parse a law and check that its support lies inside the type space."""
    F = _as_cdf(dist)
    lo, hi = F.support
    if lo < env.types.lower or hi > env.types.upper:
        raise EmpriceError(
            f"law {distribution_label(dist)} has support [{lo:g}, {hi:g}] outside "
            f"the type space [{env.types.lower:g}, {env.types.upper:g}]"
        )
    return F


@dataclass(frozen=True)
class McConfig:
    distributions: tuple[str | Cdf, ...]
    sample_sizes: tuple[int, ...]
    target: McTarget
    replications: int = 1000
    bootstrap_draws: int = 1000
    levels: tuple[float, ...] = (0.90, 0.95, 0.99)
    seed: int = 0
    fixed_menu: Menu = field(default_factory=lambda: Menu.uniform_price(0.5))
    c_bar: float = 0.0
    theta_max: float = 1.0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.bootstrap_draws < 100 and self.target is not McTarget.REGRET_SHARE:
            raise ValueError("coverage targets need at least 100 bootstrap draws")
        if any(not 0.0 < lv < 1.0 for lv in self.levels):
            raise ValueError("levels must lie in (0, 1)")
        if not self.distributions or not self.sample_sizes:
            raise ValueError("need at least one distribution and one sample size")
        if min(self.sample_sizes) < 1:
            raise ValueError("sample sizes must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    def environment(self) -> Environment:
        return linear_unit_demand(0.0, self.theta_max, 1.0, self.c_bar)


@dataclass(frozen=True, slots=True)
class McRow:
    distribution: str
    n: int
    level: float | None
    value: float
    mc_se: float
    seed: int


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class _ResultRows(Sequence):
    """The rows of a result, kept as columns.

    Row i takes the i-th key of product(labels, sizes, levels) and its value
    and mc_se from the (rows, 2) array `stats`; its McRow is built when read.
    A 30-row regret result holds about 1 KB this way, against 4.5 KB for a
    tuple of McRow objects with two boxed floats each.
    """

    labels: tuple[str, ...]
    sizes: tuple[int, ...]
    levels: tuple[float | None, ...]
    stats: np.ndarray
    seed: int

    def __len__(self) -> int:
        return len(self.stats)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        value, mc_se = self.stats[i].tolist()
        d, rest = divmod(i % len(self), len(self.sizes) * len(self.levels))
        k, j = divmod(rest, len(self.levels))
        return McRow(self.labels[d], self.sizes[k], self.levels[j], value, mc_se, self.seed)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class McResult:
    """One row per (distribution, n) cell, or per (distribution, n, level)
    for a coverage target, in that order."""

    target: McTarget
    replications: int
    bootstrap_draws: int
    rows: Sequence[McRow]

    def to_csv(self) -> str:
        lines = []
        if self.target is McTarget.REGRET_SHARE:
            lines.append("dist,n,R,mean_regret_share,mc_se,seed")
            for r in self.rows:
                lines.append(
                    f"{r.distribution},{r.n},{self.replications},{r.value:.17g},{r.mc_se:.17g},{r.seed}"
                )
        else:
            lines.append("dist,n,level,R,B,coverage,mc_se,seed")
            for r in self.rows:
                lines.append(
                    f"{r.distribution},{r.n},{r.level:.17g},{self.replications},"
                    f"{self.bootstrap_draws},{r.value:.17g},{r.mc_se:.17g},{r.seed}"
                )
        return "\n".join(lines) + "\n"


def true_values(dist: str | Cdf, menu: Menu, env: Environment) -> tuple[float, float]:
    """(profit of the menu, optimal profit) under an analytic distribution."""
    F = _as_cdf(dist)
    if not _is_analytic(F):
        raise EmpriceError("ground-truth values need an analytic distribution")
    pi_true = expected_profit(menu, F, env)
    opt_true = optimal_profit(F, env).optimal_value
    return float(pi_true), float(opt_true)


def _is_analytic(F: Cdf) -> bool:
    if isinstance(F, (Uniform, BetaCdf, PointMass)):
        return True
    if isinstance(F, Mixture):
        return all(_is_analytic(c) for c in F.components)
    return False


# uniforms inverted per quantile call in a regret task (about 2 MB of input)
_BATCH_POINTS = 1 << 18


def _draw_samples(F: Cdf, seed: int, d_idx: int, cells, reps: range) -> list[np.ndarray]:
    """Sorted samples for a run of replications of each (n_idx, n) cell:
    one (len(reps), n) array per cell, one row per replication.

    Row r of cell n_idx inverts ``substream(seed, d_idx, n_idx, r).random(n)``.
    The streams' states are computed in one pass and loaded in turn into one
    generator (`rng.substream_states`, `rng.uniform_draws`); the quantile
    transform is elementwise, so batching cannot change any value.
    """
    states = substream_states((seed, d_idx), [n_idx for n_idx, _ in cells], reps)
    u = uniform_draws(states, [n for _, n in cells for _ in reps])
    theta = F.quantile_array(u)
    out, start = [], 0
    for _, n in cells:
        stop = start + len(reps) * n
        out.append(np.sort(theta[start:stop].reshape(len(reps), n), axis=1))
        start = stop
    return out


def _coverage_chunk(args) -> np.ndarray:
    (F, truth, n, d_idx, n_idx, rep_lo, rep_hi, cfg) = args
    env = cfg.environment()
    reps = range(rep_lo, rep_hi)
    (thetas,) = _draw_samples(F, cfg.seed, d_idx, [(n_idx, n)], reps)
    counts = np.zeros(len(cfg.levels), dtype=np.int64)
    for j, r in enumerate(reps):
        sample = Sample(thetas[j])
        if cfg.target is McTarget.FIXED_PROFIT_COVERAGE:
            stat = mean_statistic(per_consumer_profit(cfg.fixed_menu, sample.values, env))
        else:
            stat = optimal_value_statistic(sample, env)
        boot = bootstrap_roots(stat, cfg.bootstrap_draws, (cfg.seed, d_idx, n_idx, r))
        for k, level in enumerate(cfg.levels):
            lo, hi = boot.interval(level)
            if lo <= truth <= hi:
                counts[k] += 1
    return counts


def _regret_chunk(args) -> np.ndarray:
    """Regret shares of replications rep_lo..rep_hi-1 of one distribution:
    one row per sample size, one column per replication.

    Each block of replications is solved in one pass over the sorted rows of
    every cell, with the solver's and the profit functional's own routines.
    """
    (F, opt_true, d_idx, rep_lo, rep_hi, cfg) = args
    env = cfg.environment()
    x_max = float(env.x_max)
    cells = list(enumerate(cfg.sample_sizes))
    shares = np.empty((len(cells), rep_hi - rep_lo))
    block = max(1, _BATCH_POINTS // sum(cfg.sample_sizes))
    for b_lo in range(rep_lo, rep_hi, block):
        reps = range(b_lo, min(b_lo + block, rep_hi))
        rows = _draw_samples(F, cfg.seed, d_idx, cells, reps)
        starts = np.cumsum([0] + [n for _, n in cells for _ in reps][:-1])
        rho, value = ecdf_uniform_prices(np.concatenate([r.ravel() for r in rows]), starts, env)
        realized = np.where(posts_offer(rho, value), one_offer_profits(x_max, rho * x_max, F, env), 0.0)
        cols = slice(b_lo - rep_lo, b_lo - rep_lo + len(reps))
        shares[:, cols] = ((opt_true - realized) / opt_true).reshape(len(cells), len(reps))
    return shares


def _chunks(total: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, min(workers, total))
    size = math.ceil(total / workers)
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _map_chunks(fn, tasks, workers: int):
    if workers <= 1:
        return [fn(t) for t in tasks]
    # imported here: serial runs never load the process pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _labels(cfg: McConfig) -> tuple[str, ...]:
    return tuple(distribution_label(spec) for spec in cfg.distributions)


def run_coverage(cfg: McConfig) -> McResult:
    """Empirical CI coverage per (distribution, n, level)."""
    if cfg.target is McTarget.REGRET_SHARE:
        raise ValueError("run_coverage needs a coverage target")
    R = cfg.replications
    env = cfg.environment()
    chunks = _chunks(R, cfg.workers)
    tasks = []
    for d_idx, spec in enumerate(cfg.distributions):
        F = law_in_type_space(spec, env)
        truth_fixed, truth_opt = true_values(F, cfg.fixed_menu, env)
        truth = truth_fixed if cfg.target is McTarget.FIXED_PROFIT_COVERAGE else truth_opt
        for n_idx, n in enumerate(cfg.sample_sizes):
            tasks += [(F, truth, n, d_idx, n_idx, lo, hi, cfg) for lo, hi in chunks]
    results = iter(_map_chunks(_coverage_chunk, tasks, cfg.workers))
    stats = []
    for _ in range(len(cfg.distributions) * len(cfg.sample_sizes)):
        counts = sum(next(results) for _ in chunks)
        for k in range(len(cfg.levels)):
            cov = counts[k] / R
            stats.append((cov, math.sqrt(cov * (1.0 - cov) / R)))
    rows = _ResultRows(_labels(cfg), cfg.sample_sizes, cfg.levels, np.array(stats), cfg.seed)
    return McResult(cfg.target, R, cfg.bootstrap_draws, rows)


def run_regret(cfg: McConfig) -> McResult:
    """Mean regret share of the empirically optimal menu per (distribution, n)."""
    if cfg.target is not McTarget.REGRET_SHARE:
        raise ValueError("run_regret needs the regret-share target")
    R = cfg.replications
    env = cfg.environment()
    chunks = _chunks(R, cfg.workers)
    tasks = []
    for d_idx, spec in enumerate(cfg.distributions):
        F = law_in_type_space(spec, env)
        opt_true = optimal_profit(F, env).optimal_value
        if not opt_true > 0.0:
            raise EmpriceError(
                f"law {distribution_label(spec)} has optimal profit {opt_true:g}; "
                "the regret share needs a positive optimum"
            )
        tasks += [(F, opt_true, d_idx, lo, hi, cfg) for lo, hi in chunks]
    results = iter(_map_chunks(_regret_chunk, tasks, cfg.workers))
    stats = []
    for _ in cfg.distributions:
        shares = np.concatenate([next(results) for _ in chunks], axis=1)
        for row in shares:
            stats.append((row.mean(), row.std(ddof=1) / math.sqrt(R) if R > 1 else 0.0))
    rows = _ResultRows(_labels(cfg), cfg.sample_sizes, (None,), np.array(stats), cfg.seed)
    return McResult(cfg.target, R, cfg.bootstrap_draws, rows)
