"""Command-line front end.

Subcommands: estimate, solve, bound, infer, auction, simulate. Single results
are printed as JSON, experiment tables as CSV; numbers are emitted so they
round-trip to the exact library value. Exit codes: 0 success, 1 domain error
(tied sample, unsupported solver pair, ...), 2 usage or input-file error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import estimators, guarantees
from .auction import MAX_BIDDERS, AuctionSetting, ProfitMode, auction_profit, auction_regret_guarantee, optimal_reserve
from .distributions import KernelShape, KernelSpec, read_sample
from .environment import environment_from_config
from .errors import EmpriceError
from .experiments import McConfig, McTarget, law_in_type_space, run_coverage, run_regret
from .inference import (
    bootstrap_ci_optimal_profit,
    bootstrap_ci_profit,
    bootstrap_ci_regret,
    bootstrap_compare,
)
from .mechanisms import Menu, menu_from_dict, read_menu
from .solvers import optimal_profit


class UsageError(EmpriceError):
    """Command-line misuse; mapped to exit code 2."""


# --kernel's choices, in help order
_KERNELS = sorted(k.value for k in KernelShape)


def _json_text(value) -> str:
    """The text `json.dumps(value, indent=2)` gives.

    json's encoder runs in Python once `indent` is set, at several calls per
    scalar, and a screening menu has hundreds of items. Finite floats and
    strings are printed here by the functions json itself calls; every other
    scalar (ints, bools, None, non-finite floats, float subclasses) goes to
    `json.dumps`, so json's own rules hold for it. Dict keys must be str.
    """
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value, indent=2)
    parts: list[str] = []
    _append_container(value, parts, "\n")
    return "".join(parts)


# stands in for the key of a list item in _append_container
_NO_KEY = object()


def _append_container(obj, parts: list[str], newline: str) -> None:
    """Append the indent=2 text of a dict, list or tuple whose opening bracket
    sits on the line that `newline` starts."""
    if not obj:
        parts.append("{}" if isinstance(obj, dict) else "[]")
        return
    inner = newline + "  "
    append = parts.append
    if isinstance(obj, dict):
        append("{")
        items, closer = obj.items(), "}"
    else:
        append("[")
        items, closer = zip(itertools.repeat(_NO_KEY), obj), "]"
    for key, v in items:
        append(inner if key is _NO_KEY else inner + encode_basestring_ascii(key) + ": ")
        if type(v) is float and math.isfinite(v):
            append(float.__repr__(v))
        elif type(v) is str:
            append(encode_basestring_ascii(v))
        elif isinstance(v, (dict, list, tuple)):
            _append_container(v, parts, inner)
        else:
            append(json.dumps(v))
        append(",")
    # the last item takes no comma
    parts[-1] = newline + closer


def _emit(payload: dict) -> None:
    sys.stdout.write(_json_text(payload) + "\n")


def _env_from_args(args) -> "Environment":
    cfg = {
        "kind": args.env,
        "theta_min": args.theta_min,
        "theta_max": args.theta_max,
        "x_max": args.x_max,
    }
    if args.env == "linear":
        cfg["c_bar"] = args.cost
    else:
        cfg["cost"] = {"scale": args.cost_scale, "power": args.cost_power}
    return environment_from_config(cfg)


def _add_env_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--env", choices=["linear", "screening"], default="linear")
    p.add_argument("--cost", type=float, default=0.0, help="unit cost (linear kind)")
    p.add_argument("--cost-scale", type=float, default=0.5, help="screening cost scale a in a*x^p")
    p.add_argument("--cost-power", type=float, default=2.0, help="screening cost power p in a*x^p")
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=1.0)
    p.add_argument("--x-max", type=float, default=1.0)


# the flag that stands in for --sample, where --sample is optional
_SAMPLE_ALTERNATIVE = {"solve": "--dist", "auction": "--bound-n"}


def _load_sample(args):
    if args.sample is None:
        raise UsageError(f"{args.command} needs --sample or {_SAMPLE_ALTERNATIVE[args.command]}")
    try:
        return read_sample(args.sample, header=args.header)
    except ValueError as exc:
        raise UsageError(f"sample file {args.sample}: {exc}") from exc


def _sample_in_type_space(args, env):
    """The --sample observations, which must lie in the type space."""
    sample, a, b = _load_sample(args), env.types.lower, env.types.upper
    lo, hi = sample.values[[0, -1]].tolist()
    if lo < a or hi > b:
        raise EmpriceError(
            f"sample {args.sample} has observations in [{lo:g}, {hi:g}] outside the type space [{a:g}, {b:g}]"
        )
    return sample


def _require_positive(args, *names: str) -> None:
    """Exit 2 on a numeric flag that is given but not positive."""
    for name in names:
        value = getattr(args, name)
        if value is not None and not value > 0:
            raise UsageError(f"--{name.replace('_', '-')} must be positive, got {value}")


def _load_menu(path: str) -> Menu:
    try:
        return read_menu(path)
    except ValueError as exc:
        raise UsageError(f"menu file {path}: {exc}") from exc


def _bound_kind(args) -> guarantees.BoundKind:
    if args.kind == "dkw":
        return guarantees.DkwBound()
    if args.kind == "interp":
        return guarantees.InterpEcdfBound()
    if args.tv_bound is None or args.bandwidth is None:
        raise UsageError("kernel bound needs --tv-bound and --bandwidth")
    return guarantees.KernelDeterministicBound(
        args.tv_bound, KernelSpec(KernelShape(args.kernel)), args.bandwidth
    )


def _cmd_estimate(args) -> int:
    if args.grid_points < 0:
        raise UsageError(f"--grid-points must be nonnegative, got {args.grid_points}")
    _require_positive(args, "bandwidth")
    sample = _load_sample(args)
    if args.estimator == "ecdf":
        F = estimators.ecdf(sample)
        locs = F.atoms()[0]
        knots = np.column_stack([locs, F.cdf_array(locs)]).tolist()
        payload = {"estimator": "ecdf", "n": sample.n, "knots": knots}
    elif args.estimator == "interp":
        F = estimators.interp_ecdf(sample, args.theta_min)
        payload = {"estimator": "interp", "n": sample.n, "knots": np.column_stack([F.thetas, F.probs]).tolist()}
    else:
        h = args.bandwidth if args.bandwidth is not None else estimators.default_bandwidth(sample.n)
        F = estimators.kernel_cdf(sample, KernelSpec(KernelShape(args.kernel)), h)
        payload = {
            "estimator": "kernel",
            "n": sample.n,
            "kernel": args.kernel,
            "bandwidth": h,
            "support": list(F.support),
        }
        if args.grid_points:
            grid = np.linspace(*F.support, args.grid_points)
            payload["grid"] = np.column_stack([grid, F.cdf_array(grid)]).tolist()
    _emit(payload)
    return 0


def _cmd_solve(args) -> int:
    if args.grid_size is not None and args.grid_size < 1:
        raise UsageError(f"--grid-size must be at least 1, got {args.grid_size}")
    env = _env_from_args(args)
    if args.dist is not None:
        F = law_in_type_space(args.dist, env)
    else:
        sample = _sample_in_type_space(args, env)
        if args.estimator == "interp":
            F = estimators.interp_ecdf(sample, args.theta_min)
        else:
            F = estimators.ecdf(sample)
    result = optimal_profit(F, env, args.grid_size)
    payload = result.to_dict()
    if len(result.menu.items) == 1 and args.env == "linear":
        x, p = result.menu.items[0]
        payload["uniform_price"] = p / x
    _emit(payload)
    return 0


def _cmd_bound(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    if args.alpha is not None and not 0.0 < args.alpha < 1.0:
        raise UsageError(f"--alpha must lie in (0, 1), got {args.alpha}")
    _require_positive(args, "delta", "lipschitz", "tv_bound", "bandwidth")
    kind = _bound_kind(args)
    if args.samples_needed:
        if args.alpha is None:
            raise UsageError("--samples-needed requires --alpha")
        lipschitz = 1.0 if args.lipschitz is None else args.lipschitz
        n = guarantees.sample_complexity(kind, args.delta, args.alpha, lipschitz)
        _emit({
            "samples_needed": n,
            "delta": args.delta,
            "alpha": args.alpha,
            "lipschitz": lipschitz,
            "kind": kind.name,
        })
        return 0
    if args.lipschitz is not None:
        profit, regret = guarantees.regret_guarantee(kind, args.n, args.delta, args.lipschitz)
        _emit({"kind": kind.name, "profit": profit.to_dict(), "regret": regret.to_dict()})
        return 0
    bound = guarantees.deviation_bound(kind, args.n, args.delta)
    _emit({
        "kind": kind.name,
        "n": args.n,
        "delta": args.delta,
        "bound": bound,
        "lipschitz": 1.0,
        "flavor": "estimator_deviation",
    })
    return 0


def _cmd_infer(args) -> int:
    if args.target != "optimal" and args.menu is None:
        raise UsageError(f"--target {args.target} requires --menu")
    if args.bootstrap < 100:
        raise UsageError(f"--bootstrap must be at least 100, got {args.bootstrap}")
    if not 0.0 < args.level < 1.0:
        raise UsageError(f"--level must lie in (0, 1), got {args.level}")
    env = _env_from_args(args)
    sample = _sample_in_type_space(args, env)
    kwargs = dict(b_draws=args.bootstrap, level=args.level, seed=args.seed, percentile=args.percentile)
    if args.target == "profit":
        est = bootstrap_ci_profit(_load_menu(args.menu), sample, env, **kwargs)
    elif args.target == "optimal":
        est = bootstrap_ci_optimal_profit(sample, env, estimator=args.estimator, **kwargs)
    elif args.target == "regret":
        est = bootstrap_ci_regret(_load_menu(args.menu), sample, env, estimator=args.estimator, **kwargs)
    else:
        if args.menu_b is None:
            raise UsageError("--target compare requires --menu-b")
        est = bootstrap_compare(_load_menu(args.menu), _load_menu(args.menu_b), sample, env, **kwargs)
    _emit(est.to_dict())
    return 0


def _cmd_auction(args) -> int:
    if args.bidders < 2:
        raise UsageError(f"--bidders must be at least 2, got {args.bidders}")
    if args.bidders > MAX_BIDDERS:
        raise UsageError(f"--bidders must be at most {MAX_BIDDERS}, got {args.bidders}")
    if args.seller_value < 0:
        raise UsageError(f"--seller-value must be nonnegative, got {args.seller_value}")
    if args.bound_n is not None and args.bound_n < 1:
        raise UsageError(f"--bound-n must be at least 1, got {args.bound_n}")
    _require_positive(args, "delta", "tv_bound", "bandwidth")
    mode = ProfitMode(args.mode)
    if args.bound_n is not None:
        profit, regret = auction_regret_guarantee(_bound_kind(args), args.bound_n, args.delta, args.bidders)
        _emit({"profit": profit.to_dict(), "regret": regret.to_dict()})
        return 0
    sample = _load_sample(args)
    F = estimators.interp_ecdf(sample, args.theta_min)
    setting = AuctionSetting(args.bidders, args.seller_value, F)
    if args.reserve is not None:
        reserve, value = args.reserve, auction_profit(args.reserve, setting, mode)
    else:
        reserve, value = optimal_reserve(setting, mode)
    _emit({"reserve": reserve, "value": value, "mode": mode.value, "bidders": args.bidders})
    return 0


def _integer(value) -> int:
    """int(value), refusing a number with a fractional part, which int() would
    truncate, and a boolean, which int() would take as 0 or 1; integral floats
    such as 10.0 pass."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    number = int(value)
    if not isinstance(value, str) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _spec(value) -> str:
    """A distribution spec, which must be a string."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a distribution spec string")
    return value


def _list_of(convert):
    """Conversion of a list field, entry by entry; a string or a mapping would
    iterate, but is not a list."""

    def to_tuple(values) -> tuple:
        if isinstance(values, (str, dict)):
            raise TypeError(f"expected a list, got {values!r}")
        return tuple(map(convert, values))

    return to_tuple


# the McConfig fields a config file or the flags may set, each with its conversion
_MC_FIELDS = {
    "distributions": _list_of(_spec),
    "sample_sizes": _list_of(_integer),
    "target": McTarget,
    "replications": _integer,
    "bootstrap_draws": _integer,
    "levels": _list_of(float),
    "seed": _integer,
    "c_bar": float,
    "theta_max": float,
}


def _simulate_config(args) -> McConfig:
    """The run's configuration: the --config file or the flags fill one mapping,
    McConfig's defaults fill what neither sets, and a value that does not
    convert is a usage error that names its field."""
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {args.config}: {exc}") from exc
        missing = [k for k in ("distributions", "sample_sizes", "target", "seed") if k not in raw]
        if missing:
            raise UsageError(f"config file {args.config} lacks {', '.join(map(repr, missing))}")
        # InvalidMenuError is a ValueError, which _cmd_simulate maps to exit 2
        menu = menu_from_dict(raw.get("menu", {"items": []}))
        menus = {"fixed_menu": menu} if menu.items else {}
    else:
        if args.seed is None:
            raise UsageError("simulate requires --seed (or a config file with a seed)")
        raw = dict(
            distributions=args.dist.split(","), sample_sizes=args.sizes.split(","), target=args.target,
            replications=args.reps, bootstrap_draws=args.bootstrap, levels=args.levels.split(","),
            seed=args.seed, c_bar=args.cost, theta_max=args.theta_max,
        )
        menus = {"fixed_menu": _load_menu(args.menu) if args.menu else Menu.uniform_price(args.menu_price)}
    fields = {}
    for key, convert in _MC_FIELDS.items():
        if key in raw:
            try:
                fields[key] = convert(raw[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise UsageError(f"{key}: {exc}") from exc
    return McConfig(**fields, **menus, workers=args.workers)


def _cmd_simulate(args) -> int:
    try:
        cfg = _simulate_config(args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = run_regret(cfg) if cfg.target is McTarget.REGRET_SHARE else run_coverage(cfg)
    csv = result.to_csv()
    if args.out:
        Path(args.out).write_text(csv)
    else:
        sys.stdout.write(csv)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
    parser = argparse.ArgumentParser(prog="emprice", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="fit a distribution estimator to a sample")
    p.add_argument("--sample", required=True)
    p.add_argument("--header", action="store_true", help="skip a header line in the sample file")
    p.add_argument("--estimator", choices=["ecdf", "interp", "kernel"], default="ecdf")
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--kernel", choices=_KERNELS, default="epanechnikov")
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--grid-points", type=int, default=0)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("solve", help="optimal menu for a sample or analytic distribution")
    p.add_argument("--sample")
    p.add_argument("--header", action="store_true")
    p.add_argument("--dist", help="analytic spec, e.g. uniform or beta:4:4")
    p.add_argument("--estimator", choices=["ecdf", "interp"], default="ecdf")
    p.add_argument("--grid-size", type=int, default=None)
    _add_env_flags(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("bound", help="finite-sample profit/regret guarantees")
    p.add_argument("--kind", choices=["dkw", "interp", "kernel"], default="dkw")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument(
        "--lipschitz", type=float, default=None,
        help="Lipschitz constant L; given, print the profit/regret pair instead of the estimator deviation",
    )
    p.add_argument("--samples-needed", action="store_true")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tv-bound", type=float, default=None)
    p.add_argument("--kernel", choices=_KERNELS, default="epanechnikov")
    p.add_argument("--bandwidth", type=float, default=None)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("infer", help="bootstrap inference on profit, optimal profit, regret")
    p.add_argument("--target", choices=["profit", "optimal", "regret", "compare"], required=True)
    p.add_argument("--sample", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--menu", help="menu JSON file")
    p.add_argument("--menu-b", help="second menu for --target compare")
    p.add_argument("--estimator", choices=["ecdf", "interp"], default="ecdf")
    p.add_argument("--bootstrap", type=int, default=1000)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--percentile", action="store_true")
    p.add_argument("--seed", type=int, required=True)
    _add_env_flags(p)
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("auction", help="reserve pricing for a single-item auction")
    p.add_argument("--sample")
    p.add_argument("--header", action="store_true")
    p.add_argument("--bidders", type=int, required=True)
    p.add_argument("--seller-value", type=float, default=0.0)
    p.add_argument("--mode", choices=["tail", "revenue"], default="revenue")
    p.add_argument("--reserve", type=float, default=None, help="evaluate this reserve instead of solving")
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--bound-n", type=int, default=None, help="emit guarantees for this sample size")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--kind", choices=["dkw", "interp", "kernel"], default="interp")
    p.add_argument("--tv-bound", type=float, default=None)
    p.add_argument("--kernel", choices=_KERNELS, default="epanechnikov")
    p.add_argument("--bandwidth", type=float, default=None)
    p.set_defaults(fn=_cmd_auction)

    p = sub.add_parser("simulate", help="Monte Carlo coverage / regret experiments")
    p.add_argument("--config", help="JSON config file (see README for the schema)")
    p.add_argument("--target", choices=[t.value for t in McTarget], default="coverage-fixed")
    p.add_argument("--dist", default="uniform")
    p.add_argument("--sizes", default="500")
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--bootstrap", type=int, default=1000)
    p.add_argument("--levels", default="0.9,0.95,0.99")
    p.add_argument("--menu", help="fixed menu JSON file")
    p.add_argument("--menu-price", type=float, default=0.5)
    p.add_argument("--cost", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None, help="required unless --config supplies one")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(fn=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")
        return args.fn(args)
    except (FileNotFoundError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EmpriceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
