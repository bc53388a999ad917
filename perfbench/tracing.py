"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install` replaces, inside each `emprice` module, every function that
module imports from another `emprice` module with a wrapper that records a
span for the callee's module (its layer); `uninstall` puts the originals back.
Modules imported whole (`from . import estimators`) are replaced by a proxy
that wraps their functions the same way. The public methods of every `Cdf`
class are wrapped in place, attributed to the module that defines the class.
Spans nest: a layer's self time is its span time minus the time of the spans
it encloses.

Five counters ride on the same wrappers:

- distributions.cdf_points: theta values at which a CDF is evaluated, counted
  at the outermost CDF evaluation only (a second-order CDF asking its base
  CDF for the same points counts them once).
- solvers.refine_iterations / solvers.menu_items: SolveResult fields of every
  solve that crosses a layer boundary.
- environment.valuation_calls: calls to an Environment's valuation callable,
  for environments built through the constructors other modules import.
- auction.profit_evals: every auction_profit call, including those the
  reserve search makes inside the auction module.

Spans are kept in compact arrays and written out by `write`.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
import types
from array import array

import numpy as np

LAYERS = (
    "rng",
    "distributions",
    "estimators",
    "solvers",
    "mechanisms",
    "inference",
    "experiments",
    "auction",
    "environment",
    "guarantees",
    "cli",
)
COUNTERS = (
    "distributions.cdf_points",
    "solvers.refine_iterations",
    "solvers.menu_items",
    "environment.valuation_calls",
    "auction.profit_evals",
)
CDF_METHODS = (
    "cdf_array",
    "cdf_left_array",
    "density_array",
    "quantile_array",
    "atoms",
    "special_points",
    "cdf",
    "cdf_left",
    "quantile",
    "density",
)
_CDF_EVALS = {"cdf_array": True, "cdf_left_array": True, "cdf": False, "cdf_left": False}
_SOLVERS = {"optimal_profit", "optimal_uniform_price", "optimal_screening_menu"}
_ENV_CONSTRUCTORS = {"linear_unit_demand", "separable_screening", "environment_from_config"}


def _layer_of(module_name: str) -> str | None:
    head, _, tail = module_name.partition(".")
    return tail if head == "emprice" and tail in LAYERS else None


class Tracer:
    """Spans and counters for one imported `emprice` package; see the module doc."""

    def __init__(self, package) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list[int]] = []  # open spans: [span id, child ns]
        self._cdf_depth = 0
        self._next_id = 0
        self.op = -1
        # one entry per finished span
        self.span_id = array("i")
        self.parent = array("i")
        self.span_op = array("i")
        self.layer = array("b")
        self.name = array("h")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self._swaps = self._plan(package)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, layer: str, name: str, fn, on_return=None, points=None):
        """Wrap fn so each call records a span of `layer`.

        on_return(result) sees the value the call returned; points, for CDF
        evaluations, maps the call's arguments to the number of theta values.
        """
        layer_idx = LAYERS.index(layer)
        name_idx = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if points is not None:
                if self._cdf_depth == 0:
                    self.counters["distributions.cdf_points"] += points(args, kwargs)
                self._cdf_depth += 1
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if points is not None:
                    self._cdf_depth -= 1
                dur = t1 - t0
                self.self_ns[layer] += dur - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += dur
                self.span_id.append(sid)
                self.parent.append(parent)
                self.span_op.append(self.op)
                self.layer.append(layer_idx)
                self.name.append(name_idx)
                self.start_ns.append(t0)
                self.end_ns.append(t1)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def count(self, counter: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks -----------------------------------------------------------

    def _on_solve(self, result) -> None:
        self.counters["solvers.refine_iterations"] += int(result.refine_iterations)
        self.counters["solvers.menu_items"] += len(result.menu.items)

    # -- installation ----------------------------------------------------

    def _plan(self, package) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every boundary to wrap."""
        modules = {
            layer: sys.modules[f"{package.__name__}.{layer}"]
            for layer in LAYERS
            if f"{package.__name__}.{layer}" in sys.modules
        }
        swaps = []
        # counter on the calls the auction module makes to itself
        auction = modules["auction"]
        profit = auction.auction_profit
        counted = {id(profit): self.count("auction.profit_evals", profit)}
        swaps.append((auction, "auction_profit", profit, counted[id(profit)]))

        wrapped: dict[int, object] = {}

        def wrap_function(fn):
            if id(fn) not in wrapped:
                layer = _layer_of(fn.__module__)
                inner = counted.get(id(fn), fn)
                on_return = self._on_solve if fn.__name__ in _SOLVERS else None
                w = self.span(layer, f"{layer}.{fn.__name__}", inner, on_return)
                if fn.__name__ in _ENV_CONSTRUCTORS:
                    w = self._counting_valuation(w)
                wrapped[id(fn)] = w
            return wrapped[id(fn)]

        for owner_layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj):
                    layer = _layer_of(obj.__module__)
                    if layer is not None and layer != owner_layer:
                        swaps.append((module, attr, obj, wrap_function(obj)))
                elif isinstance(obj, types.ModuleType) and _layer_of(obj.__name__) not in (None, owner_layer):
                    swaps.append((module, attr, obj, _ModuleProxy(obj, wrap_function)))

        for module in modules.values():
            for obj in list(vars(module).values()):
                if inspect.isclass(obj) and obj.__module__ == module.__name__ and _is_cdf(obj):
                    swaps.extend(self._wrap_cdf_class(obj))
        return swaps

    def install(self) -> None:
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._swaps):
            setattr(owner, attr, original)

    def _counting_valuation(self, build):
        """Wrap an Environment constructor: its environments count valuation calls."""

        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            env = build(*args, **kwargs)
            return dataclasses.replace(env, valuation=self.count("environment.valuation_calls", env.valuation))

        return wrapper

    def _wrap_cdf_class(self, cls) -> list[tuple[object, str, object, object]]:
        layer = _layer_of(cls.__module__)
        swaps = []
        for meth in CDF_METHODS:
            fn = cls.__dict__.get(meth)
            if not inspect.isfunction(fn):
                continue
            points = None
            if meth in _CDF_EVALS:
                points = _array_points if _CDF_EVALS[meth] else _scalar_point
            swaps.append((cls, meth, fn, self.span(layer, f"{cls.__name__}.{meth}", fn, points=points)))
        return swaps

    # -- output ------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op calls, self seconds and counters."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] / ops
            out[f"{layer}.self_s"] = self.self_ns[layer] * 1e-9 / ops
        for name in COUNTERS:
            out[name] = self.counters[name] / ops
        return out

    def write(self, path) -> int:
        """Save the spans as a NumPy archive; returns the number written."""
        np.savez(
            path,
            span_id=np.frombuffer(self.span_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            layer=np.frombuffer(self.layer, dtype=np.int8),
            name=np.frombuffer(self.name, dtype=np.int16),
            start_ns=np.frombuffer(self.start_ns, dtype=np.int64),
            end_ns=np.frombuffer(self.end_ns, dtype=np.int64),
            layers=np.asarray(LAYERS),
            names=np.asarray(self.names),
        )
        return len(self.span_id)


class _ModuleProxy:
    """Stands in for an `emprice` module imported whole; wraps its functions."""

    def __init__(self, module, wrap_function):
        self._module = module
        self._wrap_function = wrap_function

    def __getattr__(self, attr):
        obj = getattr(self._module, attr)
        return self._wrap_function(obj) if inspect.isfunction(obj) else obj


def _is_cdf(cls) -> bool:
    return any(base.__name__ == "Cdf" and base.__module__ == "emprice.distributions" for base in cls.__mro__)


def _array_points(args, kwargs) -> int:
    theta = args[1] if len(args) > 1 else kwargs["theta"]
    return int(np.size(theta))


def _scalar_point(args, kwargs) -> int:
    return 1
