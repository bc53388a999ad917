"""Menus, consumer choice, and the expected-profit functional.

A menu is a finite set of (quantity, price) items; the outside option (0, 0)
is always available. A consumer of type theta picks a utility-maximizing item,
with ties broken in favor of the firm (highest price minus cost), then by
lowest quantity. Supermodularity of the valuation makes the chosen quantity
nondecreasing in theta, so the choice regions are intervals: expected profit
against any distribution reduces to locating the indifference thresholds and
summing item margins weighted by the distribution's mass on each region, with
an atom sitting exactly on a threshold assigned to the firm-preferred side.
One routine does that sum, for `expected_profit` on any menu and for
`one_offer_profits` on many one-item menus at once; `per_consumer_profit`
applies the same tie rule type by type. With v = theta * x, the type
indifferent between (x_lo, p_lo) and (x_hi, p_hi) is
(p_hi - p_lo) / (x_hi - x_lo).

Payments come from the standard envelope characterization: for a nondecreasing
allocation x(.) with x(theta_min) = 0,

    p(theta) = v(theta, x(theta)) - int_{theta_min}^{theta} v1(s, x(s)) ds,

which is constant on each constant segment of x and therefore yields one menu
item per distinct quantity level. `menu_from_allocation` prices all levels in
one array pass: two valuation calls per menu, and a cumulative sum of the
lower levels' rent in level order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import Cdf, EmpiricalStep
from .environment import Environment
from .errors import InvalidMenuError

__all__ = [
    "Menu",
    "Allocation",
    "ChoiceOutcome",
    "consumer_choice",
    "per_consumer_profit",
    "expected_profit",
    "one_offer_profits",
    "menu_from_allocation",
    "menu_to_dict",
    "menu_from_dict",
    "read_menu",
    "write_menu",
]


@dataclass(frozen=True)
class Menu:
    """Finite list of (quantity, price) items; (0, 0) is implicit."""

    items: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        cleaned = []
        seen = set()
        for it in self.items:
            x, p = float(it[0]), float(it[1])
            if x < 0 or p < 0 or not (math.isfinite(x) and math.isfinite(p)):
                raise InvalidMenuError(f"menu item ({x}, {p}) outside quantity/price domain")
            if p == 0.0 and x > 0.0:
                raise InvalidMenuError("free items with positive quantity are not allowed")
            if x == 0.0 and p == 0.0:
                continue  # the outside option is implicit
            if (x, p) not in seen:
                seen.add((x, p))
                cleaned.append((x, p))
        object.__setattr__(self, "items", tuple(sorted(cleaned)))

    @classmethod
    def empty(cls) -> "Menu":
        return cls(())

    @classmethod
    def uniform_price(cls, price: float) -> "Menu":
        return cls(((1.0, price),))


@dataclass(frozen=True)
class Allocation:
    """Step allocation: quantity quantities[i] on [breakpoints[i], breakpoints[i+1])."""

    breakpoints: tuple[float, ...]
    quantities: tuple[float, ...]

    def __post_init__(self) -> None:
        b = tuple(float(x) for x in self.breakpoints)
        q = tuple(float(x) for x in self.quantities)
        if len(b) != len(q):
            raise ValueError("one quantity per breakpoint required")
        if not all(map(math.isfinite, b)) or any(b2 <= b1 for b1, b2 in zip(b, b[1:])):
            raise ValueError("breakpoints must be finite and strictly increasing")
        if not all(map(math.isfinite, q)) or any(q2 < q1 for q1, q2 in zip(q, q[1:])) or (q and q[0] < 0):
            raise ValueError("quantities must be finite, nonnegative and nondecreasing")
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "quantities", q)


@dataclass(frozen=True)
class ChoiceOutcome:
    quantity: float
    price: float
    utility: float


def _profit_of(x, p, env: Environment):
    """Firm margin p - c(x), elementwise over quantity and price arrays."""
    return p - np.asarray(env.cost(x), dtype=float)


def consumer_choice(menu: Menu, theta: float, env: Environment) -> ChoiceOutcome:
    """Utility-maximizing item; ties to the firm, then to the lowest quantity."""
    best = (0.0, 0.0)
    best_u = 0.0
    best_profit = _profit_of(0.0, 0.0, env)
    for x, p in menu.items:
        u = float(np.asarray(env.valuation(theta, x))) - p
        profit = _profit_of(x, p, env)
        if u > best_u or (u == best_u and (profit > best_profit or (profit == best_profit and x < best[0]))):
            best, best_u, best_profit = (x, p), u, profit
    return ChoiceOutcome(best[0], best[1], best_u)


def _check_quantity(x: float, env: Environment) -> None:
    if x > env.x_max + 1e-12:
        raise InvalidMenuError(f"menu quantity {x} exceeds x_max {env.x_max}")


def _choice_ladder(menu: Menu, env: Environment) -> tuple[list[tuple[float, float]], list[float]]:
    """Active items in increasing quantity with their activation thresholds.

    Returns (items, thresholds): items[0] is the outside option active from
    theta_min; items[k] (k >= 1) is chosen on (thresholds[k-1], thresholds[k]).
    """
    for x, _ in menu.items:
        _check_quantity(x, env)
    # per quantity keep the cheapest item; pricier duplicates are never chosen
    best_by_x: dict[float, float] = {}
    for x, p in menu.items:
        if x > 0.0 and (x not in best_by_x or p < best_by_x[x]):
            best_by_x[x] = p
    lo, hi = env.types.lower, env.types.upper
    items = sorted(best_by_x.items())
    ladder = [(0.0, 0.0)]
    thresholds: list[float] = []
    for x, p in items:
        while True:
            x_lo, p_lo = ladder[-1]
            # the utility gap theta * dx - dp grows with theta (dx > 0, as
            # the items are sorted), so the item is weakly preferred to the
            # ladder's top from t = dp / dx on
            t = (p - p_lo) / (x - x_lo)
            if t > hi:
                break
            t = max(t, lo)
            prev_t = thresholds[-1] if thresholds else lo
            if len(ladder) > 1 and t <= prev_t:
                ladder.pop()
                thresholds.pop()
                continue
            ladder.append((x, p))
            thresholds.append(t)
            break
    return ladder, thresholds


def _region_profits(margins: np.ndarray, thresholds: np.ndarray, F: Cdf) -> np.ndarray:
    """Expected profit of choice ladders against F, over any leading axes.

    margins (..., L+1) lists a ladder's margins, the outside option first, and
    thresholds (..., L) its activation thresholds: item k >= 1 is sold on
    (t_k, t_{k+1}), and an atom at t_k goes to the firm-preferred neighbour.
    The interval terms, then the atom terms, are summed in ladder order onto
    +0.0 one at a time, so every ladder gets the same bits on any path.
    """
    right = F.cdf_array(thresholds)
    left = F.cdf_left_array(thresholds)
    upper = np.concatenate([left, np.ones(left.shape[:-1] + (1,))], axis=-1)[..., 1:]
    mass = right - left
    atoms = np.where(mass > 0.0, mass * np.maximum(margins[..., :-1], margins[..., 1:]), 0.0)
    terms = [np.zeros(left.shape[:-1] + (1,)), margins[..., 1:] * (upper - right), atoms]
    return np.add.accumulate(np.concatenate(terms, axis=-1), axis=-1)[..., -1]


def per_consumer_profit(menu: Menu, thetas: np.ndarray, env: Environment) -> np.ndarray:
    """Vectorized firm profit p - c(x) at each consumer's chosen item."""
    ladder, thresholds = _choice_ladder(menu, env)
    th = np.asarray(thetas, dtype=float)
    margins = _profit_of(*np.asarray(ladder).T, env)
    tarr = np.asarray(thresholds, dtype=float)
    idx = np.searchsorted(tarr, th, side="right")
    # types sitting exactly on a threshold go to the firm-preferred side
    return margins[idx - (np.isin(th, tarr) & (margins[idx - 1] >= margins[idx]))]


def expected_profit(menu: Menu, F: Cdf, env: Environment) -> float:
    """Expected firm profit of the menu against type distribution F.

    Exact average over the observations for an empirical step distribution;
    exact interval/atom integration over the choice regions otherwise.
    """
    if isinstance(F, EmpiricalStep):
        return float(per_consumer_profit(menu, F.sample.values, env).mean())
    ladder, thresholds = _choice_ladder(menu, env)
    margins = _profit_of(*np.asarray(ladder).T, env)
    return float(_region_profits(margins, np.asarray(thresholds, dtype=float), F))


def one_offer_profits(x: float, prices: np.ndarray, F: Cdf, env: Environment) -> np.ndarray:
    """`expected_profit` of each one-item menu {(x, p)}, p in `prices`, against
    a distribution F that is not an empirical step, from one evaluation of F
    and of its left limits at all the thresholds.

    Types from t = p / x up buy the item. Where t lies above the type space
    nobody buys and the profit is 0.
    """
    prices = np.asarray(prices, dtype=float)
    _check_quantity(x, env)
    lo, hi = env.types.lower, env.types.upper
    if x > 0.0:
        t = prices / x
    else:
        t = np.where(prices <= 0.0, -np.inf, np.inf)
    # one ladder per price: the outside option (0, 0), then (x, p)
    margins = _profit_of(np.array([0.0, x]), np.stack([np.zeros_like(prices), prices], axis=-1), env)
    return np.where(t <= hi, _region_profits(margins, np.maximum(t, lo)[:, None], F), 0.0)


def menu_from_allocation(allocation: Allocation, env: Environment) -> Menu:
    """Menu implementing a step allocation via the envelope payment formula.

    On a constant segment the information-rent integral telescopes into
    valuation increments, so each distinct quantity level gets the price
    p_k = v(t_k, q_k) - sum_{j<k} [v(t_{j+1}, q_j) - v(t_j, q_j)],
    with t_K = theta_max. v is called once on every level's lower breakpoint
    and once on its upper one; the rent adds one term at a time in level order.
    """
    b = np.asarray(allocation.breakpoints, dtype=float)
    q = np.asarray(allocation.quantities, dtype=float)
    # the first breakpoint of each run of equal quantities; zero levels go
    keep = q > 0.0
    keep[1:] &= q[1:] != q[:-1]
    b, q = b[keep], q[keep]
    if not q.size:
        return Menu.empty()
    v_lo = np.asarray(env.valuation(b, q), dtype=float)
    rise = np.asarray(env.valuation(np.append(b[1:], env.types.upper), q), dtype=float) - v_lo
    rent = np.add.accumulate(np.concatenate([[0.0], rise[:-1]]))
    return Menu(tuple(zip(q.tolist(), (v_lo - rent).tolist())))


# ---------------------------------------------------------------------------
# JSON serialization: {"items": [{"x": .., "p": ..}, ...]}
# ---------------------------------------------------------------------------

def menu_to_dict(menu: Menu) -> dict:
    return {"items": [{"x": x, "p": p} for x, p in menu.items]}


def menu_from_dict(payload: dict) -> Menu:
    try:
        items = tuple((float(it["x"]), float(it["p"])) for it in payload["items"])
    except (KeyError, TypeError) as exc:
        raise InvalidMenuError(f"malformed menu payload: {exc}") from exc
    return Menu(items)


def read_menu(path: str | Path) -> Menu:
    return menu_from_dict(json.loads(Path(path).read_text()))


def write_menu(path: str | Path, menu: Menu) -> None:
    Path(path).write_text(json.dumps(menu_to_dict(menu), indent=2) + "\n")
