import dataclasses

import numpy as np
import pytest

import emprice as ep
from emprice.environment import validate_environment, lipschitz_constant


class TestLipschitzConstant:
    def test_linear_cost_zero(self):
        env = ep.linear_unit_demand(0.0, 1.0, 1.0, 0.0)
        assert lipschitz_constant(env) == 4.0

    def test_linear_cost_half(self):
        env = ep.linear_unit_demand(0.0, 1.0, 1.0, 0.5)
        assert lipschitz_constant(env) == 5.0

    def test_wider_type_space(self):
        env = ep.linear_unit_demand(0.0, 2.0, 1.0, 0.0)
        assert lipschitz_constant(env) == 8.0

    @pytest.mark.parametrize("theta_max,x_max,c_bar", [(1.0, 1.0, 0.0), (2.0, 3.0, 0.25), (1.5, 0.5, 1.0)])
    def test_linear_closed_form_exact(self, theta_max, x_max, c_bar):
        env = ep.linear_unit_demand(0.0, theta_max, x_max, c_bar)
        expected = 2.0 * (theta_max * x_max + theta_max * x_max + c_bar * x_max)
        assert lipschitz_constant(env) == expected

    def test_non_separable_valuation_rejected(self):
        # v is increasing, zero at theta = 0 and at x = 0, and supermodular,
        # but not theta * u(x): no environment, so no constant, is built
        v = lambda th, x: (np.asarray(th) + (1 - np.cos(np.pi * np.asarray(th))) / np.pi) * np.asarray(x)
        with pytest.raises(ep.InvalidEnvironmentError, match="valuation_separable"):
            ep.Environment(
                types=ep.TypeSpace(0.0, 1.0), x_max=1.0, valuation=v, utility=lambda x: np.asarray(x),
                cost=lambda x: 0.0 * np.asarray(x), kind=ep.MarketKind.SEPARABLE_SCREENING,
            )

    def test_invalid_environment_rejected(self):
        env = ep.separable_screening(cost=lambda x: -np.asarray(x))
        with pytest.raises(ep.InvalidEnvironmentError):
            lipschitz_constant(env)


class TestValidateEnvironment:
    def test_linear_env_passes_all(self):
        report = validate_environment(ep.linear_unit_demand(0, 1, 1, 0.0), grid_size=50)
        assert report.passed
        assert len(report.checks) == 8
        assert "valuation_separable" not in {c.name for c in report.checks}

    def test_decreasing_cost_fails_monotonicity_only(self):
        env = ep.separable_screening(cost=lambda x: -np.asarray(x))
        report = validate_environment(env, grid_size=50)
        failed = {c.name for c in report.failures()}
        assert failed == {"cost_nondecreasing"}
        by_name = {c.name: c for c in report.checks}
        assert by_name["cost_convex"].passed
        assert by_name["cost_zero_at_zero"].passed

    def test_unshifted_valuation_fails_at_positive_lower_bound(self):
        env = ep.linear_unit_demand(0.2, 1.0, 1.0, 0.0)
        report = validate_environment(env, grid_size=50)
        failed = {c.name for c in report.failures()}
        assert "valuation_zero_at_lowest_type" in failed
        check = next(c for c in report.checks if c.name == "valuation_zero_at_lowest_type")
        assert check.worst_value < -1e-9

    @pytest.mark.parametrize("name,axis", [
        ("valuation_nondecreasing_in_type", 0),
        ("valuation_nondecreasing_in_quantity", 1),
        ("valuation_supermodular", None),
    ])
    def test_failing_2d_check_reports_brute_force_argmin(self, name, axis):
        # v = theta x (1 - x): cross derivative 1 - 2 x, submodular for x > 1/2;
        # v decreases in x above 1/2 and in theta above x = 1
        env = ep.separable_screening(
            cost=lambda x: 0.5 * np.asarray(x) ** 2, theta_max=2.0, x_max=1.5, utility=lambda x: x * (1 - x),
        )
        g = 7
        th, xs = np.linspace(0.0, 2.0, g), np.linspace(0.0, 1.5, g)
        vals = [[float(env.valuation(t, x)) for x in xs] for t in th]
        if axis == 0:
            diffs = {(i, j): vals[i + 1][j] - vals[i][j] for i in range(g - 1) for j in range(g)}
        elif axis == 1:
            diffs = {(i, j): vals[i][j + 1] - vals[i][j] for i in range(g) for j in range(g - 1)}
        else:
            diffs = {
                (i, j): vals[i + 1][j + 1] - vals[i + 1][j] - vals[i][j + 1] + vals[i][j]
                for i in range(g - 1) for j in range(g - 1)
            }
        i, j = min(diffs, key=lambda ij: (diffs[ij], ij))  # first minimum in row-major order
        check = next(c for c in validate_environment(env, grid_size=g).checks if c.name == name)
        assert not check.passed
        assert check.worst_point == (th[i], xs[j])
        assert check.worst_value == pytest.approx(diffs[i, j], abs=1e-12)

    def test_grid_size_too_small(self):
        with pytest.raises(ValueError):
            validate_environment(ep.linear_unit_demand(), grid_size=1)


def _cost(x):
    return 0.5 * np.asarray(x) ** 2


class TestSeparableAtConstruction:
    """Every Environment is v = theta * u(x), checked when it is built."""

    @staticmethod
    def _build(valuation, utility, kind=ep.MarketKind.SEPARABLE_SCREENING):
        c_bar = 0.0 if kind is ep.MarketKind.LINEAR_UNIT_DEMAND else None
        return ep.Environment(
            types=ep.TypeSpace(0.0, 1.0), x_max=1.0, valuation=valuation, utility=utility,
            cost=_cost, kind=kind, c_bar=c_bar,
        )

    def test_linear_kind_checked_too(self):
        # v = theta^2 x: its choice thresholds are not dp / du, so profits
        # read off the ladder would disagree with the consumers' own choices
        with pytest.raises(ep.InvalidEnvironmentError, match="valuation_separable"):
            self._build(
                lambda th, x: np.asarray(th) ** 2 * np.asarray(x), lambda x: np.asarray(x),
                ep.MarketKind.LINEAR_UNIT_DEMAND,
            )

    def test_nan_valuation_rejected(self):
        with pytest.raises(ep.InvalidEnvironmentError, match="valuation_separable"):
            self._build(lambda th, x: np.full(np.broadcast(th, x).shape, np.nan), lambda x: np.asarray(x))

    @pytest.mark.parametrize("kind", list(ep.MarketKind))
    def test_hand_built_separable_accepted(self, kind):
        env = self._build(lambda th, x: np.asarray(th) * np.sqrt(x), np.sqrt, kind)
        assert float(env.utility(0.25)) == 0.5

    def test_replace_is_checked(self):
        base = ep.linear_unit_demand()
        counted = []

        def valuation(th, x):
            counted.append(1)
            return base.valuation(th, x)

        env = dataclasses.replace(base, valuation=valuation)
        assert len(counted) == 1 and env.utility is base.utility
        for env in (ep.linear_unit_demand(), ep.separable_screening(cost=_cost, utility=np.sqrt)):
            with pytest.raises(ep.InvalidEnvironmentError, match="valuation_separable"):
                dataclasses.replace(env, valuation=lambda th, x: np.asarray(th) ** 2 * np.asarray(x))
            with pytest.raises(ep.InvalidEnvironmentError, match="valuation_separable"):
                dataclasses.replace(env, utility=lambda x: 1.0 + np.asarray(x))


class TestTypeSpace:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ep.InvalidEnvironmentError):
            ep.TypeSpace(1.0, 1.0)

    def test_negative_lower_rejected(self):
        with pytest.raises(ep.InvalidEnvironmentError):
            ep.TypeSpace(-0.5, 1.0)


class TestEnvironmentConfig:
    def test_linear_roundtrip(self):
        env = ep.environment_from_config({"kind": "linear", "theta_max": 2.0, "c_bar": 0.3})
        assert env.kind is ep.MarketKind.LINEAR_UNIT_DEMAND
        assert env.c_bar == 0.3
        assert env.types.upper == 2.0

    def test_screening_cost_spec(self):
        env = ep.environment_from_config(
            {"kind": "screening", "cost": {"scale": 0.5, "power": 2.0}}
        )
        assert env.kind is ep.MarketKind.SEPARABLE_SCREENING
        assert float(np.asarray(env.cost(2.0))) == 2.0

    def test_screening_cost_is_a_power_cost(self):
        # kept as it is, so the solver sees the closed-form model
        env = ep.environment_from_config({"kind": "screening", "cost": {"scale": 0.2, "power": 3}})
        assert env.cost == ep.PowerCost(0.2, 3.0)
        assert env.utility_is_identity
        assert not ep.separable_screening(ep.PowerCost(0.2, 3.0), utility=np.sqrt).utility_is_identity

    @pytest.mark.parametrize("scale, power", [(-0.1, 2.0), (0.5, 0.9), (float("nan"), 2.0), (0.5, float("inf"))])
    def test_power_cost_rejects_non_convex(self, scale, power):
        with pytest.raises(ep.InvalidEnvironmentError, match="power >= 1 for convexity"):
            ep.PowerCost(scale, power)

    def test_unknown_kind(self):
        with pytest.raises(ep.InvalidEnvironmentError):
            ep.environment_from_config({"kind": "nonlinear"})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("cfg", [
        lambda v: {"kind": "linear", "c_bar": v},
        lambda v: {"kind": "screening", "cost": {"scale": v, "power": 2.0}},
        lambda v: {"kind": "screening", "cost": {"scale": 0.5, "power": v}},
    ], ids=["c_bar", "cost_scale", "cost_power"])
    def test_non_finite_cost_rejected(self, cfg, value):
        with pytest.raises(ep.InvalidEnvironmentError):
            ep.environment_from_config(cfg(value))
