import dataclasses
import warnings

import numpy as np
import pytest

import emprice as ep
from emprice.cli import main
from emprice.environment import lipschitz_constant


_LOWEST_TYPE = "environment fails assumption checks: valuation_zero_at_lowest_type"


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
        # but not theta * x: no environment, so no constant, is built
        v = lambda th, x: (np.asarray(th) + (1 - np.cos(np.pi * np.asarray(th))) / np.pi) * np.asarray(x)
        with pytest.raises(ep.InvalidEnvironmentError, match="valuation_separable"):
            ep.Environment(
                types=ep.TypeSpace(0.0, 1.0), x_max=1.0, valuation=v, cost=ep.PowerCost(0.0, 1.0),
            )

    def test_invalid_environment_rejected(self):
        # a decreasing cost is no PowerCost: no environment, so no constant
        with pytest.raises(ep.InvalidEnvironmentError, match="PowerCost"):
            lipschitz_constant(ep.separable_screening(cost=lambda x: -np.asarray(x)))

    @pytest.mark.parametrize("build,want", [
        (lambda: ep.linear_unit_demand(c_bar=1e8), 200000004.0),
        (lambda: ep.separable_screening(ep.PowerCost(1e8, 1.0)), 200000004.0),
        (lambda: ep.linear_unit_demand(x_max=1e5, c_bar=100), 20400000.0),
    ], ids=["linear-c_bar-1e8", "power-cost-1e8", "linear-x_max-1e5"])
    def test_large_linear_cost_accepted(self, build, want):
        # a grid check of convexity with an absolute 1e-9 tolerance rejected
        # these on the rounding of the cost's second differences
        assert lipschitz_constant(build()) == want

    def test_lowest_type_tolerance(self):
        # theta_min * x_max up to 1e-9 counts as a zero valuation
        assert lipschitz_constant(ep.linear_unit_demand(1e-9, 1.0, 1.0, 0.0)) == 3.999999998
        with pytest.raises(ep.InvalidEnvironmentError, match=f"^{_LOWEST_TYPE}$"):
            lipschitz_constant(ep.linear_unit_demand(2e-9, 1.0, 1.0, 0.0))

    @pytest.mark.parametrize("theta_max,x_max,scale,power,want", [
        (1.0, 0.3, 0.2, 1.0, 1.3199999999999998),
        (1.0, 0.3, 0.2, 1.5, 1.26572670690062),
        (1.0, 0.3, 0.5, 3.0, 1.2269999999999999),
        (1.0, 2.0, 0.2, 1.5, 9.131370849898476),
        (1.0, 2.0, 0.5, 3.0, 16.0),
        (2.5, 0.3, 0.0, 1.5, 3.0),
        (2.5, 0.3, 0.2, 1.5, 3.06572670690062),
        (2.5, 0.3, 0.5, 1.5, 3.1643167672515498),
        (2.5, 2.0, 0.2, 1.5, 21.131370849898477),
        (2.5, 2.0, 0.5, 3.0, 28.0),
    ])
    def test_screening_values_pinned(self, theta_max, x_max, scale, power, want):
        # the values of the grid checker this closed form replaced, bit for bit
        env = ep.separable_screening(ep.PowerCost(scale, power), theta_max=theta_max, x_max=x_max)
        assert lipschitz_constant(env) == want


class TestValidateEnvironment:
    """The one assumption that does not hold by construction, checked by
    `lipschitz_constant`: v vanishes at the lowest type."""

    def test_linear_env_passes_all(self):
        for env in (ep.linear_unit_demand(0, 1, 1, 0.0), ep.separable_screening(ep.PowerCost(0.5, 2.0))):
            assert lipschitz_constant(env) > 0.0

    def test_unshifted_valuation_fails_at_positive_lower_bound(self):
        env = ep.linear_unit_demand(0.2, 1.0, 1.0, 0.0)
        with pytest.raises(ep.InvalidEnvironmentError, match=f"^{_LOWEST_TYPE}$"):
            lipschitz_constant(env)


_COST = ep.PowerCost(0.5, 2.0)
_LINEAR_COST = ep.PowerCost(0.0, 1.0)


class TestSeparableAtConstruction:
    """Every Environment is v = theta * x, checked when it is built."""

    @staticmethod
    def _build(valuation, cost=_COST):
        return ep.Environment(types=ep.TypeSpace(0.0, 1.0), x_max=1.0, valuation=valuation, cost=cost)

    def test_linear_kind_checked_too(self):
        # v = theta^2 x: its choice thresholds are not dp / du, so profits
        # read off the ladder would disagree with the consumers' own choices
        with pytest.raises(ep.InvalidEnvironmentError, match="valuation_separable"):
            self._build(lambda th, x: np.asarray(th) ** 2 * np.asarray(x), _LINEAR_COST)

    def test_nan_valuation_rejected(self):
        with pytest.raises(ep.InvalidEnvironmentError, match="valuation_separable"):
            self._build(lambda th, x: np.full(np.broadcast(th, x).shape, np.nan))

    @pytest.mark.parametrize("cost", [_LINEAR_COST, _COST], ids=["linear", "convex"])
    def test_hand_built_separable_accepted(self, cost):
        env = self._build(lambda th, x: np.multiply(th, x), cost)
        assert float(env.valuation(0.5, 0.25)) == 0.125

    def test_replace_is_checked(self):
        base = ep.linear_unit_demand()
        counted = []

        def valuation(th, x):
            counted.append(1)
            return base.valuation(th, x)

        env = dataclasses.replace(base, valuation=valuation)
        assert len(counted) == 1 and env.cost is base.cost
        for env in (ep.linear_unit_demand(), ep.separable_screening(cost=_COST)):
            with pytest.raises(ep.InvalidEnvironmentError, match="valuation_separable"):
                dataclasses.replace(env, valuation=lambda th, x: np.asarray(th) ** 2 * np.asarray(x))
            with pytest.raises(ep.InvalidEnvironmentError, match="valuation_separable"):
                dataclasses.replace(env, valuation=lambda th, x: np.asarray(th) * np.sqrt(x))
        for env in (ep.linear_unit_demand(), ep.separable_screening(cost=_COST)):
            with pytest.raises(ep.InvalidEnvironmentError, match="PowerCost"):
                dataclasses.replace(env, cost=lambda x: 0.5 * np.asarray(x) ** 2)


class TestOnlyPowerCost:
    """Every environment takes a `PowerCost` and nothing else, and says so
    in one line."""

    def test_other_cost_rejected(self):
        with pytest.raises(
            ep.InvalidEnvironmentError, match="^an environment needs a PowerCost\\(scale, power\\) cost, got function$"
        ):
            ep.separable_screening(cost=lambda x: x)

    def test_linear_lambda_cost_cannot_be_built(self):
        # a linear unit cost held apart from a lambda cost let the price
        # solver read 0 while profits charged 0.5 * x: it posted 0.5 with
        # value -2.5e-9, where the optimum is 0.75
        with pytest.raises(ep.InvalidEnvironmentError, match="PowerCost"):
            ep.Environment(ep.TypeSpace(0.0, 1.0), 1.0, lambda th, x: np.multiply(th, x), lambda x: 0.5 * x)
        with pytest.raises(TypeError):
            ep.Environment(ep.TypeSpace(0.0, 1.0), 1.0, lambda th, x: np.multiply(th, x), _LINEAR_COST, c_bar=0.0)
        assert not hasattr(ep, "MarketKind")
        env = ep.linear_unit_demand(c_bar=0.5)
        assert env.cost == ep.PowerCost(0.5, 1.0)
        assert not hasattr(env, "kind") and not hasattr(env, "c_bar")
        res = ep.optimal_uniform_price(ep.Uniform(0, 1), env)
        assert res.menu.items[0][1] == pytest.approx(0.75, abs=1e-8)
        assert res.optimal_value == pytest.approx(0.0625, abs=1e-12)

    def test_utility_is_no_parameter(self):
        with pytest.raises(TypeError, match="utility"):
            ep.separable_screening(ep.PowerCost(0.5, 2), utility=np.sqrt)

    def test_cli_cost_power_below_one_exits_1(self, capsys):
        assert main(["solve", "--dist", "uniform", "--env", "screening", "--cost-power", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cost needs finite scale >= 0 and power >= 1 for convexity\n"


class TestFiniteTop:
    """theta_max * x_max and c(x_max) must be finite; the check runs before
    the 4 x 4 valuation grid, which overflowed on them."""

    SCREENING = ["solve", "--dist", "beta:2:5", "--env", "screening", "--cost-scale", "0.2", "--cost-power", "1.5",
                 "--grid-size", "200", "--x-max", "2", "--theta-max", "1.5"]

    @pytest.mark.parametrize("argv,quantity", [
        ([*SCREENING, "--cost-power=1e308"], "c(x_max)"),
        ([*SCREENING, "--cost-scale=1e308"], "c(x_max)"),
        ([*SCREENING, "--x-max=1e308"], "c(x_max)"),
        # this one exited 1 as valuation_separable, on the grid's overflow
        ([*SCREENING, "--theta-max=1e308"], "theta_max * x_max"),
        (["solve", "--dist", "beta:2:5", "--cost", "1e308", "--x-max", "2"], "c(x_max)"),
    ], ids=["cost-power", "cost-scale", "x-max", "theta-max", "linear-cost"])
    def test_cli_exits_1_without_a_warning(self, capsys, argv, quantity):
        # each printed a numpy RuntimeWarning on stderr, and all but
        # --theta-max then exited 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert (code, caught) == (1, [])
        assert capsys.readouterr() == ("", f"error: environment needs a finite {quantity}, got inf\n")

    def test_library_builds_checked(self):
        with pytest.raises(ep.InvalidEnvironmentError, match=r"^environment needs a finite theta_max \* x_max"):
            ep.linear_unit_demand(theta_max=1e200, x_max=1e200)
        with pytest.raises(ep.InvalidEnvironmentError, match=r"^environment needs a finite c\(x_max\), got nan$"):
            ep.separable_screening(ep.PowerCost(0.0, 1e308), x_max=2.0)
        env = ep.separable_screening(ep.PowerCost(1e300, 2.0), theta_max=1e154, x_max=1e4)
        assert float(env.cost(env.x_max)) == 1e308


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
        assert env.cost == ep.PowerCost(0.3, 1.0)
        assert env.types.upper == 2.0

    def test_screening_cost_spec(self):
        env = ep.environment_from_config(
            {"kind": "screening", "cost": {"scale": 0.5, "power": 2.0}}
        )
        assert env.cost == ep.PowerCost(0.5, 2.0)
        assert float(np.asarray(env.cost(2.0))) == 2.0

    def test_screening_cost_is_a_power_cost(self):
        # kept as it is, so the solver sees the closed-form model
        env = ep.environment_from_config({"kind": "screening", "cost": {"scale": 0.2, "power": 3}})
        assert env.cost == ep.PowerCost(0.2, 3.0)

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
