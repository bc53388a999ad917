import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emprice as ep
import emprice.auction
from emprice.cli import _json_text, _simulate_config, build_parser, main
from emprice.errors import EmpriceError


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("0.3\n0.5\n0.9\n")
    return str(path)


@pytest.fixture
def menu_file(tmp_path):
    path = tmp_path / "menu.json"
    ep.write_menu(path, ep.Menu(((1.0, 0.5),)))
    return str(path)


@pytest.fixture
def high_sample_file(tmp_path):
    path = tmp_path / "high.csv"
    path.write_text("0.6\n0.7\n0.8\n0.9\n")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSolve:
    def test_sample_enumeration(self, capsys, sample_file):
        code, payload = run_json(capsys, ["solve", "--sample", sample_file, "--env", "linear", "--cost", "0"])
        assert code == 0
        assert payload["uniform_price"] == 0.5
        assert payload["optimal_value"] == 1.0 / 3.0
        assert payload["items"] == [{"x": 1.0, "p": 0.5}]

    def test_bitwise_equality_with_library(self, capsys, sample_file, linear_env):
        _, payload = run_json(capsys, ["solve", "--sample", sample_file])
        want = ep.optimal_profit(ep.ecdf(ep.read_sample(sample_file)), linear_env)
        assert payload["optimal_value"] == want.optimal_value
        assert payload["method"] == want.method.value

    def test_analytic_distribution(self, capsys):
        _, payload = run_json(capsys, ["solve", "--dist", "uniform"])
        assert payload["optimal_value"] == pytest.approx(0.25, abs=1e-9)

    def test_law_outside_type_space_exits_1(self, capsys):
        code = main(["solve", "--dist", "beta:2:2:0.5:3"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == "error: law beta:2:2:0.5:3 has support [0.5, 3] outside the type space [0, 1]\n"

    @pytest.mark.parametrize("spec, message", [
        ("beta:nan:1", "beta shape parameters must be positive and finite"),
        ("beta:inf:2", "beta shape parameters must be positive and finite"),
        ("beta:2:2:0:inf", "beta support requires finite lo < hi"),
        ("uniform:nan:1", "uniform requires finite a < b"),
        ("pointmass:nan", "point mass location must be finite"),
        ("pointmass:-inf", "point mass location must be finite"),
    ])
    def test_non_finite_law_parameter_exits_1(self, capsys, spec, message):
        # nan and inf passed the positivity checks: an empty menu, or a price of 0.99999999997
        code = main(["solve", "--dist", spec])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("spec, forms", [
        ("uniform:0.2", "uniform or uniform:a:b"),
        ("uniform:0.2:0.8:5", "uniform or uniform:a:b"),
        ("beta:2", "beta:alpha:beta or beta:alpha:beta:lo:hi"),
        ("beta:2:2:0.1", "beta:alpha:beta or beta:alpha:beta:lo:hi"),
        ("pointmass:0.1:0.2", "pointmass:t"),
    ])
    def test_wrong_parameter_count_exits_1(self, capsys, spec, forms):
        code = main(["solve", "--dist", spec])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: distribution spec {spec!r} has the wrong number of parameters; use {forms}\n"

    @pytest.mark.parametrize("spec, message", [
        ("uniform:abc", "distribution spec 'uniform:abc' has the wrong number of parameters; use uniform or uniform:a:b"),
        ("uniform:0:abc", "distribution spec 'uniform:0:abc' has a non-numeric parameter"),
        ("foo:abc", "unknown distribution spec 'foo:abc'"),
    ])
    def test_non_numeric_parameter_exits_1(self, capsys, spec, message):
        code = main(["solve", "--dist", spec])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flags, space",
        [(["--theta-max", "0.5"], "[0, 0.5]"), (["--theta-min", "0.65", "--estimator", "interp"], "[0.65, 1]")],
    )
    def test_sample_outside_type_space_exits_1(self, capsys, high_sample_file, flags, space):
        code = main(["solve", "--sample", high_sample_file, *flags])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: sample {high_sample_file} has observations in [0.6, 0.9] outside the type space {space}\n"

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code = main(["solve", "--sample", str(tmp_path / "missing.csv")])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_tied_sample_interp_exits_1(self, capsys, tmp_path):
        path = tmp_path / "tied.csv"
        path.write_text("0.3\n0.3\n0.9\n")
        assert main(["solve", "--sample", str(path), "--estimator", "interp"]) == 1

    def test_non_numeric_sample_line_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.3\nabc\n0.9\n")
        code = main(["solve", "--sample", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: sample file {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("env", ["linear", "screening"])
    def test_nonpositive_grid_size_exits_2(self, capsys, env):
        for size in ("0", "-5"):
            code = main(["solve", "--dist", "uniform", "--env", env, "--grid-size", size])
            out, err = capsys.readouterr()
            assert code == 2
            assert out == ""
            assert err == f"error: --grid-size must be at least 1, got {size}\n"

    def test_neither_sample_nor_dist_exits_2(self, capsys):
        assert main(["solve"]) == 2
        assert capsys.readouterr().err == "error: solve needs --sample or --dist\n"

    def test_sample_beside_dist_exits_2(self, capsys, sample_file):
        # the sample file was never read
        assert main(["solve", "--dist", "uniform", "--sample", sample_file]) == 2
        assert capsys.readouterr() == ("", "error: solve takes --sample or --dist, not both\n")

    def test_screening_power_one_prints_uniform_price(self, capsys, sample_file):
        # the price solver ran, so its price is printed under either --env
        for env in (["--env", "linear"], ["--env", "screening", "--cost-power", "1", "--cost-scale", "0"]):
            code, payload = run_json(capsys, ["solve", "--sample", sample_file, *env])
            assert code == 0 and payload["uniform_price"] == 0.5
            assert payload["method"] == "uniform_price_enumeration"
        _, payload = run_json(capsys, ["solve", "--dist", "uniform", "--env", "screening", "--grid-size", "100"])
        assert payload["method"] == "screening_ironed" and "uniform_price" not in payload

    def test_unknown_flag_exits_2(self, capsys, sample_file):
        assert main(["solve", "--sample", sample_file, "--frobnicate"]) == 2

    def test_malformed_sample_line_message(self, capsys, tmp_path):
        # the message is the general loop's, whichever path read the file
        path = tmp_path / "bad.csv"
        path.write_text("0.3\n0.5\n0.7x\n")
        assert main(["solve", "--sample", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: sample file {path}: could not convert string to float: '0.7x'\n"

    def test_beta_top_midpoint_at_support_end(self, capsys):
        # the top midpoint level's quantile rounds to the upper end, where the
        # Beta(0.25, 0.25) density reads 0; it exited 1 at grids 2000 and 4000
        values = []
        for grid in ([], ["--grid-size", "1000"], ["--grid-size", "4000"]):
            code, payload = run_json(capsys, ["solve", "--env", "screening", "--dist", "beta:0.25:0.25", *grid])
            assert code == 0
            values.append(payload["optimal_value"])
        default, coarse, fine = values
        assert coarse <= default <= fine

    def test_beta_top_midpoint_on_rescaled_support(self, capsys):
        # on [0.2, 0.9] the float just below 0.9 still has unit coordinate
        # 1.0, where the density reads 0; it exited 1 at the default grid
        code, payload = run_json(capsys, ["solve", "--env", "screening", "--dist", "beta:0.25:0.25:0.2:0.9"])
        assert code == 0
        assert payload["method"] == "screening_ironed" and payload["optimal_value"] > 0.0
        top = ep.ironed_virtual_value(ep.BetaCdf(0.25, 0.25, 0.2, 0.9)).segment_thetas[-1]
        assert (top - 0.2) / (0.9 - 0.2) < 1.0

    @pytest.mark.parametrize("law, support", [("beta:2:1e-8", "[0, 1]"), ("beta:2:5:0:1e-9", "[0, 1e-09]")])
    def test_collapsed_quantile_grid_is_named(self, capsys, law, support):
        # these laws exited 1 with the Allocation's "breakpoints must be
        # finite and strictly increasing"; the linear solve takes them
        assert main(["solve", "--env", "screening", "--dist", law]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: this law's quantile grid collapses at float resolution: on {support}, "
                       "two of its 2000 levels where the allocation steps invert to one type\n")
        assert main(["solve", "--dist", law]) == 0

    def test_comma_column_sample(self, capsys, tmp_path, sample_file, linear_env):
        path = tmp_path / "cols.csv"
        path.write_text("theta,id\r\n0.3,1\r\n\r\n0.5,2\r\n0.9,3\r\n")
        _, with_cols = run_json(capsys, ["solve", "--sample", str(path), "--header"])
        _, bare = run_json(capsys, ["solve", "--sample", sample_file])
        assert with_cols == bare


_JSON_KEYS = st.text(max_size=6) | st.sampled_from(["", '"', "\\", "\n\t\x00\x1f\x7f", "é ü €", "\u2028"])
_JSON_SCALARS = (
    st.sampled_from([
        float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1.7976931348623157e308,
        2**64, -(2**100), True, False, None,
    ])
    | st.floats()
    | st.floats().map(np.float64)
    | st.integers()
    | st.text(max_size=6)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_JSON_KEYS, children, max_size=4),
    max_leaves=24,
)


def _has_non_finite(value) -> bool:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(map(_has_non_finite, value))
    return isinstance(value, float) and not math.isfinite(value)


@given(_JSON_VALUES)
@settings(max_examples=500, deadline=None)
def test_json_text_is_json_dumps_indent_2(value):
    # json.dumps writes NaN and Infinity, which are not JSON (RFC 8259)
    if _has_non_finite(value):
        with pytest.raises(EmpriceError, match="not finite"):
            _json_text(value)
    else:
        assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value, name",
    [(float("nan"), "the result"), ({"bound": float("inf")}, "bound"),
     ({"regret": {"delta": -np.inf}}, "regret.delta"), ({"items": [{"x": 1.0}, {"x": np.nan}]}, "items[1].x")],
)
def test_json_text_names_non_finite_key(value, name):
    with pytest.raises(EmpriceError) as err:
        _json_text(value)
    assert str(err.value).startswith(f"{name} is not finite (")


class TestBound:
    def test_dkw_example(self, capsys):
        code, payload = run_json(capsys, ["bound", "--kind", "dkw", "--n", "100", "--delta", "0.1"])
        assert code == 0
        assert payload["bound"] == pytest.approx(0.270671, abs=1e-6)
        assert payload["bound"] == ep.deviation_bound(ep.DkwBound(), 100, 0.1)

    def test_guarantee_pair_with_lipschitz(self, capsys):
        _, payload = run_json(
            capsys, ["bound", "--kind", "dkw", "--n", "500", "--delta", "0.4", "--lipschitz", "4"]
        )
        want, _ = ep.regret_guarantee(ep.DkwBound(), 500, 0.4, 4.0)
        assert payload["profit"]["bound"] == want.bound
        assert payload["regret"]["bound"] == want.bound

    def test_lipschitz_one_gives_guarantee_pair(self, capsys):
        _, payload = run_json(
            capsys, ["bound", "--kind", "dkw", "--n", "500", "--delta", "0.4", "--lipschitz", "1"]
        )
        profit, regret = ep.regret_guarantee(ep.DkwBound(), 500, 0.4, 1.0)
        assert payload == {"kind": ep.DkwBound().name, "profit": profit.to_dict(), "regret": regret.to_dict()}

    def test_samples_needed(self, capsys):
        _, payload = run_json(
            capsys,
            ["bound", "--kind", "dkw", "--delta", "0.4", "--lipschitz", "4", "--samples-needed", "--alpha", "0.05"],
        )
        assert payload["samples_needed"] == 185

    @pytest.mark.parametrize(
        "flags, gap",
        [
            (["--tv-bound", "1e308", "--bandwidth", "0.1"], "3.75e+306"),
            (["--tv-bound", "0.1", "--bandwidth", "1e308"], "4.125e+307"),
            (["--tv-bound", "0.1", "--bandwidth", "0.1", "--lipschitz", "1e308"], "0.04125"),
            (["--tv-bound", "1e308", "--bandwidth", "0.1", "--lipschitz", "2"], "3.75e+306"),
        ],
        ids=["tv-bound", "bandwidth", "lipschitz", "tv-bound-lipschitz"],
    )
    def test_huge_kernel_flags_print_only_finite_json(self, capsys, flags, gap):
        # the radius overflowed to inf, and the CLI printed "bound": Infinity;
        # now a huge flag puts the gap b = k1*h*(B + 1) above delta / L
        code = main(["bound", "--kind", "kernel", "--n", "100", "--delta", "0.1", *flags])
        assert (code, *capsys.readouterr()) == (
            1, "", f"error: kernel bound requires delta > b = k1*h*(B + 1) = {gap}\n"
        )

    def test_kernel_prints_failure_probabilities(self, capsys):
        argv = ["bound", "--kind", "kernel", "--n", "500", "--delta", "0.4", "--lipschitz", "4"]
        _, payload = run_json(capsys, [*argv, "--tv-bound", "1", "--bandwidth", "0.05"])
        kind = ep.KernelBound(1.0, ep.KernelSpec(ep.KernelShape.EPANECHNIKOV), 0.05)
        profit, regret = ep.regret_guarantee(kind, 500, 0.4, 4.0)
        assert payload == {"kind": "kernel", "profit": profit.to_dict(), "regret": regret.to_dict()}
        assert (profit.flavor.value, regret.flavor.value) == ("profit_deviation", "regret")

    def test_kernel_delta_at_most_gap_exits_1(self, capsys):
        # the argv of bound-kernel.json before the kernel radius went: delta / L
        # = 0.025 lies below b = 3/8 * 0.1 * 2
        argv = ["bound", "--kind", "kernel", "--n", "500", "--delta", "0.1", "--tv-bound", "1", "--bandwidth", "0.1"]
        assert main([*argv, "--lipschitz", "4"]) == 1
        assert capsys.readouterr() == ("", "error: kernel bound requires delta > b = k1*h*(B + 1) = 0.075\n")

    def test_kernel_samples_needed(self, capsys):
        argv = ["bound", "--kind", "kernel", "--delta", "0.4", "--lipschitz", "4", "--tv-bound", "1"]
        code, payload = run_json(capsys, [*argv, "--bandwidth", "0.05", "--samples-needed", "--alpha", "0.05"])
        kind = ep.KernelBound(1.0, ep.KernelSpec(ep.KernelShape.EPANECHNIKOV), 0.05)
        n = payload["samples_needed"]
        assert code == 0 and payload["kind"] == "kernel"
        assert ep.deviation_bound(kind, n, 0.1) <= 0.05 < ep.deviation_bound(kind, n - 1, 0.1)

    def test_kernel_needs_extra_flags(self, capsys):
        assert main(["bound", "--kind", "kernel", "--n", "100", "--delta", "0.1"]) == 2
        assert capsys.readouterr().err == "error: kernel bound needs --tv-bound and --bandwidth\n"

    def test_interp_delta_at_most_one_over_n_exits_1(self, capsys):
        assert main(["bound", "--kind", "interp", "--n", "5", "--delta", "0.2"]) == 1
        assert capsys.readouterr().err == "error: interpolated-ECDF bound requires delta > 1/n\n"

    def test_interp_samples_needed_for_small_delta(self, capsys):
        # the scan that preceded the closed form gave up past n = 10**9
        argv = ["bound", "--kind", "interp", "--delta", "0.0001", "--lipschitz", "4", "--samples-needed"]
        code, payload = run_json(capsys, [*argv, "--alpha", "0.05"])
        assert code == 0
        assert payload["samples_needed"] == 2951183563

    @pytest.mark.parametrize("delta,lipschitz", [("1e-170", "1"), ("1e-160", "1")])
    def test_samples_needed_for_too_small_delta_exits_1(self, capsys, delta, lipschitz):
        # these inputs used to end in ZeroDivisionError and OverflowError tracebacks
        argv = ["bound", "--delta", delta, "--lipschitz", lipschitz, "--samples-needed", "--alpha", "0.05"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: delta / lipschitz = {float(delta):g} is too small: the sample size overflows\n"

    def test_samples_needed_requires_alpha(self, capsys):
        assert main(["bound", "--kind", "dkw", "--delta", "0.4", "--samples-needed"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --samples-needed requires --alpha\n"


class TestEstimate:
    def test_ecdf_knots(self, capsys, sample_file):
        _, payload = run_json(capsys, ["estimate", "--sample", sample_file])
        assert payload["n"] == 3
        assert payload["knots"] == [[0.3, 1 / 3], [0.5, 2 / 3], [0.9, 1.0]]

    def test_interp_knots(self, capsys, sample_file):
        _, payload = run_json(capsys, ["estimate", "--sample", sample_file, "--estimator", "interp"])
        assert payload["knots"][0] == [0.0, 0.0]
        assert payload["knots"][-1] == [0.9, 1.0]

    def test_kernel_defaults(self, capsys, sample_file):
        _, payload = run_json(
            capsys, ["estimate", "--sample", sample_file, "--estimator", "kernel", "--grid-points", "5"]
        )
        assert payload["bandwidth"] == pytest.approx(3 ** (-1 / 3))
        assert len(payload["grid"]) == 5

    def test_negative_grid_points_exits_2(self, capsys, sample_file):
        code = main(["estimate", "--sample", sample_file, "--estimator", "kernel", "--grid-points", "-3"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: --grid-points must be nonnegative, got -3\n"


class TestInfer:
    def test_seed_required(self, capsys, sample_file, menu_file):
        code = main(["infer", "--target", "profit", "--sample", sample_file, "--menu", menu_file])
        assert code == 2

    def test_profit_matches_library(self, capsys, sample_file, menu_file, linear_env):
        _, payload = run_json(
            capsys,
            ["infer", "--target", "profit", "--sample", sample_file, "--menu", menu_file,
             "--bootstrap", "200", "--level", "0.9", "--seed", "42"],
        )
        want = ep.bootstrap_ci_profit(
            ep.read_menu(menu_file), ep.read_sample(sample_file), linear_env, 200, 0.9, 42
        )
        assert payload == want.to_dict()

    def test_optimal_target(self, capsys, sample_file):
        _, payload = run_json(
            capsys,
            ["infer", "--target", "optimal", "--sample", sample_file,
             "--bootstrap", "150", "--seed", "3"],
        )
        assert payload["point"] == 1.0 / 3.0

    @pytest.mark.parametrize("env", ["linear", "screening"])
    def test_interp_point_anchors_at_theta_min(self, capsys, tmp_path, env):
        # the interpolated ECDF starts at --theta-min, in solve and in infer alike
        sample = tmp_path / "s.csv"
        sample.write_text("\n".join(map(repr, ep.draw_sample(ep.Uniform(0.1, 1.0), 40, 6).values.tolist())))
        flags = ["--sample", str(sample), "--estimator", "interp", "--env", env]
        _, solved = run_json(capsys, ["solve", *flags, "--theta-min", "0.05"])
        _, inferred = run_json(
            capsys, ["infer", "--target", "optimal", *flags, "--theta-min", "0.05", "--bootstrap", "100", "--seed", "1"]
        )
        assert inferred["point"] == solved["optimal_value"]
        if env == "screening":
            # the screening optimum depends on the anchor; a linear one here does not
            _, at_zero = run_json(capsys, ["solve", *flags])
            assert at_zero["optimal_value"] != solved["optimal_value"]

    def test_profit_requires_menu(self, capsys, sample_file):
        code = main(["infer", "--target", "profit", "--sample", sample_file, "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: --target profit requires --menu\n"

    def test_too_few_bootstrap_draws_exits_2(self, capsys, sample_file):
        code = main(["infer", "--target", "optimal", "--sample", sample_file, "--bootstrap", "50", "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: --bootstrap must be at least 100, got 50\n"

    def test_level_outside_unit_interval_exits_2(self, capsys, sample_file):
        code = main(["infer", "--target", "optimal", "--sample", sample_file, "--level", "1.5", "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: --level must lie in (0, 1), got 1.5\n"

    def test_optimal_screening_on_ecdf_exits_1(self, capsys, sample_file):
        code = main(["infer", "--target", "optimal", "--sample", sample_file, "--env", "screening", "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: no solver for this pair: ") and err.count("\n") == 1

    @pytest.mark.parametrize("target", ["profit", "optimal", "regret", "compare"])
    def test_sample_outside_type_space_exits_1(self, capsys, high_sample_file, menu_file, target):
        code = main(
            ["infer", "--target", target, "--sample", high_sample_file, "--menu", menu_file, "--menu-b", menu_file,
             "--seed", "1", "--theta-max", "0.5"]
        )
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: sample {high_sample_file} has observations in [0.6, 0.9] outside the type space [0, 0.5]\n"

    def test_compare_requires_second_menu(self, capsys, sample_file, menu_file):
        code = main(
            ["infer", "--target", "compare", "--sample", sample_file, "--menu", menu_file, "--seed", "1"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --target compare requires --menu-b\n"

    def test_regret_target(self, capsys, sample_file, menu_file, linear_env):
        _, payload = run_json(
            capsys,
            ["infer", "--target", "regret", "--sample", sample_file, "--menu", menu_file,
             "--bootstrap", "150", "--seed", "5"],
        )
        want = ep.bootstrap_ci_regret(
            ep.read_menu(menu_file), ep.read_sample(sample_file), linear_env, 150, 0.95, 5
        )
        assert payload == want.to_dict()


    def test_malformed_menu_json_exits_2(self, capsys, sample_file, tmp_path):
        path = tmp_path / "menu.json"
        path.write_text('{"items": [')
        code = main(["infer", "--target", "profit", "--sample", sample_file, "--menu", str(path), "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: menu file {path}: ") and err.count("\n") == 1


class TestAuction:
    def test_solve_reserve(self, capsys, tmp_path):
        gen = np.random.default_rng(5)
        path = tmp_path / "bids.csv"
        ep.write_sample(path, ep.Sample(gen.uniform(0.01, 1.0, size=400)))
        _, payload = run_json(capsys, ["auction", "--sample", str(path), "--bidders", "2"])
        assert payload["mode"] == "revenue"
        assert 0.2 < payload["reserve"] < 0.8

    def test_evaluate_given_reserve(self, capsys, tmp_path):
        gen = np.random.default_rng(6)
        path = tmp_path / "bids.csv"
        ep.write_sample(path, ep.Sample(gen.uniform(0.01, 1.0, size=300)))
        _, payload = run_json(
            capsys, ["auction", "--sample", str(path), "--bidders", "2", "--reserve", "0.5"]
        )
        sample = ep.read_sample(path)
        setting = ep.AuctionSetting(2, 0.0, ep.interp_ecdf(sample, 0.0))
        assert payload["value"] == ep.auction_profit(0.5, setting)

    def test_solve_value_matches_evaluated_reserve(self, capsys):
        # on this sample the optimum lies strictly inside a knot segment
        path = Path(__file__).parent / "golden" / "infer-sample.txt"
        argv = ["auction", "--sample", str(path), "--bidders", "5", "--seller-value", "0.6"]
        assert main(argv) == 0
        solved = capsys.readouterr().out
        reserve = json.loads(solved)["reserve"]
        assert main([*argv, "--reserve", repr(reserve)]) == 0
        evaluated = capsys.readouterr().out
        assert solved.splitlines()[2] == evaluated.splitlines()[2]
        assert solved.splitlines()[2].startswith('  "value": ')

    def test_reserve_above_every_type_earns_nothing(self, capsys):
        # no bidder meets the reserve: the value printed was top - reserve
        path = Path(__file__).parent / "golden" / "infer-sample.txt"
        _, payload = run_json(capsys, ["auction", "--sample", str(path), "--bidders", "3", "--reserve", "5"])
        assert payload["reserve"] == 5.0
        assert payload["value"] == 0.0

    @pytest.mark.parametrize("reserve", ["1e308", "1.7976931348623157e308", "-1e308"])
    def test_reserve_far_outside_support_prints_finite_json(self, capsys, reserve):
        # r * M overflowed to inf there, and inf * 0 printed "value": NaN
        def non_finite(name):
            raise AssertionError(f"printed {name}")

        path = Path(__file__).parent / "golden" / "infer-sample.txt"
        values = []
        for r in (reserve, "5" if reserve[0] != "-" else "-1"):
            assert main(["auction", "--sample", str(path), "--bidders", "2", f"--reserve={r}"]) == 0
            values.append(json.loads(capsys.readouterr().out, parse_constant=non_finite)["value"])
        # the value of a reserve above (below) every type, as at a moderate one
        assert values[0] == values[1]

    def test_guarantee_mode(self, capsys):
        _, payload = run_json(
            capsys,
            ["auction", "--bidders", "3", "--bound-n", "500", "--delta", "0.6", "--kind", "dkw"],
        )
        assert payload["profit"]["lipschitz"] == 12.0

    def test_kernel_guarantee_mode(self, capsys):
        argv = ["auction", "--bidders", "2", "--bound-n", "500", "--delta", "0.8", "--kind", "kernel"]
        _, payload = run_json(capsys, [*argv, "--tv-bound", "1", "--bandwidth", "0.05"])
        kind = ep.KernelBound(1.0, ep.KernelSpec(ep.KernelShape.EPANECHNIKOV), 0.05)
        profit, regret = ep.auction_regret_guarantee(kind, 500, 0.8, 2)
        assert payload == {"profit": profit.to_dict(), "regret": regret.to_dict()}
        assert (payload["profit"]["flavor"], payload["regret"]["flavor"]) == ("profit_deviation", "regret")
        assert 0.0 < profit.bound < 1.0

    def test_too_many_bidders_exit_2_before_quadrature(self, capsys, monkeypatch):
        # leggauss(50001) would build an 18.6 GiB companion matrix
        def no_rule(order):
            raise AssertionError(f"quadrature of order {order} ran")

        monkeypatch.setattr(emprice.auction, "_gauss_legendre", no_rule)
        path = Path(__file__).parent / "golden" / "infer-sample.txt"
        assert main(["auction", "--sample", str(path), "--bidders", "100000"]) == 2
        assert capsys.readouterr() == ("", "error: --bidders must be at most 1000, got 100000\n")

    def test_most_bidders_solve(self, capsys):
        path = Path(__file__).parent / "golden" / "infer-sample.txt"
        _, payload = run_json(capsys, ["auction", "--sample", str(path), "--bidders", "1000"])
        assert payload["bidders"] == 1000 and payload["value"] > 0

    def test_neither_sample_nor_bound_n_exits_2(self, capsys):
        assert main(["auction", "--bidders", "2"]) == 2
        assert capsys.readouterr().err == "error: auction needs --sample or --bound-n\n"

    def test_sample_beside_bound_n_exits_2(self, capsys, sample_file):
        assert main(["auction", "--bound-n", "100", "--bidders", "2", "--sample", sample_file]) == 2
        assert capsys.readouterr() == ("", "error: auction takes --sample or --bound-n, not both\n")


_STRAY_COST = "error: --cost does not apply to --env screening, which takes --cost-scale and --cost-power\n"
_STRAY_POWER = "error: --cost-power does not apply to --env linear, which takes --cost\n"
_STRAY_SCALE = "error: --cost-scale does not apply to --env linear, which takes --cost\n"


@pytest.mark.parametrize("argv, message", [
    (["solve", "--env", "screening", "--cost", "0.3", "--dist", "uniform"], _STRAY_COST),
    (["solve", "--env", "linear", "--cost-power", "3", "--dist", "uniform"], _STRAY_POWER),
    (["solve", "--cost-scale", "0.2", "--dist", "uniform"], _STRAY_SCALE),
    (["solve", "--env", "screening", "--cost", "0", "--cost-power", "1", "--dist", "uniform"], _STRAY_COST),
    (["infer", "--target", "optimal", "--seed", "1", "--env", "screening", "--cost", "0.3"], _STRAY_COST),
    (["infer", "--target", "optimal", "--seed", "1", "--cost-power", "3"], _STRAY_POWER),
])
def test_cost_flag_of_the_other_env_exits_2(capsys, sample_file, argv, message):
    # these were ignored, and the solve ran with the other --env's default cost
    extra = ["--sample", sample_file] if argv[0] == "infer" else []
    assert main([*argv, *extra]) == 2
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["auction", "--bidders", "1"], "--bidders must be at least 2, got 1"),
        (["auction", "--bidders", "2", "--seller-value", "-1"], "--seller-value must be nonnegative, got -1.0"),
        (["auction", "--bidders", "2", "--bound-n", "0"], "--bound-n must be at least 1, got 0"),
        (["bound", "--n", "0", "--delta", "0.1"], "--n must be at least 1, got 0"),
        (["bound", "--samples-needed", "--alpha", "1.5", "--delta", "0.1"], "--alpha must lie in (0, 1), got 1.5"),
        (["simulate", "--workers", "0", "--reps", "2", "--seed", "1"], "workers must be at least 1"),
        (["simulate", "--workers", "-3", "--reps", "2", "--seed", "1"], "workers must be at least 1"),
        (["bound", "--delta", "0"], "--delta must be positive, got 0.0"),
        (["bound", "--delta", "-0.5"], "--delta must be positive, got -0.5"),
        (["bound", "--delta", "0.1", "--lipschitz", "0"], "--lipschitz must be positive, got 0.0"),
        (["bound", "--kind", "kernel", "--delta", "0.1", "--tv-bound", "1", "--bandwidth", "0"],
         "--bandwidth must be positive, got 0.0"),
        (["bound", "--kind", "kernel", "--delta", "0.1", "--tv-bound", "-1", "--bandwidth", "0.1"],
         "--tv-bound must be positive, got -1.0"),
        (["auction", "--bidders", "2", "--bound-n", "10", "--delta", "0"], "--delta must be positive, got 0.0"),
        (["auction", "--bidders", "2", "--bound-n", "10", "--kind", "kernel", "--tv-bound", "1", "--bandwidth", "0"],
         "--bandwidth must be positive, got 0.0"),
        (["estimate", "--estimator", "kernel", "--bandwidth", "0"], "--bandwidth must be positive, got 0.0"),
        (["solve", "--cost", "nan"], "--cost must be finite, got nan"),
        (["solve", "--cost", "inf"], "--cost must be finite, got inf"),
        (["infer", "--target", "optimal", "--seed", "1", "--cost", "nan"], "--cost must be finite, got nan"),
        (["infer", "--target", "profit", "--menu", "menu.json", "--seed", "1", "--cost", "nan"],
         "--cost must be finite, got nan"),
        (["solve", "--env", "screening", "--estimator", "interp", "--cost-power", "nan"],
         "--cost-power must be finite, got nan"),
        (["bound", "--kind", "kernel", "--n", "10", "--delta", "0.1", "--tv-bound", "inf", "--bandwidth", "0.1"],
         "--tv-bound must be finite, got inf"),
        (["auction", "--bidders", "2", "--reserve", "inf"], "--reserve must be finite, got inf"),
        (["simulate", "--cost", "nan", "--reps", "2", "--seed", "1"], "--cost must be finite, got nan"),
        (["bound", "--delta", "nan"], "--delta must be finite, got nan"),
        (["bound", "--delta", "0.1", "--samples-needed", "--alpha", "nan"], "--alpha must be finite, got nan"),
        (["auction", "--bidders", "2", "--theta-min=-inf"], "--theta-min must be finite, got -inf"),
        (["auction", "--bidders", "1001"], "--bidders must be at most 1000, got 1001"),
        (["auction", "--bidders", "1001", "--bound-n", "10"], "--bidders must be at most 1000, got 1001"),
    ],
)
def test_flag_out_of_range_exits_2(capsys, sample_file, argv, message):
    # each range fault is caught before any sample is read or any work runs
    with_sample = argv[0] in ("auction", "estimate", "infer", "solve")
    assert main([*argv, *(["--sample", sample_file] if with_sample else [])]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


class TestSimulate:
    def test_inline_coverage_csv(self, capsys):
        code = main(
            ["simulate", "--target", "coverage-fixed", "--dist", "uniform", "--sizes", "30",
             "--reps", "8", "--bootstrap", "120", "--levels", "0.9", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "dist,n,level,R,B,coverage,mc_se,seed"
        assert len(lines) == 2

    def test_matches_library_and_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "cov.csv"
        code = main(
            ["simulate", "--target", "regret", "--dist", "uniform", "--sizes", "20,40",
             "--reps", "6", "--seed", "9", "--out", str(out_path)]
        )
        assert code == 0
        cfg = ep.McConfig(("uniform",), (20, 40), ep.McTarget.REGRET_SHARE, replications=6, seed=9)
        assert out_path.read_text() == ep.run_regret(cfg).to_csv()

    def test_config_file_supplies_seed(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "target": "coverage-optimal",
            "distributions": ["pointmass:0.7"],
            "sample_sizes": [10],
            "replications": 5,
            "bootstrap_draws": 100,
            "levels": [0.95],
            "seed": 4,
        }))
        code = main(["simulate", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().splitlines()[1].startswith("pointmass:0.7,10,")

    def test_seed_required(self):
        assert main(["simulate", "--dist", "uniform", "--sizes", "10", "--reps", "2"]) == 2

    def test_config_with_required_keys_only_takes_library_defaults(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "target": "coverage-fixed", "distributions": ["uniform"], "sample_sizes": [10], "seed": 4,
        }))
        args = build_parser().parse_args(["simulate", "--config", str(cfg_path)])
        want = ep.McConfig(("uniform",), (10,), ep.McTarget.FIXED_PROFIT_COVERAGE, seed=4)
        assert _simulate_config(args) == want

    def test_config_without_seed_is_usage_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "target": "regret",
            "distributions": ["uniform"],
            "sample_sizes": [10],
            "replications": 2,
            "bootstrap_draws": 0,
        }))
        code = main(["simulate", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: config file {cfg_path} lacks 'seed'\n"

    def test_malformed_config_json_exits_2(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"target": "regret",')
        code = main(["simulate", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: config file {cfg_path}: ") and err.count("\n") == 1

    def test_config_menu_item_without_price_exits_2(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "target": "coverage-fixed",
            "distributions": ["uniform"],
            "sample_sizes": [10],
            "seed": 4,
            "menu": {"items": [{"x": 1.0}]},
        }))
        code = main(["simulate", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: malformed menu payload: 'p'\n"

    def test_sample_size_zero_exits_2(self, capsys):
        code = main(["simulate", "--target", "regret", "--sizes", "0", "--reps", "2", "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err == "error: sample sizes must be at least 1\n"

    def test_law_outside_type_space_exits_1(self, capsys):
        code = main(
            ["simulate", "--target", "regret", "--dist", "beta:2:2:0.5:3", "--sizes", "10", "--reps", "2",
             "--seed", "1"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: law beta:2:2:0.5:3 has support [0.5, 3] outside the type space [0, 1]\n"
        )

    @pytest.mark.parametrize("target", ["coverage-fixed", "regret"])
    def test_non_finite_law_parameter_exits_1(self, capsys, target):
        # coverage-fixed wrote coverage 0 for beta:nan:2
        code = main(["simulate", "--target", target, "--dist", "beta:nan:2", "--sizes", "10", "--reps", "2",
                     "--bootstrap", "100", "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == "error: beta shape parameters must be positive and finite\n"

    @pytest.mark.parametrize("spec, message", [
        ("uniform:x", "distribution spec 'uniform:x' has the wrong number of parameters; use uniform or uniform:a:b"),
        ("uniform:0:x", "distribution spec 'uniform:0:x' has a non-numeric parameter"),
    ])
    def test_non_numeric_parameter_exits_1(self, capsys, spec, message):
        code = main(["simulate", "--target", "regret", "--dist", spec, "--sizes", "10", "--reps", "2", "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, entries, field, message", [
        ("--sizes", "500,abc", "sample_sizes", "invalid literal for int() with base 10: 'abc'"),
        ("--levels", "0.9,abc", "levels", "could not convert string to float: 'abc'"),
    ])
    def test_bad_list_entry_flag_exits_2(self, capsys, flag, entries, field, message):
        code = main(["simulate", "--dist", "uniform", flag, entries, "--reps", "2", "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"error: {field}: {message}\n"

    @pytest.mark.parametrize("field, entries, message", [
        ("sample_sizes", [500, "abc"], "invalid literal for int() with base 10: 'abc'"),
        ("levels", [0.9, "abc"], "could not convert string to float: 'abc'"),
        # these two raised TypeError, which ended in a traceback
        ("sample_sizes", [10, None], "int() argument must be a string, a bytes-like object or a real number, not 'NoneType'"),
        ("sample_sizes", 10, "'int' object is not iterable"),
        # a string ran as the list of its characters: "uniform" ran the specs
        # 'u', 'n', ... and exited 1 on the first
        ("distributions", "uniform", "expected a list, got 'uniform'"),
        ("sample_sizes", "10", "expected a list, got '10'"),
        ("levels", "0.9", "expected a list, got '0.9'"),
        ("levels", {"0.9": 1}, "expected a list, got {'0.9': 1}"),
        # a non-string spec ended in a traceback
        ("distributions", [5], "5 is not a distribution spec string"),
        # int() truncated these, so [10.7], 2.5 and 1.9 ran as 10, 2 and 1
        ("sample_sizes", [10, 10.7], "10.7 is not an integer"),
        ("replications", 2.5, "2.5 is not an integer"),
        ("bootstrap_draws", 100.5, "100.5 is not an integer"),
        ("seed", 1.9, "1.9 is not an integer"),
        ("seed", float("inf"), "cannot convert float infinity to integer"),
        # int() took a boolean as 0 or 1: "seed": true ran seed 1
        ("seed", True, "True is not an integer"),
        ("replications", True, "True is not an integer"),
        ("bootstrap_draws", False, "False is not an integer"),
        ("sample_sizes", [10, True], "True is not an integer"),
    ])
    def test_bad_list_entry_config_exits_2(self, capsys, tmp_path, field, entries, message):
        cfg = {"target": "coverage-fixed", "distributions": ["uniform"], "sample_sizes": [10], "seed": 4}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, field: entries}))
        code = main(["simulate", "--config", str(cfg_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"error: {field}: {message}\n"

    def test_integral_floats_accepted(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "target": "coverage-fixed", "distributions": ["uniform"], "sample_sizes": [10.0], "seed": 4.0,
            "replications": 2.0, "bootstrap_draws": 100.0,
        }))
        args = build_parser().parse_args(["simulate", "--config", str(cfg_path)])
        want = ep.McConfig(("uniform",), (10,), ep.McTarget.FIXED_PROFIT_COVERAGE, 2, 100, seed=4)
        got = _simulate_config(args)
        assert got == want
        assert [type(n) for n in (*got.sample_sizes, got.replications, got.bootstrap_draws, got.seed)] == [int] * 4

    def test_zero_optimum_regret_exits_1(self, capsys):
        code = main(
            ["simulate", "--target", "regret", "--dist", "pointmass:0", "--sizes", "10", "--reps", "2",
             "--seed", "1"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: law pointmass:0 has optimal profit 0; the regret share needs a positive optimum\n"
        )
