import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

import emprice as ep
import emprice.experiments as experiments
from emprice.experiments import McConfig, McResult, McRow, McTarget, distribution_label, parse_distribution
from emprice.solvers import ecdf_uniform_prices


def small_coverage_cfg(**kw):
    base = dict(
        distributions=("uniform",),
        sample_sizes=(40,),
        target=McTarget.FIXED_PROFIT_COVERAGE,
        replications=12,
        bootstrap_draws=150,
        levels=(0.9, 0.95),
        seed=7,
    )
    base.update(kw)
    return McConfig(**base)


class TestParseDistribution:
    def test_specs(self):
        assert isinstance(parse_distribution("uniform"), ep.Uniform)
        beta = parse_distribution("beta:0.25:0.25")
        assert isinstance(beta, ep.BetaCdf) and beta.alpha == 0.25
        pm = parse_distribution("pointmass:0.7")
        assert isinstance(pm, ep.PointMass) and pm.theta0 == 0.7
        assert parse_distribution("uniform:0.2:0.8") == ep.Uniform(0.2, 0.8)
        assert parse_distribution("beta:2:2:0.5:3") == ep.BetaCdf(2.0, 2.0, 0.5, 3.0)

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_distribution("cauchy")

    @pytest.mark.parametrize("spec, forms", [
        ("uniform:0.2", "uniform or uniform:a:b"),
        ("uniform:0.2:0.8:5", "uniform or uniform:a:b"),
        ("beta:2", "beta:alpha:beta or beta:alpha:beta:lo:hi"),
        ("beta:2:2:0.1", "beta:alpha:beta or beta:alpha:beta:lo:hi"),
        ("beta:2:2:0:1:3", "beta:alpha:beta or beta:alpha:beta:lo:hi"),
        ("pointmass", "pointmass:t"),
        ("pointmass:0.1:0.2", "pointmass:t"),
    ])
    def test_wrong_parameter_count_rejected(self, spec, forms):
        # these were padded or truncated: uniform:0.2 read as (0.2, 0), beta:2:2:0.1 as Beta(2, 2)
        with pytest.raises(ValueError) as info:
            parse_distribution(spec)
        assert str(info.value) == f"distribution spec {spec!r} has the wrong number of parameters; use {forms}"

    @pytest.mark.parametrize("spec, message", [
        ("uniform:abc", "distribution spec 'uniform:abc' has the wrong number of parameters; use uniform or uniform:a:b"),
        ("uniform:0:abc", "distribution spec 'uniform:0:abc' has a non-numeric parameter"),
        ("beta:x:2", "distribution spec 'beta:x:2' has a non-numeric parameter"),
        ("beta:2:2:0:hi", "distribution spec 'beta:2:2:0:hi' has a non-numeric parameter"),
        ("pointmass:abc", "distribution spec 'pointmass:abc' has a non-numeric parameter"),
        ("foo:abc", "unknown distribution spec 'foo:abc'"),
    ])
    def test_non_numeric_parameter_rejected(self, spec, message):
        # the family and the count come first; float()'s own message used to pass through
        with pytest.raises(ValueError) as info:
            parse_distribution(spec)
        assert str(info.value) == message


class TestDistributionLabel:
    @pytest.mark.parametrize("law, label", [
        (ep.Uniform(0.2, 0.8), "uniform:0.2:0.8"),
        (ep.BetaCdf(2, 2), "beta:2:2"),
        (ep.BetaCdf(2, 2, 0.5, 3), "beta:2:2:0.5:3"),
        (ep.BetaCdf(2, 5, 0.0, 0.5), "beta:2:5:0:0.5"),
        (ep.PointMass(0.7), "pointmass:0.7"),
    ])
    def test_law_objects(self, law, label):
        assert distribution_label(law) == label

    def test_string_specs_unchanged(self):
        assert distribution_label("beta:2:2:0:1") == "beta:2:2:0:1"


class TestTrueValues:
    def test_uniform(self, linear_env):
        pi_true, opt_true = ep.true_values("uniform", ep.Menu(((1.0, 0.5),)), linear_env)
        assert pi_true == pytest.approx(0.25, abs=1e-12)
        assert opt_true == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("spec", ["beta:4:4", "beta:0.25:0.25"])
    def test_symmetric_betas_at_half_price(self, spec, linear_env):
        pi_true, _ = ep.true_values(spec, ep.Menu(((1.0, 0.5),)), linear_env)
        assert pi_true == pytest.approx(0.25, abs=1e-9)

    def test_non_analytic_rejected(self, linear_env):
        F = ep.ecdf(ep.Sample(np.array([0.5])))
        with pytest.raises(ep.EmpriceError):
            ep.true_values(F, ep.Menu(((1.0, 0.5),)), linear_env)


class TestRunCoverage:
    def test_deterministic_given_seed(self):
        cfg = small_coverage_cfg()
        assert ep.run_coverage(cfg).to_csv() == ep.run_coverage(cfg).to_csv()

    def test_point_mass_full_coverage(self):
        cfg = small_coverage_cfg(distributions=("pointmass:0.7",))
        res = ep.run_coverage(cfg)
        assert all(row.value == 1.0 for row in res.rows)
        assert all(row.mc_se == 0.0 for row in res.rows)

    def test_optimal_target_point_mass(self):
        cfg = small_coverage_cfg(
            distributions=("pointmass:0.7",), target=McTarget.OPTIMAL_PROFIT_COVERAGE
        )
        res = ep.run_coverage(cfg)
        assert all(row.value == 1.0 for row in res.rows)

    def test_worker_count_invariance(self):
        cfg = small_coverage_cfg(distributions=("uniform", "beta:4:4"))
        csv1 = ep.run_coverage(cfg).to_csv()
        csv2 = ep.run_coverage(replace(cfg, workers=2)).to_csv()
        csv8 = ep.run_coverage(replace(cfg, workers=8)).to_csv()
        assert csv1 == csv2 == csv8

    def test_mc_se_is_binomial(self):
        res = ep.run_coverage(small_coverage_cfg())
        for row in res.rows:
            want = math.sqrt(row.value * (1 - row.value) / 12)
            assert row.mc_se == pytest.approx(want, abs=1e-15)

    def test_matches_public_bootstrap_call(self):
        # replication r of cell (d, i) must reproduce bootstrap_ci_profit with
        # the tuple seed (seed, d, i, r)
        cfg = small_coverage_cfg()
        env = cfg.environment()
        F = parse_distribution("uniform")
        r = 5
        u = ep.substream(cfg.seed, 0, 0, r).random(40)
        sample = ep.Sample(F.quantile_array(u))
        est = ep.bootstrap_ci_profit(
            cfg.fixed_menu, sample, env, cfg.bootstrap_draws, 0.9, seed=(cfg.seed, 0, 0, r)
        )
        truth, _ = ep.true_values(F, cfg.fixed_menu, env)
        from emprice.experiments import _coverage_chunk

        counts = _coverage_chunk((F, truth, 40, 0, 0, r, r + 1, cfg))
        assert counts[0] == int(est.ci_low <= truth <= est.ci_high)

    def test_rejects_law_outside_type_space(self):
        with pytest.raises(ep.EmpriceError, match="uniform:0:2"):
            ep.run_coverage(small_coverage_cfg(distributions=("uniform:0:2",)))

    def test_rejects_regret_target(self):
        cfg = small_coverage_cfg()
        with pytest.raises(ValueError):
            ep.run_regret(cfg)


class TestRunRegret:
    def test_deterministic_and_nonnegative(self):
        cfg = McConfig(
            distributions=("uniform", "beta:4:4"),
            sample_sizes=(20, 60),
            target=McTarget.REGRET_SHARE,
            replications=40,
            seed=11,
        )
        res1, res2 = ep.run_regret(cfg), ep.run_regret(cfg)
        assert res1.to_csv() == res2.to_csv()
        for row in res1.rows:
            assert row.value >= 0.0
            assert row.level is None

    def test_every_replication_share_nonnegative(self):
        from emprice.experiments import _regret_chunk

        cfg = McConfig(("beta:0.25:0.25",), (25,), McTarget.REGRET_SHARE, replications=30, seed=5)
        F = parse_distribution("beta:0.25:0.25")
        opt_true = ep.optimal_profit(F, cfg.environment()).optimal_value
        shares = _regret_chunk((F, opt_true, 0, 0, 30, cfg))
        assert np.all(shares >= -1e-12)

    def test_point_mass_zero_regret(self):
        cfg = McConfig(("pointmass:0.7",), (5,), McTarget.REGRET_SHARE, replications=10, seed=2)
        res = ep.run_regret(cfg)
        assert res.rows[0].value == 0.0

    def test_worker_count_invariance(self):
        cfg = McConfig(("uniform",), (30,), McTarget.REGRET_SHARE, replications=24, seed=9)
        assert ep.run_regret(cfg).to_csv() == ep.run_regret(replace(cfg, workers=3)).to_csv()


def one_offer_reference(rho, F, env):
    """Realized profit of the ECDF-optimal offer as the menu ladder computed
    it for one item: threshold p / x_max clipped below at theta_min,
    no sale above theta_max, an atom at the threshold to the firm's side."""
    x_max = float(env.x_max)
    p = rho * x_max
    t = p / x_max
    if t > env.types.upper:
        return 0.0
    t = max(t, env.types.lower)
    outside = 0.0 - float(np.asarray(env.cost(0.0)))
    margin = p - float(np.asarray(env.cost(x_max)))
    right, left = F.cdf(t), float(F.cdf_left_array(np.array([t]))[0])
    total = 0.0 + margin * (1.0 - right)
    if right - left > 0.0:
        total += (right - left) * max(outside, margin)
    return total


def regret_shares_reference(F, opt_true, d_idx, cfg):
    """The per-replication loop: draw, enumerate the distinct sample values
    for the first-argmax price, score the offer against F."""
    env = cfg.environment()
    c_bar, x_max = float(env.c_bar), float(env.x_max)
    shares = np.empty((len(cfg.sample_sizes), cfg.replications))
    empty = 0
    for i, n in enumerate(cfg.sample_sizes):
        for r in range(cfg.replications):
            sample = ep.Sample(F.quantile_array(ep.substream(cfg.seed, d_idx, i, r).random(n)))
            cand = np.unique(sample.values)
            vals = x_max * (cand - c_bar) * (1.0 - ep.ecdf(sample).cdf_left_array(cand))
            k = int(np.argmax(vals))
            rho, val = float(cand[k]), float(vals[k])
            offered = val > 0.0 and rho > 0.0
            realized = one_offer_reference(rho, F, env) if offered else 0.0
            empty += not offered
            # the library's per-replication calls agree with the loop
            menu = ep.optimal_profit(ep.ecdf(sample), env).menu
            assert menu.items == (((x_max, rho * x_max),) if offered else ())
            assert ep.expected_profit(menu, F, env) == realized
            shares[i, r] = (opt_true - realized) / opt_true
    return shares, empty


class TestDrawStreams:
    """The harness draws every (n_idx, r) stream of a block in one pass."""

    @pytest.mark.parametrize("seed", [0, 2**32 + 5, -1, 2**64 - 1])
    @pytest.mark.parametrize("cells", [[(0, 7), (1, 12), (2, 1)], [(3, 12)]], ids=["regret", "coverage"])
    def test_rows_are_sorted_substream_quantiles(self, seed, cells):
        F = ep.BetaCdf(2, 5)
        d_idx, reps = 2, range(5, 9)  # a worker's chunk starts above replication 0
        rows = experiments._draw_samples(F, seed, d_idx, cells, reps)
        assert [r.shape for r in rows] == [(len(reps), n) for _, n in cells]
        for (n_idx, n), block in zip(cells, rows):
            for row, r in zip(block, reps):
                want = np.sort(F.quantile_array(ep.substream(seed, d_idx, n_idx, r).random(n)))
                assert np.array_equal(row.view(np.int64), want.view(np.int64))


class TestResultRows:
    """Results keep their rows as columns and build each McRow when read."""

    def test_rows_read_like_a_tuple(self):
        cfg = McConfig(("beta:4:4", ep.Uniform(0, 1)), (5, 9), McTarget.REGRET_SHARE, replications=3, seed=-2)
        res = ep.run_regret(cfg)
        rows = tuple(res.rows)
        assert [(r.distribution, r.n, r.level, r.seed) for r in rows] == [
            ("beta:4:4", 5, None, -2), ("beta:4:4", 9, None, -2),
            ("uniform:0:1", 5, None, -2), ("uniform:0:1", 9, None, -2),
        ]
        assert all(type(r.value) is float and type(r.mc_se) is float for r in rows)
        assert res.rows[-1] == rows[-1] and res.rows[1:3] == rows[1:3]
        with pytest.raises(IndexError):
            res.rows[4]
        same = McResult(res.target, res.replications, res.bootstrap_draws, rows)
        assert res == same and same == res and hash(res) == hash(same)
        assert repr(res) == repr(same)
        assert pickle.loads(pickle.dumps(res)) == res

    def test_coverage_rows_in_level_order(self):
        res = ep.run_coverage(small_coverage_cfg(sample_sizes=(30, 40)))
        assert [(r.n, r.level) for r in res.rows] == [(30, 0.9), (30, 0.95), (40, 0.9), (40, 0.95)]


class TestBatchedRegretParity:
    """Each block of replications is solved in one vectorized pass; shares
    match the per-replication loop bit for bit."""

    @pytest.mark.parametrize("theta_max", [1.0, 2.0])
    @pytest.mark.parametrize("c_bar", [0.0, 0.3])
    @pytest.mark.parametrize("spec", ["beta:0.25:0.25", "uniform", "beta:4:4", "pointmass:0.7"])
    def test_matches_per_replication_loop(self, monkeypatch, spec, c_bar, theta_max):
        sizes = (1, 2, 7, 30)
        # blocks of two replications: seven replications span four blocks
        monkeypatch.setattr(experiments, "_BATCH_POINTS", 2 * sum(sizes))
        cfg = McConfig((spec,), sizes, McTarget.REGRET_SHARE, replications=7, seed=31,
                       c_bar=c_bar, theta_max=theta_max)
        F = parse_distribution(spec)
        opt_true = ep.optimal_profit(F, cfg.environment()).optimal_value
        want, empty = regret_shares_reference(F, opt_true, 0, cfg)
        if c_bar > 0.0 and spec != "pointmass:0.7":
            assert empty > 0  # some rows have no positive margin
        got = experiments._regret_chunk((F, opt_true, 0, 0, cfg.replications, cfg))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # a worker's run of replications starts mid-block
        part = experiments._regret_chunk((F, opt_true, 0, 3, 6, cfg))
        assert np.array_equal(part.view(np.int64), want[:, 3:6].view(np.int64))
        rows = tuple(
            McRow(spec, n, None, float(row.mean()), float(row.std(ddof=1) / math.sqrt(7)), cfg.seed)
            for n, row in zip(sizes, want)
        )
        csv = McResult(McTarget.REGRET_SHARE, 7, cfg.bootstrap_draws, rows).to_csv()
        assert ep.run_regret(cfg).to_csv() == csv
        assert ep.run_regret(replace(cfg, workers=3)).to_csv() == csv

    @pytest.mark.parametrize("c_bar, x_max", [(0.0, 1.0), (0.3, 1.0), (0.1, 2.5)])
    def test_first_argmax_rows_brute_force(self, c_bar, x_max):
        env = ep.linear_unit_demand(0.0, 3.0, x_max, c_bar)
        gen = np.random.default_rng(8)
        lengths = [1, 1, 2, 2, 3, 5, 8, 13, 40, 1, 6]
        # few distinct values, so rows carry ties, all-tied rows included
        rows = [np.sort(gen.choice([0.1, 0.2, 0.3, 0.5, 0.8, 2.0], size=m)) for m in lengths]
        rows += [np.full(4, 0.6), np.full(3, 0.2), np.array([0.5, 0.5, 1.0, 1.0])]
        starts = np.cumsum([0] + [r.size for r in rows[:-1]])
        rho, value = ecdf_uniform_prices(np.concatenate(rows), starts, env)
        for k, row in enumerate(rows):
            best = None
            for v in sorted(set(row.tolist())):  # ascending: the first max wins
                below = sum(1 for w in row if w < v)
                obj = x_max * (v - c_bar) * (1.0 - below / row.size)
                if best is None or obj > best[1]:
                    best = (v, obj)
            assert (rho[k], value[k]) == best
        if c_bar == 0.0:
            # 0.5 * (1 - 0) == 1.0 * (1 - 2/4): the tie goes to the smaller price
            assert rho[-1] == 0.5

    def test_rows_must_be_nonempty(self):
        env = ep.linear_unit_demand()
        with pytest.raises(ValueError):
            ecdf_uniform_prices(np.array([0.1, 0.2]), np.array([0, 2]), env)
        with pytest.raises(ValueError):
            ecdf_uniform_prices(np.array([0.1, 0.2]), np.array([1]), env)


class TestCsvSchemas:
    def test_coverage_header(self):
        res = ep.run_coverage(small_coverage_cfg())
        assert res.to_csv().splitlines()[0] == "dist,n,level,R,B,coverage,mc_se,seed"

    def test_regret_header(self):
        cfg = McConfig(("uniform",), (10,), McTarget.REGRET_SHARE, replications=5, seed=1)
        assert ep.run_regret(cfg).to_csv().splitlines()[0] == "dist,n,R,mean_regret_share,mc_se,seed"

    def test_csv_written_to_file(self, tmp_path):
        res = ep.run_coverage(small_coverage_cfg())
        path = tmp_path / "out.csv"
        path.write_text(res.to_csv())
        assert path.read_text() == res.to_csv()


class TestConfigValidation:
    def test_bad_levels(self):
        with pytest.raises(ValueError):
            small_coverage_cfg(levels=(0.9, 1.5))

    def test_bad_sample_size(self):
        with pytest.raises(ValueError):
            small_coverage_cfg(sample_sizes=(40, 0))

    def test_bad_replications(self):
        with pytest.raises(ValueError):
            small_coverage_cfg(replications=0)

    def test_regret_allows_small_bootstrap(self):
        McConfig(("uniform",), (10,), McTarget.REGRET_SHARE, replications=2, bootstrap_draws=0, seed=1)
