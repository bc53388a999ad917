import numpy as np
import pytest

import emprice as ep
from emprice.distributions import KernelShape, KernelSpec
from emprice.rng import substream


class TestEcdf:
    def test_between_observations(self):
        F = ep.ecdf(ep.Sample(np.array([0.2, 0.6])))
        assert F.cdf(0.5) == 0.5

    def test_below_all(self):
        F = ep.ecdf(ep.Sample(np.array([0.2, 0.6])))
        assert F.cdf(0.1) == 0.0

    def test_right_continuous_at_top(self):
        F = ep.ecdf(ep.Sample(np.array([0.2, 0.6])))
        assert F.cdf(0.6) == 1.0

    def test_tied_observations_jump_by_multiplicity(self):
        F = ep.ecdf(ep.Sample(np.array([0.3, 0.3, 0.9])))
        assert F.cdf(0.3) == pytest.approx(2 / 3)
        assert F.cdf_left_array(np.array([0.3]))[0] == 0.0

    def test_pointwise_unbiased(self):
        # mean of F_hat(theta) over many draws matches F0(theta) within 3 MC sigmas
        R, n = 2000, 20
        probes = np.array([0.25, 0.5, 0.75])
        total = np.zeros(3)
        for r in range(R):
            u = substream(314, r).random(n)
            total += (u[:, None] <= probes[None, :]).mean(axis=0)
        mean = total / R
        se = np.sqrt(probes * (1 - probes) / (n * R))
        assert np.all(np.abs(mean - probes) <= 3 * se)


class TestInterpEcdf:
    def test_midpoint_of_first_segment(self):
        F = ep.interp_ecdf(ep.Sample(np.array([0.5])), 0.0)
        assert F.cdf(0.25) == 0.5

    def test_one_at_top_knot(self):
        F = ep.interp_ecdf(ep.Sample(np.array([0.5])), 0.0)
        assert F.cdf(0.5) == 1.0

    def test_sup_distance_to_ecdf_is_exactly_one_over_n(self):
        s = ep.Sample(np.array([0.3, 0.9]))
        assert ep.sup_distance(ep.interp_ecdf(s, 0.0), ep.ecdf(s)) == 0.5

    def test_rejects_ties(self):
        with pytest.raises(ep.TiedSampleError):
            ep.interp_ecdf(ep.Sample(np.array([0.3, 0.3])), 0.0)

    def test_rejects_bad_lower_anchor(self):
        with pytest.raises(ValueError):
            ep.interp_ecdf(ep.Sample(np.array([0.3, 0.6])), 0.3)

    def test_bad_lower_anchor_message_names_plain_float(self):
        with pytest.raises(ValueError) as info:
            ep.interp_ecdf(ep.Sample(np.array([0.025376259513222976, 0.6])), 0.5)
        assert str(info.value) == (
            "theta_lower must lie strictly below the smallest observation (0.025376259513222976)"
        )

    def test_valid_continuous_cdf(self):
        s = ep.draw_sample(ep.Uniform(0.1, 1.0), 25, 3)
        F = ep.interp_ecdf(s, 0.0)
        assert np.all(np.diff(F.probs) > 0)
        grid = np.linspace(-0.1, 1.1, 300)
        vals = F.cdf_array(grid)
        assert np.all(np.diff(vals) >= 0)
        assert F.cdf(F.support[0]) == 0.0
        assert F.cdf(F.support[1]) == 1.0


class TestKernelCdf:
    def test_symmetry_about_single_point(self):
        F = ep.kernel_cdf(ep.Sample(np.array([0.5])), KernelSpec(KernelShape.UNIFORM), 0.1)
        assert F.cdf(0.5) == 0.5

    def test_compact_support(self):
        F = ep.kernel_cdf(ep.Sample(np.array([0.5])), KernelSpec(KernelShape.UNIFORM), 0.1)
        assert F.cdf(0.6) == pytest.approx(1.0, abs=1e-12)
        assert F.cdf(0.4) == pytest.approx(0.0, abs=1e-12)

    def test_separated_kernels_split_mass(self):
        F = ep.kernel_cdf(ep.Sample(np.array([0.3, 0.7])), KernelSpec(KernelShape.EPANECHNIKOV), 0.05)
        assert F.cdf(0.5) == 0.5

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            ep.kernel_cdf(ep.Sample(np.array([0.5])), KernelSpec(KernelShape.TRIANGLE), 0.0)

    @pytest.mark.parametrize("shape", list(KernelShape))
    def test_total_mass_and_monotonicity(self, shape):
        s = ep.draw_sample(ep.BetaCdf(4, 4), 40, 9)
        F = ep.kernel_cdf(s, KernelSpec(shape), 0.08)
        lo, hi = F.support
        assert F.cdf(hi) == pytest.approx(1.0, abs=1e-12)
        assert F.cdf(lo) == pytest.approx(0.0, abs=1e-12)
        grid = np.linspace(lo - 0.05, hi + 0.05, 500)
        assert np.all(np.diff(F.cdf_array(grid)) >= -1e-15)

    @pytest.mark.parametrize("shape,k1", [
        (KernelShape.UNIFORM, 0.5),
        (KernelShape.TRIANGLE, 1 / 3),
        (KernelShape.EPANECHNIKOV, 3 / 8),
    ])
    def test_kernel_moments_match_quadrature(self, shape, k1):
        spec = KernelSpec(shape)
        assert spec.k1 == pytest.approx(k1, abs=1e-15)
        u = np.linspace(-1, 1, 2_000_001)
        dens = spec.density(u)
        du = u[1] - u[0]
        assert np.trapezoid(dens, dx=du) == pytest.approx(1.0, abs=1e-9)
        assert np.trapezoid(np.abs(u) * dens, dx=du) == pytest.approx(k1, abs=1e-9)

    @pytest.mark.parametrize("shape", list(KernelShape))
    def test_error_within_ecdf_error_plus_smoothing_bias(self, shape):
        # F_hat_h is the ECDF smoothed by K, so for every sample
        # sup|F_hat_h - F0| <= sup|F_n - F0| + k1 h sup f0: the kernel bound's gap
        spec = KernelSpec(shape)
        # 200 copies of 0.4 exceeded the radius q = 0.426 that this bound replaced
        cases = [(ep.Sample(np.full(200, 0.4)), ep.BetaCdf(2, 3), 1 / 3, 0.05)]
        for F0, mode in ((ep.Uniform(0, 1), 0.5), (ep.BetaCdf(2, 3), 1 / 3), (ep.BetaCdf(4, 4), 0.5)):
            for seed, h in ((1, 0.05), (2, 0.25)):
                cases.append((ep.draw_sample(F0, 50, seed), F0, mode, h))
        for sample, F0, mode, h in cases:
            sup_f = float(F0.density_array(np.array([mode]))[0])
            got = ep.sup_distance(ep.kernel_cdf(sample, spec, h), F0)
            assert got <= ep.sup_distance(ep.ecdf(sample), F0) + spec.k1 * h * sup_f + 1e-12


class TestDefaultBandwidth:
    def test_cube_root_rule(self):
        assert ep.default_bandwidth(1000) == pytest.approx(0.1, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ep.default_bandwidth(0)


class TestDkwFrequency:
    def test_violation_rate_within_bound(self):
        # exact ECDF sup distance to the uniform, checked at both jump sides
        R, n = 5000, 100
        deltas = np.array([0.05, 0.10, 0.15])
        ks = np.arange(1, n + 1) / n
        exceed = np.zeros(3)
        sups = np.empty(R)
        for r in range(R):
            v = np.sort(substream(2718, r).random(n))
            sups[r] = max(np.abs(ks - v).max(), np.abs(ks - 1 / n - v).max())
        for j, d in enumerate(deltas):
            exceed[j] = (sups > d).mean()
        bounds = 2.0 * np.exp(-2.0 * n * deltas**2)
        assert np.all(exceed <= bounds)

    def test_exact_sup_formula_agrees_with_sup_distance(self):
        for seed in range(5):
            s = ep.draw_sample(ep.Uniform(0, 1), 60, seed)
            n = s.n
            ks = np.arange(1, n + 1) / n
            direct = max(np.abs(ks - s.values).max(), np.abs(ks - 1 / n - s.values).max())
            assert ep.sup_distance(ep.ecdf(s), ep.Uniform(0, 1)) == pytest.approx(direct, abs=1e-12)


class TestKernelBoundFrequency:
    def test_violation_rate_within_bound(self):
        # Beta(2, 3) on the unit interval: its density rises from 0 to 16/9
        # and falls back, so its total variation is B = 32/9
        R, n, h = 200, 50, 0.05
        F0 = ep.BetaCdf(2, 3)
        spec = KernelSpec(KernelShape.UNIFORM)
        kind = ep.KernelBound(32 / 9, spec, h)
        sups = np.array([
            ep.sup_distance(ep.kernel_cdf(ep.Sample(F0.quantile_array(substream(3141, r).random(n))), spec, h), F0)
            for r in range(R)
        ])
        for alpha in (0.05, 0.2, 0.5):
            delta = kind.gap + np.sqrt(np.log(2.0 / alpha) / (2.0 * n))
            assert ep.deviation_bound(kind, n, delta) == pytest.approx(alpha, rel=1e-9)
            assert (sups > delta).mean() <= alpha + 3.0 * np.sqrt(alpha * (1.0 - alpha) / R)
