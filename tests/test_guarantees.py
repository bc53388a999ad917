import math
import re

import numpy as np
import pytest

import emprice as ep
from emprice.distributions import KernelShape, KernelSpec
from emprice.guarantees import (
    DkwBound,
    InterpEcdfBound,
    KernelBound,
    deviation_bound,
    regret_guarantee,
    sample_complexity,
)


def _sample_complexity_scan_reference(kind, delta, alpha, lipschitz):
    """The scan the closed form replaced: DKW by its closed form pushed to the
    float boundary, the interpolated kind by an upward scan from there."""
    eff = delta / lipschitz
    n_dkw = max(1, math.ceil(math.log(2.0 / alpha) / (2.0 * eff * eff)))
    while deviation_bound(DkwBound(), n_dkw, eff) > alpha:
        n_dkw += 1
    while n_dkw > 1 and deviation_bound(DkwBound(), n_dkw - 1, eff) <= alpha:
        n_dkw -= 1
    if isinstance(kind, DkwBound):
        return n_dkw
    n = max(n_dkw, math.floor(1.0 / eff) + 1)
    while deviation_bound(kind, n, eff) > alpha:
        n += 1
        if n > 10**9:
            raise RuntimeError("sample-complexity scan did not terminate")
    return n


# gap b = k1 h (B + 1) = 0.5 * 0.02 * 2 = 0.02
KERNEL = KernelBound(1.0, KernelSpec(KernelShape.UNIFORM), 0.02)


class TestDeviationBound:
    def test_dkw_value(self):
        assert deviation_bound(DkwBound(), 100, 0.1) == pytest.approx(0.270671, abs=1e-6)

    def test_probability_capped_at_one(self):
        assert deviation_bound(DkwBound(), 10, 0.05) == 1.0

    def test_interp_value(self):
        assert deviation_bound(InterpEcdfBound(), 100, 0.11) == pytest.approx(
            2.0 * math.exp(-2.0), abs=1e-12
        )

    def test_interp_requires_delta_above_one_over_n(self):
        with pytest.raises(ValueError):
            deviation_bound(InterpEcdfBound(), 100, 0.01)

    def test_kernel_value(self):
        # delta - b = 0.1, as for the interpolated kind above
        assert deviation_bound(KERNEL, 100, 0.12) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    def test_kernel_requires_delta_above_gap(self):
        message = re.escape("kernel bound requires delta > b = k1*h*(B + 1) = 0.02")
        with pytest.raises(ValueError, match=message):
            deviation_bound(KERNEL, 100, 0.02)
        with pytest.raises(ValueError, match=message):
            sample_complexity(KERNEL, 0.08, 0.05, 4.0)

    def test_monotone_in_n_and_delta(self):
        for kind in (DkwBound(), InterpEcdfBound(), KERNEL):
            for n in (50, 100, 400):
                for d in (0.08, 0.12, 0.2):
                    assert deviation_bound(kind, n, d) >= deviation_bound(kind, 2 * n, d) - 1e-15
                    assert deviation_bound(kind, n, d) >= deviation_bound(kind, n, d * 1.5) - 1e-15

    def test_interp_dominates_dkw(self):
        for n in (20, 100, 1000):
            for d in (0.05, 0.1, 0.3):
                if d <= 1.0 / n:
                    continue
                assert deviation_bound(InterpEcdfBound(), n, d) >= deviation_bound(DkwBound(), n, d)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            deviation_bound(DkwBound(), 0, 0.1)
        with pytest.raises(ValueError):
            deviation_bound(DkwBound(), 10, -0.1)


class TestRegretGuarantee:
    def test_dkw_pair(self):
        profit, regret = regret_guarantee(DkwBound(), 500, 0.4, 4.0)
        want = 2.0 * math.exp(-10.0)
        assert profit.bound == pytest.approx(want, rel=1e-12)
        assert regret.bound == pytest.approx(want, rel=1e-12)
        assert profit.flavor is ep.GuaranteeFlavor.PROFIT_DEVIATION
        assert regret.flavor is ep.GuaranteeFlavor.REGRET
        assert profit.n == 500 and profit.lipschitz == 4.0

    def test_vacuous_with_huge_lipschitz(self):
        profit, regret = regret_guarantee(DkwBound(), 500, 0.4, 1e6)
        assert profit.bound == 1.0
        assert regret.bound == 1.0

    def test_kernel_pair(self):
        profit, regret = regret_guarantee(KERNEL, 500, 0.4, 4.0)
        want = 2.0 * math.exp(-2.0 * 500 * 0.08**2)
        assert profit.bound == pytest.approx(want, rel=1e-12)
        assert regret.bound == pytest.approx(want, rel=1e-12)
        assert profit.flavor is ep.GuaranteeFlavor.PROFIT_DEVIATION
        assert regret.flavor is ep.GuaranteeFlavor.REGRET
        assert profit.delta == regret.delta == 0.4


class TestSampleComplexity:
    def test_dkw_closed_form(self):
        assert sample_complexity(DkwBound(), 0.4, 0.05, 4.0) == 185

    def test_interp_scan(self):
        assert sample_complexity(InterpEcdfBound(), 0.4, 0.05, 4.0) == 204

    def test_kernel_closed_form(self):
        # ln(2 / 0.05) / 2 / (0.1 - 0.02)^2 = 288.19
        assert sample_complexity(KERNEL, 0.4, 0.05, 4.0) == 289

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            sample_complexity(DkwBound(), 0.4, 2.0, 4.0)

    @pytest.mark.parametrize("kind", [DkwBound(), InterpEcdfBound(), KERNEL])
    @pytest.mark.parametrize("eff,alpha", [(0.1, 0.05), (0.05, 0.01), (0.2, 0.2)])
    def test_minimality(self, kind, eff, alpha):
        n = sample_complexity(kind, eff, alpha, 1.0)
        assert deviation_bound(kind, n, eff) <= alpha
        if n > 1 and (not isinstance(kind, InterpEcdfBound) or eff > 1.0 / (n - 1)):
            assert deviation_bound(kind, n - 1, eff) > alpha

    @pytest.mark.parametrize("kind", [DkwBound(), InterpEcdfBound()])
    def test_matches_scan_reference(self, kind):
        gen = np.random.default_rng(13)
        effs = 10.0 ** gen.uniform(-3.0, math.log10(5.0), 2000)
        alphas = 10.0 ** gen.uniform(-12.0, math.log10(0.999), 2000)
        mismatches = [
            (eff, alpha)
            for eff, alpha in zip(effs.tolist(), alphas.tolist())
            if sample_complexity(kind, eff, alpha, 1.0) != _sample_complexity_scan_reference(kind, eff, alpha, 1.0)
        ]
        assert mismatches == []

    @pytest.mark.parametrize("kind", [DkwBound(), InterpEcdfBound()])
    def test_minimal_where_float_spacing_moves_the_root(self, kind):
        # at eps below 1e-5, n is large enough that p, evaluated at float(n),
        # often crosses alpha a few steps away from the ceiling of the root
        gen = np.random.default_rng(14)
        effs = 10.0 ** gen.uniform(-8.0, -5.0, 500)
        alphas = 10.0 ** gen.uniform(-12.0, math.log10(0.999), 500)
        for eff, alpha in zip(effs.tolist(), alphas.tolist()):
            n = sample_complexity(kind, eff, alpha, 1.0)
            assert deviation_bound(kind, n, eff) <= alpha < deviation_bound(kind, n - 1, eff)

    @pytest.mark.parametrize("kind", [DkwBound(), InterpEcdfBound()])
    def test_minimal_at_tiny_eps(self, kind):
        # float(n) rounds runs of up to ~10^14 integers alike down here; unit
        # steps from the root's ceiling took hours at eps = 1e-12. At the last
        # input the root, 1.36e308, is so large that 2.0 * n overflows above it
        gen = np.random.default_rng(15)
        effs = 10.0 ** gen.uniform(-15.0, -8.0, 300)
        alphas = 10.0 ** gen.uniform(-12.0, math.log10(0.999), 300)
        extra = [(1e-12, 0.05), (1e-15, 0.05), (3.224733385518711e-154, 1e-12)]
        for eff, alpha in [*zip(effs.tolist(), alphas.tolist()), *extra]:
            n = sample_complexity(kind, eff, alpha, 1.0)
            assert deviation_bound(kind, n, eff) <= alpha < deviation_bound(kind, n - 1, eff)

    @pytest.mark.parametrize("kind", [DkwBound(), InterpEcdfBound()])
    @pytest.mark.parametrize("delta,lipschitz", [(1e-170, 1.0), (1e-160, 1.0), (1.0, 1e300)])
    def test_eps_too_small_for_a_float_root(self, kind, delta, lipschitz):
        # eps^2 underflows to 0 (1e-170, 1e-300) or the root overflows (1e-160)
        with pytest.raises(ValueError, match="too small"):
            sample_complexity(kind, delta, 0.05, lipschitz)

    def test_interp_beyond_the_scan_cap(self):
        # the upward scan gave up past n = 10**9 on this input
        kind, eff, alpha = InterpEcdfBound(), 0.0001 / 4.0, 0.05
        n = sample_complexity(kind, 0.0001, alpha, 4.0)
        assert n == 2951183563
        assert deviation_bound(kind, n, eff) <= alpha < deviation_bound(kind, n - 1, eff)
        with pytest.raises(RuntimeError):
            _sample_complexity_scan_reference(kind, 0.0001, alpha, 4.0)

    def test_json_payload(self):
        profit, _ = regret_guarantee(DkwBound(), 10, 0.5, 2.0)
        d = profit.to_dict()
        assert set(d) == {"delta", "bound", "n", "lipschitz", "flavor"}
