import math

import numpy as np
import pytest
from scipy import integrate

import emprice as ep
from emprice.auction import ProfitMode, SecondOrderCdf, second_order_distribution

from conftest import random_exact_cdf


class TestSecondOrderCdf:
    def test_uniform_two_bidders(self):
        assert SecondOrderCdf(ep.Uniform(0, 1), 2).cdf(0.5) == 0.75

    def test_endpoints(self):
        F = ep.BetaCdf(2, 3)
        assert SecondOrderCdf(F, 4).cdf(1.0) == 1.0
        assert SecondOrderCdf(F, 4).cdf(-0.2) == 0.0

    def test_needs_two_bidders(self):
        with pytest.raises(ValueError):
            SecondOrderCdf(ep.Uniform(0, 1), 1).cdf(0.5)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_wrapper_is_valid_cdf(self, m):
        F2 = second_order_distribution(ep.BetaCdf(0.25, 0.25), m)
        grid = np.linspace(-0.1, 1.1, 400)
        vals = F2.cdf_array(grid)
        assert np.all(np.diff(vals) >= -1e-15)
        assert F2.cdf(0.0 - 1e-9) == 0.0
        assert F2.cdf(1.0) == 1.0

    def test_lipschitz_factor_smoke(self):
        gen = np.random.default_rng(31)
        for _ in range(60):
            F, G = random_exact_cdf(gen), random_exact_cdf(gen)
            base = ep.sup_distance(F, G)
            for m in (2, 3, 5):
                second = ep.sup_distance(
                    second_order_distribution(F, m), second_order_distribution(G, m)
                )
                assert second <= 2 * m * (m - 1) * base + 1e-9


class TestAuctionProfit:
    def test_tail_mode_at_lowest_type(self):
        setting = ep.AuctionSetting(3, 0.0, ep.BetaCdf(2, 2))
        assert ep.auction_profit(0.0, setting, ProfitMode.SECOND_ORDER_TAIL) == 1.0

    def test_revenue_uniform_half_reserve(self):
        setting = ep.AuctionSetting(2, 0.0, ep.Uniform(0, 1))
        assert ep.auction_profit(0.5, setting) == pytest.approx(5.0 / 12.0, abs=1e-10)

    def test_revenue_zero_reserve_is_mean_second_order_statistic(self):
        setting = ep.AuctionSetting(2, 0.0, ep.Uniform(0, 1))
        assert ep.auction_profit(0.0, setting) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_revenue_matches_density_quadrature_oracle(self):
        # independent route: direct integral of theta * f2 plus the reserve term
        F = ep.BetaCdf(2, 2)
        m, c, r = 3, 0.1, 0.4

        def f2(th):
            y = F.cdf(th)
            return m * (m - 1) * y ** (m - 2) * (1 - y) * F.density(th)

        tail, _ = integrate.quad(lambda th: th * f2(th), r, 1.0, epsabs=1e-12, limit=300)
        y = F.cdf(r)
        want = r * m * y ** (m - 1) * (1 - y) + tail - c * (1 - y**m)
        setting = ep.AuctionSetting(m, c, F)
        assert ep.auction_profit(r, setting) == pytest.approx(want, abs=1e-9)

    def test_seller_value_ignored_by_tail_mode(self):
        a = ep.AuctionSetting(2, 0.0, ep.Uniform(0, 1))
        b = ep.AuctionSetting(2, 0.3, ep.Uniform(0, 1))
        assert ep.auction_profit(0.4, a, ProfitMode.SECOND_ORDER_TAIL) == ep.auction_profit(
            0.4, b, ProfitMode.SECOND_ORDER_TAIL
        )


class TestOptimalReserve:
    def test_uniform_two_bidders(self):
        setting = ep.AuctionSetting(2, 0.0, ep.Uniform(0, 1))
        r, v = ep.optimal_reserve(setting)
        assert r == pytest.approx(0.5, abs=1e-6)
        assert v == pytest.approx(5.0 / 12.0, abs=1e-8)

    def test_seller_value_shifts_reserve(self):
        setting = ep.AuctionSetting(2, 0.2, ep.Uniform(0, 1))
        r, _ = ep.optimal_reserve(setting)
        assert r == pytest.approx(0.6, abs=1e-6)

    def test_tail_mode_degenerates_to_lowest_type(self):
        setting = ep.AuctionSetting(2, 0.0, ep.BetaCdf(2, 2))
        r, v = ep.optimal_reserve(setting, ProfitMode.SECOND_ORDER_TAIL)
        assert r == 0.0
        assert v == 1.0

    def test_dominates_random_reserves(self):
        setting = ep.AuctionSetting(3, 0.05, ep.BetaCdf(2, 2))
        r, v = ep.optimal_reserve(setting)
        gen = np.random.default_rng(2)
        for rr in gen.uniform(0, 1, size=200):
            assert v >= ep.auction_profit(float(rr), setting) - 1e-9

    def test_interpolated_sample_reserve_low_regret(self):
        # the empirical argmax converges slowly (cube-root), so judge the
        # reserve by its forgone revenue under the truth, not by |r - 0.5|
        s = ep.draw_sample(ep.Uniform(0, 1), 4000, 77)
        setting_hat = ep.AuctionSetting(2, 0.0, ep.interp_ecdf(s, 0.0))
        r, _ = ep.optimal_reserve(setting_hat)
        truth = ep.AuctionSetting(2, 0.0, ep.Uniform(0, 1))
        regret = ep.auction_profit(0.5, truth) - ep.auction_profit(r, truth)
        assert 0.0 <= regret < 0.01

    def test_step_distribution_rejected(self):
        with pytest.raises(ep.EmpriceError, match="interpolate"):
            ep.AuctionSetting(2, 0.0, ep.ecdf(ep.Sample(np.array([0.2, 0.8]))))

    def test_setting_validation(self):
        with pytest.raises(ValueError):
            ep.AuctionSetting(1, 0.0, ep.Uniform(0, 1))
        with pytest.raises(ValueError):
            ep.AuctionSetting(2, -0.1, ep.Uniform(0, 1))


class TestAuctionGuarantees:
    def test_two_bidders_constant(self):
        profit, regret = ep.auction_regret_guarantee(ep.DkwBound(), 500, 0.4, 2)
        assert profit.lipschitz == 4.0
        assert regret.lipschitz == 4.0

    def test_three_bidders_dkw_value(self):
        profit, _ = ep.auction_regret_guarantee(ep.DkwBound(), 500, 0.6, 3)
        assert profit.bound == pytest.approx(2.0 * math.exp(-2.5), abs=1e-9)

    def test_interp_kind_value(self):
        profit, _ = ep.auction_regret_guarantee(ep.InterpEcdfBound(), 100, 1.2, 2)
        assert profit.bound == pytest.approx(2.0 * math.exp(-2 * 100 * (0.3 - 0.01) ** 2), rel=1e-12)

    def test_bidders_validated(self):
        with pytest.raises(ValueError):
            ep.auction_regret_guarantee(ep.DkwBound(), 100, 0.1, 1)
