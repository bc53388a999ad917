import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emprice as ep
from emprice import distributions
from emprice.distributions import _bisect_quantile, _bisect_steps, _unit_cell

from conftest import random_exact_cdf


class TestCdfEval:
    def test_uniform_identity(self):
        assert ep.Uniform(0, 1).cdf(0.3) == 0.3

    def test_beta_symmetry(self):
        assert ep.BetaCdf(4, 4).cdf(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_mixture_atom_sides(self):
        mix = ep.Mixture(np.array([0.5, 0.5]), (ep.PointMass(0.2), ep.Uniform(0, 1)))
        assert mix.cdf(0.2) == pytest.approx(0.6, abs=1e-15)
        assert mix.cdf_left_array(np.array([0.2]))[0] == pytest.approx(0.1, abs=1e-15)

    def test_right_at_least_left(self):
        gen = np.random.default_rng(0)
        for _ in range(20):
            F = random_exact_cdf(gen)
            for th in gen.uniform(-0.2, 1.2, size=20):
                assert F.cdf(th) >= F.cdf_left_array(np.array([th]))[0]


def _scalar_laws():
    sample = ep.Sample(np.random.default_rng(4).beta(2.0, 3.0, 40))
    return {
        "uniform": ep.Uniform(0, 1),
        "uniform-0.2-0.9": ep.Uniform(0.2, 0.9),
        "beta-quarter": ep.BetaCdf(0.25, 0.25),
        "beta-4-4": ep.BetaCdf(4, 4),
        "beta-300-2": ep.BetaCdf(300.0, 2.0),
        "beta-rescaled": ep.BetaCdf(2.0, 2.0, 0.5, 3.0),
        "pointmass": ep.PointMass(0.7),
        "mixture": ep.Mixture(np.array([0.3, 0.7]), (ep.PointMass(0.4), ep.BetaCdf(2, 3))),
        "ecdf": ep.ecdf(sample),
        "interp": ep.interp_ecdf(sample, 0.0),
        "kernel": ep.kernel_cdf(sample, ep.KernelSpec(ep.KernelShape.EPANECHNIKOV), 0.05),
        "second-order": ep.SecondOrderCdf(ep.BetaCdf(2, 3), 3),
    }


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestScalarEval:
    """The scalar `cdf` and `cdf_left` give the bits of the array versions."""

    @pytest.mark.parametrize("name", sorted(_scalar_laws()))
    def test_scalar_matches_array(self, name):
        F = _scalar_laws()[name]
        lo, hi = F.support
        width = max(hi - lo, 1.0)
        gen = np.random.default_rng(11)
        points = np.concatenate([
            gen.uniform(lo - 0.5 * width, hi + 0.5 * width, 200),
            [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
             np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf), lo - width, hi + width,
             -np.inf, np.inf, np.nan, -0.0, 0.0],
            F.special_points(),
        ])
        for scalar, array in ((F.cdf, F.cdf_array), (F.cdf_left, F.cdf_left_array)):
            want = array(points)
            got = [scalar(float(t)) for t in points]
            assert all(type(v) is float for v in got)
            assert np.asarray(got).tobytes() == want.tobytes()

    def test_every_subclass_is_covered(self):
        covered = {type(F) for F in _scalar_laws().values()}
        assert {c for c in _subclasses(ep.Cdf) if c.__module__.startswith("emprice")} <= covered


class TestQuantile:
    def test_uniform_identity(self):
        assert ep.Uniform(0, 1).quantile(0.25) == 0.25

    def test_point_mass_degenerate(self):
        for q in (0.01, 0.4, 1.0):
            assert ep.PointMass(0.7).quantile(q) == 0.7

    def test_beta_median_by_symmetry(self):
        assert ep.BetaCdf(4, 4).quantile(0.5) == pytest.approx(0.5, abs=1e-9)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            ep.Uniform(0, 1).quantile(1.5)

    @given(st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=100, deadline=None)
    def test_inverse_consistency_beta(self, q):
        F = ep.BetaCdf(2.0, 3.0)
        th = F.quantile(q)
        assert F.cdf(th) >= q - 1e-9
        assert F.quantile(F.cdf(th)) <= th + 1e-9

    def test_inverse_consistency_continuous_variants(self):
        gen = np.random.default_rng(7)
        variants = [
            ep.Uniform(0.1, 0.9),
            ep.BetaCdf(0.25, 0.25),
            ep.PiecewiseLinear(np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.6, 1.0])),
            ep.kernel_cdf(ep.Sample(gen.uniform(0.2, 0.8, 12)), ep.KernelSpec(ep.KernelShape.EPANECHNIKOV), 0.1),
        ]
        for F in variants:
            for q in gen.uniform(0.01, 0.99, size=25):
                th = F.quantile(q)
                assert F.cdf(th) >= q - 1e-9
            for th in gen.uniform(*F.support, size=25):
                assert F.quantile(F.cdf(th)) <= th + 1e-9


def same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


LAWS = [
    ep.BetaCdf(0.25, 0.25),
    ep.BetaCdf(4, 4),
    ep.BetaCdf(2, 5),
    ep.BetaCdf(0.5, 0.5),
    ep.BetaCdf(2, 2),
    ep.BetaCdf(2, 2, 0.5, 3),
]
LAW_IDS = ["beta-quarter", "beta-4-4", "beta-2-5", "beta-half", "beta-2-2", "beta-2-2-rescaled"]

# where float F is flat or steep: levels near 1, tiny levels, and the edges
HARD_LEVELS = np.concatenate([
    1.0 - np.logspace(-16, -1, 5_000),
    np.logspace(-300, -1, 5_000),
    [0.0, 1.0, 1.0 - 2.0**-53, 2.0**-1074, 0.5, np.nan],
])


class TestDyadicWarmStart:
    """Beta quantiles walk the bisection's dyadic cells by a betaincinv guess
    and check the final cell: bit for bit the plain bisection's result."""

    @pytest.mark.parametrize("F", LAWS, ids=LAW_IDS)
    def test_matches_plain_bisection_bit_for_bit(self, F):
        # F at the bisection's level-12 nodes puts q on a cell edge
        at_nodes = F.cdf_array(np.linspace(*F.support, 4097)[1:-1])
        q = np.concatenate([
            np.random.default_rng(2024).random(200_000),
            HARD_LEVELS,
            at_nodes,
            np.nextafter(at_nodes, 0.0),
            np.nextafter(at_nodes, 1.0),
        ])
        assert same_bits(F.quantile_array(q), _bisect_quantile(F, q))

    @pytest.mark.parametrize("F", [LAWS[0], LAWS[2], LAWS[5]], ids=[LAW_IDS[0], LAW_IDS[2], LAW_IDS[5]])
    def test_wrong_guess_falls_back(self, F):
        q = np.concatenate([np.random.default_rng(7).random(2_000), HARD_LEVELS[::10]])
        want = _bisect_quantile(F, q)
        lo_s, hi_s = F.support
        cell = (hi_s - lo_s) * 2.0 ** -_bisect_steps(F)
        # a guess one cell off lands the descent in a neighbouring cell
        for guess in (want + cell, want - cell, np.zeros_like(q)):
            assert same_bits(_bisect_quantile(F, q, guess), want)

    def test_guide_spares_cdf_evaluations(self):
        points = []

        class Counted(ep.BetaCdf):
            def cdf_array(self, theta):
                points.append(np.size(theta))
                return super().cdf_array(theta)

        q = np.random.default_rng(3).random(10_000)
        Counted(2, 5).quantile_array(q)
        # the two checks of the final cell, and a plain bisection on few levels
        assert points[:2] == [q.size, q.size]
        assert sum(points[2:]) <= 0.01 * q.size * _bisect_steps(ep.BetaCdf(2, 5))

    def test_closed_form_cell_matches_descent(self):
        steps = _bisect_steps(ep.BetaCdf(2, 2))
        nodes = np.concatenate([[0, 1, 2, 3], np.random.default_rng(5).integers(4, 2**steps - 3, 2_000),
                                2**steps - np.arange(4)]) * 2.0**-steps
        guess = np.concatenate([
            nodes,
            np.nextafter(nodes, -np.inf),
            np.nextafter(nodes, np.inf),
            [0.0, -0.0, -1.0, 2.0, 2.0**-1074, -2.0**-1074, np.inf, -np.inf, np.nan],
        ])
        # the descent the closed form replaces
        lo, hi = np.zeros_like(guess), np.ones_like(guess)
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            ge = mid >= guess
            hi = np.where(ge, mid, hi)
            lo = np.where(ge, lo, mid)
        got_lo, got_hi = _unit_cell(guess, steps)
        assert same_bits(got_lo, lo)
        assert same_bits(got_hi, hi)

    @pytest.mark.parametrize("F", [ep.BetaCdf(2, 2, 0.1, 0.7), ep.BetaCdf(0.5, 3, -1.3, 2.2)],
                             ids=["beta-2-2-rounding", "beta-half-3-rounding"])
    def test_rounding_support_matches_plain_bisection(self, F):
        # midpoints of these supports round, so the guided descent keeps its loop
        at_nodes = F.cdf_array(np.linspace(*F.support, 4097)[1:-1])
        q = np.concatenate([np.random.default_rng(11).random(50_000), HARD_LEVELS, at_nodes])
        assert same_bits(F.quantile_array(q), _bisect_quantile(F, q))

    def test_repair_spares_plain_bisection(self):
        points = []

        class Counted(ep.BetaCdf):
            def cdf_array(self, theta):
                points.append(np.size(theta))
                return super().cdf_array(theta)

        F = Counted(2, 5)
        q = np.random.default_rng(9).random(10_000)
        want = _bisect_quantile(ep.BetaCdf(2, 5), q)
        steps = _bisect_steps(F)
        # guesses whose descent ends one cell above, then one cell below, the result
        for guess in (want + 0.5 * 2.0**-steps, want - 1.5 * 2.0**-steps):
            points.clear()
            assert same_bits(_bisect_quantile(F, q, guess), want)
            repaired = np.count_nonzero(_unit_cell(guess, steps)[1] != want)
            assert repaired > 0.99 * q.size
            # the cell check, one evaluation per repaired level, no plain bisection
            assert len(points) == 3
            assert sum(points) <= 2 * q.size + repaired

    def test_short_support(self):
        # a 1e-10-wide support needs only a few halvings
        F = ep.BetaCdf(2, 2, 0.3, 0.3 + 1e-10)
        assert 0.3 <= F.quantile(0.5) <= 0.3 + 1e-10


# levels per law that may reach the plain bisection, out of 10^5 uniform
# levels and out of HARD_LEVELS; most hard ones lie within 1e-6 of q = 1,
# where float F is a staircase and the true quantile does not say where
# the bisection ends
PLAIN_BISECTION_BOUNDS = {
    "beta-quarter": (1, 2),
    "beta-4-4": (1, 3_260),
    "beta-2-5": (1, 3_450),
    "beta-half": (1, 2),
    "beta-2-2": (1, 2_480),
    "beta-2-2-rescaled": (110, 3_290),
}


def _plain_bisections(monkeypatch) -> list:
    """The sizes of the plain bisections that quantile calls run from now on."""
    plain = []
    bisect = distributions._bisect_quantile

    def counted(F, q, guess=None):
        if guess is None:
            plain.append(q.size)
        return bisect(F, q, guess)

    monkeypatch.setattr(distributions, "_bisect_quantile", counted)
    return plain


class TestBetaGuide:
    """The cached quintic Hermite table puts the guess in the bisection's
    final cell, or next to it, for almost every level, without evaluating F."""

    @pytest.mark.parametrize("F", LAWS, ids=LAW_IDS)
    def test_plain_bisection_is_rare(self, monkeypatch, F):
        plain = _plain_bisections(monkeypatch)
        bounds = PLAIN_BISECTION_BOUNDS[LAW_IDS[LAWS.index(F)]]
        for q, bound in zip((np.random.default_rng(12).random(100_000), HARD_LEVELS), bounds):
            plain.clear()
            F.quantile_array(q)
            assert sum(plain) <= bound

    # the laws on the support [0, 1]
    @pytest.mark.parametrize("F", LAWS[:5], ids=LAW_IDS[:5])
    def test_two_cdf_evaluations_per_level(self, monkeypatch, F):
        # the final cell's check takes two; the guess takes none (a Newton
        # step on F made it three), and repairs add a few
        evaluated = []
        special = distributions._special()

        class Counting:
            def __getattr__(self, name):
                return getattr(special, name)

            def betainc(self, a, b, x):
                evaluated.append(np.size(x))
                return special.betainc(a, b, x)

        monkeypatch.setattr(distributions, "_special", Counting)
        q = np.random.default_rng(17).random(100_000)
        F.quantile_array(q)
        assert sum(evaluated) <= 2.01 * q.size

    @pytest.mark.parametrize("a", [0.25, 0.5])
    def test_tail_cell_reaches_no_plain_bisection(self, monkeypatch, a):
        # table cell 0 holds the levels q < h^a, h = 0.5^(1/a) / 1024: q < 0.088
        # for a = 0.25. Its quintic needs the tail's curvature at s = 0;
        # without it most of these levels missed their cell
        plain = _plain_bisections(monkeypatch)
        top = (0.5 ** (1.0 / a) / distributions._GUIDE_CELLS) ** a
        gen = np.random.default_rng(16)
        q = np.concatenate([gen.random(100_000) * top, np.logspace(-300, np.log10(top), 10_000, endpoint=False)])
        ep.BetaCdf(a, a).quantile_array(q)
        assert sum(plain) == 0

    @pytest.mark.parametrize("shape", [(1e-4, 2), (5e-4, 5e-4), (1e-300, 1), (300, 2), (1e3, 0.5), (1e3, 1e3), (1e300, 2)])
    def test_extreme_shapes_keep_bits(self, shape):
        # the table's scalars overflow or divide by zero here; that must cost
        # only evaluations, never an exception or a warning
        F = ep.BetaCdf(*shape)
        q = np.concatenate([np.random.default_rng(15).random(2_000), HARD_LEVELS[::10]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = F.quantile_array(q)
        assert same_bits(got, _bisect_quantile(F, q))

    def test_blocks_keep_shape_and_bits(self):
        F = ep.BetaCdf(2, 5)
        q = np.random.default_rng(13).random(2 * distributions._QUANTILE_BLOCK + 7)
        q[[0, -1]] = np.nan
        got = F.quantile_array(q.reshape(-1, 1))
        assert got.shape == (q.size, 1)
        assert same_bits(got.ravel(), _bisect_quantile(F, q))
        assert got[0, 0] == got[-1, 0] == 1.0
        assert F.quantile_array(np.float64(0.25)).shape == ()
        assert F.quantile_array(np.empty(0)).shape == (0,)
        with pytest.raises(ValueError):
            F.quantile_array(np.array([0.5, 1.5]))

    def test_temporaries_stay_small(self):
        F = ep.BetaCdf(4, 4)
        F.quantile(0.3)  # the table is built once per law
        tracemalloc.start()
        try:
            q = np.random.default_rng(14).random(2**18)
            out = F.quantile_array(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= q.nbytes + out.nbytes + 2**20


class TestDrawSample:
    def test_deterministic_given_seed(self):
        F = ep.BetaCdf(4, 4)
        s1 = ep.draw_sample(F, 5, 42)
        s2 = ep.draw_sample(F, 5, 42)
        assert np.array_equal(s1.values, s2.values)
        assert not np.array_equal(s1.values, ep.draw_sample(F, 5, 43).values)

    def test_point_mass_sample(self):
        s = ep.draw_sample(ep.PointMass(0.7), 3, 0)
        assert np.array_equal(s.values, [0.7, 0.7, 0.7])

    def test_sorted_output(self):
        s = ep.draw_sample(ep.Uniform(0, 1), 100, 5)
        assert np.all(np.diff(s.values) >= 0)

    def test_dkw_at_large_n(self):
        # 2 exp(-2 * 1e5 * 0.01^2) = 2e-20: failure is essentially impossible
        s = ep.draw_sample(ep.Uniform(0, 1), 100_000, 1)
        assert ep.sup_distance(ep.ecdf(s), ep.Uniform(0, 1)) < 0.01

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            ep.draw_sample(ep.Uniform(0, 1), 0, 1)


class TestSupDistance:
    def test_identity(self):
        F = ep.BetaCdf(2, 5)
        assert ep.sup_distance(F, F) == 0.0

    def test_step_vs_uniform(self):
        step = ep.ecdf(ep.Sample(np.array([0.5])))
        assert ep.sup_distance(step, ep.Uniform(0, 1)) == 0.5

    def test_disjoint_point_masses(self):
        assert ep.sup_distance(ep.PointMass(0.0), ep.PointMass(1.0)) == 1.0

    def test_metric_properties_on_exact_families(self):
        gen = np.random.default_rng(11)
        for _ in range(40):
            F, G, H = (random_exact_cdf(gen) for _ in range(3))
            dfg = ep.sup_distance(F, G)
            assert dfg == ep.sup_distance(G, F)
            assert dfg <= ep.sup_distance(F, H) + ep.sup_distance(H, G) + 1e-12
            assert dfg >= 0.0


class TestMonotonicity:
    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_cdf_nondecreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        for F in (ep.Uniform(0, 1), ep.BetaCdf(0.25, 0.25), ep.PointMass(0.4)):
            assert F.cdf(lo) <= F.cdf(hi) + 1e-15


class TestBetaAccuracy:
    @pytest.mark.parametrize("alpha,beta", [(4.0, 4.0), (2.0, 5.0)])
    def test_cdf_matches_riemann_sum_oracle(self, alpha, beta):
        # midpoint Riemann sum of the density on 1e6 cells
        F = ep.BetaCdf(alpha, beta)
        edges = np.linspace(0.0, 1.0, 1_000_001)
        mids = 0.5 * (edges[:-1] + edges[1:])
        dens = F.density_array(mids)
        oracle = np.concatenate([[0.0], np.cumsum(dens) * 1e-6])
        probe = np.linspace(0, 1_000_000, 201, dtype=int)
        err = np.abs(F.cdf_array(edges[probe]) - oracle[probe])
        assert err.max() <= 1e-6

    def test_quarter_quarter_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        F = ep.BetaCdf(0.25, 0.25)
        for x in (0.05, 0.3, 0.5, 0.77, 0.99):
            want = float(mp.betainc(mp.mpf("0.25"), mp.mpf("0.25"), 0, x, regularized=True))
            assert F.cdf(x) == pytest.approx(want, abs=1e-10)


class TestSampleType:
    def test_sorted_and_validated(self):
        s = ep.Sample(np.array([0.9, 0.1, 0.5]))
        assert np.array_equal(s.values, [0.1, 0.5, 0.9])
        assert s.n == 3

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            ep.Sample(np.array([]))
        with pytest.raises(ValueError):
            ep.Sample(np.array([0.1, np.nan]))

    def test_file_roundtrip(self, tmp_path):
        s = ep.Sample(np.array([0.123456789012345678, 1.0 / 3.0, 0.9]))
        path = tmp_path / "s.csv"
        ep.write_sample(path, s)
        back = ep.read_sample(path)
        assert np.array_equal(back.values, s.values)

    def test_header_flag(self, tmp_path):
        path = tmp_path / "h.csv"
        ep.write_sample(path, ep.Sample(np.array([0.25, 0.5])), header=True)
        assert ep.read_sample(path, header=True).n == 2
        with pytest.raises(ValueError):
            ep.read_sample(path, header=False)


def read_sample_reference(path, header=False):
    """`read_sample`'s general loop: one value per line, the first of its
    comma-separated fields, blank lines skipped."""
    raw = Path(path).read_text().strip().splitlines()
    if header:
        raw = raw[1:]
    vals = [float(line.strip().split(",")[0]) for line in raw if line.strip()]
    if not vals:
        raise ValueError(f"no observations found in {path}")
    return ep.Sample(np.asarray(vals))


class TestReadSample:
    """Bare one-number-per-line files take a fast path; every file reads as
    the general loop reads it, errors included."""

    @pytest.mark.parametrize(
        "text, header",
        [
            ("0.3\n0.5\n0.9\n", False),
            ("0.3\n\n0.5\n  \n0.9\n\n", False),
            ("0.3\r\n0.5\r\n0.9\r\n", False),
            (" 0.3 \n\t0.5\n1e-3\n", False),
            ("0.3,a\n0.5,b\n0.9,c\n", False),
            ("0.3\n0.5,7\n0.9\n", False),
            ("theta\n0.3\n0.5\n", True),
            ("theta,weight\r\n0.3,1\r\n\r\n0.5,2\r\n", True),
        ],
        ids=["plain", "blank-lines", "crlf", "whitespace", "comma-column", "one-comma", "header", "header-crlf-comma"],
    )
    def test_matches_general_loop(self, tmp_path, text, header):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        got = ep.read_sample(path, header=header)
        assert same_bits(got.values, read_sample_reference(path, header).values)

    @pytest.mark.parametrize("text", ["0.3\nabc\n0.9\n", "theta\n0.3\n", "0.3\n0.5;1\n", "\n\n"])
    def test_errors_match_general_loop(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as want:
            read_sample_reference(path)
        with pytest.raises(ValueError) as got:
            ep.read_sample(path)
        assert str(got.value) == str(want.value)


class TestMixtureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ep.Mixture(np.array([0.5, 0.6]), (ep.Uniform(0, 1), ep.PointMass(0.5)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ep.Mixture(np.array([-0.2, 1.2]), (ep.Uniform(0, 1), ep.PointMass(0.5)))


class TestLawParameters:
    @pytest.mark.parametrize("build", [
        lambda v: ep.Uniform(v, 1.0),
        lambda v: ep.Uniform(0.0, v),
        lambda v: ep.BetaCdf(v, 2.0),
        lambda v: ep.BetaCdf(2.0, v),
        lambda v: ep.BetaCdf(2.0, 2.0, v, 1.0),
        lambda v: ep.BetaCdf(2.0, 2.0, 0.0, v),
        lambda v: ep.PointMass(v),
    ], ids=["uniform-a", "uniform-b", "beta-alpha", "beta-beta", "beta-lo", "beta-hi", "pointmass"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, build, value):
        with pytest.raises(ValueError, match="finite"):
            build(value)
