import math
import sys
import warnings

import numpy as np
import pytest

from splinequant import (
    QuadratureError,
    SourceModel,
    compressor,
    compressor_derivative,
    pdf,
    support_threshold,
    tail_centroid,
)
from splinequant import gauss_analytics
from splinequant.gauss_analytics import TAIL_CENTROID_CUTOFF, cell_second_moment, integrate
from splinequant.reference_oracles import _initial_levels

from _oracles import gaussian_cell_distortion, gl_integrate, mp_cell_distortion, mp_tail_centroid
from _oracles import mp_tail_second_moment
from _oracles import recursive_simpson

UNIT = SourceModel()


class TestSourceModel:
    def test_default_sigma_is_one(self):
        assert UNIT.sigma == 1.0

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan, 5e-324, 1e-160, 1e160])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must lie in"):
            SourceModel(sigma)

    def test_sigma_range_ends_square_to_normal_floats(self):
        # the ends of the range are accepted, and their squares are normal
        for sigma in (2.0**-511, math.sqrt(sys.float_info.max)):
            assert SourceModel(sigma).sigma**2 >= sys.float_info.min
            assert math.isfinite(sigma**2)
        for sigma in (math.nextafter(2.0**-511, 0.0), math.nextafter(math.sqrt(sys.float_info.max), math.inf)):
            with pytest.raises(ValueError):
                SourceModel(sigma)


class TestPdf:
    def test_peak_value(self):
        assert pdf(UNIT, 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)

    def test_value_at_one(self):
        assert pdf(UNIT, 1.0) == pytest.approx(0.24197072451914337, rel=1e-15)

    def test_even_symmetry(self):
        for x in [0.1, 0.7, 1.3, 2.9, 5.0]:
            assert pdf(UNIT, -x) == pdf(UNIT, x)

    def test_strictly_positive(self):
        assert all(pdf(UNIT, x) > 0.0 for x in [-30.0, -3.0, 0.0, 3.0, 30.0])

    def test_normalization(self):
        assert gl_integrate(lambda x: pdf(UNIT, x), -8.0, 8.0) == pytest.approx(1.0, abs=1e-10)

    def test_unit_variance(self):
        second = gl_integrate(lambda x: x * x * pdf(UNIT, x), -8.0, 8.0)
        assert second == pytest.approx(1.0, abs=1e-8)

    def test_sigma_scaling(self):
        wide = SourceModel(2.0)
        assert pdf(wide, 2.0) == pytest.approx(0.5 * pdf(UNIT, 1.0), rel=1e-15)


class TestCompressor:
    X_MAX = 2.4744

    def test_zero_maps_to_zero(self):
        assert compressor(UNIT, self.X_MAX, 0.0) == 0.0

    def test_edge_maps_to_edge(self):
        assert compressor(UNIT, self.X_MAX, self.X_MAX) == pytest.approx(self.X_MAX, rel=1e-15)
        assert compressor(UNIT, self.X_MAX, -self.X_MAX) == pytest.approx(-self.X_MAX, rel=1e-15)

    def test_odd(self):
        for x in [0.3, 1.0, 2.0]:
            assert compressor(UNIT, self.X_MAX, -x) == -compressor(UNIT, self.X_MAX, x)

    def test_known_value(self):
        expected = self.X_MAX * math.erf(1.0 / math.sqrt(6.0)) / math.erf(self.X_MAX / math.sqrt(6.0))
        got = compressor(UNIT, self.X_MAX, 1.0)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(1.2747665671156545, rel=1e-12)

    def test_closed_form_matches_defining_integral(self):
        # the compressor is the normalized integral of the cube root of the
        # density; both routes must agree to 1e-9 across the domain
        tight = (1e-12, 1e-14, 200_000)
        root = lambda x: pdf(UNIT, x) ** (1.0 / 3.0)
        denom = recursive_simpson(root, 0.0, self.X_MAX, tight)
        xs = np.array([self.X_MAX * k / 1000.0 for k in range(1001)])
        numer = np.array([recursive_simpson(root, 0.0, x, tight) for x in xs.tolist()])
        worst = np.abs(self.X_MAX * numer / denom - compressor(UNIT, self.X_MAX, xs)).max()
        assert worst <= 1e-9

    def test_arrays_match_scalar_path_bit_for_bit(self):
        xs = [-self.X_MAX, -1.3, -0.0, 0.0, 1e-9, 0.7, 2.0, self.X_MAX]
        s = math.sqrt(6.0)
        scalar = [
            self.X_MAX * math.copysign(1.0, x) * math.erf(abs(x) / s) / math.erf(self.X_MAX / s)
            for x in xs
        ]
        for x, expected in zip(xs, scalar):
            got = compressor(UNIT, self.X_MAX, x)
            assert type(got) is float and got == expected
        assert compressor(UNIT, self.X_MAX, np.array(xs)).tolist() == scalar
        for x, expected in zip(xs, scalar):
            got = compressor(UNIT, self.X_MAX, np.array(x))
            assert np.ndim(got) == 0 and float(got) == expected
        # integrate() returns a 0-d array for scalar bounds; it chains into compressor
        one = integrate(lambda x: np.ones_like(x), 0.0, 1.0)
        assert float(compressor(UNIT, self.X_MAX, one)) == compressor(UNIT, self.X_MAX, 1.0)

    def test_strictly_increasing(self):
        xs = [self.X_MAX * k / 1000.0 for k in range(1001)]
        vals = [compressor(UNIT, self.X_MAX, x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            compressor(UNIT, self.X_MAX, self.X_MAX + 0.1)

    @pytest.mark.parametrize("x_max", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_or_nan_edge(self, x_max):
        # NaN fails every comparison: the guard is written so that it fails it
        for fn in (compressor, compressor_derivative):
            with pytest.raises(ValueError, match="x_max must be positive"):
                fn(UNIT, x_max, 0.5)

    def test_rejects_infinite_edge(self):
        # an infinite edge used to give inf
        for fn in (compressor, compressor_derivative):
            with pytest.raises(ValueError, match="x_max must be positive and finite"):
                fn(UNIT, math.inf, 0.5)

    def test_rejects_nan_abscissa(self):
        for fn in (compressor, compressor_derivative):
            with pytest.raises(ValueError, match="outside compressor domain"):
                fn(UNIT, self.X_MAX, math.nan)
        with pytest.raises(ValueError, match="outside compressor domain"):
            compressor(UNIT, self.X_MAX, np.array([0.5, math.nan, 1.0]))

    def test_derivative_takes_the_compressor_domain(self):
        # |x| > x_max used to give a slope, 4.3e-4 at x = 7 with x_max = 3
        for x in (7.0, -7.0, self.X_MAX + 0.1):
            with pytest.raises(ValueError, match="outside compressor domain"):
                compressor_derivative(UNIT, self.X_MAX, x)
        # the edges, with compressor's 1e-12 relative slack, are inside
        for x in (self.X_MAX, -self.X_MAX, self.X_MAX * (1.0 + 1e-13)):
            assert compressor_derivative(UNIT, self.X_MAX, x) > 0.0
            compressor(UNIT, self.X_MAX, x)

    @pytest.mark.parametrize("x_max, x", [(1e-300, 5e-301), (5e-324, 2.5e-324), (5e-324, 0.0), (1e-4, 0.0)])
    def test_rejects_an_edge_below_a_thousandth_of_sigma(self, x_max, x):
        # x_max * erf(...) underflowed: the first three gave 0, nan with a
        # RuntimeWarning, and for the slope a bare ZeroDivisionError
        for fn in (compressor, compressor_derivative):
            with pytest.raises(ValueError, match="at least sigma/1000"):
                fn(UNIT, x_max, x)
        # the bound is in units of sigma
        tiny = SourceModel(1e-150)
        assert compressor(tiny, 1e-153, 5e-154) == pytest.approx(5e-154, rel=1e-6)
        with pytest.raises(ValueError, match="at least sigma/1000"):
            compressor(tiny, 1e-154, 5e-155)

    def test_smallest_support_edge_keeps_the_closed_form_bits(self):
        # N = 4 gives the smallest edge any design uses, 0.976 sigma
        x_max, s = support_threshold(UNIT, 4), math.sqrt(6.0)
        for x in (0.0, 1e-300, 0.3, x_max):
            want = x_max * math.erf(x / s) / math.erf(x_max / s)
            assert compressor(UNIT, x_max, x) == want
            slope = x_max * (2.0 / math.sqrt(math.pi)) * math.exp(-(x / s) ** 2) / (s * math.erf(x_max / s))
            assert compressor_derivative(UNIT, x_max, x) == slope

    def test_slope_overflow_is_an_overflow_error(self):
        # x_max * 2/sqrt(pi) overflows: the slope used to be inf, or nan at x = x_max
        for x in (0.0, sys.float_info.max):
            with pytest.raises(OverflowError, match="compressor slope overflows"):
                compressor_derivative(UNIT, sys.float_info.max, x)
        assert compressor(UNIT, sys.float_info.max, sys.float_info.max) == sys.float_info.max

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for x in [0.2, 1.0, 2.0]:
            fd = (compressor(UNIT, self.X_MAX, x + h) - compressor(UNIT, self.X_MAX, x - h)) / (2 * h)
            assert compressor_derivative(UNIT, self.X_MAX, x) == pytest.approx(fd, rel=1e-8)


class TestSupportThreshold:
    def test_n16(self):
        assert support_threshold(UNIT, 16) == pytest.approx(2.4745648763676273, rel=1e-14)

    def test_n32(self):
        assert support_threshold(UNIT, 32) == pytest.approx(3.0519349482930584, rel=1e-14)

    def test_linear_in_sigma(self):
        for n in (8, 16, 64):
            assert support_threshold(SourceModel(2.0), n) == pytest.approx(
                2.0 * support_threshold(UNIT, n), rel=1e-14
            )

    def test_increasing_in_levels(self):
        vals = [support_threshold(UNIT, n) for n in (8, 16, 32, 64, 128)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, math.nan])
    def test_rejects_small_n(self, n):
        # a level count is taken through operator.index, as DesignConfig
        # takes it: a small one is a ValueError, NaN (no integer) a TypeError
        with pytest.raises(TypeError if isinstance(n, float) else ValueError):
            support_threshold(UNIT, n)

    @pytest.mark.parametrize("n", [math.inf, 16.5, 16.0])
    def test_rejects_non_integer_n(self, n):
        # inf used to give nan, and 16.5 an edge no quantizer has
        with pytest.raises(TypeError):
            support_threshold(UNIT, n)


class TestTailCentroid:
    def test_half_normal_mean_at_zero(self):
        assert tail_centroid(UNIT, 0.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)

    def test_matches_quadrature_of_tail_moments(self):
        x_max = 2.4744
        hi = x_max + 14.0
        numer = gl_integrate(lambda x: x * pdf(UNIT, x), x_max, hi, order=200)
        denom = gl_integrate(lambda x: pdf(UNIT, x), x_max, hi, order=200)
        got = tail_centroid(UNIT, x_max)
        assert got == pytest.approx(numer / denom, rel=1e-10)
        assert got == pytest.approx(2.80, abs=0.005)

    def test_exceeds_cutoff_point(self):
        for x in [0.0, 0.5, 1.0, 2.0, 3.5, 5.0]:
            assert tail_centroid(UNIT, x) > x

    def test_gap_decreasing(self):
        xs = [0.5 * k for k in range(11)]
        gaps = [tail_centroid(UNIT, x) - x for x in xs]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            tail_centroid(UNIT, TAIL_CENTROID_CUTOFF + 1.0)

    @pytest.mark.parametrize("x_max", [-1.0, math.nan])
    def test_rejects_negative_or_nan_edge(self, x_max):
        with pytest.raises(ValueError, match="x_max must be nonnegative"):
            tail_centroid(UNIT, x_max)

    def test_sigma_scaling(self):
        wide = SourceModel(3.0)
        assert tail_centroid(wide, 3.0) == pytest.approx(3.0 * tail_centroid(UNIT, 1.0), rel=1e-12)

    def test_matches_mpmath_inverse_mills_ratio_up_to_the_cutoff(self):
        # phi(x)/Q(x) with Q through erfc: no cancellation however far out,
        # only the rounding of x^2/2 in the exponent, which grows with x^2
        # (measured 1.1e-16 at 2.4744, 5.5e-15 at 8, 1.3e-13 at 35)
        pytest.importorskip("mpmath")
        for x in (0.0, 1e-9, 0.5, 2.4744, 4.0, 8.0, 20.0, TAIL_CENTROID_CUTOFF):
            bound = 4.0 * 2.0**-53 * (1.0 + x * x)
            assert tail_centroid(UNIT, x) == pytest.approx(mp_tail_centroid(x), rel=bound, abs=0.0), x


class TestErf:
    VALUES = [0.0, -0.0, 1e-300, 5e-324, -5e-324, 0.3, -1.7, 2.5, 6.0, 30.0, math.inf, -math.inf, math.nan]

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=float).tobytes()

    def test_math_erf_bits_for_floats_and_0d_arrays(self):
        for z in self.VALUES:
            for arg in (z, np.array(z)):
                got = gauss_analytics.erf(arg)
                assert isinstance(got, np.ndarray) and got.shape == ()
                assert self.bits(got) == self.bits(math.erf(z))

    def test_math_erf_bits_for_2d_and_non_contiguous_arrays(self):
        rng = np.random.default_rng(3)
        grid = np.concatenate((self.VALUES, rng.normal(0.0, 2.0, 27))).reshape(5, 8)
        for z in (grid, grid.T, grid[::2, 1::3], grid[:, ::-1]):
            got = gauss_analytics.erf(z)
            assert got.shape == z.shape
            want = [[math.erf(v) for v in row] for row in z.tolist()]
            assert self.bits(got) == self.bits(want)


class TestCellSecondMoment:
    def test_tail_matches_mpmath(self):
        # the tail [a, inf) is a cell with an infinite end, and the rule's
        # positive terms do not cancel however far out a lies; the support
        # edges of N = 4 ... 65,536 reach a = 7.5
        pytest.importorskip("mpmath")
        edges = [support_threshold(UNIT, 2**e) for e in range(2, 17)]
        for a in [0.0, 0.5, 1.7] + edges:
            for y in (tail_centroid(UNIT, a), a, a + 0.3):
                got = cell_second_moment(UNIT, a, math.inf, y)
                assert got == pytest.approx(mp_tail_second_moment(a, y), rel=1e-13, abs=0.0)

    def test_infinite_and_underflowing_ends_give_no_nan_or_warning(self):
        a = np.array([0.0, 1.0, 3.0, 30.0, 35.0])
        b = np.array([math.inf, math.inf, 40.0, math.inf, 50.0])
        y = np.array([0.5, 1.5, 3.2, 30.03, 35.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cell_second_moment(UNIT, a, b, y)
            scalar = cell_second_moment(UNIT, 2.0, math.inf, 2.4)
            tails = [cell_second_moment(UNIT, lo, math.inf, v) for lo, v in zip(a.tolist(), y.tolist())]
        assert np.isfinite(got).all() and (got > 0.0).all()
        assert math.isfinite(scalar) and scalar > 0.0
        assert all(math.isfinite(t) and t > 0.0 for t in tails)
        # b = 40 sigma lies past the density cut at sqrt(3^2 + 100) sigma: as b = inf
        assert got[2] == cell_second_moment(UNIT, 3.0, math.inf, 3.2)
        pytest.importorskip("mpmath")
        want = [mp_cell_distortion([lo, hi], [v]) for lo, hi, v in zip(a.tolist(), b.tolist(), y.tolist())]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("a", [0.0, 0.5, 2.0, 5.0, 10.0, 20.0, 30.0, 37.0])
    def test_cells_on_one_side_of_zero_match_mpmath_at_any_width(self, a):
        # the cut where the density is e^-50 below the cell's peak keeps the
        # 24 points on the mass: 7.5e-14 at worst, where the uncut rule lost
        # 3e-4 on [3, 40] and 0.36 on [35, 50]
        pytest.importorskip("mpmath")
        for b in (a + 1.0, a + 8.0, a + 50.0, math.inf):
            for y in (a, a + 0.3, a + 2.0, 0.5 * a):
                want = mp_cell_distortion([a, b], [y])
                assert cell_second_moment(UNIT, a, b, y) == pytest.approx(want, rel=1e-13, abs=0.0)
                assert cell_second_moment(UNIT, -b, -a, -y) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_cells_across_zero_are_cut_at_ten_sigma(self):
        # a cell across 0 keeps the rule's accuracy only while narrow
        pytest.importorskip("mpmath")
        want = mp_cell_distortion([-5.0, 5.0], [0.3])
        assert cell_second_moment(UNIT, -5.0, 5.0, 0.3) == pytest.approx(want, rel=1e-12, abs=0.0)
        whole = cell_second_moment(UNIT, -math.inf, math.inf, 0.0)
        assert whole == cell_second_moment(UNIT, -10.0, 10.0, 0.0)
        assert whole == pytest.approx(1.0, rel=1e-3)

    def test_arrays_match_closed_form_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-3.0, 4.0, 200)
        b = a + rng.uniform(0.01, 2.0, 200)
        y = a + rng.uniform(0.0, 1.0, 200) * (b - a)
        got = cell_second_moment(UNIT, a, b, y)
        assert got.shape == (200,)
        want = [gaussian_cell_distortion(*args) for args in zip(a.tolist(), b.tolist(), y.tolist())]
        # the oracle's closed form cancels on short cells, to about 1e-16 of the mass
        assert got == pytest.approx(want, rel=1e-9, abs=1e-14)

    def test_matches_mpmath_per_cell_on_the_1024_codebook(self):
        # the exact compressor's N = 1024 codebook, its cells cut at the
        # midpoints, 4.2e-3 to 0.29 wide: the rule's worst cell is 9e-14 off,
        # where a difference of closed-form tails lost up to 5e-8
        mpmath = pytest.importorskip("mpmath")
        levels = np.array(_initial_levels(1024)[:-1])
        x_max = support_threshold(UNIT, 1024)
        edges = np.concatenate(([0.0], 0.5 * (levels[:-1] + levels[1:]), [x_max]))
        got = cell_second_moment(UNIT, edges[:-1], edges[1:], levels)
        with mpmath.workdps(40):
            root = mpmath.sqrt(2 * mpmath.pi)
            want = []
            for a, b, y in zip(edges[:-1].tolist(), edges[1:].tolist(), levels.tolist()):
                y = mpmath.mpf(y)
                moment = mpmath.quad(lambda x: (x - y) ** 2 * mpmath.exp(-x * x / 2), [a, b])
                want.append(float(moment / root))
        assert got == pytest.approx(want, rel=2e-13, abs=0.0)

    def test_sigma_scaling(self):
        # X = sigma Z: the moment about sigma y over [sigma a, sigma b] is sigma^2 times
        wide = SourceModel(2.5)
        cells = ((0.0, 0.3, 0.1), (1.0, 2.0, 1.4), (2.5, 4.0, 2.9), (3.0, 40.0, 3.2), (2.5, math.inf, 2.9))
        for a, b, y in cells:
            got = cell_second_moment(wide, 2.5 * a, 2.5 * b, 2.5 * y)
            assert got == pytest.approx(6.25 * cell_second_moment(UNIT, a, b, y), rel=1e-13)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_empty_interval(self):
        assert integrate(lambda x: np.exp(x), 2.0, 2.0) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: 1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "a, b",
        [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)],
    )
    def test_non_finite_bounds_rejected_by_name(self, a, b):
        # NaN compares false with everything, so it would pass the order check
        with pytest.raises(ValueError, match="bounds not finite"):
            integrate(lambda x: np.exp(-x * x), np.array([0.0, a]), np.array([1.0, b]))

    def test_no_intervals_give_an_empty_result(self):
        f = lambda x: np.stack((x, x * x, np.exp(x)))
        got = integrate(f, np.array([]), np.array([]))
        assert got.shape == (3, 0) and got.dtype == float
        assert integrate(f, np.zeros((2, 0)), 1.0).shape == (3, 2, 0)
        assert integrate(lambda x: np.exp(x), np.array([]), np.array([])).shape == (0,)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: np.where(x == 0.0, math.inf, 1.0 / np.maximum(x, 1e-300)), 0.0, 1.0)

    def test_polynomial_exact(self):
        assert integrate(lambda x: x**3 - 2 * x, -1.0, 3.0) == pytest.approx(12.0, rel=1e-12)

    def test_matches_gauss_legendre_oracle(self):
        f = lambda x: np.exp(-x) * np.sin(3.0 * x)
        assert integrate(f, 0.0, 4.0) == pytest.approx(gl_integrate(f, 0.0, 4.0, 120), rel=1e-9)

    def test_budget_exhaustion_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(gauss_analytics, "_MAX_SUBDIVISIONS", 1)
        with pytest.raises(QuadratureError) as info:
            integrate(lambda x: np.exp(-x * x), 0.0, 6.0)
        best = info.value.best_estimate
        assert best == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-2)

    def test_deterministic(self):
        f = lambda x: pdf(UNIT, x) * x * x
        assert integrate(f, -5.0, 5.0) == integrate(f, -5.0, 5.0)

    def test_batch_shape(self):
        # components lead, the interval axis takes the shape of the bounds
        got = integrate(lambda x: np.stack((x, x * x)), np.zeros((2, 3)), 1.0)
        assert got.shape == (2, 2, 3)
        assert got[0] == pytest.approx(np.full((2, 3), 0.5), rel=1e-14)
        assert got[1] == pytest.approx(np.full((2, 3), 1.0 / 3.0), rel=1e-14)

    def test_matches_recursive_reference_per_interval_and_component(self):
        # more intervals than one chunk, components of different difficulty
        los = np.linspace(-3.0, 2.0, 70)
        his = los + np.linspace(0.1, 4.0, 70)
        parts = (lambda x: np.exp(-x * x), lambda x: np.sin(5.0 * x) * x, lambda x: np.cos(x) ** 2)
        got = integrate(lambda x: np.stack([p(x) for p in parts]), los, his)
        for c, part in enumerate(parts):
            want = [recursive_simpson(lambda x: float(part(x)), lo, hi) for lo, hi in zip(los, his)]
            assert got[c].tolist() == want

    def test_one_non_converging_interval_raises_with_best_estimates(self, monkeypatch):
        # within 20 splits x on [0, 1] and x^2 on [1, 2] converge, the
        # oscillating component on [0, 6] does not
        monkeypatch.setattr(gauss_analytics, "_MAX_SUBDIVISIONS", 20)
        los, his = np.array([0.0, 1.0, 0.0]), np.array([1.0, 2.0, 6.0])
        waves = lambda x: np.exp(-0.1 * x) * np.sin(20.0 * x)
        with pytest.raises(QuadratureError) as info:
            integrate(lambda x: np.stack((x, x * x, waves(x))), los, his)
        with pytest.raises(QuadratureError):
            recursive_simpson(lambda x: float(waves(x)), 0.0, 6.0, (1e-10, 1e-12, 20))
        best = info.value.best_estimate
        assert best.shape == (3, 3)
        assert np.diag(best)[:2] == pytest.approx([0.5, 7.0 / 3.0], rel=1e-14)
        # cut short after 20 splits, the estimate is rough but in range
        assert best[2, 2] == pytest.approx(gl_integrate(waves, 0.0, 6.0, 200), abs=2e-2)
