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
    integrate,
    pdf,
    support_threshold,
    tail_centroid,
    upper_tail,
)
from splinequant import gauss_analytics
from splinequant.gauss_analytics import TAIL_CENTROID_CUTOFF, cell_second_moment

from _oracles import gaussian_cell_distortion, gl_integrate, mp_tail_second_moment, recursive_simpson

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

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_rejects_small_n(self, n):
        with pytest.raises(ValueError):
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

    def test_sigma_scaling(self):
        wide = SourceModel(3.0)
        assert tail_centroid(wide, 3.0) == pytest.approx(3.0 * tail_centroid(UNIT, 1.0), rel=1e-12)


class TestUpperTail:
    def test_median(self):
        assert upper_tail(UNIT, 0.0) == pytest.approx(0.5, rel=1e-15)

    def test_far_tail_no_cancellation(self):
        assert 0.0 < upper_tail(UNIT, 30.0) < 1e-190

    def test_math_erfc_bits_for_floats_and_arrays(self):
        xs = [-3.0, -0.0, 0.0, 1e-9, 0.7, 2.5, 30.0, math.inf]
        expected = [0.5 * math.erfc(x / math.sqrt(2.0)) for x in xs]
        for x, want in zip(xs, expected):
            got = upper_tail(UNIT, x)
            assert type(got) is float and got == want
            got = upper_tail(UNIT, np.array(x))
            assert np.ndim(got) == 0 and float(got) == want
        got = upper_tail(UNIT, np.array(xs))
        assert isinstance(got, np.ndarray) and got.tolist() == expected


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
        # the terms cancel more the farther out a lies (relative error about
        # a^6 * 1e-16); the support edges of N = 4 ... 4096 reach a = 5.9
        pytest.importorskip("mpmath")
        edges = [support_threshold(UNIT, 2**e) for e in range(2, 13)]
        for a in [0.0, 0.5, 1.7] + edges:
            for y in (tail_centroid(UNIT, a), a, a + 0.3):
                got = cell_second_moment(UNIT, a, math.inf, y)
                assert got == pytest.approx(mp_tail_second_moment(a, y), rel=1e-11, abs=0.0)

    def test_infinite_and_underflowing_ends_give_no_nan_or_warning(self):
        a = np.array([0.0, 1.0, 3.0, 30.0, 35.0])
        b = np.array([math.inf, math.inf, 40.0, math.inf, 50.0])
        y = np.array([0.5, 1.5, 3.2, 30.03, 35.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cell_second_moment(UNIT, a, b, y)
            scalar = cell_second_moment(UNIT, 2.0, math.inf, 2.4)
        assert np.isfinite(got).all() and (got > 0.0).all()
        assert math.isfinite(scalar) and scalar > 0.0
        # b = 40 sigma lies where the density and the tail underflow: as b = inf
        assert got[2] == cell_second_moment(UNIT, 3.0, math.inf, 3.2)

    def test_arrays_match_closed_form_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-3.0, 4.0, 200)
        b = a + rng.uniform(0.01, 2.0, 200)
        y = a + rng.uniform(0.0, 1.0, 200) * (b - a)
        got = cell_second_moment(UNIT, a, b, y)
        assert got.shape == (200,)
        want = [gaussian_cell_distortion(*args) for args in zip(a.tolist(), b.tolist(), y.tolist())]
        # both closed forms cancel on short cells, to about 1e-16 of the mass
        assert got == pytest.approx(want, rel=1e-9, abs=1e-14)

    def test_sigma_scaling(self):
        # X = sigma Z: the moment about sigma y over [sigma a, sigma b] is sigma^2 times
        wide = SourceModel(2.5)
        for a, b, y in ((0.0, 0.3, 0.1), (1.0, 2.0, 1.4), (2.5, math.inf, 2.9)):
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
