import bisect
import math
import warnings

import numpy as np
import pytest

from splinequant import (
    KnotVector,
    QuadraticSpline,
    SourceModel,
    compressor,
    fit,
    standard_config,
    support_threshold,
)

from splinequant.quantizer_design import score_batch
from splinequant.spline_fit import (
    curve_slope,
    curve_value,
    fit_batch,
    invert_segment,
    segment_inverse,
    target_moments,
)
from splinequant.threshold_optimizer import sweep

from _oracles import (
    make_spline,
    mp_normal_equation_values,
    perturbed_objectives,
    recursive_simpson,
    residual_moments,
    scalar_invert_segment,
    scalar_slope,
    scalar_value,
    segment_rows,
    splines,
    weighted_objective,
)

UNIT = SourceModel()
X_MAX_16 = support_threshold(UNIT, 16)
GAUSS_KNOTS = KnotVector((0.0, 1.68, X_MAX_16))


def gauss_target(x):
    return compressor(UNIT, X_MAX_16, x)


def objective(target, spline: QuadraticSpline) -> float:
    """Length-weighted squared fit error of ``spline`` on its own knots."""
    coeffs = [seg[:3] for seg in segment_rows(spline)]
    return weighted_objective(target, coeffs, spline.knots)


def fitted_splines(n_levels: int) -> list[QuadraticSpline]:
    """The fitted curves of every threshold on a 0.1 grid over [x_max/2, x_max)."""
    x_max = support_threshold(UNIT, n_levels)
    knots = [(0.0, x1, x_max) for x1 in np.arange(0.5 * x_max, x_max, 0.1).tolist()]
    target = lambda x: compressor(UNIT, x_max, x)
    return splines(fit_batch(knots, target_moments(target, knots)))


def owning_segment_value(spline: QuadraticSpline, x: float) -> float:
    """The curve's value at ``x`` on the segment that owns it, an interior
    knot taking its left segment."""
    rows = segment_rows(spline)
    return scalar_value(rows[max(0, bisect.bisect_left(spline.knots, x) - 1)], x)


@pytest.fixture(scope="module")
def gauss_spline():
    return fit(gauss_target, GAUSS_KNOTS)


class TestKnotVector:
    def test_requires_zero_start(self):
        with pytest.raises(ValueError):
            KnotVector((0.5, 1.0))

    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            KnotVector((0.0, 1.0, 1.0))

    def test_requires_two_knots(self):
        with pytest.raises(ValueError):
            KnotVector((0.0,))

    @pytest.mark.parametrize(
        "knots, named",
        [((0.0, math.nan, 3.0), "nan"), ((0.0, 1.0, math.inf), "inf"), ((0.0, math.nan), "nan")],
    )
    def test_requires_finite(self, knots, named):
        # NaN fails every ordering comparison, so it needs its own check
        with pytest.raises(ValueError, match=rf"knots must be finite, got \[{named}\]"):
            KnotVector(knots)

    def test_properties(self):
        kv = KnotVector((0.0, 1.0, 2.5))
        assert kv.n_segments == 2
        assert kv.x_max == 2.5
        assert len(kv) == 3
        assert kv[1] == 1.0


class TestQuadraticSpline:
    def test_segments_must_tile(self):
        with pytest.raises(ValueError, match="tiling"):
            make_spline((0.0, 1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 1.5, 2.0))

    def test_segment_bounds_order(self):
        with pytest.raises(ValueError, match="out of order"):
            make_spline((0.0, 1.0, 0.0, 2.0, 1.0))

    @pytest.mark.parametrize("shape", [(3, 2), (5,), (5, 0), (2, 5, 1)])
    def test_table_shape_checked(self, shape):
        with pytest.raises(ValueError, match="shape"):
            QuadraticSpline(np.ones(shape))

    def test_table_is_a_read_only_copy(self):
        table = np.array([[0.0], [1.0], [0.0], [0.0], [1.0]])
        sp = QuadraticSpline(table)
        table[1, 0] = 5.0
        assert sp.coefficients[1, 0] == 1.0
        with pytest.raises(ValueError):
            sp.coefficients[1, 0] = 5.0

    @pytest.mark.parametrize("n_levels", [16, 64, 256])
    def test_array_evaluation_equals_scalar_calls(self, n_levels):
        # curve_value and curve_slope on the owning segments' columns equal
        # the per-segment scalar formula bit for bit, the knots included
        # (left segment), in any shape
        for sp in fitted_splines(n_levels):
            rows = segment_rows(sp)
            xs = np.concatenate((np.linspace(0.0, sp.knots[-1], 23), sp.knots))
            owner = [max(0, bisect.bisect_left(sp.knots, x) - 1) for x in xs.tolist()]
            columns = sp.coefficients.take(owner, axis=1)
            for kernel, formula in ((curve_value, scalar_value), (curve_slope, scalar_slope)):
                got = kernel(columns, xs)
                assert got.tolist() == [formula(rows[i], x) for i, x in zip(owner, xs.tolist())]
                grid = kernel(columns[:, :, None], xs.reshape(-1, 1))
                assert grid.tolist() == got.reshape(-1, 1).tolist()

    @pytest.mark.parametrize("n_levels", [16, 64, 256])
    def test_knot_jumps_and_values_equal_scalar_formula(self, n_levels):
        for sp in fitted_splines(n_levels):
            rows = segment_rows(sp)
            assert sp.knot_jumps() == tuple(
                abs(scalar_value(right, right[3]) - scalar_value(left, left[4]))
                for left, right in zip(rows, rows[1:])
            )
            table = sp.coefficients
            for end in (3, 4):  # the rows lo and hi
                want = [scalar_value(seg, seg[end]) for seg in rows]
                assert curve_value(table, table[end]).tolist() == want


class TestFitExactRecovery:
    def test_identity_target(self):
        knots = KnotVector((0.0, 0.7, 1.3, 2.0))
        sp = fit(lambda x: x, knots)
        for c0, c1, c2, _, _ in segment_rows(sp):
            assert c0 == pytest.approx(0.0, abs=1e-11)
            assert c1 == pytest.approx(1.0, abs=1e-11)
            assert c2 == pytest.approx(0.0, abs=1e-11)
        assert objective(lambda x: x, sp) <= 1e-16

    def test_quadratic_target(self):
        knots = KnotVector((0.0, 1.0, 2.0))
        sp = fit(lambda x: 1.0 + 2.0 * x + 3.0 * x * x, knots)
        for c0, c1, c2, _, _ in segment_rows(sp):
            assert c0 == pytest.approx(1.0, rel=1e-10, abs=1e-10)
            assert c1 == pytest.approx(2.0, rel=1e-10, abs=1e-10)
            assert c2 == pytest.approx(3.0, rel=1e-10, abs=1e-10)

    def test_piecewise_quadratic_target(self):
        knots = KnotVector((0.0, 1.0, 2.0))

        def target(x):
            return np.where(x <= 1.0, 0.5 * x * x, -1.0 + 2.5 * x - x * x)

        sp = fit(target, knots)
        assert objective(target, sp) <= 1e-16


class TestFitOptimality:
    def test_residual_orthogonal_to_quadratics(self, gauss_spline):
        for seg in segment_rows(gauss_spline):
            lo, hi = seg[3:]
            for k, moment in enumerate(residual_moments(gauss_target, seg)):
                assert abs(moment) <= 1e-8 * (hi - lo), (lo, k, moment)

    def test_brute_force_coordinate_scan(self, gauss_spline):
        # scanning each coefficient around the fit must not find a better
        # objective; the scan minimum must match the fitted value to 1e-6
        coeffs = [seg[:3] for seg in segment_rows(gauss_spline)]
        base = weighted_objective(gauss_target, coeffs, GAUSS_KNOTS.knots)
        best_scan = math.inf
        for si in range(2):
            for ci in range(3):
                for offset in np.linspace(-1e-3, 1e-3, 41):
                    trial = [list(c) for c in coeffs]
                    trial[si][ci] += offset
                    best_scan = min(
                        best_scan, weighted_objective(gauss_target, trial, GAUSS_KNOTS.knots)
                    )
        assert base <= best_scan + 1e-12
        assert abs(base - best_scan) <= 1e-6

    def test_random_perturbations_never_improve(self, gauss_spline):
        base, perturbed = perturbed_objectives(gauss_target, gauss_spline, 1e-3, 100, seed=2024)
        assert (perturbed >= base).all()

    def test_single_coefficient_bump_increases_objective(self, gauss_spline):
        base = objective(gauss_target, gauss_spline)
        for si in (0, 1):
            for ci in range(3):  # the rows c0, c1, c2
                for sign in (1.0, -1.0):
                    table = np.array(gauss_spline.coefficients)
                    table[ci, si] += sign * 1e-3
                    worse = objective(gauss_target, QuadraticSpline(table))
                    assert worse > base


class TestFitObjective:
    def test_zero_for_representable_target(self):
        knots = KnotVector((0.0, 2.0))
        target = lambda x: 4.0 - 0.5 * x + 0.25 * x * x
        sp = fit(target, knots)
        assert objective(target, sp) <= 1e-18

    def test_weights_by_inverse_length(self):
        # a constant unit residual on a segment contributes exactly 1
        knots = KnotVector((0.0, 0.25, 2.0))
        sp = make_spline((1.0, 0.0, 0.0, 0.0, 0.25), (1.0, 0.0, 0.0, 0.25, 2.0))
        assert objective(lambda x: 0.0, sp) == pytest.approx(2.0, rel=1e-10)


class TestEvalAndDeriv:
    def test_identity_fit_midpoint(self):
        sp = fit(lambda x: x, KnotVector((0.0, 1.0)))
        assert curve_value(sp.coefficients, 0.5)[0] == pytest.approx(0.5, abs=1e-13)

    def test_fitted_offset_at_zero(self, gauss_spline):
        c0 = segment_rows(gauss_spline)[0][0]
        assert curve_value(gauss_spline.coefficients[:, 0], 0.0) == c0
        assert c0 != 0.0

    def test_identity_derivative(self):
        sp = fit(lambda x: x, KnotVector((0.0, 2.0)))
        for x in (0.0, 0.5, 1.7, 2.0):
            assert curve_slope(sp.coefficients, x)[0] == pytest.approx(1.0, abs=1e-12)

    def test_pure_square_derivative(self):
        sp = make_spline((0.0, 0.0, 1.0, 0.0, 3.0))
        assert curve_slope(sp.coefficients, 2.0)[0] == pytest.approx(4.0, rel=1e-15)

    def test_derivative_matches_finite_difference(self, gauss_spline):
        h = 1e-6
        for x in np.linspace(0.05, X_MAX_16 - 0.05, 40).tolist():
            if min(abs(x - k) for k in GAUSS_KNOTS.knots) < 2 * h:
                continue
            up, down = (owning_segment_value(gauss_spline, x + e) for e in (h, -h))
            fd = (up - down) / (2 * h)
            seg = segment_rows(gauss_spline)[bisect.bisect_left(GAUSS_KNOTS.knots, x) - 1]
            assert curve_slope(seg, x) == pytest.approx(fd, rel=1e-6)


def column(spline: QuadraticSpline, i: int) -> np.ndarray:
    """Segment ``i``'s column (c0, c1, c2, lo, hi) of the coefficient table."""
    return spline.coefficients[:, i]


class TestInvertSegment:
    def test_identity_segment(self):
        sp = make_spline((0.0, 1.0, 0.0, 0.0, 1.0))
        assert segment_inverse(column(sp, 0), 0.7) == pytest.approx(0.7, abs=1e-14)

    def test_increasing_branch_root(self):
        # x^2 = 4 on [1, 3]: the root 2 of the increasing branch
        sp = make_spline((0.0, 0.0, 1.0, 1.0, 3.0))
        assert segment_inverse(column(sp, 0), 4.0) == pytest.approx(2.0, rel=1e-14)

    def test_linear_fallback(self):
        # c2 = 0: the one-branch formula reduces to the linear solve
        sp = make_spline((1.0, 2.0, 0.0, 0.0, 5.0))
        assert segment_inverse(column(sp, 0), 7.0) == pytest.approx(3.0, rel=1e-14)

    def test_round_trip_on_fitted_spline(self, gauss_spline):
        for i, seg in enumerate(segment_rows(gauss_spline)):
            lo_v, hi_v = scalar_value(seg, seg[3]), scalar_value(seg, seg[4])
            for frac in np.linspace(0.02, 0.98, 17):
                t = lo_v + frac * (hi_v - lo_v)
                y = segment_inverse(column(gauss_spline, i), t)
                assert scalar_value(seg, y) == pytest.approx(t, abs=1e-10)

    def test_ends_map_to_ends(self, gauss_spline):
        for i, seg in enumerate(segment_rows(gauss_spline)):
            assert segment_inverse(column(gauss_spline, i), scalar_value(seg, seg[3])) == seg[3]
            assert segment_inverse(column(gauss_spline, i), scalar_value(seg, seg[4])) == pytest.approx(
                seg[4], rel=1e-14
            )

    def test_traced_wrapper_is_segment_inverse_on_one_column(self, gauss_spline):
        # invert_segment stays defined for the benchmark's tracer: a float
        # with segment_inverse's bits, and no checks of its own
        for i in range(2):
            for t in (0.3, 2.0):
                got = invert_segment(gauss_spline, i, t)
                assert type(got) is float and got == segment_inverse(column(gauss_spline, i), t)
        assert type(invert_segment(gauss_spline, np.int64(0), np.float64(0.3))) is float


class TestInvertSegmentArrays:
    SPLINES = {
        "fitted": fit(gauss_target, GAUSS_KNOTS),
        "jump": make_spline((0.0, 1.2, 0.0, 0.0, 1.0), (1.05, 0.65, 0.0, 1.0, 3.0)),
        "square": make_spline((0.0, 0.0, 1.0, 0.0, 1.0), (0.0, 0.0, 1.0, 1.0, 3.0)),
    }

    @pytest.mark.parametrize("name", sorted(SPLINES))
    def test_equal_to_scalar_solve_where_the_segment_increases(self, name):
        # where a segment's slope is positive at both ends and the target
        # lies within its values, the one-branch inverse is within 1e-13
        # relative of the reference's general two-root solve
        spline = self.SPLINES[name]
        rng = np.random.default_rng(5)
        values = [owning_segment_value(spline, x) for x in np.linspace(0.0, spline.knots[-1], 7)]
        lo, hi = min(values), max(values)
        targets = np.concatenate((values, rng.uniform(lo - 1.0, hi + 1.0, 40))).tolist()
        for i, seg in enumerate(segment_rows(spline)):
            slopes = (scalar_slope(seg, seg[3]), scalar_slope(seg, seg[4]))
            reach = (scalar_value(seg, seg[3]), scalar_value(seg, seg[4]))
            if not (slopes[0] > 0.0 and slopes[1] > 0.0):
                continue
            for t in targets:
                if reach[0] <= t <= reach[1]:
                    want = scalar_invert_segment(spline, i, t)
                    assert segment_inverse(column(spline, i), t) == pytest.approx(want, rel=1e-13, abs=0.0)


class TestFitPrecision:
    @pytest.mark.parametrize("n_levels", [16, 64, 256])
    def test_sweep_fits_match_mpmath_normal_equations(self, n_levels):
        # for every sweep candidate, the fitted curve at both ends and the
        # midpoint of each segment is within 1e-8 relative of the 50-digit
        # least-squares quadratic for the same float moments
        pytest.importorskip("mpmath")
        x_max = support_threshold(UNIT, n_levels)
        knots = [(0.0, cand.x1, x_max) for cand in sweep(n_levels, 0.01).candidates]
        moments = target_moments(lambda x: compressor(UNIT, x_max, x), knots)
        for table, segment_moments in zip(fit_batch(knots, moments), moments.tolist()):
            for column, m in zip(table.T.tolist(), segment_moments):
                lo, hi = column[3:]
                xs = (lo, 0.5 * (lo + hi), hi)
                want = mp_normal_equation_values(lo, hi, m, xs)
                got = [curve_value(column, x) for x in xs]
                assert got == pytest.approx(want, rel=1e-8, abs=0.0), (lo, hi)

    @pytest.mark.parametrize("x1", [1e-200, 5e-324])
    def test_degenerate_segment_fails_the_curve_check_without_warning(self, x1):
        # h*h (and for 5e-324 h itself) underflows to 0: the table is not
        # finite, which score_batch reports, and no numpy warning leaks
        config = standard_config(6, (x1,))
        knots = [config.knots.knots]
        moments = target_moments(lambda x: compressor(UNIT, config.x_max, x), knots)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tables = fit_batch(knots, moments)
        assert score_batch(tables, config) == ([None], ["fitted curve not finite on segment 0"])


class TestTargetMoments:
    @pytest.mark.parametrize("n_levels", [16, 32, 64, 128, 256, 512, 1024])
    def test_outer_segments_match_recursive_reference(self, n_levels):
        # one batched pass over many knot vectors reproduces the scalar
        # recursive adaptive Simpson on each outer segment [x1, x_max]
        x_max = support_threshold(UNIT, n_levels)
        target = lambda x: compressor(UNIT, x_max, x)
        x1s = [0.5 * x_max + k * 0.1 for k in range(int(0.5 * x_max / 0.1))]
        moments = target_moments(target, [KnotVector((0.0, x1, x_max)) for x1 in x1s])
        for x1, rows in zip(x1s, moments):
            for k in range(3):
                want = recursive_simpson(lambda x, k=k: target(x) * x**k, x1, x_max)
                assert rows[1, k] == pytest.approx(want, rel=1e-13)

    def test_sweep_knot_rows_match_recursive_reference_bit_for_bit(self, sweep16):
        # every segment of every sweep(16) knot row, 248 intervals in 8 chunks:
        # each moment has the bits of the scalar recursive rule on target * x^k
        x_max = sweep16.x_max
        target = lambda x: compressor(UNIT, x_max, x)
        knots = [(0.0, c.x1, x_max) for c in sweep16.candidates]
        moments = target_moments(target, knots)
        assert moments.shape == (len(knots), 2, 3)
        weights = (lambda t, x: t, lambda t, x: t * x, lambda t, x: t * (x * x))
        for row, rows in zip(knots, moments.tolist()):
            for segment, (lo, hi) in enumerate(zip(row, row[1:])):
                want = [recursive_simpson(lambda x, w=w: w(target(x), x), lo, hi) for w in weights]
                assert rows[segment] == want

    def test_no_knot_rows_give_an_empty_array(self):
        assert target_moments(gauss_target, np.zeros((0, 3))).shape == (0, 2, 3)

    def test_fit_from_batched_moments_equals_fit(self, gauss_spline):
        knots = [GAUSS_KNOTS.knots, (0.0, 1.2, X_MAX_16), GAUSS_KNOTS.knots]
        tables = fit_batch(knots, target_moments(gauss_target, knots))
        want = [gauss_spline, fit(gauss_target, KnotVector(knots[1])), gauss_spline]
        assert [sp.coefficients.tolist() for sp in splines(tables)] == [
            sp.coefficients.tolist() for sp in want
        ]
