"""Property tests, drawn by hypothesis with a fixed derandomized seed so that
every run checks the same draws: the one-threshold design over random even
level counts, thresholds and source scales, and the Gaussian helpers over
every float, the zeros, subnormals, huge values, infinities and NaN
included."""

import math
import sys
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import splinequant as sq  # noqa: E402
from splinequant.quantizer_design import score_batch  # noqa: E402


@st.composite
def design_inputs(draw):
    """Even N in [6, 512] and sigma in [1e-150, 1e150], both log-uniform, x1
    in (0, x_max) and an amplitude within 10 sigma of zero."""
    n_levels = 2 * round(2.0 ** draw(st.floats(math.log2(3.0), 8.0)))
    sigma = 10.0 ** draw(st.floats(-150.0, 150.0))
    x_max = sq.support_threshold(sq.SourceModel(sigma), n_levels)
    x1 = draw(st.floats(0.0, x_max, exclude_min=True, exclude_max=True))
    return n_levels, sigma, x1, sigma * draw(st.floats(-10.0, 10.0))


def test_design_properties():
    valid = []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(design_inputs())
    def check(inputs):
        n_levels, sigma, x1, x = inputs
        try:
            q = sq.evaluate_candidate(n_levels, x1, sq.SourceModel(sigma))
        except sq.DesignError as exc:
            # a design either builds or says why not
            assert str(exc)
            valid.append(False)
            return
        valid.append(True)

        # 0 < y1 < t1 < y2 < ... < y_last < x_max
        points = [0.0] + [p for pair in zip(q.levels, q.thresholds) for p in pair]
        assert all(a < b for a, b in zip(points, points[1:]))
        assert points[-1] == q.config.x_max

        # a reproduction level encodes to its own cell
        cell = sq.encode(q, x)
        assert sq.encode(q, sq.decode(q, cell)) == cell

        # the quantizer's report is the sweep scorer's for the same table
        (report,), (failure,) = score_batch(q.spline.coefficients[None], q.config)
        assert failure is None and repr(report) == repr(q.report)

        # the design at sigma is the unit design scaled by sigma
        unit_x1 = x1 / sigma
        if unit_x1 < sq.support_threshold(sq.SourceModel(), n_levels):
            try:
                unit = sq.evaluate_candidate(n_levels, unit_x1)
            except sq.DesignError:
                return
            assert q.report.sqnr_db == pytest.approx(unit.report.sqnr_db, abs=1e-9)

    check()
    # a quarter of the draws or more reach the properties of a valid design
    # (31 of 100: most x1 at N >= 128 give a curve that is not increasing)
    assert len(valid) >= 100 and sum(valid) >= len(valid) // 4, (sum(valid), len(valid))


# the edges where the helpers' closed forms leave the float range, then any float
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e-300, 5e-301, 1e-104, 1e-110, 0.5, 0.976,
    35.0, 40.0, 1e300, -1e300, sys.float_info.max, math.inf, -math.inf, math.nan,
]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())


@st.composite
def helper_inputs(draw):
    """sigma at either end of the admitted range or 1, an edge x_max, an
    abscissa that is any float or a fraction of x_max, and a level count
    that is any integer or float."""
    sigma = draw(st.sampled_from([2.0**-511, 1.0, math.sqrt(sys.float_info.max)]))
    x_max = draw(FLOATS)
    x = draw(st.one_of(FLOATS, st.floats(-1.0, 1.0).map(lambda f: f * x_max)))
    return sigma, x_max, x, draw(st.one_of(st.integers(), FLOATS))


def _finite_or_typed_error(fn, *args):
    """``fn(*args)``, which must be a float, or None where it raised
    ValueError, TypeError or OverflowError; any other exception or warning
    fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = fn(*args)
        except (ValueError, TypeError, OverflowError):
            return None
    assert type(value) is float, (fn.__name__, args, value)
    return value


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(helper_inputs())
# a tiny support edge used to give 0, nan, a bare ZeroDivisionError or inf
@example((1.0, 1e-300, 5e-301, 4))
@example((1.0, 5e-324, 2.5e-324, 4))
@example((1.0, 5e-324, 0.0, 4))
@example((1.0, 1e-104, 0.0, 4))
@example((1.0, 1e-110, 0.0, 4))
def test_gaussian_helpers_give_a_finite_float_or_a_typed_error(inputs):
    sigma, x_max, x, n_levels = inputs
    model = sq.SourceModel(sigma)
    density = _finite_or_typed_error(sq.pdf, model, x)
    # the density of NaN is NaN, the one non-finite value a helper returns
    assert math.isnan(x) or math.isfinite(density), (x, density)
    for fn, args in (
        (sq.compressor, (model, x_max, x)),
        (sq.compressor_derivative, (model, x_max, x)),
        (sq.support_threshold, (model, n_levels)),
        (sq.tail_centroid, (model, x_max)),
        (sq.overload_distortion_closed, (x_max,)),
    ):
        value = _finite_or_typed_error(fn, *args)
        assert value is None or math.isfinite(value), (fn.__name__, args, value)
