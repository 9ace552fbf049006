"""Property tests of the one-threshold design: random even level counts,
thresholds and source scales, drawn by hypothesis with a fixed derandomized
seed so that every run checks the same draws."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
