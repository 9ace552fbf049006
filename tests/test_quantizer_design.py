import bisect
import math
import sys

import numpy as np
import pytest

import splinequant as sq
from splinequant import (
    DesignConfig,
    DesignError,
    KnotVector,
    QuadraticSpline,
    SourceModel,
    build,
    decode,
    encode,
    overload_distortion_closed,
    pdf,
    standard_config,
    step_size,
    support_threshold,
    tail_centroid,
)

from splinequant import reference_oracles, threshold_optimizer
from splinequant.gauss_analytics import cell_second_moment
from splinequant.quantizer_design import granular_distortion, overload_distortion_exact, score_batch, sqnr
from splinequant.spline_fit import fit_batch, target_moments
from splinequant.threshold_optimizer import sweep

from _oracles import (
    gaussian_cell_distortion,
    knot_values,
    make_spline,
    mp_overload_closed,
    mp_segment_root,
    per_level_build,
    scalar_slope,
    scalar_value,
    segment_rows,
    splines,
    uniform_midpoint_quantizer,
)

UNIT = SourceModel()
X_MAX_16 = support_threshold(UNIT, 16)


def identity_spline(knots) -> QuadraticSpline:
    return make_spline(*((0.0, 1.0, 0.0, lo, hi) for lo, hi in zip(knots, knots[1:])))


def identity_build(n_levels: int, knots) -> sq.CompandingQuantizer:
    config = DesignConfig(n_levels, KnotVector(knots), UNIT)
    return build(identity_spline(knots), config)


@pytest.fixture(scope="module")
def fitted16():
    config = standard_config(16, (1.68,))
    spline = sq.fit(lambda x: sq.compressor(UNIT, config.x_max, x), config.knots)
    return config, spline, build(spline, config)


class TestDesignConfig:
    def test_rejects_odd_levels(self):
        with pytest.raises(ValueError):
            DesignConfig(15, KnotVector((0.0, 1.0, 2.0)), UNIT)

    def test_rejects_tiny_levels(self):
        with pytest.raises(ValueError):
            DesignConfig(2, KnotVector((0.0, 2.0)), UNIT)

    def test_rejects_too_many_segments(self):
        with pytest.raises(ValueError):
            DesignConfig(6, KnotVector((0.0, 0.5, 1.0, 2.0)), UNIT)

    def test_standard_config_edge(self):
        config = standard_config(16, (1.68,))
        assert config.x_max == pytest.approx(X_MAX_16, rel=1e-15)
        assert config.granular_per_side == 7

    def test_standard_config_rejects_outside_knot(self):
        with pytest.raises(ValueError):
            standard_config(16, (3.0,))

    def test_stores_integer_level_count(self):
        config = DesignConfig(np.int64(16), KnotVector((0.0, 1.0, 2.0)), UNIT)
        assert type(config.n_levels) is int and config.n_levels == 16


# every design entry point takes its level count through DesignConfig
LEVEL_COUNT_ENTRIES = {
    "sweep": lambda n: sq.sweep(n),
    "evaluate_candidate": lambda n: sq.evaluate_candidate(n, 2.0).report,
    "exact_compressor_sqnr": lambda n: sq.exact_compressor_sqnr(UNIT, n),
}


class TestIntegerLevelCount:
    @pytest.fixture
    def no_scoring(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scored a design before checking the level count")

        monkeypatch.setattr(threshold_optimizer, "_score_knots", forbidden)
        monkeypatch.setattr(threshold_optimizer, "_fit_knots", forbidden)
        monkeypatch.setattr(reference_oracles, "_granular", forbidden)

    @pytest.mark.parametrize("entry", sorted(LEVEL_COUNT_ENTRIES))
    def test_rejects_float_level_count_before_scoring(self, entry, no_scoring):
        with pytest.raises(TypeError):
            LEVEL_COUNT_ENTRIES[entry](16.0)

    @pytest.mark.parametrize("entry", sorted(LEVEL_COUNT_ENTRIES))
    def test_integer_like_level_count_gives_the_same_result(self, entry):
        assert LEVEL_COUNT_ENTRIES[entry](np.int64(16)) == LEVEL_COUNT_ENTRIES[entry](16)

    def test_sweep_reports_an_int(self):
        assert type(sq.sweep(np.int64(16), 0.05).n_levels) is int


class TestStepSize:
    def test_n4(self):
        assert step_size(DesignConfig(4, KnotVector((0.0, 1.0)), UNIT)) == pytest.approx(1.0)

    def test_n16(self):
        config = DesignConfig(16, KnotVector((0.0, 2.4744)), UNIT)
        assert step_size(config) == pytest.approx(0.35349, abs=5e-6)

    def test_n32(self):
        config = DesignConfig(32, KnotVector((0.0, 3.0518)), UNIT)
        assert step_size(config) == pytest.approx(0.20345, abs=5e-6)


class TestAllocateLevels:
    """Granular levels per segment (positive half), read from ``build(...).counts``."""

    def test_identity_two_segments_midpoint_knot(self):
        knots = (0.0, X_MAX_16 / 2, X_MAX_16)
        config = DesignConfig(16, KnotVector(knots), UNIT)
        counts = build(identity_spline(knots), config).counts
        # independent enumeration of the half-step grid against the knot
        # values; the fourth target falls exactly on the midpoint knot and the
        # half-open convention sends it right
        delta = step_size(config)
        expected = [0, 0]
        for k in range(1, 8):
            expected[1 if (k - 0.5) * delta >= knots[1] else 0] += 1
        assert counts == tuple(expected) == (3, 4)

    def test_identity_single_segment(self):
        knots = (0.0, X_MAX_16)
        config = DesignConfig(16, KnotVector(knots), UNIT)
        assert build(identity_spline(knots), config).counts == (7,)

    def test_fitted_counts_sum(self, fitted16):
        _, _, q = fitted16
        assert sum(q.counts) == 7

    def test_matches_real_valued_ratio_within_one(self, fitted16):
        config, spline, q = fitted16
        counts = q.counts
        kv = knot_values(spline)
        m = config.granular_per_side
        for i, count in enumerate(counts):
            ratio = m * (kv[i + 1] - kv[i]) / (kv[-1] - kv[0])
            assert abs(count - ratio) <= 1.0

    def test_decreasing_spline_rejected(self):
        knots = (0.0, 1.0)
        spline = make_spline((0.0, -1.0, 0.0, 0.0, 1.0))
        with pytest.raises(DesignError):
            build(spline, DesignConfig(8, KnotVector(knots), UNIT))

    def test_offset_start_rejected(self):
        # curve starts above the first target: no level can land below it
        knots = (0.0, 2.0)
        spline = make_spline((1.0, 1.0, 0.0, 0.0, 2.0))
        with pytest.raises(DesignError):
            build(spline, DesignConfig(8, KnotVector(knots), UNIT))


class TestBuild:
    def test_identity_is_uniform_quantizer(self):
        q = identity_build(16, (0.0, X_MAX_16))
        step, levels, thresholds = uniform_midpoint_quantizer(16, X_MAX_16)
        assert q.step == pytest.approx(step, rel=1e-15)
        assert np.allclose(q.levels, levels, rtol=0, atol=1e-12)
        assert np.allclose(q.thresholds, thresholds, rtol=0, atol=1e-12)
        assert q.overload_level == pytest.approx(tail_centroid(UNIT, X_MAX_16), rel=1e-15)

    def test_counts_match_allocation(self, fitted16):
        _, _, q = fitted16
        assert q.counts == tuple(q.level_segments.count(i) for i in range(2))
        assert sum(q.counts) == 7

    def test_levels_inside_segments(self, fitted16):
        config, _, q = fitted16
        knots = config.knots.knots
        for i, y in zip(q.level_segments, q.levels):
            assert knots[i] <= y <= knots[i + 1]

    def test_interleaving(self, fitted16):
        _, _, q = fitted16
        seq = [0.0]
        for y, t in zip(q.levels, q.thresholds):
            seq += [y, t]
        seq.append(q.overload_level)
        assert all(a < b for a, b in zip(seq, seq[1:]))
        assert q.thresholds[-1] == q.config.x_max
        assert q.overload_level > q.config.x_max

    def test_cell_length_families_close(self, fitted16):
        _, _, q = fitted16
        for asym, exact in zip(q.cell_lengths_asymptotic, q.cell_lengths_exact):
            assert asym == pytest.approx(exact, rel=0.2)

    def test_knots_mismatch_rejected(self, fitted16):
        _, spline, _ = fitted16
        other = standard_config(16, (1.7,))
        with pytest.raises(DesignError):
            build(spline, other)

    def test_decreasing_spline_rejected(self):
        knots = (0.0, 1.0)
        spline = make_spline((0.0, 1.0, -0.8, 0.0, 1.0))
        with pytest.raises(DesignError):
            build(spline, DesignConfig(8, KnotVector(knots), UNIT))

    @pytest.mark.parametrize(
        "segment, end",
        [((0.0, 1.0, -0.8, 0.0, 1.0), "right"), ((0.0, -0.5, 1.0, 0.0, 1.0), "left")],
    )
    def test_monotone_failure_names_the_end(self, segment, end):
        # slope 1 - 1.6x turns negative at the right end, -0.5 + 2x is negative at the left
        config = DesignConfig(8, KnotVector((0.0, 1.0)), UNIT)
        with pytest.raises(DesignError, match=f"segment 0 .*at its {end} end"):
            build(make_spline(segment), config)

    @pytest.mark.parametrize("n_levels", [8 * 2**k for k in range(9)])
    def test_equals_per_level_build_over_sweep_grid(self, n_levels):
        # the single pass over the half-step grid fails on the same candidates
        # as the per-level construction, with the same text, and otherwise
        # gives the same segments and counts; its one-branch inverse puts
        # levels and thresholds within 1e-13 relative of the reference's
        # general two-root solve (measured: 2.6e-15), and the cell lengths,
        # a slope or a difference of them, within 1e-12 (measured: 3.3e-14);
        # its report matches the level-by-level sum, its overload terms exactly
        x_max = support_threshold(UNIT, n_levels)
        configs = [
            standard_config(n_levels, (0.5 * x_max + k * 0.05,))
            for k in range(int(0.5 * x_max / 0.05) + 1)
            if 0.5 * x_max + k * 0.05 < x_max * (1.0 - 1e-12)
        ]
        knots = [c.knots.knots for c in configs]
        moments = target_moments(lambda x: sq.compressor(UNIT, x_max, x), knots)
        for config, spline in zip(configs, splines(fit_batch(knots, moments))):
            try:
                want = per_level_build(spline, config)
            except DesignError as exc:
                with pytest.raises(DesignError) as info:
                    build(spline, config)
                assert str(info.value) == str(exc)
                continue
            got = build(spline, config)
            for field in ("config", "spline", "step", "counts", "level_segments", "overload_level"):
                assert getattr(got, field) == getattr(want, field), field
            for field, rel in (
                ("levels", 1e-13),
                ("thresholds", 1e-13),
                ("cell_lengths_asymptotic", 1e-12),
                ("cell_lengths_exact", 1e-12),
            ):
                assert getattr(got, field) == pytest.approx(getattr(want, field), rel=rel, abs=0.0)
            assert got.report.granular == pytest.approx(want.report.granular, rel=1e-12, abs=0.0)
            assert got.report.sqnr_db == pytest.approx(want.report.sqnr_db, rel=1e-13, abs=0.0)
            assert (got.report.overload, got.report.overload_exact) == (
                want.report.overload, want.report.overload_exact
            )
            for table in (got.levels, got.thresholds, got.cell_lengths_asymptotic):
                assert all(type(v) is float for v in table)
            assert all(type(c) is int for c in got.counts + got.level_segments)

    @pytest.mark.parametrize("n_levels", [16, 32, 64, 128, 256, 512])
    def test_preimages_match_mpmath_roots(self, n_levels):
        # every level and inner threshold of sampled valid sweep candidates
        # is within 1e-14 relative of the 50-digit root, on the increasing
        # branch of its segment, of the stored coefficients (measured: 5.8e-15)
        pytest.importorskip("mpmath")
        valid = [c.x1 for c in sweep(n_levels).candidates if c.valid]
        for x1 in valid[:: max(1, len(valid) // 4)]:
            q = sq.evaluate_candidate(n_levels, x1)
            rows = segment_rows(q.spline)
            grid = (np.arange(1, 2 * q.config.granular_per_side) * (0.5 * q.step)).tolist()
            inner = [scalar_value(r, r[4]) for r in rows[:-1]]
            points = [p for pair in zip(q.levels, q.thresholds) for p in pair][: len(grid)]
            for t, x in zip(grid, points):
                want = mp_segment_root(rows[bisect.bisect_right(inner, t)], t)
                assert x == pytest.approx(want, rel=1e-14, abs=0.0), (x1, t)

    def test_target_beyond_fitted_range_rejected(self):
        # 0.8x reaches 2.4 at x_max = 3, below the top level target 2.5: a
        # curve check, the mirror of the check on the value at 0
        spline = make_spline((0.0, 0.8, 0.0, 0.0, 3.0))
        with pytest.raises(DesignError, match=r"at x_max \(2.400000\) .* last target 2.500000"):
            build(spline, DesignConfig(8, KnotVector((0.0, 3.0)), UNIT))

    @pytest.mark.parametrize("segment", [0, 1])
    @pytest.mark.parametrize("row", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_table_fails_a_curve_check(self, fitted16, segment, row, bad):
        # build raises, and score_batch marks the candidate invalid, with the
        # same curve-check reason, before any grid point is inverted
        config, spline, _ = fitted16
        table = np.array(spline.coefficients)
        table[row, segment] = bad
        with pytest.raises(DesignError) as info:
            build(QuadraticSpline(table), config)
        assert str(info.value) == f"fitted curve not finite on segment {segment}"
        reports, failures = score_batch(np.stack((spline.coefficients, table)), config)
        assert reports[0] is not None and reports[1] is None
        assert failures == [None, str(info.value)]

    @staticmethod
    def jump_build(value_at_knot: float) -> sq.CompandingQuantizer:
        # N = 8 on [0, 3]: delta = 1, grid points 0.5, 1.0, ..., 2.5.  The
        # first segment rises to 1.2 at the knot x = 1, the second restarts
        # at ``value_at_knot`` there and rises linearly to 3 at x = 3.
        slope = (3.0 - value_at_knot) / 2.0
        spline = make_spline((0.0, 1.2, 0.0, 0.0, 1.0), (value_at_knot - slope, slope, 0.0, 1.0, 3.0))
        return build(spline, DesignConfig(8, KnotVector((0.0, 1.0, 3.0)), UNIT))

    def test_target_inside_upward_jump_maps_to_knot(self):
        # the jump (1.2, 1.7) holds only the level target 1.5
        q = self.jump_build(1.7)
        assert q.levels[1] == 1.0
        assert q.level_segments == (0, 1, 1)
        assert q.thresholds[0] == pytest.approx(1.0 / 1.2, rel=1e-15)
        assert q.thresholds[1] == pytest.approx(1.0 + 0.3 / 0.65, rel=1e-15)

    def test_two_targets_inside_upward_jump_name_the_pair(self):
        # the jump (1.2, 2.2) holds the level target 1.5 and the threshold
        # target 2.0: both map to the knot, grid points 3 and 4
        pair = r"grid point 3 maps to 1, not below 1 for point 4"
        with pytest.raises(DesignError, match=pair):
            self.jump_build(2.2)


class TestGranularDistortion:
    def test_identity_equals_midpoint_rule(self):
        q = identity_build(16, (0.0, X_MAX_16))
        step = q.step
        expected = (step**2 / 12.0) * sum(2.0 * pdf(UNIT, y) * step for y in q.levels)
        assert granular_distortion(q) == pytest.approx(expected, rel=1e-12)

    def test_two_forms_agree(self, fitted16):
        _, _, q = fitted16
        rows = segment_rows(q.spline)
        slopes = [scalar_slope(rows[i], y) for i, y in zip(q.level_segments, q.levels)]
        lead = 2.0 * q.config.x_max**2 / (3.0 * 14**2) * sum(
            pdf(UNIT, y) / s**2 * d
            for y, s, d in zip(q.levels, slopes, q.cell_lengths_asymptotic)
        )
        alt = sum(pdf(UNIT, y) * d**3 for y, d in zip(q.levels, q.cell_lengths_asymptotic)) / 6.0
        assert granular_distortion(q) == pytest.approx(lead, rel=1e-13)
        assert lead == pytest.approx(alt, rel=1e-12)

    @pytest.mark.parametrize("n_levels", [16, 32, 64, 128, 256, 512])
    def test_two_forms_agree_over_swept_designs(self, n_levels):
        # every buildable design of the default sweep grid
        x_max = support_threshold(UNIT, n_levels)
        grid = [0.5 * x_max + k * 0.01 for k in range(int(0.5 * x_max / 0.01))]
        configs = [standard_config(n_levels, (x1,)) for x1 in grid if x1 < x_max * (1.0 - 1e-12)]
        knots = [c.knots.knots for c in configs]
        moments = target_moments(lambda x: sq.compressor(UNIT, x_max, x), knots)
        built = 0
        for config, spline in zip(configs, splines(fit_batch(knots, moments))):
            try:
                q = build(spline, config)
            except DesignError:
                continue
            built += 1
            alt = sum(pdf(UNIT, y) * d**3 for y, d in zip(q.levels, q.cell_lengths_asymptotic)) / 6.0
            assert granular_distortion(q) == pytest.approx(alt, rel=1e-12)
        assert built > 0

    def test_six_db_per_bit_scaling(self):
        # doubling the granular level count at fixed support shrinks the
        # noise power about fourfold
        x_max = 2.0
        d_small = granular_distortion(identity_build(16, (0.0, x_max)))
        d_large = granular_distortion(identity_build(30, (0.0, x_max)))
        assert d_small / d_large == pytest.approx(4.0, rel=0.10)


class TestOverloadDistortion:
    def test_closed_form_values(self):
        assert overload_distortion_closed(2.4744) == pytest.approx(2.4661110080805957e-3, rel=1e-12)
        assert overload_distortion_closed(3.0518) == pytest.approx(2.66608914226203e-4, rel=1e-12)

    def test_closed_form_decreasing(self):
        xs = np.linspace(1.0, 6.0, 26)
        vals = [overload_distortion_closed(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_exact_matches_closed_tail_moments(self, fitted16):
        _, _, q = fitted16
        x_max, y = q.config.x_max, q.overload_level
        expected = 2.0 * gaussian_cell_distortion(x_max, x_max + 14.0, y)
        assert overload_distortion_exact(q) == pytest.approx(expected, rel=1e-10)

    def test_vanishes_for_wide_support(self):
        knots = (0.0, 8.0)
        q = identity_build(16, knots)
        assert overload_distortion_exact(q) < 1e-12

    def test_centroid_minimizes_exact_overload(self, fitted16):
        # the exact term is taken about the overload level, the tail centroid,
        # where the tail's second moment is least
        _, _, q = fitted16
        base = overload_distortion_exact(q)
        x_max = q.config.x_max
        assert base == 2.0 * cell_second_moment(UNIT, x_max, math.inf, q.overload_level)
        for off in (-0.2, -0.05, 0.05, 0.2):
            assert 2.0 * cell_second_moment(UNIT, x_max, math.inf, q.overload_level + off) > base

    def test_asymptotic_gap_against_exact(self, fitted16):
        # the closed form is a genuine asymptotic: at these support edges it
        # overshoots the exact tail integral by a factor around two
        _, _, q = fitted16
        ratio16 = overload_distortion_closed(q.config.x_max) / overload_distortion_exact(q)
        assert ratio16 == pytest.approx(2.051, abs=0.01)
        config32 = standard_config(32, (2.25,))
        spline32 = sq.fit(lambda x: sq.compressor(UNIT, config32.x_max, x), config32.knots)
        q32 = build(spline32, config32)
        ratio32 = overload_distortion_closed(config32.x_max) / overload_distortion_exact(q32)
        assert ratio32 == pytest.approx(1.700, abs=0.01)

    def test_rejects_nonpositive_edge(self):
        for x_max in (0.0, math.nan):
            with pytest.raises(ValueError, match="x_max must be positive"):
                overload_distortion_closed(x_max)

    @pytest.mark.parametrize("x_max", [1.6e-103, 1e-104, 1e-105, 1e-108, 1e-110, 5e-324])
    def test_overflowing_term_is_an_overflow_error(self, x_max):
        # the term passes the largest float below about 1.64e-103; it used to
        # be inf there, and a bare ZeroDivisionError once x_max^3 underflowed
        with pytest.raises(OverflowError, match="overload term overflows"):
            overload_distortion_closed(x_max)

    @pytest.mark.parametrize("x_max", [1e103, 1e200, sys.float_info.max])
    def test_huge_edge_gives_zero(self, x_max):
        # exp(-x_max^2/2) underflows from about 38.6, long before x_max^3
        # overflows from about 5.6e102: the term is 0 there, not an error
        assert overload_distortion_closed(x_max) == 0.0

    def test_term_just_inside_the_float_range_keeps_its_bits(self):
        pytest.importorskip("mpmath")
        for x_max in (1.7e-103, 1e-50, 0.5, 2.4744, 8.0):
            want = math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x_max * x_max) / x_max**3
            assert overload_distortion_closed(x_max) == want
            assert want == pytest.approx(mp_overload_closed(x_max), rel=1e-14)


class TestSqnr:
    def test_report_consistency(self, fitted16):
        _, _, q = fitted16
        report = sqnr(q)
        assert report.total == pytest.approx(report.granular + report.overload, rel=1e-15)
        assert report.sqnr_db == pytest.approx(10.0 * math.log10(1.0 / report.total), rel=1e-15)
        assert report.overload == pytest.approx(overload_distortion_closed(q.config.x_max), rel=1e-15)
        assert report.overload_exact == pytest.approx(overload_distortion_exact(q), rel=1e-12)

    def test_fitted_value_regression(self, fitted16):
        _, _, q = fitted16
        assert sqnr(q).sqnr_db == pytest.approx(19.763802, abs=1e-4)


def assert_positive_powers(report):
    assert report.granular > 0.0 and report.overload > 0.0 and report.total > 0.0
    assert math.isfinite(report.sqnr_db)


class TestReportPowers:
    """Every report's powers are positive by construction: pdf > 0, slopes
    checked > 0, and the overload term underflows only past about 38 sigma,
    while the support edge is 7.1 sigma at N = 65,536."""

    @pytest.mark.parametrize("n_levels", [8 * 2**k for k in range(7)])
    def test_every_valid_sweep_report_and_the_chosen_design(self, n_levels):
        result = sweep(n_levels)
        reports = [c.report for c in result.candidates if c.valid]
        assert reports
        for report in reports + [sq.evaluate_candidate(n_levels, result.best_x1).report]:
            assert_positive_powers(report)

    @pytest.mark.parametrize("n_levels", [4 * 2**k for k in range(15)])
    def test_exact_compressor(self, n_levels):
        assert_positive_powers(sq.exact_compressor_sqnr(UNIT, n_levels))


class TestEncodeDecode:
    def test_zero_lands_in_first_positive_cell(self, fitted16):
        _, _, q = fitted16
        n = q.config.n_levels
        assert encode(q, 0.0) == n // 2
        assert 0.0 < decode(q, n // 2) < q.thresholds[0]

    def test_overload_cells(self, fitted16):
        _, _, q = fitted16
        n = q.config.n_levels
        assert encode(q, q.config.x_max + 1.0) == n - 1
        assert decode(q, n - 1) == q.overload_level
        assert encode(q, -q.config.x_max - 1.0) == 0
        assert decode(q, 0) == -q.overload_level

    def test_levels_round_trip(self, fitted16):
        _, _, q = fitted16
        for idx in range(q.config.n_levels):
            y = decode(q, idx)
            assert encode(q, y) == idx

    def test_support_edges(self, fitted16):
        # cells are half-open on the right: -x_max opens the first granular
        # cell, x_max the positive overload cell
        _, _, q = fitted16
        n, x_max = q.config.n_levels, q.config.x_max
        assert encode(q, -x_max) == 1
        assert encode(q, x_max) == n - 1
        assert encode(q, math.nextafter(x_max, 0.0)) == n - 2
        assert encode(q, math.nextafter(-x_max, -math.inf)) == 0

    def test_half_open_boundaries(self, fitted16):
        _, _, q = fitted16
        t = q.thresholds[0]
        assert decode(q, encode(q, t)) > t
        assert decode(q, encode(q, t - 1e-12)) < t

    def test_odd_symmetry_random(self, fitted16):
        _, _, q = fitted16
        n = q.config.n_levels
        rng = np.random.default_rng(11)
        for x in rng.standard_normal(10_000):
            i = encode(q, float(x))
            j = encode(q, float(-x))
            assert j == n - 1 - i
            assert decode(q, j) == -decode(q, i)

    def test_decode_range_check(self, fitted16):
        _, _, q = fitted16
        with pytest.raises(IndexError):
            decode(q, -1)
        with pytest.raises(IndexError):
            decode(q, q.config.n_levels)

    def test_encode_rejects_non_finite(self, fitted16):
        _, _, q = fitted16
        with pytest.raises(ValueError):
            encode(q, math.nan)

    def test_mirror_decode_identity(self, fitted16):
        _, _, q = fitted16
        n = q.config.n_levels
        for k in range(n):
            assert decode(q, n - 1 - k) == -decode(q, k)

    def test_coding_tables_computed_once(self, fitted16):
        _, spline, q = fitted16
        assert q.all_boundaries is q.all_boundaries
        assert q.all_levels is q.all_levels
        for table in (q.all_boundaries, q.all_levels):
            assert type(table) is tuple and all(type(v) is float for v in table)
        assert q == build(spline, q.config)


class TestTrueDistortionOracle:
    def test_identity_uniform_matches_closed_form(self):
        q = identity_build(8, (0.0, 2.0))
        bounds = (0.0,) + q.thresholds
        expected = 2.0 * sum(
            gaussian_cell_distortion(lo, hi, y)
            for y, lo, hi in zip(q.levels, bounds, bounds[1:])
        ) + 2.0 * gaussian_cell_distortion(2.0, 16.0, q.overload_level)
        assert sq.true_distortion(q) == pytest.approx(expected, rel=1e-9)
