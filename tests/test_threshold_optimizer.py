import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import splinequant as sq
from splinequant import quantizer_design, spline_fit, threshold_optimizer
from splinequant.spline_fit import fit_batch, target_moments
from splinequant.threshold_optimizer import (
    RefineResult,
    SweepCandidate,
    SweepResult,
    refine,
    sweep,
)

from _oracles import one_point_refine, per_candidate_sweep


def spikes(result: SweepResult, tolerance_db: float = 0.05) -> list[float]:
    """Thresholds of valid candidates more than ``tolerance_db`` above both
    valid neighbours while below the maximum: local peaks of the curve."""
    valid = [c for c in result.candidates if c.valid]
    return [
        cur.x1
        for prev, cur, nxt in zip(valid, valid[1:], valid[2:])
        if result.best_sqnr_db > cur.sqnr_db > max(prev.sqnr_db, nxt.sqnr_db) + tolerance_db
    ]


# the coarse and default grid steps for N = 6 ... 512, the fine step where it
# is affordable
_CURVES = [
    (n, step)
    for n in (6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)
    for step in (0.05, 0.01)
] + [(16, 0.002), (32, 0.002)]


class TestSweep:
    @pytest.mark.parametrize("n_levels", [16, 256, 1024])
    def test_batched_fits_match_evaluate_candidate(self, n_levels):
        # the sweep's one-pass fit moments must score every candidate as a
        # stand-alone evaluate_candidate does
        x_max = sq.support_threshold(sq.SourceModel(), n_levels)
        grid = [0.5 * x_max + k * 0.01 for k in range(int(0.5 * x_max / 0.01) + 1)]
        grid = [x1 for x1 in grid if x1 < x_max * (1.0 - 1e-12)]
        alone = []
        for x1 in grid:
            try:
                alone.append(sq.evaluate_candidate(n_levels, x1).report.sqnr_db)
            except sq.DesignError:
                alone.append(None)
        if all(db is None for db in alone):
            with pytest.raises(sq.SweepError):
                sweep(n_levels)
            return
        result = sweep(n_levels)
        assert [c.x1 for c in result.candidates] == grid
        assert [c.valid for c in result.candidates] == [db is not None for db in alone]
        for cand, db in zip(result.candidates, alone):
            if db is not None:
                assert cand.sqnr_db == pytest.approx(db, abs=1e-10)
        best = max(db for db in alone if db is not None)
        assert result.best_x1 == grid[alone.index(best)]

    def test_covers_grid_from_midpoint(self, sweep16):
        assert sweep16.candidates[0].x1 == pytest.approx(sweep16.x_max / 2, rel=1e-15)
        xs = [c.x1 for c in sweep16.candidates]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert xs[-1] < sweep16.x_max
        steps = [b - a for a, b in zip(xs, xs[1:])]
        assert all(s == pytest.approx(0.01, rel=1e-9) for s in steps)

    def test_argmax_is_max_over_valid(self, sweep16):
        best = max(c.sqnr_db for c in sweep16.candidates if c.valid)
        assert sweep16.best_sqnr_db == best
        firsts = [c.x1 for c in sweep16.candidates if c.valid and c.sqnr_db == best]
        assert sweep16.best_x1 == firsts[0]

    def test_beats_midpoint(self, sweep16, sweep32):
        for result in (sweep16, sweep32):
            assert result.best_sqnr_db >= result.candidates[0].sqnr_db

    def test_regression_values(self, sweep16, sweep32):
        assert sweep16.best_x1 == pytest.approx(2.1373, abs=2e-4)
        assert sweep16.best_sqnr_db == pytest.approx(19.8212, abs=1e-3)
        assert sweep32.best_x1 == pytest.approx(2.3560, abs=2e-4)
        assert sweep32.best_sqnr_db == pytest.approx(25.9798, abs=1e-3)

    def test_invalid_candidates_recorded_not_fatal(self, sweep16):
        invalid = [c for c in sweep16.candidates if not c.valid]
        assert all(c.sqnr_db is None and c.failure for c in invalid)
        # the (rare) failures sit near the support edge where the outer
        # segment degenerates
        assert all(c.x1 > 0.95 * sweep16.x_max for c in invalid)

    def test_determinism(self, sweep16):
        again = sweep(16)
        assert again.best_x1 == sweep16.best_x1
        assert again.best_sqnr_db == sweep16.best_sqnr_db
        assert [(c.x1, c.sqnr_db) for c in again.candidates] == [
            (c.x1, c.sqnr_db) for c in sweep16.candidates
        ]

    def test_argmax_invariant_under_power_scaling(self, sweep16):
        # rescaling every candidate in the linear power domain must not move
        # the argmax
        powers = [
            (c.x1, 10.0 ** (c.sqnr_db / 10.0)) for c in sweep16.candidates if c.valid
        ]
        for scale in (1e-3, 7.0, 123.4):
            best_x1 = max(powers, key=lambda p: p[1] * scale)[0]
            assert best_x1 == sweep16.best_x1

    def test_single_peak_within_noise(self):
        # every sweep that builds has one peak: no valid candidate pokes more
        # than 0.05 dB above both valid neighbours below the maximum
        peaks = {}
        for n_levels, grid_step in _CURVES:
            try:
                peaks[n_levels, grid_step] = spikes(sweep(n_levels, grid_step))
            except sq.SweepError:
                continue
        # only N = 512 at step 0.05 has no valid candidate
        assert len(peaks) == len(_CURVES) - 1
        assert {curve: x1s for curve, x1s in peaks.items() if x1s} == {}

    def test_spike_check_finds_a_local_peak(self):
        xs = [1.0 + 0.01 * k for k in range(6)]
        result = synthetic_result(xs, [1.0, 1.1, 1.3, 1.2, 1.5, 1.4], 4)
        assert spikes(result) == [xs[2]]
        assert spikes(result, tolerance_db=0.2) == []

    def test_bad_grid_step(self):
        with pytest.raises(ValueError):
            sweep(16, grid_step=0.0)
        with pytest.raises(ValueError):
            sweep(16, grid_step=2.0)
        with pytest.raises(ValueError):
            sweep(16, grid_step=math.nan)

    def test_grid_bound_raises_before_any_work(self, monkeypatch):
        # more than 100,000 candidates is refused before the grid is built
        monkeypatch.setattr(threshold_optimizer, "standard_config", None)
        x_max = sq.support_threshold(sq.SourceModel(), 16)
        for grid_step in (1e-9, 0.5 * x_max / 100_001):
            with pytest.raises(ValueError, match="more than 100000 candidates"):
                sweep(16, grid_step)

    @pytest.mark.parametrize("grid_step, count", [(0.01, 124), (0.05, 25)])
    def test_default_and_coarse_grids_unchanged(self, grid_step, count):
        result = sweep(16, grid_step)
        assert [c.x1 for c in result.candidates] == [
            0.5 * result.x_max + k * grid_step for k in range(count)
        ]

    def test_first_candidate_is_the_midpoint_design(self, sweep16, sweep32):
        # table1 reports this candidate as the midpoint design
        for result in (sweep16, sweep32):
            first = result.candidates[0]
            assert first.x1 == 0.5 * result.x_max
            assert first.report == sq.evaluate_candidate(result.n_levels, first.x1).report

    def test_interleave_failures_are_short(self):
        # each failure names one out-of-order pair, not every level
        failures = [c.failure for c in sweep(512).candidates if not c.valid]
        assert any("interleave" in f for f in failures)
        assert all(len(f) < 200 for f in failures)


class TestOneArrayPass:
    """The sweep fits, checks and scores all candidates in one array pass; it
    must reproduce the per-candidate sweep exactly."""

    @pytest.mark.parametrize("grid_step", [0.01, 0.05])
    @pytest.mark.parametrize("n_levels", [8 * 2**k for k in range(9)])
    def test_equals_per_candidate_sweep(self, n_levels, grid_step):
        try:
            rows, best = per_candidate_sweep(n_levels, grid_step)
        except sq.SweepError as exc:
            with pytest.raises(sq.SweepError) as info:
                sweep(n_levels, grid_step)
            assert str(info.value) == str(exc)
            return
        # the batched fit gives every candidate's coefficients bit for bit
        knots = [spline.knots for _, spline, _, _ in rows]
        x_max = knots[0][-1]
        moments = target_moments(lambda x: sq.compressor(sq.SourceModel(), x_max, x), knots)
        tables = fit_batch(knots, moments)
        for table, (_, spline, _, _) in zip(tables, rows):
            assert table.tolist() == spline.coefficients.tolist()

        result = sweep(n_levels, grid_step)
        assert [c.x1 for c in result.candidates] == [x1 for x1, _, _, _ in rows]
        for cand, (_, _, report, failure) in zip(result.candidates, rows):
            assert cand.valid == (report is not None)
            assert cand.failure == failure
            if report is not None:
                assert cand.sqnr_db == pytest.approx(report.sqnr_db, abs=1e-12)
                assert cand.report.overload_exact == report.overload_exact
        assert result.best_x1 == best

    def test_singular_moment_matrix_raises_out_of_sweep(self, monkeypatch):
        # a fit that cannot be made is an error, not an invalid candidate
        def degenerate_first(knots, moments):
            knots = np.array(knots)
            knots[0, 1] = 0.0  # an empty inner segment
            return fit_batch(knots, moments)

        monkeypatch.setattr(threshold_optimizer, "fit_batch", degenerate_first)
        with pytest.raises(ValueError, match="knots must be strictly increasing"):
            sweep(16)

    def test_builds_no_design_per_candidate(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("sweep called a one-design step")

        for name in ("evaluate_candidate", "build"):
            monkeypatch.setattr(threshold_optimizer, name, forbidden)
        configs = []
        real_config = threshold_optimizer.standard_config
        monkeypatch.setattr(
            threshold_optimizer,
            "standard_config",
            lambda *args: configs.append(args) or real_config(*args),
        )
        result = sweep(64)
        assert len(result.candidates) > 100 and len(configs) == 1

    @pytest.mark.parametrize("n_levels", [256, 512])
    def test_working_set_stays_small(self, n_levels):
        # grid inversion runs in bounded blocks of candidates: without them
        # sweep(256) and sweep(512) peak at about 4 MB
        tracemalloc.start()
        try:
            sweep(n_levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def synthetic_result(xs, values, best_index, grid_step=0.01):
    candidates = tuple(
        SweepCandidate(x, v, None, True) for x, v in zip(xs, values)
    )
    return SweepResult(
        candidates=candidates,
        best_x1=xs[best_index],
        best_sqnr_db=values[best_index],
        n_levels=16,
        x_max=xs[-1] + grid_step,
        grid_step=grid_step,
        source=sq.SourceModel(),
    )


def public_chain(n_levels, x1, source=sq.SourceModel()):
    """The design at ``x1`` through the one-design steps: ``fit`` of the
    compressor on the standard knots, ``build``, then the report shim
    ``quantizer_design.sqnr``."""
    config = sq.standard_config(n_levels, (x1,), source)
    spline = sq.fit(lambda x: sq.compressor(source, config.x_max, x), config.knots)
    quantizer = sq.build(spline, config)
    return quantizer, quantizer_design.sqnr(quantizer)


def score_as(monkeypatch, curve):
    """Make every point that ``refine`` scores read ``curve(x1)``; a point
    where the curve is None fails to build."""

    def scores(config, knots):
        values = [curve(row[1]) for row in knots]
        reports = [None if v is None else SimpleNamespace(sqnr_db=v) for v in values]
        return reports, [None if v is None else "synthetic failure" for v in values]

    monkeypatch.setattr(threshold_optimizer, "_score_knots", scores)


def record_passes(monkeypatch):
    """The x1 of every knot row that ``refine`` scores, one list per
    ``_score_knots`` call; the calls still score."""
    passes = []
    real = threshold_optimizer._score_knots

    def recording(config, knots):
        passes.append([row[1] for row in knots])
        return real(config, knots)

    monkeypatch.setattr(threshold_optimizer, "_score_knots", recording)
    return passes


# x1 -> synthetic SQNR around an interior grid maximum at 1.7, grid step 0.05
_SYNTHETIC_CURVES = {
    "constant: every comparison a tie": lambda x: 1.0,
    "flat top: ties near the peak": lambda x: min(0.0, 0.02 - abs(x - 1.7)),
    "invalid right of the peak": lambda x: None if x > 1.71 else 5.0 - (x - 1.7) ** 2,
    "invalid left of the peak": lambda x: None if x < 1.69 else 5.0 - (x - 1.7) ** 2,
    "invalid everywhere": lambda x: None,
    "sawtooth": lambda x: (x * 997.0) % 1.0,
}


class TestRefine:
    def test_synthetic_peak_located(self, monkeypatch):
        peak = 1.7
        f = lambda x: 5.0 - (x - peak) ** 2
        score_as(monkeypatch, f)
        xs = [1.5 + 0.05 * k for k in range(11)]
        vals = [f(x) for x in xs]
        best = max(range(len(xs)), key=lambda i: vals[i])
        result = synthetic_result(xs, vals, best, grid_step=0.05)
        refined = refine(result)
        assert refined.interior
        # the peak and both final points lie in the last bracket
        assert refined.x1 == pytest.approx(peak, abs=threshold_optimizer._REFINE_X1_TOLERANCE)
        assert refined.sqnr_db >= result.best_sqnr_db

    def test_boundary_maximum_flagged(self, monkeypatch):
        score_as(monkeypatch, lambda x: 4.0 - x)
        xs = [1.0, 1.1, 1.2]
        vals = [3.0, 2.0, 1.0]
        result = synthetic_result(xs, vals, 0, grid_step=0.1)
        refined = refine(result)
        assert refined == RefineResult(1.0, 3.0, interior=False)

    def test_real_sweep_improves_on_grid(self, sweep16):
        refined = refine(sweep16)
        assert refined.interior
        assert refined.sqnr_db >= sweep16.best_sqnr_db
        assert abs(refined.x1 - sweep16.best_x1) <= sweep16.grid_step

    @pytest.mark.parametrize("n_levels", [16, 128])
    def test_default_objective_scores_as_evaluate_candidate(self, n_levels, monkeypatch):
        # the array pass on one knot row gives the public one-design chain's
        # SQNR bit for bit, so both scorings take the same golden-section path
        result = sweep(n_levels)
        refined = refine(result)

        def one_design(x1):
            try:
                return public_chain(n_levels, x1)[1].sqnr_db
            except sq.DesignError:
                return -math.inf

        score_as(monkeypatch, one_design)
        assert refine(result) == refined

    def test_builds_no_design_per_point(self, sweep16, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("refine called a one-design step")

        for name in ("evaluate_candidate", "build"):
            monkeypatch.setattr(threshold_optimizer, name, forbidden)
        assert refine(sweep16).interior

    def test_no_valid_candidate_raises_sweep_error(self):
        result = SweepResult(
            candidates=(SweepCandidate(1.0, None, None, False, "synthetic failure"),),
            best_x1=1.0,
            best_sqnr_db=-math.inf,
            n_levels=16,
            x_max=2.0,
            grid_step=0.01,
            source=sq.SourceModel(),
        )
        with pytest.raises(sq.SweepError, match="none of the 1 sweep candidates is valid"):
            refine(result)

    def test_invalid_point_scores_minus_inf(self, sweep16, monkeypatch):
        # a point that fails to build is not raised but loses every comparison
        def all_invalid(tables, config):
            return [None] * len(tables), ["synthetic failure"] * len(tables)

        monkeypatch.setattr(threshold_optimizer, "score_batch", all_invalid)
        refined = refine(sweep16)
        assert refined == RefineResult(sweep16.best_x1, sweep16.best_sqnr_db, interior=True)


class TestRefinePasses:
    """``refine`` scores the point it needs together with every point the
    next two steps could need, in one ``_score_knots`` call, and takes the
    golden-section walk that scores one point per call."""

    @pytest.mark.parametrize("n_levels", [16, 32, 64, 128, 256, 512])
    @pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
    def test_same_result_as_one_point_per_call(self, n_levels, sigma):
        result = sweep(n_levels, source=sq.SourceModel(sigma))
        assert refine(result) == one_point_refine(result)

    @pytest.mark.parametrize("curve", list(_SYNTHETIC_CURVES), ids=str)
    def test_same_walk_on_synthetic_curves(self, curve, monkeypatch):
        score_as(monkeypatch, _SYNTHETIC_CURVES[curve])
        xs = [1.5 + 0.05 * k for k in range(11)]
        # a grid best below every finite score, so that the result is the
        # walk's last point
        result = synthetic_result(xs, [-2.0] * 4 + [-1.0] + [-2.0] * 6, 4, grid_step=0.05)
        assert refine(result) == one_point_refine(result)

    @pytest.mark.parametrize("n_levels", [16, 32, 64, 128, 256])
    def test_few_passes_and_each_point_once_within_the_bracket(self, n_levels, monkeypatch):
        result = sweep(n_levels)
        passes = record_passes(monkeypatch)
        assert refine(result).interior
        # one point per call takes 14 calls at these N
        assert 1 <= len(passes) <= 5
        assert max(map(len, passes)) <= 8
        scored = [x1 for rows in passes for x1 in rows]
        assert len(set(scored)) == len(scored)
        half = result.grid_step * result.source.sigma
        assert all(result.best_x1 - half <= x1 <= result.best_x1 + half for x1 in scored)

    def test_boundary_maximum_scores_nothing(self, monkeypatch):
        passes = record_passes(monkeypatch)
        result = synthetic_result([1.0, 1.1, 1.2], [3.0, 2.0, 1.0], 0, grid_step=0.1)
        assert not refine(result).interior
        assert passes == []


class TestEvaluateCandidate:
    def test_matches_sweep_entry(self, sweep16):
        cand = sweep16.candidates[10]
        report = sq.evaluate_candidate(16, cand.x1).report
        assert report.sqnr_db == cand.sqnr_db

    def test_regression_at_literature_thresholds(self):
        assert sq.evaluate_candidate(16, 1.68).report.sqnr_db == pytest.approx(19.7638, abs=1e-3)
        assert sq.evaluate_candidate(32, 2.25).report.sqnr_db == pytest.approx(25.9188, abs=1e-3)


class TestOnePath:
    """``evaluate_candidate`` fits its one knot row as the sweep's scorer does
    and builds it once; it gives what the public one-design chain gives."""

    @pytest.mark.parametrize("n_levels", [8 * 2**k for k in range(7)])
    def test_every_candidate_matches_the_public_chain(self, n_levels):
        result = sweep(n_levels)
        for cand in result.candidates:
            try:
                expected, report = public_chain(n_levels, cand.x1)
            except sq.DesignError as exc:
                assert not cand.valid and cand.failure == str(exc)
                with pytest.raises(sq.DesignError) as info:
                    sq.evaluate_candidate(n_levels, cand.x1)
                assert str(info.value) == str(exc)
                continue
            q = sq.evaluate_candidate(n_levels, cand.x1)
            assert cand.valid and repr(q.report) == repr(report) == repr(cand.report)
            assert q.spline.coefficients.tobytes() == expected.spline.coefficients.tobytes()
            for field in (
                "config", "step", "levels", "thresholds", "counts", "level_segments",
                "overload_level", "cell_lengths_asymptotic", "cell_lengths_exact", "report",
            ):
                assert repr(getattr(q, field)) == repr(getattr(expected, field)), field

    def test_needs_neither_fit_nor_sqnr(self, monkeypatch):
        quantizer, report = public_chain(16, 2.0)
        assert not hasattr(threshold_optimizer, "fit")
        assert not hasattr(threshold_optimizer, "sqnr")

        def forbidden(*args, **kwargs):
            raise AssertionError("evaluate_candidate left the scorer's path")

        for module, name in ((spline_fit, "fit"), (quantizer_design, "sqnr"), (sq, "fit")):
            monkeypatch.setattr(module, name, forbidden)
        q = sq.evaluate_candidate(16, 2.0)
        assert q.report == report
        assert q.levels == quantizer.levels

    def test_checks_and_inverts_once(self, monkeypatch):
        # one pass of the curve checks and the grid inversion, build's: the
        # quantizer carries the report, so no scorer pass repeats them
        calls = []
        for name in ("_curve_failures", "_invert_grid"):
            real = getattr(quantizer_design, name)
            counted = lambda *args, name=name, real=real: calls.append(name) or real(*args)
            monkeypatch.setattr(quantizer_design, name, counted)
        sq.evaluate_candidate(16, 2.0)
        assert calls == ["_curve_failures", "_invert_grid"]


class TestSourceScale:
    """A design at sigma is the unit design scaled by sigma: the fit is made
    on the unit source, where the quadrature's absolute tolerance does not
    bind, and its tables are scaled once."""

    @pytest.mark.parametrize("n_levels", [16, 64, 256])
    def test_sqnr_independent_of_sigma(self, n_levels):
        def design(source):
            return sq.evaluate_candidate(n_levels, 0.6 * sq.support_threshold(source, n_levels), source)

        unit = design(sq.SourceModel()).report.sqnr_db
        for sigma in (1e-150, 1e-4, 1e-3, 1e-2, 0.1, 10.0, 1e3, 1e5, 1e150):
            assert design(sq.SourceModel(sigma)).report.sqnr_db == pytest.approx(unit, abs=1e-9), sigma

    @pytest.mark.parametrize("n_levels", [16, 64])
    @pytest.mark.parametrize("sigma", [1e-4, 0.01, 1e3])
    def test_sweep_and_refine_in_units_of_sigma(self, n_levels, sigma):
        # grid_step and refine's bracket scale with sigma, so the same
        # candidates (in units of sigma) and the same maxima are found
        unit = sweep(n_levels)
        scaled = sweep(n_levels, source=sq.SourceModel(sigma))
        assert len(scaled.candidates) == len(unit.candidates)
        assert scaled.best_sqnr_db == pytest.approx(unit.best_sqnr_db, rel=1e-9, abs=0.0)
        assert scaled.best_x1 / sigma == pytest.approx(unit.best_x1, rel=1e-12, abs=0.0)
        unit_refined, refined = refine(unit), refine(scaled)
        assert refined.interior == unit_refined.interior
        assert refined.sqnr_db == pytest.approx(unit_refined.sqnr_db, rel=1e-9, abs=0.0)
        assert refined.x1 / sigma == pytest.approx(unit_refined.x1, abs=1e-4)

    @pytest.mark.parametrize("sigma", [2.0**-511, 1.3e154, math.sqrt(sys.float_info.max)])
    def test_whole_chain_at_the_ends_of_the_sigma_range(self, sigma, sweep16, lloyd16):
        # no square of an amplitude leaves the float range: the granular
        # constant is formed in units of sigma, and every cell, the tail too,
        # by the cell rule in units of sigma
        source, unit_source = sq.SourceModel(sigma), sq.SourceModel()
        unit = sq.evaluate_candidate(16, 0.6 * sq.support_threshold(unit_source, 16))
        q = sq.evaluate_candidate(16, 0.6 * sq.support_threshold(source, 16), source)
        assert q.report.sqnr_db == pytest.approx(unit.report.sqnr_db, rel=0.0, abs=1e-9)
        scaled = sq.true_distortion(q) / sigma**2
        assert math.isfinite(scaled)
        assert scaled == pytest.approx(sq.true_distortion(unit), rel=1e-12, abs=0.0)
        scaled_mc = sq.mc_distortion(q, 10_000, 1).mean_distortion / sigma**2
        assert scaled_mc == pytest.approx(sq.mc_distortion(unit, 10_000, 1).mean_distortion, rel=1e-12)
        swept = sweep(16, source=source)
        assert swept.best_sqnr_db == pytest.approx(sweep16.best_sqnr_db, rel=0.0, abs=1e-9)
        assert refine(swept).sqnr_db == pytest.approx(refine(sweep16).sqnr_db, rel=0.0, abs=1e-9)
        exact = sq.exact_compressor_sqnr(source, 16).sqnr_db
        assert exact == pytest.approx(sq.exact_compressor_sqnr(unit_source, 16).sqnr_db, rel=0.0, abs=1e-9)
        assert sq.lloyd_max(source, 16).sqnr_db == pytest.approx(lloyd16.sqnr_db, rel=0.0, abs=1e-9)

    def test_knots_that_meet_in_units_of_sigma_fail_the_design(self):
        # 5e-324 / 10 rounds to 0: the unit fit has an empty first segment
        with pytest.raises(sq.DesignError, match="meet in units of sigma 10.0"):
            sq.evaluate_candidate(8, 5e-324, sq.SourceModel(10.0))

    def test_grid_step_bound_is_in_units_of_sigma(self):
        x_max = sq.support_threshold(sq.SourceModel(), 16)
        with pytest.raises(ValueError, match="in units of sigma"):
            sweep(16, 0.5 * x_max, sq.SourceModel(1e-4))
        assert len(sweep(16, 0.05, sq.SourceModel(1e-4)).candidates) == 25
