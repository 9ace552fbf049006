import functools
import itertools
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import splinequant as sq
from splinequant import SourceModel, exact_compressor_sqnr, lloyd_max, mc_distortion, true_distortion
from splinequant.quantizer_design import _granular, _half_step_grid, _model_reports
from splinequant import reference_oracles
from splinequant.gauss_analytics import _cell_terms, cell_second_moment, erf
from splinequant.reference_oracles import (
    _MC_BLOCK,
    _SHARD_SIZE,
    ConvergenceError,
    _invert_compressor,
)

from _oracles import (
    mp_cell_distortion,
    mp_exact_compressor_report,
    mp_invert_compressor,
    mp_tail_second_moment,
    reference_lloyd_iterates,
    reference_lloyd_max,
    unsorted_mc_distortion,
)

UNIT = SourceModel()


class TestLloydMax:
    def test_one_bit_closed_form(self):
        result = lloyd_max(UNIT, 2)
        expected_level = math.sqrt(2.0 / math.pi)
        assert result.levels == pytest.approx((-expected_level, expected_level), rel=1e-9)
        assert result.sqnr_db == pytest.approx(10.0 * math.log10(1.0 / (1.0 - 2.0 / math.pi)), abs=1e-6)

    def test_n16_regression(self, lloyd16):
        assert lloyd16.sqnr_db == pytest.approx(20.2223, abs=2e-3)

    def test_n32_regression(self, lloyd32):
        assert lloyd32.sqnr_db == pytest.approx(26.0125, abs=2e-3)

    def test_structure(self, lloyd16):
        levels = np.asarray(lloyd16.levels)
        assert np.allclose(levels, -levels[::-1], atol=1e-9)
        assert np.all(np.diff(levels) > 0)
        assert lloyd16.thresholds == pytest.approx(
            tuple(0.5 * (a + b) for a, b in zip(lloyd16.levels, lloyd16.levels[1:]))
        )

    def test_beats_every_quantizer_true_distortion(self, lloyd16, designs):
        for n, tag in ((16, "mid"), (16, "opt")):
            assert lloyd16.distortion <= true_distortion(designs[(n, tag)])

    def test_beats_spline_model_sqnr(self, lloyd16, lloyd32, designs, sweep16, sweep32):
        assert lloyd16.sqnr_db >= sweep16.best_sqnr_db
        assert lloyd32.sqnr_db >= sweep32.best_sqnr_db

    def test_sigma_scaling(self):
        # the run is the unit source's, scaled once
        narrow = lloyd_max(UNIT, 8)
        wide = lloyd_max(SourceModel(2.0), 8)
        assert wide.sqnr_db == narrow.sqnr_db
        assert wide.levels == tuple(2.0 * y for y in narrow.levels)
        assert wide.distortion == 4.0 * narrow.distortion

    def test_panter_dite_ratio_rises_towards_one(self, lloyd16, lloyd32):
        # N^2 D / (sqrt(3) pi / 2), the Panter-Dite (1951) high-resolution
        # distortion of the unit Gaussian: 0.8940, 0.9427, 0.9699 and 0.9845
        # at N = 16...128, and N (1 - ratio) 1.70, 1.83, 1.93 and 1.99
        runs = {16: lloyd16, 32: lloyd32, 64: _unit_lloyd_max(64), 128: _unit_lloyd_max(128)}
        ratios = [n * n * run.distortion / (math.sqrt(3.0) * math.pi / 2.0) for n, run in runs.items()]
        gaps = [n * (1.0 - ratio) for n, ratio in zip(runs, ratios)]
        assert all(a < b for a, b in zip(ratios, ratios[1:])) and ratios[-1] < 1.0, ratios
        assert all(a < b for a, b in zip(gaps, gaps[1:])), gaps

    @pytest.mark.parametrize("n_levels", [2, 4, 8, 16, 32, 64, 128])
    def test_distortion_matches_closed_form_cell_moments(self, n_levels):
        # the 24-point figure against the 50-digit moments of the run's own
        # positive cells, the last one out to +inf, doubled; the gap is
        # mostly the 24-point rule on the 12-sigma-truncated last cell
        pytest.importorskip("mpmath")
        run = _unit_lloyd_max(n_levels)
        half = n_levels // 2
        want = mp_cell_distortion((0.0,) + run.thresholds[half:] + (math.inf,), run.levels[half:])
        assert run.distortion == pytest.approx(2.0 * want, rel=2e-11, abs=0.0)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(reference_oracles, "_LLOYD_MAX_TOLERANCE", 1e-15)
        with pytest.raises(ConvergenceError):
            lloyd_max(UNIT, 16, max_iterations=3)

    def test_rejects_tiny_codebook(self):
        with pytest.raises(ValueError):
            lloyd_max(UNIT, 1)

    @pytest.mark.parametrize("n_levels", [3, 5, 17])
    def test_rejects_odd_codebook(self, n_levels):
        with pytest.raises(ValueError, match="even"):
            lloyd_max(UNIT, n_levels)

    @pytest.mark.parametrize("max_iterations", [0, -5])
    def test_rejects_bad_iteration_cap(self, max_iterations):
        with pytest.raises(ValueError, match="max_iterations"):
            lloyd_max(UNIT, 16, max_iterations=max_iterations)

    @pytest.fixture
    def no_work(self, monkeypatch):
        def start(*args):
            raise AssertionError("started iterating before checking the arguments")

        monkeypatch.setattr(reference_oracles, "_initial_levels", start)

    def test_rejects_float_level_count_before_any_work(self, no_work):
        with pytest.raises(TypeError):
            lloyd_max(UNIT, 16.0)

    def test_rejects_float_iteration_cap_before_any_work(self, no_work):
        with pytest.raises(TypeError):
            lloyd_max(UNIT, 16, max_iterations=2.5)

    def test_boolean_iteration_cap_counts_as_one(self):
        # operator.index(True) is 1: the cap is reported as a number
        with pytest.raises(ConvergenceError) as got:
            lloyd_max(UNIT, 16, max_iterations=True)
        assert str(got.value) == "no convergence to 1e-12 within 1 iterations"

    def test_accepts_integer_like_counts(self):
        assert lloyd_max(UNIT, np.int64(8), max_iterations=np.int32(100)) == lloyd_max(UNIT, 8)

    def test_levels_and_thresholds_are_plain_floats(self, lloyd16):
        assert all(type(v) is float for v in lloyd16.levels + lloyd16.thresholds)
        assert "np.float64" not in repr(lloyd16)


@functools.lru_cache(maxsize=None)
def _unit_lloyd_max(n_levels):
    """``lloyd_max`` on the unit source, run once per level count."""
    return lloyd_max(UNIT, n_levels)


@functools.lru_cache(maxsize=None)
def _replicated_unit_run(n_levels):
    """The unit source's run, checked once per level count against the
    whole-codebook iteration: levels, thresholds, distortion and iteration
    count, bit for bit."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = reference_lloyd_max(UNIT, n_levels)
    assert _unit_lloyd_max(n_levels) == want
    return want


class TestLloydMaxHalfCodebook:
    """The positive-half iteration reproduces the whole-codebook iteration bit
    for bit on the unit source, and any other sigma gives that run scaled
    once."""

    @pytest.mark.parametrize(
        "n_levels, sigma",
        [(n, s) for n in (2, 4, 6, 8, 16, 32, 64) for s in (1e-3, 0.37, 1.0, 2.0, 1e3)]
        + [(12, 0.37), (24, 2.0), (48, 1e3), (96, 1e-3), (128, 1.0)]
        # far from sigma = 1, out to the ends of SourceModel's range, where
        # folding sigma into the loop's constants overflowed or underflowed
        + [(n, s) for n in (2, 16, 32) for s in (1e-100, 1e100)]
        + [(n, s) for n in (2, 16, 32) for s in (1e-150, 1e-105, 1e150)],
    )
    def test_equals_whole_codebook_iteration(self, n_levels, sigma):
        unit = _replicated_unit_run(n_levels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lloyd_max(SourceModel(sigma), n_levels)
        levels = tuple(sigma * y for y in unit.levels)
        assert got.levels == levels
        assert got.thresholds == tuple(0.5 * (a + b) for a, b in zip(levels, levels[1:]))
        assert got.distortion == unit.distortion * sigma**2
        assert (got.sqnr_db, got.iterations) == (unit.sqnr_db, unit.iterations)

    def test_same_iteration_cap_failure(self, monkeypatch):
        monkeypatch.setattr(reference_oracles, "_LLOYD_MAX_TOLERANCE", 1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as got:
                lloyd_max(UNIT, 16, max_iterations=3)
            with pytest.raises(ConvergenceError) as want:
                reference_lloyd_max(UNIT, 16, tolerance=1e-15, max_iterations=3)
        assert str(got.value) == str(want.value)

    def test_n128_iteration_count(self):
        assert _unit_lloyd_max(128).iterations == 9_474

    def test_working_set(self):
        # the step's buffers made once per run (the rows of the last two
        # iterates and its work arrays) plus the temporaries of one 24-point
        # pass, a few (N/2, 24) arrays and the (N, 24) terms: the same at
        # N = 16 to 128 run to convergence as at N = 256 capped inside the
        # unscored run, where it peaks at about 140 KB (the whole-codebook
        # iteration peaks at about 309 KB there)
        lloyd_max(UNIT, 2)
        for n_levels, cap in ((16, 10_000), (32, 10_000), (64, 10_000), (128, 10_000), (256, 300)):
            tracemalloc.start()
            try:
                _outcome(lloyd_max, UNIT, n_levels, max_iterations=cap)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 256 * 1024, (n_levels, peak)


def _passes(start, stop, cap=10_000):
    """The iterates scored by a run whose unscored run ends at ``start`` and
    which stops at ``stop`` or fails at ``cap``: iterate 1, the one before
    ``start`` unless that is iterate 1, then every iterate from ``start`` to
    the last, none of them if the cap comes first."""
    last = min(stop, cap)
    if last < start:
        return [1]
    return [1] + [start - 1] * (start > 2) + list(range(start, last + 1))


@functools.lru_cache(maxsize=None)
def _run_figures(n_levels):
    """For iterates 2, 3, ... of the one-iterate-at-a-time iteration, up to
    twice its stop at the default tolerance: the relative change each scores,
    and the tolerance at and above which ``lloyd_max``'s unscored run ends
    there, by the rule in its docstring (the lower bound on the decrease less
    both iterates' noise, over d1)."""
    count = 2 * reference_lloyd_max(UNIT, n_levels).iterations
    iterates = list(itertools.islice(reference_lloyd_iterates(UNIT, n_levels), count))
    half, first = n_levels // 2, iterates[0][1]
    u = 2.0**-53

    def noise(levels):
        return 4.0 * u * (levels[-1] + 12.0) * math.sqrt(first) + 2.0 * (
            math.log2(48 * n_levels) + 8.0
        ) * u * first

    changes, ends = [], []
    for (old, before), (new, after) in zip(iterates, iterates[1:]):
        edges = np.concatenate(([0.0], 0.5 * (old[half:-1] + old[half + 1 :]), [old[-1] + 12.0]))
        mass = 0.5 * np.diff(erf(edges / math.sqrt(2.0)))
        bound = 2.0 * float(np.sum(mass * (old[half:] - new[half:]) ** 2))
        changes.append((before - after) / after)
        ends.append((bound - noise(old) - noise(new)) / first)
    return changes, ends


def _unscored_run_end(n_levels):
    """The iterate at which ``lloyd_max``'s unscored run ends at the default
    tolerance."""
    _, ends = _run_figures(n_levels)
    start = next(i for i, end in enumerate(ends, 2) if end <= 1e-12)
    # far enough from the rule's edge that the library's own rounding of the
    # bound cannot move it
    assert abs(ends[start - 2] - 1e-12) > 1e-6 * 1e-12
    return start


def _tolerance_ending_run_at(n_levels, offset):
    """A tolerance at which ``lloyd_max``'s unscored run ends at an iterate
    s and the one-iterate-at-a-time iteration stops at s + ``offset``, with s
    and s + ``offset``; s >= 3, so that iterates 2, ..., s - 1 go unscored,
    where any such s does, else s = 2."""
    changes, ends = _run_figures(n_levels)
    for start in [*range(3, len(ends) + 2 - offset), 2]:
        stop = start + offset
        # the run ends at start for tolerances in [its end, the earlier ends);
        # the iteration stops at stop for those in (its change, the earlier ones]
        lo = max(ends[start - 2], changes[stop - 2])
        hi = min(ends[: start - 2] + changes[: stop - 2], default=math.inf)
        if lo > 0.0 and lo * (1.0 + 1e-6) < hi:
            return (math.sqrt(lo * hi) if hi < math.inf else 2.0 * lo), start, stop
    raise AssertionError(f"no tolerance puts the stop {offset} iterates after the run's end")


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ConvergenceError as exc:
        return str(exc)


@pytest.fixture
def scored(monkeypatch):
    """One entry per distortion pass, the shape of its terms, recorded by
    wrapping the shared cell kernel: each pass calls it once, and a centroid
    step does not call it."""
    passes = []

    def counted(*args):
        terms = _cell_terms(*args)
        passes.append(terms.shape)
        return terms

    monkeypatch.setattr(reference_oracles, "_cell_terms", counted)
    return passes


class TestLloydMaxLoop:
    """The unscored run and the scored loop after it stop and fail at the
    iterate where scoring every iterate one at a time does: inside the run,
    at its end and after it.  Each case also counts the scored iterates."""

    @pytest.mark.parametrize("n_levels", [2, 16, 64])
    def test_same_cap_failure_around_the_run_end(self, n_levels, scored):
        start = _unscored_run_end(n_levels)
        stop = lloyd_max(UNIT, n_levels).iterations
        caps = {1, 2, 3} | {start + d for d in (-2, -1, 0, 1, 2)}
        for cap in sorted(caps - {-1, 0}):
            scored.clear()
            got = _outcome(lloyd_max, UNIT, n_levels, max_iterations=cap)
            want = _outcome(reference_lloyd_max, UNIT, n_levels, max_iterations=cap)
            assert got == want, cap
            assert isinstance(got, str) == (cap < stop), cap
            assert len(scored) == len(_passes(start, stop, cap)), cap
            assert set(scored) == {(n_levels // 2, 24)}, cap

    @pytest.mark.parametrize("offset", [2, 5, 30])
    @pytest.mark.parametrize("n_levels", [16, 64])
    def test_stops_after_the_run_end(self, n_levels, offset, monkeypatch, scored):
        tolerance, start, stop = _tolerance_ending_run_at(n_levels, offset)
        monkeypatch.setattr(reference_oracles, "_LLOYD_MAX_TOLERANCE", tolerance)
        got = lloyd_max(UNIT, n_levels)
        want = reference_lloyd_max(UNIT, n_levels, tolerance=tolerance)
        assert want.iterations == stop
        assert got == want
        assert len(scored) == len(_passes(start, stop))

    @pytest.mark.parametrize("offset", [0, 1], ids=["first", "next"])
    def test_stops_on_the_first_scored_iterate_and_the_next(self, offset, monkeypatch, scored):
        # N = 4 converges fast enough for the stop to land on the run's end
        tolerance, start, stop = _tolerance_ending_run_at(4, offset)
        assert start > 2
        monkeypatch.setattr(reference_oracles, "_LLOYD_MAX_TOLERANCE", tolerance)
        got = lloyd_max(UNIT, 4)
        want = reference_lloyd_max(UNIT, 4, tolerance=tolerance)
        assert want.iterations == stop
        assert got == want
        assert len(scored) == len(_passes(start, stop))

    @pytest.mark.parametrize("n_levels", [256, 512])
    def test_large_codebook_cap_inside_the_unscored_run(self, n_levels, scored):
        got = _outcome(lloyd_max, UNIT, n_levels, max_iterations=300)
        want = _outcome(reference_lloyd_max, UNIT, n_levels, max_iterations=300)
        assert got == want == "no convergence to 1e-12 within 300 iterations"
        # only iterate 1: the run never ends
        assert len(scored) == 1

    def test_increase_message_gives_the_sources_distortions(self, monkeypatch):
        # cell terms that double from the third distortion pass on make the
        # distortion rise; at sigma = 3 the text gives 9 times the unit figures
        def message(sigma):
            passes = []

            def rising(*args):
                passes.append(args)
                return _cell_terms(*args) * (2.0 if len(passes) > 2 else 1.0)

            monkeypatch.setattr(reference_oracles, "_cell_terms", rising)
            with pytest.raises(ArithmeticError) as got:
                lloyd_max(SourceModel(sigma), 16)
            return str(got.value)

        head, figures = message(1.0).split(": ")
        before, after = (float(v) for v in figures.split(" -> "))
        assert message(3.0) == f"{head}: {9.0 * before!r} -> {9.0 * after!r}"

    def test_increase_guard_fires_where_it_does_one_at_a_time(self):
        # the 24-point sum's rounding noise at N = 65,536 exceeds the 1e-12
        # increase guard; the text is reference_lloyd_max's, which takes
        # about 17 s here (the library, about 5 s)
        with pytest.raises(ArithmeticError) as got:
            lloyd_max(UNIT, 65_536, max_iterations=300)
        assert str(got.value) == (
            "distortion increased at iteration 273: 6.334413611806354e-10 -> 6.33441361206723e-10"
        )


class TestMcDistortion:
    def test_seed_reproducibility(self, designs):
        q = designs[(16, "opt")]
        a = mc_distortion(q, 200_000, 42)
        b = mc_distortion(q, 200_000, 42)
        assert a == b

    def test_seed_sensitivity(self, designs):
        q = designs[(16, "opt")]
        assert mc_distortion(q, 200_000, 1).mean_distortion != mc_distortion(
            q, 200_000, 2
        ).mean_distortion

    def test_sharding_invariant_under_total_count(self, designs):
        # the first shard's draws are identical whether or not more follow,
        # so a two-shard run must extend, not reshuffle, a one-shard run
        q = designs[(16, "opt")]
        one = mc_distortion(q, 1_000_000, 7)
        two = mc_distortion(q, 2_000_000, 7)
        shard2 = 2 * two.mean_distortion - one.mean_distortion
        third = mc_distortion(q, 1_000_000, 7)
        assert one == third
        assert abs(shard2 - one.mean_distortion) < 6 * math.hypot(one.std_error, two.std_error)

    def test_degenerate_single_cell(self):
        stub = SimpleNamespace(all_boundaries=(), all_levels=(0.0,), config=SimpleNamespace(source=UNIT))
        est = mc_distortion(stub, 400_000, 3)
        assert est.mean_distortion == pytest.approx(1.0, abs=3 * est.std_error)

    def test_matches_true_distortion(self, designs):
        q = designs[(16, "opt")]
        est = mc_distortion(q, 1_000_000, 42)
        z = (est.mean_distortion - true_distortion(q)) / est.std_error
        assert abs(z) < 4.0

    @pytest.mark.parametrize("sigma", [1e-150, 1e-105, 1e-80, 1e-3, 1e3, 1e77, 1e80, 1e150])
    def test_sigma_scaling(self, sigma):
        # unit draws against the design's cells over sigma: the estimate and
        # its standard error over sigma^2 are the unit source's
        def estimate(source):
            q = sq.evaluate_candidate(16, 2.1 * source.sigma, source)
            return mc_distortion(q, 100_000, 1)

        unit, scaled = estimate(UNIT), estimate(SourceModel(sigma))
        assert scaled.mean_distortion / sigma**2 == pytest.approx(unit.mean_distortion, rel=1e-12, abs=0.0)
        assert scaled.std_error / sigma**2 == pytest.approx(unit.std_error, rel=1e-12, abs=0.0)

    def test_rejects_empty_sample_budget(self, designs):
        with pytest.raises(ValueError):
            mc_distortion(designs[(16, "mid")], 0, 42)

    @pytest.mark.parametrize(
        "n_samples, seed, error",
        [
            (1.5e6, 42, TypeError),
            (1e6, 42, TypeError),
            (1_000_000, 42.0, TypeError),
            (np.float64(10.0), 42, TypeError),
            (-3, 42, ValueError),
            (10, -1, ValueError),
        ],
    )
    def test_rejects_bad_counts_before_any_draw(self, designs, monkeypatch, n_samples, seed, error):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew samples before checking the arguments")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(error):
            mc_distortion(designs[(16, "mid")], n_samples, seed)

    def test_accepts_integer_like_counts(self, designs):
        q = designs[(16, "mid")]
        est = mc_distortion(q, np.int64(1000), np.int32(5))
        assert type(est.n_samples) is int and type(est.seed) is int
        assert est == mc_distortion(q, 1000, 5)


def _uniform_stub(n_levels):
    """A uniform quantizer of ``n_levels`` cells on [-4, 4], built like the
    single-cell stub: only what ``mc_distortion`` reads."""
    step = 8.0 / n_levels
    boundaries = tuple(-4.0 + step * np.arange(1, n_levels))
    levels = tuple(-4.0 + step * (np.arange(n_levels) + 0.5))
    return SimpleNamespace(all_boundaries=boundaries, all_levels=levels, config=SimpleNamespace(source=UNIT))


class TestMcDistortionSortedShards:
    """Sorting each block of a shard and cutting it at the boundaries
    reproduces the draw-by-draw cell lookup; only the order of the sums
    differs."""

    @pytest.fixture(scope="class")
    def quantizers(self):
        # N <= 256 draws in blocks of _MC_BLOCK; N = 65,536 in whole shards
        designs = {n: sq.evaluate_candidate(n, 0.6 * sq.support_threshold(UNIT, n)) for n in (16, 64, 256)}
        return {**designs, 65_536: _uniform_stub(65_536)}

    @pytest.mark.parametrize(
        "n_samples",
        [
            1,
            999_999,
            1_000_001,
            2_500_000,
            _MC_BLOCK - 1,
            _MC_BLOCK,
            _MC_BLOCK + 1,
            # a partial last block inside the second shard
            _SHARD_SIZE + 2 * _MC_BLOCK + 17,
        ],
    )
    @pytest.mark.parametrize("n_levels", [16, 64, 256, 65_536])
    def test_matches_unsorted_assignment(self, quantizers, n_levels, n_samples):
        q = quantizers[n_levels]
        got = mc_distortion(q, n_samples, 42)
        want = unsorted_mc_distortion(q, n_samples, 42)
        assert got.mean_distortion == pytest.approx(want.mean_distortion, rel=1e-14, abs=0.0)
        assert got.std_error == pytest.approx(want.std_error, rel=1e-14, abs=0.0)
        assert (got.n_samples, got.seed) == (want.n_samples, want.seed)

    def test_ties_go_to_the_right_cell(self):
        # boundaries that are exact draws of shard (seed, 0): each such draw
        # must take the level to its right, as encode assigns it
        seed, n_samples = 11, 9
        draws = np.random.default_rng(np.random.SeedSequence((seed, 0))).standard_normal(n_samples)
        boundaries = tuple(np.sort(draws)[[2, 4, 6]])
        levels = (-100.0, -10.0, 10.0, 100.0)
        stub = SimpleNamespace(all_boundaries=boundaries, all_levels=levels, config=SimpleNamespace(source=UNIT))
        right = np.asarray(levels)[np.searchsorted(boundaries, draws, side="right")]
        left = np.asarray(levels)[np.searchsorted(boundaries, draws, side="left")]
        est = mc_distortion(stub, n_samples, seed)
        assert est.mean_distortion == pytest.approx(float(np.mean((draws - right) ** 2)), rel=1e-14, abs=0.0)
        assert est.mean_distortion != pytest.approx(float(np.mean((draws - left) ** 2)), rel=1e-3)

    def test_working_set(self, quantizers):
        # one block of _MC_BLOCK draws (512 KB), sorted and squared in place,
        # plus its repeated levels (512 KB): about 1.06 MB, the same for one
        # shard or two (a whole sorted shard and its levels took 16 MB)
        q = quantizers[256]
        mc_distortion(q, 10, 0)
        for n_samples in (_SHARD_SIZE, 2 * _SHARD_SIZE):
            tracemalloc.start()
            try:
                mc_distortion(q, n_samples, 42)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1_500_000, (n_samples, peak)


class TestTrueDistortion:
    def test_against_model_report(self, designs):
        # the companding model is an approximation; the honest figure moves a
        # few percent away but stays the same order
        for q in designs.values():
            assert true_distortion(q) == pytest.approx(q.report.total, rel=0.15)

    def test_regression(self, designs):
        assert true_distortion(designs[(16, "mid")]) == pytest.approx(
            0.0095940704, rel=1e-6
        )

    @pytest.mark.parametrize("n_levels", [6, 8, 16, 32, 64, 128, 256])
    @pytest.mark.parametrize("share", [0.6, 0.75])
    def test_matches_mpmath_over_realized_cells(self, n_levels, share):
        pytest.importorskip("mpmath")
        self._check_against_mpmath(
            sq.evaluate_candidate(n_levels, share * sq.support_threshold(UNIT, n_levels))
        )

    def test_matches_mpmath_over_realized_cells_at_512(self):
        # both shares fail to build at N = 512, so take the sweep's valid
        # candidates (x1 near 3.315 and 3.345): the narrowest cells checked,
        # where a closed-form cell moment would cancel most
        pytest.importorskip("mpmath")
        x1s = [c.x1 for c in sq.sweep(512).candidates if c.valid]
        assert len(x1s) == 2, x1s
        for x1 in x1s:
            self._check_against_mpmath(sq.evaluate_candidate(512, x1))

    @pytest.mark.parametrize("n_levels, x_max", [(4, 12.0), (4, 30.0), (6, 30.0)])
    def test_matches_mpmath_with_a_wide_edge(self, n_levels, x_max):
        # a user-chosen edge far out, on the identity compressor: the cell
        # [0, 30] is 30 sigma wide, where the uncut 24-point rule lost 1e-6
        pytest.importorskip("mpmath")
        config = sq.DesignConfig(n_levels, sq.KnotVector((0.0, x_max)), UNIT)
        identity = sq.QuadraticSpline(np.array([[0.0], [1.0], [0.0], [0.0], [x_max]]))
        self._check_against_mpmath(sq.build(identity, config))

    def test_one_cell_rule_call_over_every_positive_cell(self, designs, monkeypatch):
        # the N/2 positive cells, the overload cell [x_max, inf) last, in one
        # call of the cell rule, doubled for the negative half
        calls = []

        def counted(source, a, b, y):
            calls.append((np.shape(a), b[-1], y[-1]))
            return cell_second_moment(source, a, b, y)

        monkeypatch.setattr(reference_oracles, "cell_second_moment", counted)
        for q in designs.values():
            calls.clear()
            got = true_distortion(q)
            n = q.config.n_levels
            assert calls == [((n // 2,), math.inf, q.overload_level)]
            bounds = np.array((0.0,) + q.thresholds + (math.inf,))
            levels = np.array(q.levels + (q.overload_level,))
            assert got == 2.0 * float(np.sum(cell_second_moment(UNIT, bounds[:-1], bounds[1:], levels)))

    @staticmethod
    def _check_against_mpmath(q):
        bounds = (0.0,) + q.thresholds + (math.inf,)
        want = 2.0 * mp_cell_distortion(bounds, q.levels + (q.overload_level,))
        # the 24-point rule on every cell, the tail too: at most 6.0e-15 off
        # at N = 6 ... 512
        assert true_distortion(q) == pytest.approx(want, rel=1e-13, abs=0.0)


class TestInvertCompressor:
    def test_closed_form_matches_mpmath(self):
        # level targets (k - 1/2) * delta: the whole grid for N = 4, 8, ..., 1024,
        # and for every even N up to 4096 the first target, nearest 0, where
        # the quantile form alone is least accurate
        pytest.importorskip("mpmath")
        cases = [(n, k) for n in (2**e for e in range(2, 11)) for k in range(1, n // 2)]
        cases += [(n, 1) for n in range(4, 4097, 2)]
        worst = 0.0
        for n, k in cases:
            x_max = sq.support_threshold(UNIT, n)
            v = (k - 0.5) * 2.0 * x_max / (n - 2)
            ref = mp_invert_compressor(x_max, v)
            worst = max(worst, abs(_invert_compressor(x_max, v) / ref - 1.0))
        assert worst <= 2e-13, worst


class TestExactCompressorModel:
    def test_n16_regression(self):
        report = exact_compressor_sqnr(UNIT, 16)
        assert report.sqnr_db == pytest.approx(19.6271, abs=2e-3)

    def test_n32_regression(self):
        report = exact_compressor_sqnr(UNIT, 32)
        assert report.sqnr_db == pytest.approx(25.7916, abs=2e-3)

    def test_panter_dite_ratio_of_the_granular_term_rises_towards_one(self):
        # N^2 granular / (sqrt(3) pi / 2): 0.7934 at N = 16 up to 0.99994 at
        # N = 65,536, the Panter-Dite (1951) limit of the optimal compressor
        levels = [16, 64, 256, 1024, 4096, 16_384, 65_536]
        ratios = [
            n * n * exact_compressor_sqnr(UNIT, n).granular / (math.sqrt(3.0) * math.pi / 2.0)
            for n in levels
        ]
        assert all(a < b for a, b in zip(ratios, ratios[1:])) and ratios[-1] < 1.0, ratios

    def test_identity_compressor_reduces_to_uniform(self):
        # with the identity map (levels at the grid's level targets, unit
        # slopes) the shared model kernel must give the uniform midpoint
        # quantizer's model numbers
        n = 16
        x_max = 2.0
        cfg = sq.DesignConfig(n, sq.KnotVector((0.0, x_max)), UNIT)
        targets = _half_step_grid(cfg)[::2]
        (report,) = _model_reports([float(_granular(targets, np.ones_like(targets), cfg))], cfg)
        step = 2.0 * x_max / (n - 2)
        levels = [(k - 0.5) * step for k in range(1, (n - 2) // 2 + 1)]
        expected = (step**2 / 12.0) * sum(2.0 * sq.pdf(UNIT, y) * step for y in levels)
        assert report.granular == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n_levels", [4, 6, 8, 10, 16, 32, 64, 100, 128, 256, 512, 1000, 1024])
    def test_matches_mpmath(self, n_levels):
        # the exact overload term is the tail's cell moment by the 24-point
        # rule, a sum of positive terms that does not cancel
        pytest.importorskip("mpmath")
        granular, overload_exact, sqnr_db = mp_exact_compressor_report(n_levels)
        report = exact_compressor_sqnr(UNIT, n_levels)
        assert report.granular == pytest.approx(granular, rel=1e-12, abs=0.0)
        assert report.sqnr_db == pytest.approx(sqnr_db, rel=1e-12, abs=0.0)
        assert report.overload_exact == pytest.approx(overload_exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n_levels", [4096, 65_536])
    def test_overload_exact_matches_mpmath_at_far_edges(self, n_levels):
        # the support edges at 6.4 and 7.5 sigma, past the codebooks that
        # mp_exact_compressor_report can afford
        pytest.importorskip("mpmath")
        x_max = sq.support_threshold(UNIT, n_levels)
        got = exact_compressor_sqnr(UNIT, n_levels).overload_exact
        assert got == pytest.approx(2.0 * mp_tail_second_moment(x_max), rel=1e-13, abs=0.0)

    def test_model_value_sits_below_fitted_designs(self, sweep16, sweep32):
        # the fitted curves beat the ideal compressor under the companding
        # model metric (the model rewards the fit's local slope wiggles), so
        # this comparator is a reference point, not an upper bound
        assert exact_compressor_sqnr(UNIT, 16).sqnr_db < sweep16.best_sqnr_db
        assert exact_compressor_sqnr(UNIT, 32).sqnr_db < sweep32.best_sqnr_db

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            exact_compressor_sqnr(UNIT, 2)

    @pytest.mark.parametrize("n_levels", [5, 7, 17])
    def test_rejects_odd_n(self, n_levels):
        # an odd N has a zero level that the per-side level sum would drop
        with pytest.raises(ValueError, match="even"):
            exact_compressor_sqnr(UNIT, n_levels)
