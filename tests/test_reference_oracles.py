import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import splinequant as sq
from splinequant import SourceModel, exact_compressor_sqnr, lloyd_max, mc_distortion, true_distortion
from splinequant.reference_oracles import ConvergenceError, _companding_model_report, _invert_compressor

from _oracles import mp_cell_distortion, mp_invert_compressor, reference_lloyd_max

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
            assert lloyd16.distortion <= true_distortion(designs[(n, tag)].quantizer)

    def test_beats_spline_model_sqnr(self, lloyd16, lloyd32, designs, sweep16, sweep32):
        assert lloyd16.sqnr_db >= sweep16.best_sqnr_db
        assert lloyd32.sqnr_db >= sweep32.best_sqnr_db

    def test_sigma_scaling(self):
        narrow = lloyd_max(UNIT, 8)
        wide = lloyd_max(SourceModel(2.0), 8)
        assert wide.sqnr_db == pytest.approx(narrow.sqnr_db, abs=1e-9)
        assert wide.levels == pytest.approx(tuple(2.0 * y for y in narrow.levels), rel=1e-8)

    def test_iteration_cap(self):
        with pytest.raises(ConvergenceError):
            lloyd_max(UNIT, 16, tolerance=1e-15, max_iterations=3)

    def test_rejects_tiny_codebook(self):
        with pytest.raises(ValueError):
            lloyd_max(UNIT, 1)

    @pytest.mark.parametrize("n_levels", [3, 5, 17])
    def test_rejects_odd_codebook(self, n_levels):
        with pytest.raises(ValueError, match="even"):
            lloyd_max(UNIT, n_levels)

    @pytest.mark.parametrize("tolerance", [math.nan, 0.0, -1e-12])
    def test_rejects_bad_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            lloyd_max(UNIT, 16, tolerance=tolerance)

    @pytest.mark.parametrize("max_iterations", [0, -5])
    def test_rejects_bad_iteration_cap(self, max_iterations):
        with pytest.raises(ValueError, match="max_iterations"):
            lloyd_max(UNIT, 16, max_iterations=max_iterations)


class TestLloydMaxHalfCodebook:
    """The positive-half iteration reproduces the whole-codebook iteration bit
    for bit: levels, thresholds, distortion and iteration count."""

    @pytest.mark.parametrize("sigma", [1e-3, 0.37, 2.0, 1e3])
    @pytest.mark.parametrize("n_levels", [2, 4, 6, 8, 16, 32, 64])
    def test_equals_whole_codebook_iteration(self, n_levels, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lloyd_max(SourceModel(sigma), n_levels)
            want = reference_lloyd_max(SourceModel(sigma), n_levels)
        assert got == want

    def test_same_iteration_cap_failure(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as got:
                lloyd_max(UNIT, 16, tolerance=1e-15, max_iterations=3)
            with pytest.raises(ConvergenceError) as want:
                reference_lloyd_max(UNIT, 16, tolerance=1e-15, max_iterations=3)
        assert str(got.value) == str(want.value)

    def test_n128_iteration_count(self):
        assert lloyd_max(UNIT, 128).iterations == 9_474

    def test_working_set(self):
        # plain per-iteration arrays of N/2 cells: no N-cell or preallocated
        # buffers (the whole-codebook iteration peaks at about 309 KB here)
        lloyd_max(UNIT, 2)
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError):
                lloyd_max(UNIT, 256, max_iterations=300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 1024, peak


class TestMcDistortion:
    def test_seed_reproducibility(self, designs):
        q = designs[(16, "opt")].quantizer
        a = mc_distortion(q, 200_000, 42)
        b = mc_distortion(q, 200_000, 42)
        assert a == b

    def test_seed_sensitivity(self, designs):
        q = designs[(16, "opt")].quantizer
        assert mc_distortion(q, 200_000, 1).mean_distortion != mc_distortion(
            q, 200_000, 2
        ).mean_distortion

    def test_sharding_invariant_under_total_count(self, designs):
        # the first shard's draws are identical whether or not more follow,
        # so a two-shard run must extend, not reshuffle, a one-shard run
        q = designs[(16, "opt")].quantizer
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
        q = designs[(16, "opt")].quantizer
        est = mc_distortion(q, 1_000_000, 42)
        z = (est.mean_distortion - true_distortion(q)) / est.std_error
        assert abs(z) < 4.0

    def test_rejects_empty_sample_budget(self, designs):
        with pytest.raises(ValueError):
            mc_distortion(designs[(16, "mid")].quantizer, 0, 42)


class TestTrueDistortion:
    def test_against_model_report(self, designs):
        # the companding model is an approximation; the honest figure moves a
        # few percent away but stays the same order
        for key, d in designs.items():
            honest = true_distortion(d.quantizer)
            assert honest == pytest.approx(d.report.total, rel=0.15)

    def test_regression(self, designs):
        assert true_distortion(designs[(16, "mid")].quantizer) == pytest.approx(
            0.0095940704, rel=1e-6
        )

    @pytest.mark.parametrize("n_levels", [16, 32, 64, 128, 256])
    @pytest.mark.parametrize("share", [0.6, 0.75])
    def test_matches_mpmath_over_realized_cells(self, n_levels, share):
        pytest.importorskip("mpmath")
        q = sq.evaluate_candidate(n_levels, share * sq.support_threshold(UNIT, n_levels)).quantizer
        bounds = (0.0,) + q.thresholds + (math.inf,)
        want = 2.0 * mp_cell_distortion(bounds, q.levels + (q.overload_level,))
        assert true_distortion(q) == pytest.approx(want, rel=1e-10, abs=0.0)


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
            worst = max(worst, abs(_invert_compressor(UNIT, x_max, v) / ref - 1.0))
        assert worst <= 2e-13, worst


class TestExactCompressorModel:
    def test_n16_regression(self):
        report = exact_compressor_sqnr(UNIT, 16)
        assert report.sqnr_db == pytest.approx(19.6271, abs=2e-3)

    def test_n32_regression(self):
        report = exact_compressor_sqnr(UNIT, 32)
        assert report.sqnr_db == pytest.approx(25.7916, abs=2e-3)

    def test_identity_compressor_reduces_to_uniform(self):
        # with the identity map the companding model must equal the uniform
        # midpoint quantizer's model numbers
        n = 16
        x_max = 2.0
        report = _companding_model_report(
            UNIT, n, x_max, inverse=lambda v: v, slope=lambda y: 1.0
        )
        step = 2.0 * x_max / (n - 2)
        levels = [(k - 0.5) * step for k in range(1, (n - 2) // 2 + 1)]
        expected = (step**2 / 12.0) * sum(2.0 * sq.pdf(UNIT, y) * step for y in levels)
        assert report.granular == pytest.approx(expected, rel=1e-12)

    def test_model_value_sits_below_fitted_designs(self, sweep16, sweep32):
        # the fitted curves beat the ideal compressor under the companding
        # model metric (the model rewards the fit's local slope wiggles), so
        # this comparator is a reference point, not an upper bound
        assert exact_compressor_sqnr(UNIT, 16).sqnr_db < sweep16.best_sqnr_db
        assert exact_compressor_sqnr(UNIT, 32).sqnr_db < sweep32.best_sqnr_db

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            exact_compressor_sqnr(UNIT, 2)
