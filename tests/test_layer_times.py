"""Smoke test of ``tools/layer_times.py`` with one timed call per layer."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import splinequant as sq
from splinequant import reference_oracles

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "layer_times.py"
_SPEC = importlib.util.spec_from_file_location("layer_times", _TOOL)
layer_times = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layer_times)


def test_prints_every_layer_with_median_and_iqr(capsys):
    assert layer_times.main(["--repeat", "2", "--levels", "16", "1024"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    table = json.loads(lines[-1])
    got = [(row["layer"], row["size"]) for row in table["layers"]]
    assert got == [
        ("erf", 65), ("erf", 40_000),
        ("target_moments", 16), ("sweep", 16), ("evaluate_candidate", 16), ("build", 16),
        ("refine", 16), ("exact_compressor_sqnr", 16), ("encode", 16), ("decode", 16),
        ("lloyd_max", 16), ("mc_draws", 16), ("mc_distortion", 16), ("true_distortion", 16),
        # no candidate builds at N = 1024, nor the quantizer at 0.6 x_max, and
        # Lloyd-Max is timed up to N = 256: only the sweep and the comparator;
        # with no sweep-best quantizer there is nothing to encode or decode
        ("sweep", 1024), ("exact_compressor_sqnr", 1024),
    ]
    units = {
        "erf": "us/element", "encode": "us/sample", "decode": "us/sample",
        "mc_draws": "ms/1e6 samples", "mc_distortion": "ms/1e6 samples",
    }
    for row in table["layers"]:
        assert row["median"] > 0.0 and row["iqr"] >= 0.0
        assert row["unit"] == units.get(row["layer"], "ms")
    # the Lloyd-Max row also gives the run's iteration count and the median
    # run time per iteration, in the table too
    counted = [(row["layer"], row["size"], row["iterations"]) for row in table["layers"] if "iterations" in row]
    assert counted == [("lloyd_max", 16, 273)]
    (row,) = [row for row in table["layers"] if "iterations" in row]
    assert row["us_per_iteration"] == row["median"] * 1e3 / 273
    printed = f", 273 iterations, {row['us_per_iteration']:.3g} us/iteration"
    assert [line.split()[0] for line in lines if line.endswith(printed)] == ["lloyd_max"]
    # the refine row gives its _score_knots calls and the knot rows they score
    counted = [(row["layer"], row["size"], row["passes"], row["points"]) for row in table["layers"] if "passes" in row]
    assert counted == [("refine", 16, 4, 29)]
    assert [line.split()[0] for line in lines if line.endswith(", 4 passes, 29 points")] == ["refine"]
    # a header plus one line per layer before the JSON
    assert len(lines) == len(got) + 2


def test_lloyd_max_row_counts_the_cap_when_the_run_fails(monkeypatch, capsys):
    # a run that reaches its cap is counted at the cap, lloyd_max's default
    def never_converges(source, n_levels, max_iterations=123):
        raise reference_oracles.ConvergenceError("no convergence")

    monkeypatch.setattr(reference_oracles, "lloyd_max", never_converges)
    assert layer_times.main(["--repeat", "1", "--levels", "16"]) == 0
    table = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    (row,) = [row for row in table["layers"] if row["layer"] == "lloyd_max"]
    assert row["iterations"] == 123
    assert row["us_per_iteration"] == row["median"] * 1e3 / 123


def test_spread_of_one_call_has_no_iqr():
    cost = layer_times.spread(lambda: None, 1)
    assert cost["iqr"] == 0.0 and cost["median"] >= 0.0


def test_seeded_draws_are_the_draws_mc_distortion_scores(monkeypatch):
    # the same generators, seeds and block views, in the same order, as the
    # worker of mc_distortion draws; a quantizer of N = 16 levels takes blocks
    # of _MC_BLOCK draws, so 10^6 + 5 draws span two shards and a short block
    real = np.random.default_rng

    def record(calls):
        def default_rng(seed):
            calls.append(("rng", tuple(seed.entropy)))
            draw = real(seed).standard_normal
            return SimpleNamespace(standard_normal=lambda out: calls.append(("draw", out.size)) or draw(out=out))

        monkeypatch.setattr(np.random, "default_rng", default_rng)

    n_samples = reference_oracles._SHARD_SIZE + 5
    q = sq.evaluate_candidate(16, 0.6 * sq.support_threshold(sq.SourceModel(), 16))
    library, tool = [], []
    record(library)
    reference_oracles.mc_distortion(q, n_samples, 42)
    record(tool)
    layer_times.seeded_draws(n_samples, 42, len(q.all_levels))
    assert tool == library
    assert tool[:2] == [("rng", (42, 0)), ("draw", reference_oracles._MC_BLOCK)]
    assert tool[-2:] == [("rng", (42, 1)), ("draw", 5)]
