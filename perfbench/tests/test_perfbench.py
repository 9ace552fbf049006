"""Tests of the benchmark itself: tracer patching, self time, the checker,
seed determinism and the host speed scaling.  Run with ``python3 -m pytest perfbench/tests``."""

import copy
import json
from pathlib import Path

import pytest

import splinequant as sq
from checker import check
from speed import REFERENCE_S, TASKS, SpeedTrack, task_for
from tracer import Tracer, bindings, self_times, traced_functions
from workloads import Op, Outcome, prepare

BENCH = Path(__file__).resolve().parents[1]

REFS = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))["ops"]


def test_every_binding_is_patched_then_restored():
    originals = traced_functions()
    before = bindings(originals.values())
    holders = {(mod.__name__, attr) for mod, attr, _ in before}
    # the CLI and the optimizer import their own names; all must be found
    assert {("splinequant.cli", "sweep"), ("splinequant.threshold_optimizer", "sweep"),
            ("splinequant", "sweep")} <= holders
    tracer = Tracer()
    with tracer.installed() as patched:
        assert len(patched) == len(before)
        for mod, attr, fn in patched:
            current = getattr(mod, attr)
            assert current is not fn and current.__wrapped__ is fn
    for mod, attr, fn in before:
        assert getattr(mod, attr) is fn
    assert bindings(originals.values()) == before


def test_bindings_restored_when_the_traced_code_raises():
    tracer = Tracer()
    with pytest.raises(sq.SweepError):
        with tracer.installed():
            sq.cli.sweep(1024, 1.0)
    assert sq.cli.sweep is traced_functions()["threshold_optimizer.sweep"]
    assert tracer.stack == []


def test_self_time_on_nested_synthetic_spans():
    # 0: root [0, 10]; 1: [1, 4] with grandchild 2: [2, 3];
    # 3: [5, 9] and 4: [8, 11], which overlaps 3 and runs past the root
    start = [0.0, 1.0, 2.0, 5.0, 8.0]
    end = [10.0, 4.0, 3.0, 9.0, 11.0]
    parent = [-1, 0, 1, 0, 0]
    assert self_times(start, end, parent) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])


def test_traced_sweep_counts_candidates_and_integrand_evaluations():
    tracer = Tracer()
    with tracer.installed():
        result = sq.sweep(16, 0.05)
    layers = tracer.layer_metrics(passes=1)
    valid = sum(c.valid for c in result.candidates)
    assert layers["threshold_optimizer.sweep.candidates"] == len(result.candidates)
    assert layers["threshold_optimizer.sweep.valid_ratio"] == valid / len(result.candidates)
    assert layers["spline_fit.fit.calls"] == len(result.candidates)
    assert layers["gauss_analytics.integrate.evals"] > 10 * layers["gauss_analytics.integrate.calls"] > 0
    assert 0.0 < layers["gauss_analytics.integrate.self_s"] < layers["threshold_optimizer.sweep.s"]


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in spec["per_layer"]}
    measured = set(Tracer().layer_metrics(passes=1)) | {"cli.bytes_out", "trace.overhead_ratio"}
    assert measured == declared


def _design_outcome(results):
    doc = {"manifest": {"command": "design"}, "results": results}
    return Outcome(exit_code=0, stdout=json.dumps(doc))


def test_checker_accepts_the_reference_and_rejects_one_perturbed_level():
    op = Op("design/16", "cli", ("design", "--levels", "16", "--x1", "auto"), 16)
    results = copy.deepcopy(REFS["design/16"]["results"])
    results["new_field"] = 1.0  # additive fields are allowed
    assert check(op, _design_outcome(results), REFS, None).correct
    results["levels"][3] *= 1.0001
    verdict = check(op, _design_outcome(results), REFS, None)
    assert not verdict.correct and "levels[3]" in verdict.reason


def test_checker_rejects_one_perturbed_decoded_sample():
    work = prepare("encode-stream", seed=3)
    op = work.ops[0]
    q = work.quantizers[op.n_levels]
    codes = [sq.encode(q, x) for x in work.blocks[op.block]]
    values = [sq.decode(q, c) for c in codes]
    assert check(op, Outcome(value=(codes, values)), REFS, work).correct
    values[17] += 1e-3
    assert not check(op, Outcome(value=(codes, values)), REFS, work).correct


def test_known_failure_passes_the_check_but_counts_as_not_completed():
    op = Op("lloyd-max/256", "cli", ("lloyd-max", "--levels", "256"), 256)
    same = check(op, Outcome(exit_code=3, stderr="error: no convergence"), REFS, None)
    assert same.correct and not same.completed
    usage = check(op, Outcome(exit_code=2), REFS, None)
    assert not usage.correct
    fixed = {"levels": [-1.0, 0.0, 1.0], "thresholds": [-0.5, 0.5]}
    doc = json.dumps({"manifest": {"command": "lloyd-max"}, "results": fixed})
    recovered = check(op, Outcome(exit_code=0, stdout=doc), REFS, None)
    assert recovered.correct and recovered.completed


def test_same_seed_gives_same_ops_and_inputs():
    for name in ("design-sweep", "oracle-validate", "encode-stream"):
        a, b = prepare(name, seed=11), prepare(name, seed=11)
        assert a.ops == b.ops and a.blocks == b.blocks
        assert [op.key for op in a.ops] != [op.key for op in prepare(name, seed=12).ops]
    a, c = prepare("encode-stream", seed=11), prepare("encode-stream", seed=12)
    assert a.blocks != c.blocks


def test_every_op_has_a_reference():
    for name in ("design-sweep", "oracle-validate", "encode-stream"):
        assert all(op.key in REFS for op in prepare(name, seed=0).ops)


def test_op_times_are_scaled_by_the_median_probe_around_them():
    track = SpeedTrack(["quadrature", "lloyd"])
    track.at = [float(t) for t in range(20)]
    track.took = {"quadrature": [0.018] * 10 + [0.009] * 10, "lloyd": [0.012] * 20}
    # near t=2 only slow probes are within the window, near t=17 only fast ones
    assert track.scale(2.0, "sweep/64") == pytest.approx(REFERENCE_S["quadrature"] / 0.018)
    assert track.scale(17.0, "refine/64") == pytest.approx(REFERENCE_S["quadrature"] / 0.009)
    assert track.scale(2.0, "lloyd-max/64") == pytest.approx(REFERENCE_S["lloyd"] / 0.012)
    # past the last probe the nearest PROBE_NEIGHBOURS still count
    assert track.local(100.0, "quadrature") == 0.009


def test_every_op_has_a_probe():
    for name in ("design-sweep", "oracle-validate", "encode-stream"):
        assert all(task_for(op.key) in TASKS for op in prepare(name, seed=0).ops)
    assert {task_for(k) for k in ("validate/16", "lloyd-max/16", "encode/16", "table1")} == set(TASKS)
