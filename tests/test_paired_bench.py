"""The verdict rule of tools/paired_bench.py, one case per label, the JSON
table its last line prints and the per-op latency medians it reads from each
run's result record."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"
_SPEC = importlib.util.spec_from_file_location("paired_bench", _PATH)
paired_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired_bench)
verdict = paired_bench.verdict

TIGHT = [100.0, 100.5, 101.0, 99.5, 99.0, 100.2, 99.8, 100.1, 99.9, 100.0]  # quartile distance ~0.5%
WIDE = [60.0, 70.0, 80.0, 90.0, 100.0, 100.0, 110.0, 120.0, 130.0, 140.0]  # ~33% of the median


def shifted(values, factor):
    return [v * factor for v in values]


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_wider_than_the_quartiles():
    assert verdict(TIGHT, shifted(TIGHT, 0.5), "lower", 0.25) == ("gain", 10)
    # same medians apart, but only 8 of 10 pairs won
    change = shifted(TIGHT, 0.5)
    change[0], change[1] = 200.0, 200.0
    assert verdict(TIGHT, change, "lower", 0.25)[0] != "gain"


def test_gain_for_a_higher_is_better_metric():
    assert verdict(TIGHT, shifted(TIGHT, 1.5), "higher", 0.25) == ("gain", 10)
    assert verdict(TIGHT, shifted(TIGHT, 0.5), "higher", 0.25) == ("worse", 0)


def test_worse_when_the_median_moves_past_the_bound():
    assert verdict(TIGHT, shifted(TIGHT, 1.3), "lower", 0.25) == ("worse", 0)


def test_within_when_the_median_moves_less_than_the_bound():
    assert verdict(TIGHT, shifted(TIGHT, 1.1), "lower", 0.25) == ("within", 0)
    assert verdict(TIGHT, TIGHT, "lower", 0.25) == ("within", 0)


@pytest.mark.parametrize("factor", [0.95, 1.1, 1.5])
def test_unresolved_when_the_base_spreads_wider_than_the_bound(factor):
    # better, slightly worse and far worse medians all stay unresolved
    assert verdict(WIDE, shifted(WIDE, factor), "lower", 0.25)[0] == "unresolved"


def test_wide_spread_resolves_when_every_change_run_beats_every_base_run():
    # every change run is under the base's fastest, yet the median gap does
    # not exceed the base's quartile distance, so it is no gain
    base = [96.0, 97.0, 98.0, 99.0, 100.0, 100.0, 130.0, 140.0, 150.0, 160.0]
    assert verdict(base, [95.0] * 10, "lower", 0.25) == ("within", 10)
    assert verdict(base, [95.0] * 9 + [97.0], "lower", 0.25)[0] == "unresolved"


def test_last_line_is_the_table_as_json(monkeypatch, capsys):
    # every base run reads 100 and every change run 50, so each metric has a
    # known verdict; no benchmark runs and no commit is exported
    spec = paired_bench.json.loads((paired_bench.ROOT / "BENCHMARK.json").read_text())
    env = {"python": "3.x", "nproc": 2}
    seeds = []

    def fake_run(tree, workload, seed, seconds):
        seeds.append(seed)
        value = 100.0 if tree != paired_bench.ROOT else 50.0
        metrics = {m["name"]: {"value": value} for m in spec["end_to_end"]}
        return {"correct": True, "failed": 0, "metrics": metrics, "env": env}

    monkeypatch.setattr(paired_bench, "run_once", fake_run)
    monkeypatch.setattr(paired_bench, "export", lambda commit, into: None)
    answers = {"status": "", "--verify": "b" * 40, "HEAD": "c" * 40}  # a clean tree
    fake_git = lambda *args: answers[args[1] if args[0] == "rev-parse" else args[0]]
    monkeypatch.setattr(paired_bench, "git", fake_git)
    assert paired_bench.main(["--base", "HEAD~1", "--pairs", "10", "--seed", "7",
                              "--workload", "design-sweep"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    doc = paired_bench.json.loads(out[-1])
    assert doc["seeds"] == list(range(7, 17)) and sorted(set(seeds)) == doc["seeds"]
    assert doc["host"] == env and doc["pairs"] == 10
    assert doc["base"] == {"ref": "HEAD~1", "commit": "b" * 40}
    assert doc["change"] == {"commit": "c" * 40, "uncommitted_changes": False}
    row = doc["workloads"]["design-sweep"]
    assert row["every_run_correct"] is True
    assert set(row["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    wall = row["metrics"]["wall_s"]
    assert wall["base"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
    assert wall["change"]["median"] == 50.0 and wall["ratio"] == 0.5
    assert (wall["wins"], wall["pairs"], wall["verdict"]) == (10, 10, "gain")
    assert row["metrics"]["ok_ratio"]["verdict"] == "worse"  # higher is better
    # the human-readable table comes first and says the same
    assert any(line.startswith("  wall_s: 100 [100, 100] | 50 [50, 50] | 0.500 | 10/10 | gain")
               for line in out)


def test_per_op_medians_of_typical_latency(monkeypatch, capsys):
    # base runs time validate/16 at 70 + i ms and lloyd-max/16 at 5 ms; the
    # change halves validate/16 only, so only that op's ratio moves
    spec = paired_bench.json.loads((paired_bench.ROOT / "BENCHMARK.json").read_text())

    def fake_run(tree, workload, seed, seconds):
        change = tree == paired_bench.ROOT
        ops = {"validate/16": (70.0 + seed) * (0.5 if change else 1.0), "lloyd-max/16": 5.0}
        metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
        return {"correct": True, "failed": 0, "metrics": metrics, "env": {}, "typical_op_ms": ops}

    monkeypatch.setattr(paired_bench, "run_once", fake_run)
    monkeypatch.setattr(paired_bench, "export", lambda commit, into: None)
    monkeypatch.setattr(paired_bench, "git", lambda *args: "")
    assert paired_bench.main(["--pairs", "10", "--seed", "0", "--workload", "oracle-validate"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    ops = paired_bench.json.loads(out[-1])["workloads"]["oracle-validate"]["typical_op_ms"]
    assert ops == {"validate/16": {"base": 74.5, "change": 37.25, "ratio": 0.5},
                   "lloyd-max/16": {"base": 5.0, "change": 5.0, "ratio": 1.0}}
    # the printed table keeps the workload's op order
    rows = out.index("  typical op ms, median: base | change | change/base")
    assert out[rows + 1:rows + 3] == ["    validate/16: 74.5 | 37.25 | 0.500",
                                      "    lloyd-max/16: 5 | 5 | 1.000"]


def test_run_once_reads_the_ops_from_the_result_record(tmp_path, monkeypatch):
    # the run's last stdout line and its result record, as perfbench/run.py
    # writes them; no benchmark runs
    out_dir = tmp_path / ".perfbench_out"
    out_dir.mkdir()
    record = {"typical_op_ms": [["validate/16", 43.0], ["oracles/16", 1.5]]}
    (out_dir / "result-oracle-validate-seed3-trace0.json").write_text(paired_bench.json.dumps(record))
    stdout = 'env {"nproc": 2}\n{"correct": true, "failed": 0, "metrics": {}}\n'
    fake = lambda *args, **kwargs: paired_bench.subprocess.CompletedProcess(args, 0, stdout, "")
    monkeypatch.setattr(paired_bench.subprocess, "run", fake)
    result = paired_bench.run_once(tmp_path, "oracle-validate", 3, 25.0)
    assert result["typical_op_ms"] == {"validate/16": 43.0, "oracles/16": 1.5}
    assert result["env"] == {"nproc": 2} and result["correct"] is True


def test_tier1_runs_alternate_and_summarize_per_side(monkeypatch, capsys):
    # a stub suite prints a pytest summary line; each side runs it three
    # times, the first side of each round alternating, and the JSON gives
    # both sides' wall-time quartiles and per-run counts
    spec = paired_bench.json.loads((paired_bench.ROOT / "BENCHMARK.json").read_text())
    trees = []

    def fake_run(tree, workload, seed, seconds):
        metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
        return {"correct": True, "failed": 0, "metrics": metrics, "env": {}, "typical_op_ms": {}}

    real_tier1 = paired_bench.run_tier1
    stub = "print('2 failed, 7 passed, 1 error in 0.01s')"
    monkeypatch.setattr(paired_bench, "TIER1_COMMAND", [paired_bench.sys.executable, "-c", stub])
    monkeypatch.setattr(paired_bench, "run_tier1", lambda tree: trees.append(tree) or real_tier1(tree))
    monkeypatch.setattr(paired_bench, "run_once", fake_run)
    monkeypatch.setattr(paired_bench, "export", lambda commit, into: None)
    monkeypatch.setattr(paired_bench, "git", lambda *args: "")
    assert paired_bench.main(["--pairs", "10", "--workload", "encode-stream", "--tier1", "3"]) == 0
    change = paired_bench.ROOT
    assert [tree == change for tree in trees] == [False, True, True, False, False, True]
    out = capsys.readouterr().out.strip().splitlines()
    tier1 = paired_bench.json.loads(out[-1])["tier1"]
    assert set(tier1) == {"base", "change"}
    for row in tier1.values():
        assert (row["runs"], row["passed"], row["failed"], row["error"]) == (3, [7] * 3, [2] * 3, [1] * 3)
        wall = row["wall_s"]
        assert 0.0 < wall["q1"] <= wall["median"] <= wall["q3"]
    assert out[-3].startswith("  base: ") and out[-3].endswith(" | [7, 7, 7] | [2, 2, 2] | [1, 1, 1]")


def test_tier1_needs_two_runs_per_side():
    with pytest.raises(SystemExit):
        paired_bench.main(["--tier1", "1"])


def test_tier1_without_a_summary_line_stops(tmp_path, monkeypatch):
    monkeypatch.setattr(paired_bench, "TIER1_COMMAND", [paired_bench.sys.executable, "-c", "print('crashed')"])
    with pytest.raises(SystemExit, match="no summary"):
        paired_bench.run_tier1(tmp_path)
