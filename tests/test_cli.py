import argparse
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import splinequant.cli as cli
import splinequant.threshold_optimizer as threshold_optimizer
from splinequant import DesignError

_GOLDEN_TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_golden.py"
_SPEC = importlib.util.spec_from_file_location("cli_golden", _GOLDEN_TOOL)
cli_golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_golden)
GOLDEN_INDEX = json.loads((cli_golden.GOLDEN / "index.json").read_text(encoding="utf-8"))


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    return code, json.loads(out)


class TestDesignCommand:
    def test_fixed_threshold_document(self, capsys):
        code, doc = run_json(["design", "--levels", "16", "--x1", "1.68"], capsys)
        assert code == 0
        assert doc["manifest"]["command"] == "design"
        assert doc["manifest"]["parameters"]["x1"] == "1.68"
        assert doc["manifest"]["tool_version"]
        results = doc["results"]
        for key in (
            "n_levels",
            "x1",
            "x_max",
            "step",
            "overload_level",
            "knots",
            "segments",
            "knot_jumps",
            "counts",
            "levels",
            "thresholds",
            "cell_lengths_asymptotic",
            "cell_lengths_exact",
            "distortion",
        ):
            assert key in results
        assert results["distortion"]["sqnr_db"] == pytest.approx(19.7638, abs=1e-3)
        assert len(results["levels"]) == 7
        assert len(results["segments"]) == 2
        assert sum(results["counts"]) == 7

    def test_auto_threshold_runs_sweep(self, capsys):
        code, doc = run_json(
            ["design", "--levels", "16", "--x1", "auto", "--grid-step", "0.05"], capsys
        )
        assert code == 0
        assert doc["results"]["x1_mode"] == "auto"
        assert doc["results"]["x1"] == pytest.approx(2.1373, abs=0.05)

    def test_csv_key_value_layout(self, capsys):
        code, out, _ = run_cli(
            ["design", "--levels", "16", "--x1", "1.68", "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["field", "index", "value"]
        fields = {row[0] for row in rows[1:]}
        assert "distortion.sqnr_db" in fields
        assert "segments[0].c0" in fields

    def test_six_significant_digits(self, capsys):
        _, doc = run_json(["design", "--levels", "16", "--x1", "1.68"], capsys)
        x_max = doc["results"]["x_max"]
        assert x_max == float(f"{2.4745648763676273:.6g}")


class TestSweepCommand:
    def test_rows_sorted_with_single_best(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--levels", "16", "--grid-step", "0.05", "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x1", "sqnr_db", "valid", "is_best", "failure"]
        xs = [float(r[0]) for r in rows[1:]]
        assert xs == sorted(xs)
        assert sum(r[3] == "true" for r in rows[1:]) == 1

    def test_json_curve(self, capsys):
        code, doc = run_json(["sweep", "--levels", "16", "--grid-step", "0.05"], capsys)
        assert code == 0
        curve = doc["results"]["curve"]
        assert len(curve) == len([c for c in curve if "x1" in c])
        best = [p for p in curve if p["is_best"]]
        assert len(best) == 1
        assert best[0]["x1"] == doc["results"]["best_x1"]


class TestTable1Command:
    def test_values(self, capsys):
        code, doc = run_json(["table1", "--grid-step", "0.05"], capsys)
        assert code == 0
        rows = {r["n_levels"]: r for r in doc["results"]["rows"]}
        assert set(rows) == {16, 32}
        assert rows[16]["bits"] == 4.0
        assert rows[32]["bits"] == 5.0
        for n in (16, 32):
            assert rows[n]["sqnr_equ_db"] <= rows[n]["sqnr_num_db"] <= rows[n]["sqnr_opt_db"]
        assert rows[16]["sqnr_opt_db"] == pytest.approx(20.2223, abs=5e-3)
        assert rows[32]["sqnr_opt_db"] == pytest.approx(26.0125, abs=5e-3)

    def test_invalid_midpoint_exits_3(self, capsys, monkeypatch):
        # the midpoint row is the sweep's first candidate; if it failed to
        # build, table1 fails as a design would
        real_sweep = cli.sweep

        def invalid_midpoint(*args):
            result = real_sweep(*args)
            first = replace(result.candidates[0], sqnr_db=None, report=None, valid=False,
                            failure="synthetic failure")
            return replace(result, candidates=(first,) + result.candidates[1:])

        monkeypatch.setattr(cli, "sweep", invalid_midpoint)
        code, out, err = run_cli(["table1", "--grid-step", "0.1"], capsys)
        assert code == 3
        assert out == "" and "synthetic failure" in err

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(["table1", "--grid-step", "0.1", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:4] == ["n_levels", "bits", "x_max", "sqnr_equ_db"]
        assert len(rows) == 3


class TestValidateCommand:
    ARGS = ["validate", "--levels", "16", "--x1", "1.68", "--samples", "100000", "--seed", "42"]

    def test_verdict_and_fields(self, capsys):
        code, doc = run_json(self.ARGS, capsys)
        results = doc["results"]
        for key in (
            "analytic_distortion",
            "model_distortion",
            "mc_distortion",
            "mc_std_error",
            "z_score",
            "verdict",
        ):
            assert key in results
        assert results["verdict"] in ("PASS", "FAIL")
        assert code == (0 if results["verdict"] == "PASS" else 1)
        assert results["verdict"] == "PASS"

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(self.ARGS + ["--format", "json"], capsys)
        _, out2, _ = run_cli(self.ARGS + ["--format", "json"], capsys)
        assert out1 == out2

    def test_tiny_sample_reported_honestly(self, capsys):
        code, doc = run_json(
            ["validate", "--levels", "16", "--x1", "1.68", "--samples", "100", "--seed", "5"],
            capsys,
        )
        assert doc["results"]["n_samples"] == 100
        assert doc["results"]["mc_std_error"] > 0
        assert code in (0, 1)

    def test_one_sample_has_no_z_score_and_fails(self, capsys):
        # one sample has a zero standard error: the document stays standard
        # JSON, with a null z-score, and the verdict is FAIL
        argv = ["validate", "--levels", "16", "--x1", "1.68", "--samples", "1"]
        code, out, _ = run_cli(argv, capsys)
        doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-standard {name}"))
        assert code == 1
        assert doc["results"]["mc_std_error"] == 0.0
        assert doc["results"]["z_score"] is None
        assert doc["results"]["verdict"] == "FAIL"
        code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
        rows = {row[0]: row[2] for row in csv.reader(io.StringIO(out))}
        assert code == 1
        assert rows["z_score"] == ""
        assert rows["verdict"] == "FAIL"

    def test_integral_float_notation_samples(self, capsys):
        _, doc = run_json(["validate", "--levels", "16", "--x1", "1.68", "--samples", "1e3"], capsys)
        assert doc["results"]["n_samples"] == 1000


class TestSmallLevelCounts:
    @pytest.mark.parametrize(
        "argv",
        [
            ["design", "--levels", "6"],
            ["sweep", "--levels", "6"],
            ["validate", "--levels", "6", "--samples", "1000"],
            ["lloyd-max", "--levels", "6"],
            ["lloyd-max", "--levels", "4"],
        ],
    )
    def test_succeeds(self, argv, capsys):
        code, doc = run_json(argv, capsys)
        assert code == 0
        assert doc["results"]["n_levels"] == int(argv[2])


class TestLloydMaxCommand:
    def test_document(self, capsys):
        code, doc = run_json(["lloyd-max", "--levels", "16"], capsys)
        assert code == 0
        results = doc["results"]
        assert results["sqnr_db"] == pytest.approx(20.2223, abs=5e-3)
        assert len(results["levels"]) == 16
        assert len(results["thresholds"]) == 15


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["design", "--levels", "7"],
            ["design", "--levels", "15"],
            ["design", "--levels", "16", "--grid-step", "-1"],
            ["sweep", "--levels", "16", "--grid-step", "5"],
            ["sweep", "--levels", "16", "--format", "xml"],
            ["validate", "--levels", "16", "--samples", "0"],
            ["nonsense"],
            ["validate", "--levels", "16", "--samples", "1e400"],
            ["sweep", "--levels", "16", "--grid-step", "nan"],
            ["design", "--levels", "16", "--grid-step", "1e-9"],
            ["sweep", "--levels", "16", "--grid-step", "1e-9"],
            ["design", "--levels", "2"],
            ["validate", "--levels", "16", "--samples", "2.9"],
            ["table1", "--levels", "64"],
            ["lloyd-max", "--levels", "16", "--grid-step", "0.1"],
            ["validate", "--levels", "16", "--samples", "1e12"],
            ["validate", "--levels", "16", "--samples", "1000000001"],
        ],
    )
    def test_bad_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize("value", ["1e9", "1000000000"])
    def test_samples_maximum_parses(self, value):
        args = cli._build_parser().parse_args(["validate", "--samples", value])
        assert args.samples == cli.MAX_SAMPLES == 10**9

    def test_levels_maximum_parses(self):
        assert cli._even_levels(str(cli.MAX_LEVELS)) == cli.MAX_LEVELS == 65_536
        with pytest.raises(argparse.ArgumentTypeError, match="at most 65,536 levels"):
            cli._even_levels(str(cli.MAX_LEVELS + 2))

    @pytest.mark.parametrize("command", ["design", "sweep", "validate", "lloyd-max"])
    def test_levels_above_maximum_rejected_before_any_work(self, command, capsys, monkeypatch):
        def forbidden(args):
            raise AssertionError("the command ran")

        for name in ("_cmd_design", "_cmd_sweep", "_cmd_validate", "_cmd_lloyd_max"):
            monkeypatch.setattr(cli, name, forbidden)
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--levels", str(cli.MAX_LEVELS + 2)])
        assert info.value.code == 2
        assert "at most 65,536 levels" in capsys.readouterr().err

    def test_negative_seed_rejected_before_any_work(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "evaluate_candidate", None)
        with pytest.raises(SystemExit) as info:
            cli.main(["validate", "--x1", "1.68", "--samples", "100", "--seed", "-1"])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["design", "--levels", "4"],
            ["sweep", "--levels", "4"],
            ["validate", "--levels", "4", "--samples", "100"],
        ],
    )
    def test_four_levels_leave_too_few_for_two_segments(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert "fewer than the 2 segments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, message",
        [("missing/x.json", "is missing or not writable"), (".", "is a directory")],
        ids=["missing-directory", "directory"],
    )
    def test_unwritable_out_rejected_before_any_work(self, path, message, tmp_path, capsys, monkeypatch):
        def forbidden(args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "_cmd_lloyd_max", forbidden)
        out = tmp_path / path
        with pytest.raises(SystemExit) as info:
            cli.main(["lloyd-max", "--levels", "8", "--out", str(out)])
        assert info.value.code == 2
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == []

    def test_x1_out_of_range(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["design", "--levels", "16", "--x1", "9.9"])
        assert info.value.code == 2

    def test_x1_not_a_number(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["design", "--levels", "16", "--x1", "wat"])
        assert info.value.code == 2


class TestFailureExitCode:
    def test_design_failure_exits_3(self, capsys, monkeypatch):
        def raise_design_error(*args, **kwargs):
            raise DesignError("synthetic failure")

        monkeypatch.setattr(threshold_optimizer, "build", raise_design_error)
        code, _, err = run_cli(["design", "--levels", "16", "--x1", "1.68"], capsys)
        assert code == 3
        assert "synthetic failure" in err

    @pytest.mark.parametrize("x1", ["1e-200", "5e-324"])
    def test_degenerate_segment_prints_only_the_error(self, x1):
        # run as a process: numpy warnings would reach its stderr
        paths = (str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "splinequant.cli", "design", "--levels", "6", "--x1", x1],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "error: fitted curve not finite on segment 0\n"

    def test_overflow_exits_3(self, capsys, monkeypatch):
        # an OverflowError is a numerical failure, not a usage error
        def overflow(*args, **kwargs):
            raise OverflowError("synthetic overflow")

        monkeypatch.setattr(cli, "lloyd_max", overflow)
        code, _, err = run_cli(["lloyd-max", "--levels", "16"], capsys)
        assert code == 3
        assert "synthetic overflow" in err


class TestFileOutput:
    def test_out_writes_document_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "design.json"
        code, _, err = run_cli(
            ["design", "--levels", "16", "--x1", "1.68", "--out", str(out)], capsys
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["n_levels"] == 16
        manifest = json.loads((tmp_path / "design.json.manifest.json").read_text())
        assert manifest["command"] == "design"
        assert manifest["outputs"] == [str(out)]
        assert str(out) in err

    def test_out_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep", "--levels", "16", "--grid-step", "0.2", "--format", "csv", "--out", str(out)],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0][0] == "x1"
        assert (tmp_path / "sweep.csv.manifest.json").exists()

    @pytest.mark.parametrize("case", ["design-16-fixed", "table1-csv"])
    def test_out_file_is_the_stdout_document(self, case, tmp_path, capsys):
        # the --out file holds the stdout document byte for byte (a JSON one
        # embeds a manifest with no outputs); only the sidecar lists the path
        argv = list(cli_golden.CASES[case])
        fmt = "csv" if "csv" in argv else "json"
        out = tmp_path / f"doc.{fmt}"
        _, stdout, _ = run_cli(argv, capsys)
        code, _, _ = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 0
        assert out.read_bytes() == stdout.encode("utf-8")
        _, doc = run_json(argv, capsys)
        assert doc["manifest"]["outputs"] == []
        expected = dict(doc["manifest"], outputs=[str(out)])
        expected["parameters"] = dict(expected["parameters"], format=fmt)
        sidecar = json.loads((tmp_path / f"doc.{fmt}.manifest.json").read_text())
        assert sidecar == expected


class TestGoldenDocuments:
    @pytest.mark.parametrize("name", sorted(cli_golden.CASES))
    def test_byte_identical_to_golden(self, name):
        # tests/golden/ changes only with a deliberate, reviewed change of output
        expected = GOLDEN_INDEX[name]
        assert expected["argv"] == list(cli_golden.CASES[name])
        code, out, err = cli_golden.run(cli_golden.CASES[name])
        assert code == expected["exit_code"]
        assert err == expected["stderr"]
        assert out.encode("utf-8") == (cli_golden.GOLDEN / f"{name}.stdout").read_bytes()
