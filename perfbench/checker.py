"""Correctness check of every op against references made once from the
package's seed commit (``references.json``, written by make_references.py).

Rules:

* CLI documents are compared field by field at six significant digits; fields
  the reference lacks are allowed, so additive document changes pass.
* ``validate`` is compared on its analytic fields only; exit code 1 (verdict
  FAIL) is a completed op.
* ``refine`` and ``exact_compressor_sqnr`` SQNR must agree to 1e-9 dB.
* encode-stream output must equal ``np.searchsorted`` over the same
  quantizer's ``all_boundaries``/``all_levels``, whose values must match the
  reference.
* An op that failed at the seed (``known_failure`` in its reference) passes
  when it fails the same way again, and gets a structural check when it
  succeeds: exit 0, and levels and thresholds interleave.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

REL_6_DIGITS = 1e-5
DB_TOLERANCE = 1e-9
# refine() stops once its bracket is narrower than this
REFINE_X1_TOLERANCE = 1e-4


@dataclass(frozen=True)
class Verdict:
    """``correct``: the outcome is what the reference allows.  ``completed``:
    the op returned a result rather than raising or exiting with 2 or 3."""

    correct: bool
    completed: bool
    reason: str = ""


def same6(a: float, b: float) -> bool:
    """Equal at six significant digits."""
    return a == b or math.isclose(a, b, rel_tol=REL_6_DIGITS)


def compare_tree(ref, got, path: str = "") -> str | None:
    """First mismatch between ``ref`` and ``got``, or None.  Dict keys missing
    from ``ref`` are ignored; floats are compared at six significant digits."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return f"{path}: expected an object"
        for key, value in ref.items():
            if key not in got:
                return f"{path}.{key}: missing"
            mismatch = compare_tree(value, got[key], f"{path}.{key}")
            if mismatch:
                return mismatch
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: expected a list of {len(ref)}"
        for i, (r, g) in enumerate(zip(ref, got)):
            mismatch = compare_tree(r, g, f"{path}[{i}]")
            if mismatch:
                return mismatch
        return None
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return None if same6(ref, float(got)) else f"{path}: {got!r} != {ref!r}"
    if type(ref) is not type(got) or ref != got:
        return f"{path}: {got!r} != {ref!r}"
    return None


def interleaves(points) -> bool:
    return all(a < b for a, b in zip(points, points[1:]))


def parse_csv(text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    return {"header": rows[0], "rows": rows[1:]} if rows else {"header": [], "rows": []}


def csv_cell(text: str):
    """CSV cell as the reference stores it: number, bool, None or text."""
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def _check_sweep_csv(ref: dict, text: str) -> str | None:
    table = parse_csv(text)
    header = table["header"]
    missing = [h for h in ref["header"] if h not in header]
    if missing:
        return f"csv columns missing: {missing}"
    if len(table["rows"]) != len(ref["rows"]):
        return f"csv has {len(table['rows'])} rows, reference {len(ref['rows'])}"
    cols = [header.index(h) for h in ref["header"]]
    for i, (ref_row, row) in enumerate(zip(ref["rows"], table["rows"])):
        got = [csv_cell(row[c]) for c in cols]
        mismatch = compare_tree(ref_row, got, f"row{i}")
        if mismatch:
            return mismatch
    return None


def _structural(op, outcome) -> str | None:
    """Check for an op that failed at the seed and now exits 0 or returns."""
    if op.kind == "refine":
        result = outcome.value
        return None if math.isfinite(result.sqnr_db) and math.isfinite(result.x1) else "non-finite refine result"
    if op.argv[0] == "sweep":
        table = parse_csv(outcome.stdout)
        valid, is_best = table["header"].index("valid"), table["header"].index("is_best")
        best = [row for row in table["rows"] if row[is_best] == "true"]
        return None if len(best) == 1 and best[0][valid] == "true" else "no single valid argmax row"
    results = json.loads(outcome.stdout)["results"]
    levels, thresholds = results["levels"], results["thresholds"]
    if op.argv[0] == "design":
        points = [0.0] + [v for pair in zip(levels, thresholds) for v in pair]
    else:  # lloyd-max: thresholds sit between neighbouring levels
        points = [levels[0]] + [v for pair in zip(thresholds, levels[1:]) for v in pair]
    return None if interleaves(points) else "levels and thresholds do not interleave"


def _same_failure(ref: dict, outcome) -> bool:
    if "raises" in ref:
        return outcome.error == ref["raises"]
    return outcome.error is None and outcome.exit_code == ref["exit"]


def _compare(op, outcome, ref: dict, work) -> str | None:
    if op.kind == "cli":
        command = op.argv[0]
        if command == "sweep":
            return _check_sweep_csv(ref, outcome.stdout)
        document = json.loads(outcome.stdout)
        if document["manifest"]["command"] != command:
            return f"manifest command {document['manifest']['command']!r}"
        results = document["results"]
        if command == "validate":
            mc_seed = int(op.argv[op.argv.index("--seed") + 1])
            if results["seed"] != mc_seed:
                return f"validate ran Monte-Carlo seed {results['seed']}, asked {mc_seed}"
            if (results["verdict"] == "PASS") != (outcome.exit_code == 0):
                return f"verdict {results['verdict']} with exit {outcome.exit_code}"
        return compare_tree(ref["results"], results, "results")
    if op.kind == "refine":
        got = outcome.value
        if abs(got.sqnr_db - ref["sqnr_db"]) > DB_TOLERANCE:
            return f"refine sqnr_db {got.sqnr_db!r} != {ref['sqnr_db']!r}"
        if abs(got.x1 - ref["x1"]) > REFINE_X1_TOLERANCE or got.interior != ref["interior"]:
            return f"refine x1/interior {got.x1!r}/{got.interior} != {ref['x1']!r}/{ref['interior']}"
        return None
    if op.kind == "oracles":
        report, distortion = outcome.value
        ref_report = ref["exact_compressor_sqnr"]
        if abs(report.sqnr_db - ref_report["sqnr_db"]) > DB_TOLERANCE:
            return f"exact_compressor_sqnr sqnr_db {report.sqnr_db!r} != {ref_report['sqnr_db']!r}"
        fields = {k: getattr(report, k) for k in ref_report}
        return (compare_tree(ref_report, fields, "exact_compressor_sqnr")
                or compare_tree(ref["true_distortion"], distortion, "true_distortion"))
    if op.kind == "encode":
        q = work.quantizers[op.n_levels]
        boundaries, levels = list(q.all_boundaries), list(q.all_levels)
        mismatch = compare_tree(
            {"all_boundaries": ref["all_boundaries"], "all_levels": ref["all_levels"]},
            {"all_boundaries": boundaries, "all_levels": levels},
            f"quantizer/{op.n_levels}",
        )
        if mismatch:
            return mismatch
        codes, values = outcome.value
        expect = np.searchsorted(boundaries, work.blocks[op.block], side="right")
        if not np.array_equal(np.asarray(codes), expect):
            return "encode differs from searchsorted over all_boundaries"
        if not np.array_equal(np.asarray(values), np.asarray(levels)[expect]):
            return "decode differs from all_levels"
        return None
    raise ValueError(f"unknown op kind {op.kind!r}")


def _stderr_tail(outcome) -> str:
    return outcome.stderr.strip()[:200]


def check(op, outcome, refs: dict, work) -> Verdict:
    ref = refs[op.key]
    known = ref.get("known_failure")
    if known and _same_failure(ref, outcome):
        return Verdict(True, False, f"known failure: {known}")
    if outcome.error is not None:
        return Verdict(False, False, f"raised {outcome.error}: {_stderr_tail(outcome)}")
    if op.kind == "cli" and outcome.exit_code not in (0, 1):
        return Verdict(False, False, f"exit {outcome.exit_code}: {_stderr_tail(outcome)}")
    if outcome.exit_code == 1 and op.argv[0] != "validate":
        return Verdict(False, True, "exit 1")
    try:
        problem = _structural(op, outcome) if known else _compare(op, outcome, ref, work)
    except (AttributeError, KeyError, ValueError, TypeError, IndexError) as exc:  # malformed output
        problem = f"unreadable output: {type(exc).__name__}: {exc}"
    return Verdict(problem is None, True, problem or "")
