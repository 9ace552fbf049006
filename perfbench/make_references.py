"""Write references.json: the expected outcome of every distinct op of every
workload, taken from the package as it stands.

    python3 perfbench/make_references.py

The committed file was made once, from the package's seed commit.  Regenerate
it only in a change that alters expected outputs on purpose, and say so.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

run.load_package()

import splinequant as sq  # noqa: E402
from checker import csv_cell, parse_csv  # noqa: E402
from workloads import ENCODE_DESIGNS, WORKLOADS, prepare, run_op  # noqa: E402

# validate fields that do not depend on the Monte-Carlo draw
VALIDATE_FIELDS = ("n_levels", "x1", "analytic_distortion", "model_distortion", "n_samples")


def reference(op, outcome, work) -> dict:
    if outcome.error is not None:
        return {"raises": outcome.error, "known_failure": outcome.stderr.strip()}
    if op.kind == "cli":
        if outcome.exit_code not in (0, 1):
            return {"exit": outcome.exit_code, "known_failure": outcome.stderr.strip().removeprefix("error: ")}
        if op.argv[0] == "sweep":
            table = parse_csv(outcome.stdout)
            return {
                "header": table["header"][:4],
                "rows": [[csv_cell(c) for c in row[:4]] for row in table["rows"]],
            }
        results = json.loads(outcome.stdout)["results"]
        if op.argv[0] == "validate":
            results = {k: results[k] for k in VALIDATE_FIELDS}
        return {"results": results}
    if op.kind == "refine":
        return dataclasses.asdict(outcome.value)
    if op.kind == "oracles":
        report, distortion = outcome.value
        return {"exact_compressor_sqnr": dataclasses.asdict(report), "true_distortion": distortion}
    if op.kind == "encode":
        q = work.quantizers[op.n_levels]
        x1 = dict(ENCODE_DESIGNS)[op.n_levels]
        return {"x1": x1, "all_boundaries": list(q.all_boundaries), "all_levels": list(q.all_levels)}
    raise ValueError(f"unknown op kind {op.kind!r}")


def main() -> int:
    ops = {}
    for name in WORKLOADS:
        work = prepare(name, seed=0)
        for op in work.ops:
            if op.key not in ops:
                ops[op.key] = reference(op, run_op(op, work), work)
                print(f"{op.key}: {ops[op.key].get('known_failure', 'ok')}", file=sys.stderr)
    doc = {"splinequant_version": sq.__version__, "ops": dict(sorted(ops.items()))}
    (run.HERE / "references.json").write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
