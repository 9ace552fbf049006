"""The benchmark's pinned figures, checked in the test suite.

Runs the ``refine`` and ``oracles`` ops and the Lloyd-Max ops for N = 16 ...
128 of the design-sweep and oracle-validate workloads (seed 0) through the
benchmark's own runner and checker, against ``perfbench/references.json``.
A change that moves a figure the benchmark pins beyond its tolerance (1e-9 dB
for ``refine`` and ``exact_compressor_sqnr``, six digits and the exact
iteration count for ``lloyd-max``) fails here, and so does a change to a
package name that the benchmark's tracer binds.  The benchmark's modules are
imported from ``perfbench/`` and only read.
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFS = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))["ops"]
SEED = 0


def _guarded(op) -> bool:
    return op.kind in ("refine", "oracles") or (op.key.startswith("lloyd-max/") and op.n_levels <= 128)


CASES = [
    ("design-sweep", op.key) for op in workloads.design_sweep_ops() if _guarded(op)
] + [
    ("oracle-validate", op.key) for op in workloads.oracle_validate_ops(SEED) if _guarded(op)
]


@pytest.fixture(scope="module")
def prepared():
    return {name: workloads.prepare(name, SEED) for name in ("design-sweep", "oracle-validate")}


@pytest.mark.parametrize("workload, key", CASES)
def test_op_matches_its_reference(prepared, workload, key):
    work = prepared[workload]
    (op,) = [op for op in work.ops if op.key == key]
    verdict = checker.check(op, workloads.run_op(op, work), REFS, work)
    assert verdict.correct, f"{key}: {verdict.reason}"


def test_tracer_binds_every_traced_name():
    # the tracer wraps each name and, for a run that stops at the cap, reads
    # the default of lloyd_max's max_iterations
    traced = tracer.traced_functions()
    assert set(traced) == {f"{m}.{name}" for m, names in tracer.TRACED.items() for name in names}
    assert all(callable(fn) for fn in traced.values())
    lloyd_max = traced["reference_oracles.lloyd_max"]
    assert "max_iterations" in inspect.signature(lloyd_max).parameters
