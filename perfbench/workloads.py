"""The benchmark's workloads: the op list each one derives from its seed, the
set-up it needs, and how one op calls into splinequant.

Every op calls into the package: ``splinequant.cli.main`` with an argument
list (stdout and stderr captured in memory), or library functions.  Ops look their functions up on the ``splinequant`` modules at call
time, so the tracer's patched bindings are the ones that run.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field

import numpy as np

import splinequant as sq
import splinequant.cli

WORKLOADS = ("design-sweep", "oracle-validate", "encode-stream")

# design-sweep: from every candidate valid (N=64) to none valid (N=1024).
SWEEP_LEVELS = (16, 32, 64, 128, 256, 512, 1024)
# oracle-validate: Lloyd-Max stops converging within its cap at N=256.
ORACLE_LEVELS = (16, 32, 64, 128, 256)
ORACLE_X1_SHARE = 0.6
MC_SAMPLES = 1_000_000
# encode-stream: the sweep's best x1 for each N, rounded to the grid step.
ENCODE_DESIGNS = ((16, 2.13), (64, 2.68), (256, 2.97))
BLOCKS_PER_DESIGN = 10
BLOCK_SAMPLES = 4096


@dataclass(frozen=True)
class Op:
    """One call into splinequant.  ``key`` names its correctness reference."""

    key: str
    kind: str  # "cli", "refine", "oracles" or "encode"
    argv: tuple[str, ...] = ()
    n_levels: int = 0
    block: int = -1


@dataclass
class Outcome:
    """What one op returned: a CLI exit code and its output, a library value,
    or the type of the exception it raised."""

    exit_code: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: str | None = None


@dataclass
class Workload:
    """A workload's op list (one pass) and the inputs its ops read."""

    name: str
    seed: int
    ops: list[Op]
    quantizers: dict[int, object] = field(default_factory=dict)
    blocks: list[list[float]] = field(default_factory=list)


def design_quantizer(n_levels: int, x1: float):
    """The documented config -> fit -> build pipeline at a fixed threshold."""
    source = sq.SourceModel()
    config = sq.standard_config(n_levels, (x1,), source)
    spline = sq.fit(lambda x: sq.compressor(source, config.x_max, x), config.knots)
    return sq.build(spline, config)


def oracle_x1(n_levels: int) -> float:
    return ORACLE_X1_SHARE * sq.support_threshold(sq.SourceModel(), n_levels)


def design_sweep_ops() -> list[Op]:
    ops = [Op("table1", "cli", ("table1",))]
    for n in SWEEP_LEVELS:
        levels = ("--levels", str(n))
        ops.append(Op(f"design/{n}", "cli", ("design", *levels, "--x1", "auto"), n))
        ops.append(Op(f"sweep/{n}", "cli", ("sweep", *levels, "--format", "csv"), n))
        ops.append(Op(f"refine/{n}", "refine", (), n))
    return ops


def oracle_validate_ops(mc_seed: int) -> list[Op]:
    ops = []
    for n in ORACLE_LEVELS:
        levels = ("--levels", str(n))
        ops.append(Op(
            f"validate/{n}",
            "cli",
            ("validate", *levels, "--x1", repr(oracle_x1(n)),
             "--samples", str(MC_SAMPLES), "--seed", str(mc_seed)),
            n,
        ))
        ops.append(Op(f"lloyd-max/{n}", "cli", ("lloyd-max", *levels), n))
        # exact_compressor_sqnr and true_distortion take 1-3 ms, every other op
        # 40 ms or more.  As two ops they would be exactly half of all ops and
        # p50 would be the midpoint of the two groups' extremes; one op keeps
        # p50 and p90 inside a group.
        ops.append(Op(f"oracles/{n}", "oracles", (), n))
    return ops


def encode_stream_ops() -> list[Op]:
    ops = []
    for n, _ in ENCODE_DESIGNS:
        for _ in range(BLOCKS_PER_DESIGN):
            ops.append(Op(f"encode/{n}", "encode", (), n, len(ops)))
    return ops


def prepare(name: str, seed: int) -> Workload:
    """Build the workload's inputs from ``seed``: the same seed gives the same
    op order, Monte-Carlo seed, sample blocks and quantizers."""
    if name == "design-sweep":
        ops = design_sweep_ops()
    elif name == "oracle-validate":
        ops = oracle_validate_ops(mc_seed=seed)
    elif name == "encode-stream":
        ops = encode_stream_ops()
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    random.Random(seed).shuffle(ops)
    work = Workload(name, seed, ops)

    if name == "oracle-validate":
        work.quantizers = {n: design_quantizer(n, oracle_x1(n)) for n in ORACLE_LEVELS}
    elif name == "encode-stream":
        work.quantizers = {n: design_quantizer(n, x1) for n, x1 in ENCODE_DESIGNS}
        rng = np.random.default_rng(seed)
        # blocks are indexed by the op's position before the shuffle
        work.blocks = [
            rng.standard_normal(BLOCK_SAMPLES).tolist() for _ in range(len(ops))
        ]
    return work


def _run_cli(op: Op, work: Workload) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sq.cli.main(list(op.argv))
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
    return Outcome(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue())


def _run_refine(op: Op, work: Workload) -> Outcome:
    return Outcome(value=sq.refine(sq.sweep(op.n_levels)))


def _run_oracles(op: Op, work: Workload) -> Outcome:
    report = sq.exact_compressor_sqnr(sq.SourceModel(), op.n_levels)
    return Outcome(value=(report, sq.true_distortion(work.quantizers[op.n_levels])))


def _run_encode(op: Op, work: Workload) -> Outcome:
    q = work.quantizers[op.n_levels]
    encode, decode = sq.encode, sq.decode
    codes = [encode(q, x) for x in work.blocks[op.block]]
    return Outcome(value=(codes, [decode(q, c) for c in codes]))


_RUNNERS = {
    "cli": _run_cli,
    "refine": _run_refine,
    "oracles": _run_oracles,
    "encode": _run_encode,
}


def run_op(op: Op, work: Workload) -> Outcome:
    try:
        return _RUNNERS[op.kind](op, work)
    except Exception as exc:  # recorded and judged by the checker; the loop goes on
        return Outcome(error=type(exc).__name__, stderr=str(exc))
