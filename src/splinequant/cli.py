"""Command-line front end.

Subcommands
-----------
design     build one quantizer (fixed or auto-optimized threshold) and report it
sweep      emit the SQNR-vs-threshold curve with the argmax flagged
table1     compare midpoint, optimized, and Lloyd-Max SQNR for N in {16, 32}
validate   Monte-Carlo check of the analytic distortion, pass/fail at 3 sigma
lloyd-max  reference MSE-optimal quantizer for a given level count

Every command honors --format json|csv and --out.  JSON documents embed the
run manifest (command, parameters, tool version, outputs).  The --out file is
byte-identical to the stdout document, whose manifest lists no outputs; only
the ``<out>.manifest.json`` sidecar lists the path.  An --out that is a
directory, or whose directory is missing or not writable, is a usage error,
found before any work.  Tabular CSV (sweep, table1) has the JSON row keys as
columns, in order; the other commands flatten to field,index,value rows.
--levels is at most 65,536 and --samples an integer from 1 to 10^9.
Exit codes: 0 success, 1 failed validation verdict, 2 usage error, 3 design or
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from . import __version__
from .gauss_analytics import SourceModel, support_threshold
from .quantizer_design import CompandingQuantizer, DesignError
from .reference_oracles import ConvergenceError, lloyd_max, mc_distortion, true_distortion
from .threshold_optimizer import SweepError, evaluate_candidate, sweep

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_USAGE = 2
EXIT_DESIGN_FAILURE = 3

TABLE1_LEVELS = (16, 32)

# --samples ceiling: about 0.02 s of Monte-Carlo work per 10^6 samples
MAX_SAMPLES = 10**9

# --levels ceiling: work and memory grow with N (the half-step grid alone
# holds N-3 floats, 8 GiB at N = 2^30, and lloyd-max inverts the compressor
# N/2 times before its first iteration)
MAX_LEVELS = 65_536

# the options a manifest records, in document order; each command has a subset
MANIFEST_PARAMETERS = ("levels", "x1", "grid_step", "samples", "seed", "format")


def _sig6(value):
    """Round floats to 6 significant digits, recursively."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _sig6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig6(v) for v in value]
    return value


def _csv_cell(value):
    """One CSV cell; the csv module writes None as an empty cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.6g}" if isinstance(value, float) else value


def _csv_text(table: list[dict]) -> str:
    """A header of the first row's keys, then every row's values."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(table[0])
    for row in table:
        writer.writerow([_csv_cell(v) for v in row.values()])
    return buf.getvalue()


def _kv_rows(results: dict) -> list[dict]:
    """Flatten a nested report to field,index,value rows."""
    rows = []
    for key, value in results.items():
        if isinstance(value, dict):
            rows += [(f"{key}.{k}", None, v) for k, v in value.items()]
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                if isinstance(v, dict):
                    rows += [(f"{key}[{i}].{k}", i, v2) for k, v2 in v.items()]
                else:
                    rows.append((key, i, v))
        else:
            rows.append((key, None, value))
    return [dict(zip(("field", "index", "value"), row)) for row in rows]


def _emit(args, results: dict, table: list[dict] | None = None) -> None:
    """Write a command's document to --out or stdout.

    ``table`` holds the row dicts of a tabular command's CSV; without it CSV
    flattens ``results``.  A file output gets a manifest sidecar listing it.
    """
    manifest = {
        "command": args.command,
        "parameters": {k: getattr(args, k) for k in MANIFEST_PARAMETERS if hasattr(args, k)},
        "tool_version": __version__,
        "outputs": [],
    }
    if args.format == "json":
        document = {"manifest": manifest, "results": _sig6(results)}
        text = json.dumps(document, indent=2, allow_nan=False) + "\n"
    else:
        text = _csv_text(_kv_rows(results) if table is None else table)
    if not args.out:
        sys.stdout.write(text)
        return
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(manifest, outputs=[args.out]), indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


def _design(args) -> CompandingQuantizer:
    """The quantizer at --x1, or at the best threshold of a --grid-step sweep
    for ``--x1 auto``."""
    if args.x1 == "auto":
        x1 = sweep(args.levels, args.grid_step).best_x1
    else:
        x1 = float(args.x1)
    return evaluate_candidate(args.levels, x1)


def _design_document(quantizer: CompandingQuantizer, auto: bool) -> dict:
    config, report = quantizer.config, quantizer.report
    return {
        "n_levels": config.n_levels,
        "x1": config.knots[1],
        "x1_mode": "auto" if auto else "fixed",
        "x_max": config.x_max,
        "step": quantizer.step,
        "overload_level": quantizer.overload_level,
        "knots": list(config.knots.knots),
        # the table's rows are c0, c1, c2, lo, hi; the document lists lo, hi first
        "segments": [
            dict(zip(("lo", "hi", "c0", "c1", "c2"), column))
            for column in quantizer.spline.coefficients[[3, 4, 0, 1, 2]].T.tolist()
        ],
        "knot_jumps": list(quantizer.spline.knot_jumps()),
        "counts": list(quantizer.counts),
        "levels": list(quantizer.levels),
        "thresholds": list(quantizer.thresholds),
        "cell_lengths_asymptotic": list(quantizer.cell_lengths_asymptotic),
        "cell_lengths_exact": list(quantizer.cell_lengths_exact),
        "distortion": {
            "granular": report.granular,
            "overload_closed": report.overload,
            "overload_exact": report.overload_exact,
            "total": report.total,
            "sqnr_db": report.sqnr_db,
        },
    }


def _cmd_design(args) -> int:
    _emit(args, _design_document(_design(args), args.x1 == "auto"))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    result = sweep(args.levels, args.grid_step)
    curve = [
        {
            "x1": cand.x1,
            "sqnr_db": cand.sqnr_db,
            "valid": cand.valid,
            "is_best": cand.valid and cand.x1 == result.best_x1,
            "failure": cand.failure,
        }
        for cand in result.candidates
    ]
    results = {
        "n_levels": result.n_levels,
        "x_max": result.x_max,
        "grid_step": result.grid_step,
        "best_x1": result.best_x1,
        "best_sqnr_db": result.best_sqnr_db,
        "curve": curve,
    }
    _emit(args, results, table=curve)
    return EXIT_OK


def _table1_rows(grid_step: float) -> list[dict]:
    out = []
    for n in TABLE1_LEVELS:
        source = SourceModel()
        swept = sweep(n, grid_step, source)
        # the sweep's first candidate is the midpoint design x1 = x_max/2
        equ = swept.candidates[0]
        if not equ.valid:
            raise DesignError(equ.failure)
        opt = lloyd_max(source, n)
        out.append(
            {
                "n_levels": n,
                "bits": math.log2(n),
                "x_max": swept.x_max,
                "sqnr_equ_db": equ.sqnr_db,
                "sqnr_num_db": swept.best_sqnr_db,
                "sqnr_opt_db": opt.sqnr_db,
                "x1_equ": equ.x1,
                "x1_num": swept.best_x1,
            }
        )
    return out


def _cmd_table1(args) -> int:
    rows = _table1_rows(args.grid_step)
    _emit(args, {"rows": rows}, table=rows)
    return EXIT_OK


def _cmd_validate(args) -> int:
    quantizer = _design(args)
    analytic = true_distortion(quantizer)
    mc = mc_distortion(quantizer, args.samples, args.seed)
    # no z-score without spread (one sample): the verdict is FAIL
    z = (mc.mean_distortion - analytic) / mc.std_error if mc.std_error > 0 else None
    passed = z is not None and abs(z) <= 3.0
    results = {
        "n_levels": args.levels,
        "x1": quantizer.config.knots[1],
        "analytic_distortion": analytic,
        "model_distortion": quantizer.report.total,
        "mc_distortion": mc.mean_distortion,
        "mc_std_error": mc.std_error,
        "n_samples": mc.n_samples,
        "seed": mc.seed,
        "z_score": z,
        "verdict": "PASS" if passed else "FAIL",
    }
    _emit(args, results)
    return EXIT_OK if passed else EXIT_VALIDATION_FAILED


def _cmd_lloyd_max(args) -> int:
    result = lloyd_max(SourceModel(), args.levels)
    results = {
        "n_levels": args.levels,
        "sqnr_db": result.sqnr_db,
        "distortion": result.distortion,
        "iterations": result.iterations,
        "levels": list(result.levels),
        "thresholds": list(result.thresholds),
    }
    _emit(args, results)
    return EXIT_OK


def _even_levels(value: str) -> int:
    n = int(value)
    if n < 4 or n % 2:
        raise argparse.ArgumentTypeError(f"levels must be even and >= 4, got {n}")
    if n > MAX_LEVELS:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_LEVELS:,} levels, got {n}")
    return n


def _seed(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {n}")
    return n


def _positive_float(value: str) -> float:
    x = float(value)
    if not (x > 0.0 and math.isfinite(x)):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {value}")
    return x


def _sample_count(value: str) -> int:
    x = float(value)
    if not (x >= 1.0 and x.is_integer()):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    if x > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_SAMPLES:,} samples, got {value}")
    return int(x)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinequant",
        description="Design and evaluate spline-companded quantizers for a unit-variance Gaussian source.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, levels="even, >= 6 for two segments", grid_step=True):
        """Add a subcommand with --format, --out and the options it reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if levels:
            p.add_argument("--levels", type=_even_levels, default=16,
                           help=f"number of output levels N ({levels}; default %(default)s)")
        if grid_step:
            p.add_argument("--grid-step", type=_positive_float, default=0.01, dest="grid_step",
                           help="threshold sweep resolution (default %(default)s)")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output document format (default %(default)s)")
        p.add_argument("--out", default=None, help="write the document to this path instead of stdout")
        return p

    p = command("design", _cmd_design, "build one quantizer and report it")
    p.add_argument("--x1", default="auto",
                   help="interior segment threshold, or 'auto' to sweep for the best (default auto)")
    command("sweep", _cmd_sweep, "emit the SQNR-vs-threshold curve")
    command("table1", _cmd_table1, "midpoint vs optimized vs Lloyd-Max comparison", levels=None)
    p = command("validate", _cmd_validate, "Monte-Carlo check of the analytic distortion")
    p.add_argument("--x1", default="auto", help="threshold to validate (default auto)")
    p.add_argument("--samples", type=_sample_count, default=10_000_000,
                   help="Monte-Carlo sample count, an integer from 1 to 1e9 (default %(default)s)")
    p.add_argument("--seed", type=_seed, default=42, help="random seed (default %(default)s)")
    command("lloyd-max", _cmd_lloyd_max, "reference MSE-optimal quantizer", "even, >= 4", False)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "x1", None) not in (None, "auto"):
        try:
            x1 = float(args.x1)
        except ValueError:
            parser.error(f"--x1 must be a number or 'auto', got {args.x1!r}")
        x_max = support_threshold(SourceModel(), args.levels)
        if not 0.0 < x1 < x_max:
            parser.error(f"--x1 must lie in (0, {x_max:.6g}) for N={args.levels}")
    if args.out:
        directory = os.path.dirname(args.out) or "."
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            parser.error(f"--out directory {directory!r} is missing or not writable")
        if os.path.isdir(args.out):
            parser.error(f"--out {args.out!r} is a directory")
    try:
        return args.func(args)
    except (DesignError, SweepError, ConvergenceError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DESIGN_FAILURE
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
