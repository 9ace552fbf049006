"""Command-line front end.

Subcommands
-----------
design     build one quantizer (fixed or auto-optimized threshold) and report it
sweep      emit the SQNR-vs-threshold curve with the argmax flagged
table1     compare midpoint, optimized, and Lloyd-Max SQNR for N in {16, 32}
validate   Monte-Carlo check of the analytic distortion, pass/fail at 3 sigma
lloyd-max  reference MSE-optimal quantizer for a given level count

Every command honors --format json|csv and --out.  JSON documents embed the
run manifest; file outputs additionally get a ``<out>.manifest.json`` sidecar.
Exit codes: 0 success, 1 failed validation verdict, 2 usage error, 3 design or
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

from . import __version__
from .gauss_analytics import SourceModel, support_threshold
from .quantizer_design import DesignError
from .reference_oracles import ConvergenceError, lloyd_max, mc_distortion, true_distortion
from .threshold_optimizer import Design, SweepError, evaluate_candidate, sweep

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_USAGE = 2
EXIT_DESIGN_FAILURE = 3

TABLE1_LEVELS = (16, 32)


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written alongside every output."""

    command: str
    parameters: dict
    tool_version: str = __version__
    outputs: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "tool_version": self.tool_version,
            "outputs": list(self.outputs),
        }


def _sig6(value):
    """Round floats to 6 significant digits, recursively."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _sig6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig6(v) for v in value]
    return value


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else (f"{v:.6g}" if isinstance(v, float) else v) for v in row])
    return buf.getvalue()


def _kv_rows(results: dict) -> list[list]:
    rows = []
    for key, value in results.items():
        if isinstance(value, dict):
            for k2, v2 in value.items():
                rows.append([f"{key}.{k2}", None, v2])
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                if isinstance(v, dict):
                    for k2, v2 in v.items():
                        rows.append([f"{key}[{i}].{k2}", i, v2])
                else:
                    rows.append([key, i, v])
        else:
            rows.append([key, None, value])
    return rows


def _emit(args, manifest: RunManifest, results: dict, header=None, rows=None) -> None:
    """Write the document to --out or stdout; file outputs get a manifest sidecar."""
    if args.format == "json":
        document = {"manifest": manifest.as_dict(), "results": _sig6(results)}
        text = json.dumps(document, indent=2) + "\n"
    else:
        if rows is None:
            header = ["field", "index", "value"]
            rows = _kv_rows(results)
        text = _csv_text(header, rows)
    if args.out:
        manifest.outputs.append(args.out)
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest.as_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _design(args) -> Design:
    """The design at --x1, or at the best threshold of a --grid-step sweep for
    ``--x1 auto``."""
    if args.x1 == "auto":
        x1 = sweep(args.levels, args.grid_step).best_x1
    else:
        x1 = float(args.x1)
    return evaluate_candidate(args.levels, x1)


def _design_document(design: Design, auto: bool) -> dict:
    config, spline, quantizer, report = (
        design.config, design.spline, design.quantizer, design.report
    )
    return {
        "n_levels": config.n_levels,
        "x1": config.knots[1],
        "x1_mode": "auto" if auto else "fixed",
        "x_max": config.x_max,
        "step": quantizer.step,
        "overload_level": quantizer.overload_level,
        "knots": list(config.knots.knots),
        "segments": [
            {"lo": s.lo, "hi": s.hi, "c0": s.c0, "c1": s.c1, "c2": s.c2}
            for s in spline.segments
        ],
        "knot_jumps": list(spline.knot_jumps()),
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
    results = _design_document(_design(args), args.x1 == "auto")
    manifest = RunManifest(
        "design",
        {
            "levels": args.levels,
            "x1": args.x1,
            "grid_step": args.grid_step,
            "format": args.format,
        },
    )
    _emit(args, manifest, results)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    result = sweep(args.levels, args.grid_step)
    rows = []
    curve = []
    for cand in result.candidates:
        is_best = cand.valid and cand.x1 == result.best_x1
        rows.append(
            [
                float(cand.x1),
                None if cand.sqnr_db is None else float(cand.sqnr_db),
                "true" if cand.valid else "false",
                "true" if is_best else "false",
                cand.failure or "",
            ]
        )
        curve.append(
            {
                "x1": cand.x1,
                "sqnr_db": cand.sqnr_db,
                "valid": cand.valid,
                "is_best": is_best,
                "failure": cand.failure,
            }
        )
    results = {
        "n_levels": result.n_levels,
        "x_max": result.x_max,
        "grid_step": result.grid_step,
        "best_x1": result.best_x1,
        "best_sqnr_db": result.best_sqnr_db,
        "curve": curve,
    }
    manifest = RunManifest(
        "sweep",
        {"levels": args.levels, "grid_step": args.grid_step, "format": args.format},
    )
    _emit(args, manifest, results, header=["x1", "sqnr_db", "valid", "is_best", "failure"], rows=rows)
    return EXIT_OK


def _table1_rows(grid_step: float) -> list[dict]:
    out = []
    for n in TABLE1_LEVELS:
        source = SourceModel()
        x_max = support_threshold(source, n)
        midpoint = 0.5 * x_max
        equ = evaluate_candidate(n, midpoint, source).report
        swept = sweep(n, grid_step, source)
        opt = lloyd_max(source, n)
        out.append(
            {
                "n_levels": n,
                "bits": math.log2(n),
                "x_max": x_max,
                "sqnr_equ_db": equ.sqnr_db,
                "sqnr_num_db": swept.best_sqnr_db,
                "sqnr_opt_db": opt.sqnr_db,
                "x1_equ": midpoint,
                "x1_num": swept.best_x1,
            }
        )
    return out


def _cmd_table1(args) -> int:
    rows_dicts = _table1_rows(args.grid_step)
    header = [
        "n_levels",
        "bits",
        "x_max",
        "sqnr_equ_db",
        "sqnr_num_db",
        "sqnr_opt_db",
        "x1_equ",
        "x1_num",
    ]
    rows = [[row[h] if h == "n_levels" else float(row[h]) for h in header] for row in rows_dicts]
    results = {"rows": rows_dicts}
    manifest = RunManifest(
        "table1", {"grid_step": args.grid_step, "format": args.format}
    )
    _emit(args, manifest, results, header=header, rows=rows)
    return EXIT_OK


def _cmd_validate(args) -> int:
    design = _design(args)
    analytic = true_distortion(design.quantizer)
    mc = mc_distortion(design.quantizer, args.samples, args.seed)
    z = (mc.mean_distortion - analytic) / mc.std_error if mc.std_error > 0 else math.inf
    passed = abs(z) <= 3.0
    results = {
        "n_levels": args.levels,
        "x1": design.config.knots[1],
        "analytic_distortion": analytic,
        "model_distortion": design.report.total,
        "mc_distortion": mc.mean_distortion,
        "mc_std_error": mc.std_error,
        "n_samples": mc.n_samples,
        "seed": mc.seed,
        "z_score": z,
        "verdict": "PASS" if passed else "FAIL",
    }
    manifest = RunManifest(
        "validate",
        {
            "levels": args.levels,
            "x1": args.x1,
            "grid_step": args.grid_step,
            "samples": args.samples,
            "seed": args.seed,
            "format": args.format,
        },
    )
    _emit(args, manifest, results)
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
    manifest = RunManifest(
        "lloyd-max", {"levels": args.levels, "format": args.format}
    )
    _emit(args, manifest, results)
    return EXIT_OK


def _even_levels(value: str) -> int:
    n = int(value)
    if n < 4 or n % 2:
        raise argparse.ArgumentTypeError(f"levels must be even and >= 4, got {n}")
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


def _positive_int(value: str) -> int:
    x = float(value)
    if not (x >= 1.0 and math.isfinite(x)):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return int(x)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinequant",
        description="Design and evaluate spline-companded quantizers for a unit-variance Gaussian source.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, levels_default=16):
        p.add_argument("--levels", type=_even_levels, default=levels_default,
                       help="number of output levels N (even, >= 4; the two-segment "
                            "commands need >= 6; default %(default)s)")
        p.add_argument("--grid-step", type=_positive_float, default=0.01, dest="grid_step",
                       help="threshold sweep resolution (default %(default)s)")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output document format (default %(default)s)")
        p.add_argument("--out", default=None, help="write the document to this path instead of stdout")

    p = sub.add_parser("design", help="build one quantizer and report it")
    common(p)
    p.add_argument("--x1", default="auto",
                   help="interior segment threshold, or 'auto' to sweep for the best (default auto)")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("sweep", help="emit the SQNR-vs-threshold curve")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("table1", help="midpoint vs optimized vs Lloyd-Max comparison")
    common(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("validate", help="Monte-Carlo check of the analytic distortion")
    common(p)
    p.add_argument("--x1", default="auto", help="threshold to validate (default auto)")
    p.add_argument("--samples", type=_positive_int, default=10_000_000,
                   help="Monte-Carlo sample count (default %(default)s)")
    p.add_argument("--seed", type=_seed, default=42, help="random seed (default %(default)s)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("lloyd-max", help="reference MSE-optimal quantizer")
    common(p)
    p.set_defaults(func=_cmd_lloyd_max)

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
    try:
        return args.func(args)
    except (DesignError, SweepError, ConvergenceError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DESIGN_FAILURE
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
