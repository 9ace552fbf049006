"""Time the layers under the threshold sweep, in process.

    python3 tools/layer_times.py [--repeat 15] [--levels 16 64 ...] [--src DIR]

For each layer it prints the median and the interquartile range (IQR) of
``--repeat`` timed calls, in microseconds per element for ``erf``, per
sample for ``encode`` and ``decode``, per 10^6 samples for ``mc_draws`` and
``mc_distortion`` and in milliseconds for the rest:

* ``erf``: ``gauss_analytics.erf`` at 65 and at 40,000 elements;
* ``target_moments``: the fit moments of every knot row of ``sweep(N)``, the
  one quadrature pass the sweep makes;
* ``evaluate_candidate``: the quantizer at the threshold ``sweep(N)`` picks:
  one fit of its knot row, then one ``build``, which computes its report;
* ``build``: one ``build`` of the spline fitted at that threshold, report
  included, the fit made before the timer starts;
* ``sweep`` and ``refine``: ``sweep(N)`` and ``refine`` of its result.
  The ``refine`` row also gives its ``passes``, the ``_score_knots`` calls
  one refinement makes, and ``points``, the knot rows those calls score;
* ``exact_compressor_sqnr``: the exact-compressor comparator at N;
* ``encode`` and ``decode``: one seeded block of 4,096 N(0,1) samples coded
  one sample at a time, then its codes decoded, on the quantizer at the
  threshold ``sweep(N)`` picks, as the benchmark's encode-stream ops do;
* ``lloyd_max``: one whole ``lloyd_max`` run at N, to convergence or, at
  N = 256, to the 10,000-iteration cap; timed up to N = 256 only, since a
  run at larger N is seconds of steps that never converge.  Its row also
  gives the run's ``iterations``, the cap where it raises
  ``ConvergenceError``, and ``us_per_iteration``, the median over
  ``iterations`` in microseconds, so that a change to the step shows apart
  from a change in the iteration count;
* ``mc_draws``: the seeded draws of that ``mc_distortion`` call alone, with
  the library's shard and block layout, one block after another into one
  buffer: the floor that ``mc_distortion``, whose scoring runs while the next
  block is drawn, cannot go below;
* ``mc_distortion``: 10^6 seeded samples through the quantizer at
  x1 = 0.6 x_max, built by ``evaluate_candidate`` as the benchmark's
  ``validate`` ops build theirs; skipped where it does not build (N >= 512);
* ``true_distortion``: the cell-by-cell distortion of that same quantizer.

N runs over 16, 32, ..., 1024 unless ``--levels`` names others.  ``sweep``
fails for N >= 1024 (no candidate builds); it is then timed up to the
``SweepError``, and the layers that need its candidates are skipped.  ``--src``
imports the package from another checkout's ``src``, so that two commits can
be compared on one machine: run the tool once per checkout, alternating.  The
last line of stdout is the table as one JSON object.

Standard library and numpy only, besides the package under test.
"""

from __future__ import annotations

import argparse
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEVELS = tuple(2**e for e in range(4, 11))  # 16 ... 1024
LLOYD_LEVELS = 256  # lloyd_max is timed up to this N
BLOCK_SAMPLES = 4096  # samples in the encode/decode block


def spread(fn, repeat: int, scale: float = 1e3) -> dict[str, float]:
    """Median and IQR of ``repeat`` timed calls of ``fn``, in seconds times ``scale``."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * scale)
    q1, _, q3 = statistics.quantiles(times, n=4) if repeat > 1 else times * 3
    return {"median": statistics.median(times), "iqr": q3 - q1}


def seeded_draws(n_samples: int, seed: int, n_levels: int) -> None:
    """The draws of ``mc_distortion(q, n_samples, seed)`` for a quantizer of
    ``n_levels`` levels, in its shards and blocks, into one buffer; nothing
    is scored."""
    import numpy as np

    from splinequant import reference_oracles as oracles

    size = min(n_samples, oracles._SHARD_SIZE, max(oracles._MC_BLOCK, oracles._MC_BLOCK_PER_LEVEL * n_levels))
    block = np.empty(size)
    for shard, start in enumerate(range(0, n_samples, oracles._SHARD_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, shard)))
        shard_size = min(oracles._SHARD_SIZE, n_samples - start)
        for offset in range(0, shard_size, size):
            rng.standard_normal(out=block[: min(size, shard_size - offset)])


def refine_counts(opt, result) -> dict[str, int]:
    """The ``_score_knots`` calls and the knot rows they score in one
    ``refine(result)``, counted on an untimed call."""
    rows = []
    real = opt._score_knots
    opt._score_knots = lambda config, knots: rows.append(len(knots)) or real(config, knots)
    try:
        opt.refine(result)
    finally:
        opt._score_knots = real
    return {"passes": len(rows), "points": sum(rows)}


def layers(levels, repeat: int) -> list[dict]:
    """One row per (layer, size): its name, size, unit and ``spread``."""
    import numpy as np

    from splinequant import gauss_analytics, threshold_optimizer as opt
    from splinequant.quantizer_design import DesignError, build, decode, encode, standard_config
    from splinequant.reference_oracles import ConvergenceError, exact_compressor_sqnr, lloyd_max
    from splinequant.reference_oracles import mc_distortion, true_distortion
    from splinequant.spline_fit import fit, target_moments

    lloyd_cap = inspect.signature(lloyd_max).parameters["max_iterations"].default
    block = np.random.default_rng(0).standard_normal(BLOCK_SAMPLES).tolist()
    rows = []
    for size in (65, 40_000):
        z = np.linspace(0.0, 3.0, size)
        cost = spread(lambda: gauss_analytics.erf(z), repeat, 1e6 / size)
        rows.append({"layer": "erf", "size": size, "unit": "us/element", **cost})
    for n in levels:

        def sweep():
            try:
                return opt.sweep(n)
            except opt.SweepError:
                return None

        result = sweep()
        timed = [("sweep", sweep)]
        if result is not None:
            x_max, source = result.x_max, result.source
            target = lambda x: gauss_analytics.compressor(source, x_max, x)
            knots = [(0.0, c.x1, x_max) for c in result.candidates]
            config = standard_config(n, (result.best_x1,), source)
            spline = fit(target, config.knots)
            timed = [
                ("target_moments", lambda: target_moments(target, knots)),
                *timed,
                ("evaluate_candidate", lambda: opt.evaluate_candidate(n, result.best_x1, source)),
                ("build", lambda: build(spline, config)),
                ("refine", lambda: opt.refine(result)),
            ]
        comparator = lambda: exact_compressor_sqnr(gauss_analytics.SourceModel(), n)
        timed.append(("exact_compressor_sqnr", comparator))
        for layer, fn in timed:
            row = {"layer": layer, "size": n, "unit": "ms", **spread(fn, repeat)}
            if layer == "refine":
                row.update(refine_counts(opt, result))
            rows.append(row)
        if result is not None:
            q = opt.evaluate_candidate(n, result.best_x1, source)
            codes = [encode(q, x) for x in block]
            for layer, fn in (
                ("encode", lambda: [encode(q, x) for x in block]),
                ("decode", lambda: [decode(q, c) for c in codes]),
            ):
                cost = spread(fn, repeat, 1e6 / BLOCK_SAMPLES)
                rows.append({"layer": layer, "size": n, "unit": "us/sample", **cost})

        iterations = []

        def lloyd():
            try:
                iterations.append(lloyd_max(gauss_analytics.SourceModel(), n).iterations)
            except ConvergenceError:
                iterations.append(lloyd_cap)

        if n <= LLOYD_LEVELS:
            cost = spread(lloyd, repeat)
            count = {"iterations": iterations[-1], "us_per_iteration": cost["median"] * 1e3 / iterations[-1]}
            rows.append({"layer": "lloyd_max", "size": n, "unit": "ms", **cost, **count})

        unit = gauss_analytics.SourceModel()
        try:
            q = opt.evaluate_candidate(n, 0.6 * gauss_analytics.support_threshold(unit, n), unit)
        except DesignError:
            continue
        cost = spread(lambda: seeded_draws(10**6, 42, len(q.all_levels)), repeat)
        rows.append({"layer": "mc_draws", "size": n, "unit": "ms/1e6 samples", **cost})
        cost = spread(lambda: mc_distortion(q, 10**6, 42), repeat)
        rows.append({"layer": "mc_distortion", "size": n, "unit": "ms/1e6 samples", **cost})
        cost = spread(lambda: true_distortion(q), repeat)
        rows.append({"layer": "true_distortion", "size": n, "unit": "ms", **cost})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15, help="timed calls per layer (default 15)")
    parser.add_argument("--levels", type=int, nargs="+", default=list(LEVELS), help="N values")
    parser.add_argument(
        "--src", type=Path, default=ROOT / "src", help="src directory to import the package from"
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path.insert(0, str(args.src.resolve()))
    rows = layers(args.levels, args.repeat)
    print(f"{'layer':<24}{'size':>8}{'median':>12}{'IQR':>10}  unit")
    for r in rows:
        count = ""
        if "iterations" in r:
            count = f", {r['iterations']} iterations, {r['us_per_iteration']:.3g} us/iteration"
        elif "passes" in r:
            count = f", {r['passes']} passes, {r['points']} points"
        print(f"{r['layer']:<24}{r['size']:>8}{r['median']:>12.4g}{r['iqr']:>10.3g}  {r['unit']}{count}")
    print(json.dumps({"repeat": args.repeat, "src": str(args.src), "layers": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
