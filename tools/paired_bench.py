"""Paired benchmark runs: a base commit against the working tree.

    python3 tools/paired_bench.py --base HEAD~1 --pairs 10 [--workload design-sweep ...] [--tier1 K]

Exports ``--base`` with ``git archive`` into a temporary directory (nothing is
registered in the repository), then runs ``perfbench/run.py`` on that copy and
on the working tree, one run per side and pair, alternating which side runs
first.  Pair i uses seed ``--seed + i`` on both sides.  Workloads, run length
and metrics come from ``BENCHMARK.json``.

For every workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither) and a
verdict:

* ``gain``       the change won at least 9/10 of the pairs and its median is
                 better than the base's by more than the base's quartile
                 distance;
* ``unresolved`` no gain, and the base's quartile distance, relative to its
                 median, is wider than the metric's bound, unless every run
                 of the change is better than every run of the base;
* ``worse``      the change's median is worse than the base's by more than
                 the metric's bound;
* ``within``     otherwise.

Under each workload it also prints, for every op key, each side's median of
the op's typical latency (``typical_op_ms`` in the run's
``.perfbench_out/result-<workload>-seed<n>-trace0.json``), so a change can be
traced to the ops that moved.

It also prints the line count of ``src/splinequant/*.py`` in the base tree
and in the working tree, as ``wc -l`` counts it.

With ``--tier1 K`` (K >= 2) it also runs the tier-1 suite, ROADMAP's
``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``, K
times per side, alternating which side runs first, and prints each side's
median and quartiles of the suite's wall time and the passed, failed and
error counts of each run.

The last line of stdout is the same table as one JSON object: for every
workload and metric both sides' medians and quartiles, the change/base ratio,
the pairs won and the verdict, the per-op medians, plus the seeds, the host
details the runs reported, the base commit and the working tree's commit (and
whether it had uncommitted changes), both line counts under ``src_lines``,
and with ``--tier1`` the suite's figures under ``tier1``.  Commit it as
``BENCH_<n>.json``.

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# ROADMAP's tier-1 command, run with src on PYTHONPATH
TIER1_COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: the JSON object its last line prints,
    with the host details of its ``env`` line under ``env`` and its result
    record's typical latency per op key under ``typical_op_ms``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"run failed in {tree} ({workload}, seed {seed}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = [line[len("env "):] for line in lines if line.startswith("env ")]
    result["env"] = json.loads(env[0]) if env else {}
    record = tree / ".perfbench_out" / f"result-{workload}-seed{seed}-trace0.json"
    result["typical_op_ms"] = dict(json.loads(record.read_text(encoding="utf-8"))["typical_op_ms"])
    return result


def run_tier1(tree: Path) -> dict:
    """One run of ``TIER1_COMMAND`` in ``tree``: its wall time in seconds and
    the passed, failed and error counts of pytest's summary line."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(TIER1_COMMAND, cwd=tree, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=False)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    summary = re.findall(r"(\d+) (passed|failed|error)s?\b", lines[-1] if lines else "")
    counts = {kind: int(n) for n, kind in summary}
    if not counts:
        sys.exit(f"tier-1 run gave no summary in {tree}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {"wall_s": wall_s, **{k: counts.get(k, 0) for k in ("passed", "failed", "error")}}


def summarize_tier1(runs: dict) -> dict:
    """Per side: the median and quartiles of the tier-1 runs' wall times and
    each run's passed, failed and error counts, in run order."""
    out = {}
    for side, results in runs.items():
        q1, med, q3 = quartiles([r["wall_s"] for r in results])
        out[side] = {"wall_s": {"median": med, "q1": q1, "q3": q3}, "runs": len(results),
                     **{k: [r[k] for r in results] for k in ("passed", "failed", "error")}}
    return out


def src_lines(tree: Path) -> int:
    """The newlines in ``tree``'s ``src/splinequant/*.py``, the total of ``wc -l``."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "splinequant").glob("*.py"))


def export(commit: str, into: str) -> None:
    """The files of ``commit``, from ``git archive``, unpacked into ``into``."""
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
    tarfile.open(fileobj=io.BytesIO(archive.stdout)).extractall(into)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    """The label for one metric (see the module docstring) and the pairs the change won."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - base) < 0: change better
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(change)
    if wins >= 0.9 * len(base) and sign * (bm - cm) > b3 - b1:
        return "gain", wins
    relative = lambda d: d / abs(bm) if bm else (math.inf if d > 0 else 0.0)
    every_run_better = max(sign * c for c in change) < min(sign * b for b in base)
    if relative(b3 - b1) > bound and not every_run_better:
        return "unresolved", wins
    if relative(sign * (cm - bm)) > bound:
        return "worse", wins
    return "within", wins


def op_medians(sides: dict) -> dict:
    """Per op key that every run timed: each side's median typical latency
    (ms) and the change/base ratio, in the first run's op order."""
    runs = [r.get("typical_op_ms", {}) for s in sides.values() for r in s]
    out = {}
    for key in runs[0]:
        if all(key in r for r in runs):
            base = statistics.median(r["typical_op_ms"][key] for r in sides["base"])
            change = statistics.median(r["typical_op_ms"][key] for r in sides["change"])
            out[key] = {"base": base, "change": change, "ratio": change / base if base else None}
    return out


def summarize(runs: dict, spec: dict) -> dict:
    """Per workload and end-to-end metric: both sides' median and quartiles,
    the change/base ratio of the medians, the pairs won and the verdict;
    per workload also the op medians of ``op_medians``."""
    out = {}
    for workload, sides in runs.items():
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in sides["base"]]
            change = [r["metrics"][name]["value"] for r in sides["change"]]
            label, wins = verdict(base, change, metric["better"], metric["bound"])
            (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
            metrics[name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "base": {"median": bm, "q1": b1, "q3": b3},
                "change": {"median": cm, "q1": c1, "q3": c3},
                "ratio": cm / bm if bm else None,
                "wins": wins, "pairs": len(base), "verdict": label,
            }
        correct = all(r["correct"] and r["failed"] == 0 for s in sides.values() for r in s)
        out[workload] = {"every_run_correct": correct, "metrics": metrics,
                         "typical_op_ms": op_medians(sides)}
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload, at least 10")
    parser.add_argument("--workload", action="append", choices=names, help="default: all")
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    parser.add_argument("--tier1", type=int, default=0, metavar="K",
                        help="also time the tier-1 suite K times per side (K >= 2)")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("at least 10 pairs are needed to judge a gain")
    if args.tier1 and args.tier1 < 2:
        parser.error("--tier1 needs at least 2 runs per side for quartiles")

    runs: dict = {}
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        export(args.base, tmp)
        trees = {"base": Path(tmp), "change": ROOT}
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        for workload in args.workload or names:
            runs[workload] = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    result = run_once(trees[side], workload, args.seed + i, spec["run_seconds"])
                    runs[workload][side].append(result)
                    print(f"{workload} pair {i} {side}: correct={result['correct']} "
                          f"failed={result['failed']}", file=sys.stderr, flush=True)
        suite: dict = {"base": [], "change": []}
        for i in range(args.tier1):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                suite[side].append(run_tier1(trees[side]))
                print(f"tier1 run {i} {side}: {suite[side][-1]}", file=sys.stderr, flush=True)
    table = summarize(runs, spec)
    tier1 = summarize_tier1(suite) if args.tier1 else None

    print(f"base {args.base} vs working tree, {args.pairs} pairs, {spec['run_seconds']:g} s runs")
    print(f"src/splinequant/*.py lines: base {lines['base']} | change {lines['change']}")
    print("workload metric: base median [q1, q3] | change median [q1, q3] | change/base | wins | verdict")
    for workload, row in table.items():
        print(f"{workload}: every run correct with 0 failed ops: {row['every_run_correct']}")
        for name, m in row["metrics"].items():
            b, c = m["base"], m["change"]
            ratio = float("nan") if m["ratio"] is None else m["ratio"]
            print(f"  {name}: {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] | "
                  f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] | "
                  f"{ratio:.3f} | {m['wins']}/{m['pairs']} | {m['verdict']}")
        if row["typical_op_ms"]:
            print("  typical op ms, median: base | change | change/base")
        for key, op in row["typical_op_ms"].items():
            ratio = float("nan") if op["ratio"] is None else op["ratio"]
            print(f"    {key}: {op['base']:.6g} | {op['change']:.6g} | {ratio:.3f}")
    if tier1:
        print(f"tier1 wall_s, {args.tier1} runs per side: median [q1, q3] | passed | failed | error")
        for side, row in tier1.items():
            w = row["wall_s"]
            print(f"  {side}: {w['median']:.6g} [{w['q1']:.6g}, {w['q3']:.6g}] | "
                  f"{row['passed']} | {row['failed']} | {row['error']}")
    first = next(iter(runs.values()))["base"][0]
    print(json.dumps({
        "base": {"ref": args.base, "commit": git("rev-parse", "--verify", f"{args.base}^{{commit}}")},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "pairs": args.pairs,
        "run_seconds": spec["run_seconds"],
        "seeds": [args.seed + i for i in range(args.pairs)],
        "src_lines": lines,
        "host": first["env"],
        "workloads": table,
        **({"tier1": tier1} if tier1 else {}),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
