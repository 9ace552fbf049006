"""splinequant benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The seed fixes the workload's op list and inputs.  A pass
runs that op list once, each op starting after the previous one returned,
and every op's output is checked against ``references.json``.

--trace 0  repeats passes until ``--seconds`` have passed and at least
           MIN_PASSES passes are done; prints the end-to-end metrics.  Op
           times are scaled to reference host speed (see ``speed.py``).
--trace 1  runs TRACE_PAIRS pairs of one untraced and one traced pass; prints
           the per-layer metrics per traced pass and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed
(ops whose outcome the check rejected) and metrics.  Spans and a full result
record are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

MIN_PASSES = 4  # every op's median latency is taken over at least this many
SETUP_PROBES = 11
TRACE_PAIRS = 2
# no pass starts after this much of the timed phase, so that all runs of all
# workloads end within the benchmark's overall time budget
PASS_DEADLINE_S = 45.0
# the workload's speed probes (about 10 ms each) run before an op when this
# long has passed since they last ran
PROBE_EVERY_S = 0.25


def load_package() -> None:
    """Import splinequant from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "splinequant" / "__init__.py").is_file():
        sys.exit(f"perfbench: no splinequant sources under {src}")
    sys.path.insert(0, str(src))
    import splinequant

    if Path(splinequant.__file__).resolve().parent != (src / "splinequant").resolve():
        sys.exit(f"perfbench: imported splinequant from {splinequant.__file__}, not {src}")


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def time_to_ready(cmd: list[str]) -> float:
    """Seconds from starting ``cmd`` until it prints the system-wide monotonic
    clock as its last word; its exit and the wait for it are not timed."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(cmd, cwd=ROOT, check=True, timeout=60, stdout=subprocess.PIPE, text=True)
    return float(done.stdout.split()[-1]) - t0


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it has imported the
    package and the CLI, made the inputs and built the fixed designs; as
    timed, and scaled to reference host speed by the start probe (see
    speed.py), which runs before each set-up."""
    from speed import REFERENCE_S, START_PROBE

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    raw, probes = [], []
    for _ in range(SETUP_PROBES):
        probes.append(time_to_ready([sys.executable, *START_PROBE]))
        raw.append(time_to_ready(cmd))
    return raw, [t * REFERENCE_S["start"] / statistics.median(probes) for t in raw]


def run_pass(work, refs, tally, track=None) -> tuple[float, list[float], list[float]]:
    """One pass over the op list; outputs are checked after the pass.

    With a SpeedTrack, the host speed is probed between ops, at most every
    PROBE_EVERY_S; returns the pass's op time, each op's latency and the
    middle moment of each op."""
    from checker import check
    from workloads import run_op

    latencies, moments, outcomes = [], [], []
    last_probe = -PROBE_EVERY_S
    for op in work.ops:
        if track is not None and time.perf_counter() - last_probe >= PROBE_EVERY_S:
            track.sample()
            last_probe = time.perf_counter()
        t0 = time.perf_counter()
        outcome = run_op(op, work)
        latencies.append(time.perf_counter() - t0)
        moments.append(t0 + 0.5 * latencies[-1])
        outcomes.append(outcome)
    for op, outcome in zip(work.ops, outcomes):
        verdict = check(op, outcome, refs, work)
        tally["attempted"] += 1
        if not verdict.correct:
            tally["failed"] += 1
            tally["problems"].setdefault(op.key, verdict.reason)
        if not (verdict.correct and verdict.completed):  # counts toward fail_ratio
            tally["unsuccessful"] += 1
            tally["failing_ops"].add(op.key)
        if op.kind == "cli":
            tally["bytes_out"] += len(outcome.stdout.encode())
    return sum(latencies), latencies, moments


def untraced(work, refs, seconds: float, tally) -> dict:
    """Passes until ``seconds`` of timed phase and MIN_PASSES passes are done.

    Each op's latency is scaled to reference host speed (see speed.py) and
    its typical latency is the median over the passes.  wall_s is the sum of
    the typical latencies of one pass; p50 and p90 are taken over them.  The
    same figures from the raw times are kept in the record."""
    from speed import SpeedTrack, task_for

    track = SpeedTrack(task_for(op.key) for op in work.ops)
    raw, moments = [], []
    t0 = time.perf_counter()
    while True:
        _, lat, mid = run_pass(work, refs, tally, track)
        raw.append(lat)
        moments.append(mid)
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and len(raw) >= MIN_PASSES:
            break
        if elapsed > PASS_DEADLINE_S:
            break
    track.sample()
    scaled = [[x * track.scale(m, op.key) for x, m, op in zip(lat, mid, work.ops)]
              for lat, mid in zip(raw, moments)]

    def summary(passes):
        typical_ms = [statistics.median(col) * 1e3 for col in zip(*passes)]
        return {
            "wall_s": sum(typical_ms) / 1e3,
            "op_ms_p50": statistics.median(typical_ms),
            "op_ms_p90": statistics.quantiles(typical_ms, n=10)[-1],
        }

    n_ops = len(raw) * len(work.ops)
    typical = summary(scaled)
    return {
        "passes": len(raw),
        "pass_walls_s": [sum(p) for p in scaled],
        "raw_pass_walls_s": [sum(p) for p in raw],
        "probe_s": track.took,
        "typical_op_ms": [(op.key, statistics.median(col) * 1e3)
                          for op, col in zip(work.ops, zip(*scaled))],
        "raw": summary(raw),
        "metrics": {
            "wall_s": (typical["wall_s"], "s"),
            "op_ms_p50": (typical["op_ms_p50"], "ms"),
            "op_ms_p90": (typical["op_ms_p90"], "ms"),
        },
        "samples": {"wall_s": len(raw), "op_ms_p50": n_ops, "op_ms_p90": n_ops},
    }


def traced(work, refs, tally) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    plain, with_spans = [], []
    traced_bytes = 0
    for _ in range(TRACE_PAIRS):
        plain.append(run_pass(work, refs, tally)[0])
        bytes_before = tally["bytes_out"]
        with tracer.installed():
            with_spans.append(run_pass(work, refs, tally)[0])
        traced_bytes += tally["bytes_out"] - bytes_before
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{work.name}.npz")
    layers = tracer.layer_metrics(TRACE_PAIRS)
    layers["cli.bytes_out"] = traced_bytes / TRACE_PAIRS
    layers["trace.overhead_ratio"] = statistics.median(with_spans) / statistics.median(plain)
    return {
        "passes": 2 * TRACE_PAIRS,
        "pass_walls_s": {"untraced": plain, "traced": with_spans},
        "spans": len(tracer.start),
        "layers": layers,
    }


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set the workload up, then exit (times set-up)")
    args = parser.parse_args(argv)

    load_package()
    from workloads import WORKLOADS, prepare

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.setup_probe:
        prepare(args.workload, args.seed)
        print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}")
        return 0

    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))["ops"]
    setup_raw, setup_times = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    work = prepare(args.workload, args.seed)
    tally = {"attempted": 0, "failed": 0, "unsuccessful": 0, "bytes_out": 0,
             "problems": {}, "failing_ops": set()}

    if args.trace:
        detail = traced(work, refs, tally)
        units = per_layer_units()
        metrics = {name: {"value": detail["layers"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        detail = untraced(work, refs, args.seconds, tally)
        fail_ratio = tally["unsuccessful"] / tally["attempted"]
        detail["metrics"]["setup_s"] = (statistics.median(setup_times), "s")
        detail["metrics"]["ok_ratio"] = (1.0 - fail_ratio, "ratio")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        detail["metrics"]["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
        detail["samples"]["setup_s"] = len(setup_times)
        detail["setup_s_runs"] = setup_times
        detail["raw"]["setup_s"] = statistics.median(setup_raw)
        detail["raw_setup_s_runs"] = setup_raw
        detail["fail_ratio"] = fail_ratio
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in detail["metrics"].items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "loop": "closed, 1 client",
        "ops_per_pass": len(work.ops),
        "env": environment(),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "failing_ops": sorted(tally["failing_ops"]),
        "problems": tally["problems"],
        **{k: v for k, v in detail.items() if k != "metrics"},
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['passes']} passes of {len(work.ops)} ops, closed loop, 1 client")
    print("env " + json.dumps(record["env"]))
    if not args.trace:
        print(f"fail_ratio {detail['fail_ratio']:.6g} ({tally['unsuccessful']}/{tally['attempted']}; "
              f"failing ops: {', '.join(record['failing_ops']) or 'none'})")
    for name, m in metrics.items():
        n = detail.get("samples", {}).get(name)
        raw = detail.get("raw", {}).get(name)
        print(f"{name} {m['value']:.6g} {m['unit']}" + (f" (n={n})" if n else "")
              + (f" at reference speed; {raw:.6g} {m['unit']} as timed" if raw is not None else ""))
    for key, reason in tally["problems"].items():
        print(f"FAILED {key}: {reason}")
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
