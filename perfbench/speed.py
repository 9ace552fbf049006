"""Host speed probes: fixed tasks that do not touch splinequant.

The benchmark runs on shared virtual machines whose speed drifts by up to
1.6x over minutes (another tenant's load on the same physical core), and
not by the same factor for every kind of code.  A closed-loop timing of the
package follows that drift.  Each op is therefore paired with a probe: a
fixed task of the same kind of work as the op's hot path, written here
without splinequant.  The probes are timed between ops, and an op's time is
scaled by ``REFERENCE_S[task] / <probe time around the op>``: the time the
op would take on a host that runs the probe in exactly ``REFERENCE_S[task]``.
A change to splinequant changes the op times but not the probes, so it shows
in the scaled times in full.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import time

import numpy as np

# An op is scaled by the median of the probes taken within this many
# seconds of it (at least PROBE_NEIGHBOURS of the nearest ones).
PROBE_WINDOW_S = 3.0
PROBE_NEIGHBOURS = 5

_GL_NODES = np.polynomial.legendre.leggauss(24)[0]
_ERF = np.vectorize(math.erf)
_RNG = random.Random(1)
_HALF_TABLE = tuple(sorted(_RNG.uniform(0.0, 4.0) for _ in range(64)))
_SAMPLES = [_RNG.gauss(0.0, 1.0) for _ in range(1000)]
_TABLE_ARRAY = np.linspace(-3.0, 3.0, 63)


def _simpson(f, a: float, b: float, tol: float) -> float:
    def rec(x0, x2, f0, f1, f2, s, tol, depth):
        x1 = 0.5 * (x0 + x2)
        fl, fr = f(0.5 * (x0 + x1)), f(0.5 * (x1 + x2))
        h = x2 - x0
        s_left = h * (f0 + 4.0 * fl + f1) / 12.0
        s_right = h * (f1 + 4.0 * fr + f2) / 12.0
        if depth >= 40 or abs(s_left + s_right - s) <= 15.0 * tol:
            return s_left + s_right + (s_left + s_right - s) / 15.0
        return (rec(x0, x1, f0, fl, f1, s_left, 0.5 * tol, depth + 1)
                + rec(x1, x2, f1, fr, f2, s_right, 0.5 * tol, depth + 1))

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    return rec(a, b, fa, fm, fb, (b - a) * (fa + 4.0 * fm + fb) / 6.0, tol, 0)


def quadrature_task() -> None:
    """Scalar adaptive Simpson of Gaussian integrands, like the design path
    (integrate, fit, build, sqnr) and the analytic oracles."""
    for k in (1.0, 1.25, 1.5, 2.0, 2.5, 3.0):
        _simpson(lambda x: x * x * math.exp(-0.5 * x * x) * math.erfc(x / k), 0.0, 8.0, 1e-12)


def lloyd_task() -> None:
    """Small-array iterations with a vectorized erf and 24-node cell
    quadrature, like Lloyd-Max."""
    levels = np.linspace(-3.0, 3.0, 128)
    for _ in range(100):
        mids = 0.5 * (levels[:-1] + levels[1:])
        lo = np.concatenate(([levels[0] - 12.0], mids))
        hi = np.concatenate((mids, [levels[-1] + 12.0]))
        mass = 0.5 * (_ERF(hi / math.sqrt(2.0)) - _ERF(lo / math.sqrt(2.0)))
        x = 0.5 * (hi - lo)[:, None] * _GL_NODES[None, :] + 0.5 * (hi + lo)[:, None]
        float(np.sum((x - levels[:, None]) ** 2 * np.exp(-0.5 * x * x)) / np.sum(mass))
        levels = levels * (1.0 - 1e-6)


def sampling_task() -> None:
    """Seeded Gaussian draws quantized by a sorted table, like the
    Monte-Carlo distortion of ``validate``."""
    # several 1.6 MB arrays at once overflow the 2 MB per-core L2 cache, as
    # the 8 MB shards of mc_distortion do: the probe waits on memory as they do
    levels = np.linspace(-3.1, 3.1, 64)
    rng = np.random.default_rng(np.random.SeedSequence((0, 0)))
    x = rng.standard_normal(200_000)
    err_sq = (x - levels[np.searchsorted(_TABLE_ARRAY, x, side="right")]) ** 2
    float(err_sq.sum()) + float((err_sq**2).sum())


def coding_task() -> None:
    """Per-sample table assembly from a half table, a bisection and a
    lookup, like scalar encode/decode."""
    half = _HALF_TABLE
    for x in _SAMPLES:
        if not math.isfinite(x):
            continue
        bounds = (-4.0,) + tuple(-t for t in reversed(half[:-1])) + (0.0,) + half[:-1]
        code = bisect.bisect_right(bounds, x)
        levels = (-4.5,) + tuple(-y for y in reversed(half)) + half + (4.5,)
        levels[code]


TASKS = {
    "quadrature": quadrature_task,
    "lloyd": lloyd_task,
    "sampling": sampling_task,
    "coding": coding_task,
}
# Typical probe times on a 2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6.  They
# fix the unit of the scaled times and must not change between measurements
# that are compared.
REFERENCE_S = {
    "start": 0.2,
    "quadrature": 0.009,
    "lloyd": 0.012,
    "sampling": 0.018,
    "coding": 0.014,
}


# The probe for set-up time: a fresh interpreter that imports numpy and prints
# the system-wide monotonic clock when it is ready.
START_PROBE = ["-c", "import time, numpy; "
               "print('ready', repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"]


def task_for(op_key: str) -> str:
    """The probe whose work is most like the op's: ``validate`` is dominated
    by its Monte-Carlo draws, ``lloyd-max`` by Lloyd iterations, ``encode``
    by scalar coding, and every other op by scalar quadrature."""
    return {"validate": "sampling", "lloyd-max": "lloyd", "encode": "coding"}.get(
        op_key.split("/")[0], "quadrature")


class SpeedTrack:
    """Times of the probes a workload needs, with the moment each was
    taken; scales op times."""

    def __init__(self, tasks) -> None:
        self.tasks = sorted(set(tasks))
        self.at: list[float] = []
        self.took: dict[str, list[float]] = {task: [] for task in self.tasks}

    def sample(self) -> None:
        t0 = time.perf_counter()
        for task in self.tasks:
            t = time.perf_counter()
            TASKS[task]()
            self.took[task].append(time.perf_counter() - t)
        self.at.append(0.5 * (t0 + time.perf_counter()))

    def local(self, t: float, task: str) -> float:
        """Median time of ``task``'s probe around moment ``t``."""
        i = bisect.bisect_left(self.at, t)
        lo, hi = i, i
        while True:
            grow = False
            if lo > 0 and (t - self.at[lo - 1] <= PROBE_WINDOW_S or hi - lo < PROBE_NEIGHBOURS):
                lo, grow = lo - 1, True
            if hi < len(self.at) and (self.at[hi] - t <= PROBE_WINDOW_S
                                      or hi - lo < PROBE_NEIGHBOURS):
                hi, grow = hi + 1, True
            if not grow:
                break
        return statistics.median(self.took[task][lo:hi])

    def scale(self, t: float, op_key: str) -> float:
        """Factor that turns the time of op ``op_key``, measured around
        moment ``t``, into reference time."""
        task = task_for(op_key)
        return REFERENCE_S[task] / self.local(t, task)
