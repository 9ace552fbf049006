"""Independent numeric oracles for the tests.

The numpy helpers integrate with fixed-order Gauss-Legendre rules, on purpose:
the library's fit moments use adaptive Simpson, so these helpers provide a
structurally different route to the same integrals.  Its cell moments use one
24-point rule, so ``gaussian_cell_distortion`` checks them by closed form;
``weighted_objective`` is the fit's length-weighted squared error.
``recursive_simpson`` is the scalar adaptive Simpson the batched library
routine must reproduce, and ``per_level_build`` the per-level quantizer
construction that the single-pass ``build`` must reproduce: the same failures
and texts, and to 1e-13 relative the same points, since its scalar
``scalar_invert_segment`` solves for both roots of the quadratic with the
general cancellation-free formula, a route independent of the library's
one-branch inverse; its report is ``scalar_report``, summed level by level.
``per_candidate_sweep`` is the threshold sweep that fits, builds and scores
one candidate at a time (``scalar_fit``, the closed-form Legendre projection
in Python floats, then ``per_level_build``), the reference for the library's
one array pass over all candidates.  ``reference_lloyd_max`` iterates the
whole Lloyd-Max codebook, both halves, scoring every iterate, one at a time,
the reference for the library's positive-half iteration, which leaves a run
of iterates unscored and scores the rest one pass per iterate;
``reference_lloyd_iterates`` yields its iterates one by one.
``one_point_refine`` is the golden-section refinement that scores each point
by its own ``_score_knots`` call on one knot row, the reference for the
library's refinement, which scores the points of three steps in one call.
``unsorted_mc_distortion`` assigns each Monte-Carlo draw to its cell by
searching the boundaries draw by draw, as ``encode`` does, the reference for
the library's sort-and-cut of each shard.
``make_spline`` builds a spline from per-segment rows (c0, c1, c2, lo, hi);
``segment_rows``, ``scalar_value``, ``scalar_slope`` and ``knot_values`` read
them back for the scalar references.  The ``mp_`` helpers evaluate closed
forms, solve the fit's normal equations, or invert a segment, in 50-digit
mpmath arithmetic; they import mpmath when called, so tests that use them
skip where it is not installed.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import lru_cache
from statistics import NormalDist
from typing import Callable, Iterator

import numpy as np

from splinequant import QuadratureError, SourceModel
from splinequant.gauss_analytics import (
    cell_second_moment,
    compressor,
    erf,
    pdf,
    support_threshold,
    tail_centroid,
)
from splinequant.quantizer_design import (
    CompandingQuantizer,
    DesignConfig,
    DesignError,
    DistortionReport,
    overload_distortion_closed,
    standard_config,
    step_size,
)
from splinequant.reference_oracles import (
    _SHARD_SIZE,
    ConvergenceError,
    LloydMaxResult,
    McEstimate,
    _invert_compressor,
)
from splinequant.spline_fit import (
    InversionError,
    KnotVector,
    QuadraticSpline,
    target_moments,
)
from splinequant import threshold_optimizer
from splinequant.threshold_optimizer import RefineResult, SweepError, SweepResult

_DOMAIN_SLACK = 1e-9

# recursive_simpson's (relative tolerance, absolute tolerance, subdivision
# budget) unless a call passes its own: those of the library's integrate()
SIMPSON_TOLERANCES = (1e-10, 1e-12, 100_000)


@lru_cache(maxsize=None)
def gl_nodes(order: int = 80) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gl_integrate(f, lo: float, hi: float, order: int = 80) -> float:
    """Gauss-Legendre quadrature of a vectorizable callable on [lo, hi]."""
    x, w = gl_nodes(order)
    t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    vals = np.asarray([f(float(v)) for v in t])
    return float(0.5 * (hi - lo) * np.dot(w, vals))


def make_spline(*segments: tuple[float, float, float, float, float]) -> QuadraticSpline:
    """The spline whose segments, left to right, are the given rows
    (c0, c1, c2, lo, hi)."""
    return QuadraticSpline(np.array(segments, dtype=float).T)


def segment_rows(spline: QuadraticSpline) -> list[tuple[float, float, float, float, float]]:
    """Per segment, left to right, its (c0, c1, c2, lo, hi) as Python floats."""
    return [tuple(column) for column in spline.coefficients.T.tolist()]


def scalar_value(segment, x: float) -> float:
    """Segment polynomial c0 + x*(c1 + c2*x) at ``x`` in Python floats."""
    c0, c1, c2, _, _ = segment
    return c0 + x * (c1 + c2 * x)


def scalar_slope(segment, x: float) -> float:
    """Segment slope c1 + 2*c2*x at ``x`` in Python floats."""
    _, c1, c2, _, _ = segment
    return c1 + 2.0 * c2 * x


def knot_values(spline: QuadraticSpline) -> tuple[float, ...]:
    """The curve's values at all knots, an interior knot taking its left
    segment's value, in Python floats; the first entry is the leading
    segment's value at its own left edge."""
    rows = segment_rows(spline)
    return (scalar_value(rows[0], rows[0][3]),) + tuple(scalar_value(r, r[4]) for r in rows)


def residual_moments(target, segment, order: int = 80) -> list[float]:
    """Integrals of (target - segment polynomial) * x^k, k = 0, 1, 2, for a
    segment row (c0, c1, c2, lo, hi)."""
    c0, c1, c2, lo, hi = segment
    x, w = gl_nodes(order)
    t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * w
    resid = np.asarray([target(float(v)) for v in t]) - (c0 + c1 * t + c2 * t**2)
    return [float(np.dot(w, resid * t**k)) for k in range(3)]


def weighted_objective(target, coeff_rows, knots, order: int = 80) -> float:
    """Length-weighted squared error of a piecewise quadratic given as
    coefficient rows [(c0, c1, c2), ...] over consecutive knot intervals."""
    x, w = gl_nodes(order)
    total = 0.0
    for (c0, c1, c2), lo, hi in zip(coeff_rows, knots, knots[1:]):
        t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        wt = 0.5 * (hi - lo) * w
        resid = np.asarray([target(float(v)) for v in t]) - (c0 + c1 * t + c2 * t**2)
        total += float(np.dot(wt, resid**2)) / (hi - lo)
    return total


def perturbed_objectives(target, spline, magnitude: float, count: int, seed: int) -> tuple[float, np.ndarray]:
    """Base objective and objectives of ``count`` random coefficient
    perturbations of a given euclidean magnitude (seeded)."""
    rng = np.random.default_rng(seed)
    knots = spline.knots
    x, w = gl_nodes(64)
    base = 0.0
    per_seg = []
    for c0, c1, c2, lo, hi in segment_rows(spline):
        t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        wt = 0.5 * (hi - lo) * w / (hi - lo)
        resid = np.asarray([target(float(v)) for v in t]) - (c0 + c1 * t + c2 * t**2)
        base += float(np.dot(wt, resid**2))
        per_seg.append((t, wt, resid))
    n_coef = 3 * len(per_seg)
    deltas = rng.standard_normal((count, n_coef))
    deltas *= magnitude / np.linalg.norm(deltas, axis=1, keepdims=True)
    perturbed = np.zeros(count)
    for i, (t, wt, resid) in enumerate(per_seg):
        basis = np.stack([np.ones_like(t), t, t**2])  # (3, nodes)
        shift = deltas[:, 3 * i : 3 * i + 3] @ basis  # (count, nodes)
        perturbed += ((resid[None, :] - shift) ** 2) @ wt
    return base, perturbed


def uniform_midpoint_quantizer(n_levels: int, x_max: float):
    """Textbook symmetric uniform quantizer on [-x_max, x_max]: N-2 inner
    levels at cell midpoints, step 2*x_max/(N-2)."""
    step = 2.0 * x_max / (n_levels - 2)
    m = (n_levels - 2) // 2
    levels = tuple((k - 0.5) * step for k in range(1, m + 1))
    thresholds = tuple(k * step for k in range(1, m)) + (x_max,)
    return step, levels, thresholds


def splines(tables: np.ndarray) -> list[QuadraticSpline]:
    """The splines of a (fits, 5, segments) stack of ``fit_batch`` tables."""
    return [QuadraticSpline(t) for t in tables]


def gaussian_cell_distortion(lo: float, hi: float, y: float) -> float:
    """Closed form of the integral of (x - y)^2 * standard normal pdf over [lo, hi]."""

    def phi(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    mass = cdf(hi) - cdf(lo)
    first = phi(lo) - phi(hi)
    second = mass + lo * phi(lo) - hi * phi(hi)
    return second - 2.0 * y * first + y * y * mass


MP_DIGITS = 50


def mp_tail_second_moment(a: float, y: float | None = None) -> float:
    """Integral of (x - y)^2 * standard normal pdf over [a, inf) at 50 digits:
    (1 + y^2) Q(a) + (a - 2y) phi(a).  ``y`` defaults to the tail centroid
    phi(a) / Q(a)."""
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        a = mpmath.mpf(a)
        phi = mpmath.exp(-a * a / 2) / mpmath.sqrt(2 * mpmath.pi)
        tail = mpmath.erfc(a / mpmath.sqrt(2)) / 2
        y = phi / tail if y is None else mpmath.mpf(y)
        return float((1 + y * y) * tail + (a - 2 * y) * phi)


def mp_cell_distortion(bounds, levels) -> float:
    """Sum over cells [bounds[i], bounds[i+1]] of the integral of
    (x - levels[i])^2 * standard normal pdf, at 50 digits; the last bound may
    be inf.  Per cell (1 + y^2) (Q(a) - Q(b)) + (a - 2y) phi(a) - (b - 2y) phi(b),
    the b terms dropped at inf."""
    import mpmath

    phi = lambda x: mpmath.exp(-x * x / 2) / mpmath.sqrt(2 * mpmath.pi)
    tail = lambda x: mpmath.erfc(x / mpmath.sqrt(2)) / 2
    with mpmath.workdps(MP_DIGITS):
        total = mpmath.mpf(0)
        for a, b, y in zip(bounds, bounds[1:], levels):
            a, b, y = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(y)
            total += (1 + y * y) * (tail(a) - tail(b)) + (a - 2 * y) * phi(a)
            if mpmath.isfinite(b):
                total -= (b - 2 * y) * phi(b)
        return float(total)


def mp_overload_closed(x_max: float) -> float:
    """sqrt(2/pi) * x_max^-3 * exp(-x_max^2/2) at 50 digits."""
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        x = mpmath.mpf(x_max)
        return float(mpmath.sqrt(2 / mpmath.pi) * mpmath.exp(-x * x / 2) / x**3)


def mp_segment_root(segment, target: float) -> float:
    """The root on the increasing branch of a segment row (c0, c1, c2, lo, hi)
    for ``target`` at 50 digits: (-c1 + sqrt(c1^2 - 4*c2*(c0 - target)))/(2*c2),
    where the slope c1 + 2*c2*x is the positive square root, or
    (target - c0)/c1 when c2 is 0.  A target below the value at lo gives lo."""
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        c0, c1, c2, lo, _ = (mpmath.mpf(v) for v in segment)
        t = mpmath.mpf(target)
        if t <= c0 + lo * (c1 + c2 * lo):
            return float(lo)
        if c2 == 0:
            return float((t - c0) / c1)
        return float((-c1 + mpmath.sqrt(c1 * c1 - 4 * c2 * (c0 - t))) / (2 * c2))


def mp_invert_compressor(x_max: float, value: float) -> float:
    """Preimage of ``value`` under the unit-variance optimal compressor at 50
    digits: sqrt(6) * erfinv(value * erf(x_max / sqrt(6)) / x_max)."""
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        s = mpmath.sqrt(6)
        p = mpmath.mpf(value) * mpmath.erf(mpmath.mpf(x_max) / s) / mpmath.mpf(x_max)
        return float(s * mpmath.erfinv(p))


def mp_exact_compressor_report(n_levels: int) -> tuple[float, float, float]:
    """The companding model on the unit-variance optimal compressor at 50
    digits: the granular noise power, the sum over the positive levels y of
    pdf(y) * (delta / slope(y))^3 / 6 with each level from
    ``mp_invert_compressor`` and the compressor's slope there in mpmath; the
    exact overload term, about the tail centroid; and the SQNR in dB of the
    granular plus the closed-form overload term."""
    import mpmath

    x_max = support_threshold(SourceModel(), n_levels)
    delta = 2.0 * x_max / (n_levels - 2)
    levels = [mp_invert_compressor(x_max, (k - 0.5) * delta) for k in range(1, n_levels // 2)]
    with mpmath.workdps(MP_DIGITS):
        x, s = mpmath.mpf(x_max), mpmath.sqrt(6)
        scale = 2 * x / (mpmath.sqrt(mpmath.pi) * s * mpmath.erf(x / s))
        granular = mpmath.mpf(0)
        for y in map(mpmath.mpf, levels):
            density = mpmath.exp(-y * y / 2) / mpmath.sqrt(2 * mpmath.pi)
            granular += density * (mpmath.mpf(delta) / (scale * mpmath.exp(-((y / s) ** 2)))) ** 3
        granular /= 6
        total = granular + mpmath.sqrt(2 / mpmath.pi) * mpmath.exp(-x * x / 2) / x**3
        return float(granular), 2.0 * mp_tail_second_moment(x_max), float(-10 * mpmath.log10(total))


def recursive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tolerances: tuple[float, float, int] = SIMPSON_TOLERANCES,
) -> float:
    """Adaptive Simpson quadrature of ``f`` over [a, b], scalar and recursive:
    the package's integrate() before it was batched, kept verbatim as the
    reference its breadth-first rewrite must reproduce.

    Deterministic for identical inputs.  ``tolerances`` is (relative,
    absolute, max_subdivisions).  The interval is split until the Richardson
    error estimate of each piece falls under its share of max(absolute,
    relative * |whole|); exceeding max_subdivisions raises QuadratureError
    carrying the best estimate assembled so far.
    """
    relative_tolerance, absolute_tolerance, max_subdivisions = tolerances
    if a > b:
        raise ValueError(f"integration bounds out of order: {a} > {b}")
    if a == b:
        return 0.0

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    if not all(map(math.isfinite, (fa, fm, fb))):
        raise ValueError("integrand not finite on the integration interval")
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    tol = max(absolute_tolerance, relative_tolerance * abs(whole))

    budget = [max_subdivisions]
    exhausted = [False]
    max_depth = 60  # interval width shrinks by 2^-60; past that refinement is noise

    def recurse(
        x0: float, x2: float, f0: float, f1: float, f2: float, s: float, tol_i: float, depth: int
    ) -> float:
        x1 = 0.5 * (x0 + x2)
        left_mid = 0.5 * (x0 + x1)
        right_mid = 0.5 * (x1 + x2)
        fl, fr = f(left_mid), f(right_mid)
        h = x2 - x0
        s_left = h * (f0 + 4.0 * fl + f1) / 12.0
        s_right = h * (f1 + 4.0 * fr + f2) / 12.0
        err = (s_left + s_right - s) / 15.0
        if abs(err) <= tol_i:
            return s_left + s_right + err
        if budget[0] <= 0 or depth >= max_depth:
            exhausted[0] = True
            return s_left + s_right + err
        budget[0] -= 1
        half_tol = 0.5 * tol_i
        return recurse(x0, x1, f0, fl, f1, s_left, half_tol, depth + 1) + recurse(
            x1, x2, f1, fr, f2, s_right, half_tol, depth + 1
        )

    result = recurse(a, b, fa, fm, fb, whole, tol, 0)
    if exhausted[0]:
        raise QuadratureError(
            f"quadrature did not converge within {max_subdivisions} subdivisions",
            best_estimate=result,
        )
    return result


def scalar_invert_segment(spline: QuadraticSpline, segment_index: int, target: float) -> float:
    """One point of ``invert_segment``: the per-point scalar solve."""
    c0, c1, c2, lo, hi = segment_rows(spline)[segment_index]
    a, b, c = c2, c1, c0 - target
    if abs(a) < 1e-12 * abs(b):
        if b == 0.0:
            raise InversionError("degenerate segment polynomial (constant)")
        roots = [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            raise InversionError(
                f"no real root for target {target} on segment {segment_index}"
            )
        s = math.sqrt(disc)
        q = -0.5 * (b + math.copysign(s, b)) if b != 0.0 else -0.5 * s
        roots = [q / a]
        if q != 0.0:
            roots.append(c / q)
        else:
            roots.append(0.0)  # double root at the vertex when b == 0 and disc == 0
        roots = sorted(set(roots))
    inside = [r for r in roots if lo - _DOMAIN_SLACK <= r <= hi + _DOMAIN_SLACK]
    if not inside:
        raise InversionError(
            f"no root in [{lo}, {hi}] for target {target} on segment {segment_index}"
        )
    if len(inside) > 1 and abs(inside[1] - inside[0]) > _DOMAIN_SLACK:
        raise InversionError(
            f"both roots {inside} inside segment {segment_index}: non-monotonic segment"
        )
    return min(max(inside[0], lo), hi)


def _check_monotone(spline: QuadraticSpline) -> None:
    # a quadratic's slope is linear, so its minimum sits at an end
    for i, seg in enumerate(segment_rows(spline)):
        for end, x in (("left", seg[3]), ("right", seg[4])):
            if scalar_slope(seg, x) <= 0.0:
                raise DesignError(
                    f"fitted curve not increasing on segment {i} "
                    f"(slope {scalar_slope(seg, x):.3e} at its {end} end x={x:.6f})"
                )


def _assign_targets(
    spline: QuadraticSpline, config: DesignConfig
) -> tuple[list[list[float]], float]:
    """Partition the half-step target grid (k - 1/2)*delta among segments:
    segment i takes the targets in [value(knot_i), value(knot_{i+1})), after
    checking that the knot values increase and enclose every target."""
    delta = step_size(config)
    kv = knot_values(spline)
    if any(a >= b for a, b in zip(kv, kv[1:])):
        values = ", ".join(f"{v:.6g}" for v in kv)
        raise DesignError(f"compressed knot values not increasing: ({values})")
    if kv[0] >= 0.5 * delta:
        raise DesignError(
            f"fitted value at 0 ({kv[0]:.6f}) reaches the first target {0.5 * delta:.6f}"
        )
    last_target = (config.granular_per_side - 0.5) * delta
    if not kv[-1] > last_target:
        raise DesignError(
            f"fitted value at x_max ({kv[-1]:.6f}) "
            f"does not exceed the last target {last_target:.6f}"
        )
    per_segment: list[list[float]] = [[] for _ in segment_rows(spline)]
    last = len(per_segment) - 1
    for k in range(1, config.granular_per_side + 1):
        t = (k - 0.5) * delta
        i = min(max(bisect.bisect_right(kv, t) - 1, 0), last)
        per_segment[i].append(t)
    return per_segment, delta


def _invert_target(spline: QuadraticSpline, i: int, t: float) -> float:
    seg = segment_rows(spline)[i]
    if t < scalar_value(seg, seg[3]):
        # target sits in an upward fit discontinuity at the left knot; the
        # generalized inverse of the jump is the knot itself
        return seg[3]
    return scalar_invert_segment(spline, i, t)


def per_level_build(spline: QuadraticSpline, config: DesignConfig) -> CompandingQuantizer:
    """Quantizer built one level and one threshold at a time: levels binned
    to segments, thresholds binned again, each inverted by a scalar solve."""
    if spline.knots != config.knots.knots:
        raise DesignError(
            f"spline knots {spline.knots} do not match config knots {config.knots.knots}"
        )
    _check_monotone(spline)
    per_segment, delta = _assign_targets(spline, config)

    levels: list[float] = []
    level_segments: list[int] = []
    try:
        for i, targets in enumerate(per_segment):
            for t in targets:
                levels.append(_invert_target(spline, i, t))
                level_segments.append(i)
    except InversionError as exc:
        raise DesignError(f"level inversion failed: {exc}") from exc

    m = config.granular_per_side
    kv = knot_values(spline)
    thresholds: list[float] = []
    try:
        for k in range(1, m):
            t = k * delta
            i = min(max(bisect.bisect_right(kv, t) - 1, 0), len(kv) - 2)
            thresholds.append(_invert_target(spline, i, t))
    except InversionError as exc:
        raise DesignError(f"threshold inversion failed: {exc}") from exc
    thresholds.append(config.x_max)

    interleaved = [0.0]
    for y, t in zip(levels, thresholds):
        interleaved += [y, t]
    for j, (a, b) in enumerate(zip(interleaved, interleaved[1:])):
        if a >= b:
            raise DesignError(
                f"levels and thresholds do not interleave: grid point {j} maps to {a:.6g}, "
                f"not below {b:.6g} for point {j + 1}"
            )

    overload_level = tail_centroid(config.source, config.x_max)
    rows = segment_rows(spline)
    slopes = [scalar_slope(rows[i], y) for i, y in zip(level_segments, levels)]
    bounds = [0.0] + thresholds
    exact = tuple(b - a for a, b in zip(bounds, bounds[1:]))

    return CompandingQuantizer(
        config=config,
        spline=spline,
        step=delta,
        levels=tuple(levels),
        thresholds=tuple(thresholds),
        counts=tuple(len(ts) for ts in per_segment),
        level_segments=tuple(level_segments),
        overload_level=overload_level,
        cell_lengths_asymptotic=tuple(delta / s for s in slopes),
        cell_lengths_exact=exact,
        report=scalar_report(config, levels, slopes),
    )


def scalar_fit(knots: KnotVector, moments: np.ndarray) -> QuadraticSpline:
    """Per-segment least squares from given target moments: the Legendre
    projection on each segment, in Python floats, one segment at a time."""
    segments = []
    for lo, hi, (m0, m1, m2) in zip(knots.knots, knots.knots[1:], moments.tolist()):
        m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        a1 = (m1 - m * m0) / h
        a2 = (m2 - m * (2.0 * m1 - m * m0)) / (h * h)
        b0 = m0 / (2.0 * h)
        b1 = 3.0 * a1 / (2.0 * h)
        b2 = 5.0 * (3.0 * a2 - m0) / (4.0 * h)
        s1, c2 = b1 / h, 1.5 * b2 / (h * h)
        c1 = s1 - 2.0 * m * c2
        c0 = b0 - 0.5 * b2 - m * (s1 - m * c2)
        segments.append((c0, c1, c2, lo, hi))
    return make_spline(*segments)


def mp_normal_equation_values(lo: float, hi: float, moments, xs) -> list[float]:
    """The least-squares quadratic on [lo, hi] for the given float target
    moments, from a 50-digit solve of its 3x3 normal equations, evaluated at
    each of ``xs``."""
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        gram = mpmath.matrix(
            [[(hi ** (j + k + 1) - lo ** (j + k + 1)) / (j + k + 1) for k in range(3)] for j in range(3)]
        )
        c0, c1, c2 = mpmath.lu_solve(gram, mpmath.matrix([mpmath.mpf(v) for v in moments]))
        return [float(c0 + x * (c1 + c2 * x)) for x in map(mpmath.mpf, xs)]


def scalar_report(config: DesignConfig, levels, slopes) -> DistortionReport:
    """Companding-model report summed level by level, from the curve's slope
    at each level: the granular term, its constant in units of sigma and
    scaled by sigma^2 once; the closed-form overload term behind the SQNR;
    and the exact overload term about the tail centroid, the tail's cell
    moment."""
    src, x_max, sigma = config.source, config.x_max, config.source.sigma
    delta = step_size(config)
    lead = sum(pdf(src, y) / s**2 * (delta / s) for y, s in zip(levels, slopes))
    granular = lead * (2.0 * (x_max / sigma) ** 2 / (3.0 * (config.n_levels - 2) ** 2)) * (sigma * sigma)
    overload = sigma**2 * overload_distortion_closed(x_max / sigma)
    tail = cell_second_moment(src, x_max, math.inf, tail_centroid(src, x_max))
    total = granular + overload
    return DistortionReport(
        granular=granular,
        overload=overload,
        total=total,
        sqnr_db=10.0 * math.log10(sigma**2 / total),
        overload_exact=2.0 * float(tail),
    )


def per_candidate_sweep(
    n_levels: int, grid_step: float = 0.01, source: SourceModel = SourceModel()
) -> tuple[list[tuple[float, QuadraticSpline, DistortionReport | None, str | None]], float]:
    """The threshold sweep one candidate at a time: per grid threshold its
    fitted spline, and its report or the DesignError text; and the argmax
    threshold (ties toward the smaller), or SweepError when none is valid."""
    x_max = support_threshold(source, n_levels)
    grid = []
    while (x1 := 0.5 * x_max + len(grid) * grid_step) < x_max * (1.0 - 1e-12):
        grid.append(x1)
    configs = [standard_config(n_levels, (x1,), source) for x1 in grid]
    moments = target_moments(lambda x: compressor(source, x_max, x), [c.knots for c in configs])
    rows, best, best_db = [], None, None
    for x1, config, m in zip(grid, configs, moments):
        spline = scalar_fit(config.knots, m)
        try:
            report = per_level_build(spline, config).report
        except DesignError as exc:
            rows.append((x1, spline, None, str(exc)))
            continue
        rows.append((x1, spline, report, None))
        if best is None or report.sqnr_db > best_db:
            best, best_db = x1, report.sqnr_db
    if best is None:
        raise SweepError(f"all {len(rows)} sweep candidates failed to build")
    return rows, best


def one_point_refine(result: SweepResult) -> RefineResult:
    """Golden-section refinement of an interior sweep maximum, one point per
    ``threshold_optimizer._score_knots`` call (looked up at each call, so that
    a test's stand-in scores both routes); the bracket, stop width and tie
    rule are the library's."""
    valid = [c for c in result.candidates if c.valid]
    if result.best_x1 in (valid[0].x1, valid[-1].x1):
        return RefineResult(result.best_x1, result.best_sqnr_db, interior=False)
    config = standard_config(result.n_levels, (result.best_x1,), result.source)

    def objective(x1: float) -> float:
        (report,), _ = threshold_optimizer._score_knots(config, [(0.0, x1, config.x_max)])
        return -math.inf if report is None else report.sqnr_db

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    sigma = result.source.sigma
    a = result.best_x1 - result.grid_step * sigma
    b = result.best_x1 + result.grid_step * sigma
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > threshold_optimizer._REFINE_X1_TOLERANCE * sigma:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    x1 = c if fc > fd else d
    val = max(fc, fd)
    if val < result.best_sqnr_db:
        return RefineResult(result.best_x1, result.best_sqnr_db, interior=True)
    return RefineResult(x1, val, interior=True)


def _full_initial_levels(source: SourceModel, n_levels: int) -> list[float]:
    if n_levels >= 4 and n_levels % 2 == 0:
        report_levels = _full_companding_levels(source, n_levels)
        if report_levels is not None:
            return report_levels
    nd = NormalDist(0.0, source.sigma)
    return [nd.inv_cdf((i + 0.5) / n_levels) for i in range(n_levels)]


def _full_companding_levels(source: SourceModel, n_levels: int) -> list[float] | None:
    try:
        x_max = support_threshold(source, n_levels)
    except ValueError:
        return None
    delta = 2.0 * x_max / (n_levels - 2)
    # the unit compressor's preimages, scaled: exact at sigma = 1
    sigma = source.sigma
    positive = [
        sigma * _invert_compressor(x_max / sigma, (k - 0.5) * delta / sigma)
        for k in range(1, (n_levels - 2) // 2 + 1)
    ]
    positive.append(tail_centroid(source, x_max))
    return [-y for y in reversed(positive)] + positive


def reference_lloyd_iterates(source: SourceModel, n_levels: int) -> Iterator[tuple[np.ndarray, float]]:
    """The whole-codebook Lloyd-Max iterates, without end: after each step of
    centroids and midpoints of all ``n_levels`` cells, the levels and the
    distortion by 24-point Gauss-Legendre quadrature on every cell (end cells
    truncated 12 sigma out)."""
    sigma = source.sigma
    levels = np.asarray(_full_initial_levels(source, n_levels), dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    while True:
        mids = 0.5 * (levels[:-1] + levels[1:])
        lo = np.concatenate(([levels[0] - 12.0 * sigma], mids))
        hi = np.concatenate((mids, [levels[-1] + 12.0 * sigma]))
        # centroid of each cell: sigma^2 * (pdf(lo) - pdf(hi)) / mass
        p_lo = np.exp(-0.5 * (lo / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        p_hi = np.exp(-0.5 * (hi / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        mass = 0.5 * (erf(hi / (sigma * math.sqrt(2.0))) - erf(lo / (sigma * math.sqrt(2.0))))
        levels = sigma**2 * (p_lo - p_hi) / mass
        mids = 0.5 * (levels[:-1] + levels[1:])
        lo = np.concatenate(([levels[0] - 12.0 * sigma], mids))
        hi = np.concatenate((mids, [levels[-1] + 12.0 * sigma]))
        x = 0.5 * (hi - lo)[:, None] * nodes[None, :] + 0.5 * (hi + lo)[:, None]
        w = 0.5 * (hi - lo)[:, None] * weights[None, :]
        dens = np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        yield levels, float(np.sum(w * (x - levels[:, None]) ** 2 * dens))


def reference_lloyd_max(
    source: SourceModel,
    n_levels: int,
    tolerance: float = 1e-12,
    max_iterations: int = 10_000,
) -> LloydMaxResult:
    """Lloyd-Max over the whole codebook, one iterate at a time: stops at the
    first of ``reference_lloyd_iterates`` whose distortion fell by less than
    ``tolerance`` relative."""
    if n_levels < 2:
        raise ValueError(f"n_levels must be >= 2, got {n_levels}")
    if tolerance <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    prev = math.inf
    iterates = itertools.islice(reference_lloyd_iterates(source, n_levels), max_iterations)
    for iteration, (levels, distortion) in enumerate(iterates, 1):
        if distortion > prev * (1.0 + 1e-12):
            raise ArithmeticError(
                f"distortion increased at iteration {iteration}: {prev!r} -> {distortion!r}"
            )
        if prev - distortion < tolerance * distortion:
            break
        prev = distortion
    else:
        raise ConvergenceError(
            f"no convergence to {tolerance} within {max_iterations} iterations"
        )
    thresholds = tuple(0.5 * (levels[:-1] + levels[1:]))
    return LloydMaxResult(
        levels=tuple(levels),
        thresholds=thresholds,
        distortion=distortion,
        sqnr_db=10.0 * math.log10(source.sigma**2 / distortion),
        iterations=iteration,
    )


def unsorted_mc_distortion(q: CompandingQuantizer, n_samples: int, seed: int) -> McEstimate:
    """Monte-Carlo distortion with the same shards and draws as the library,
    each draw's level looked up by ``searchsorted(boundaries, x, "right")``."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    boundaries = np.asarray(q.all_boundaries, dtype=float)
    levels = np.asarray(q.all_levels, dtype=float)
    sigma = q.config.source.sigma
    total = 0.0
    total_sq = 0.0
    remaining = n_samples
    shard = 0
    while remaining > 0:
        count = min(_SHARD_SIZE, remaining)
        rng = np.random.default_rng(np.random.SeedSequence((seed, shard)))
        x = sigma * rng.standard_normal(count)
        err_sq = (x - levels[np.searchsorted(boundaries, x, side="right")]) ** 2
        total += float(err_sq.sum())
        total_sq += float((err_sq**2).sum())
        remaining -= count
        shard += 1
    mean = total / n_samples
    variance = max(total_sq / n_samples - mean * mean, 0.0)
    std_error = math.sqrt(variance / n_samples)
    return McEstimate(mean, std_error, n_samples, seed)
