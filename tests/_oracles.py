"""Independent numeric oracles for the tests.

The numpy helpers integrate with fixed-order Gauss-Legendre rules, on purpose:
the library's fit moments use adaptive Simpson and its cell moments a closed
form, so these helpers provide a structurally different route to the same
integrals; ``weighted_objective`` is the fit's length-weighted squared error.
``recursive_simpson`` is the scalar adaptive Simpson the batched library
routine must reproduce, and ``per_level_build`` the per-level quantizer
construction, with its scalar ``scalar_invert_segment``, that the single-pass
``build`` must reproduce.  ``per_candidate_sweep`` is the threshold sweep that
fits, builds and scores one candidate at a time (``scalar_fit`` with its
``scalar_solve3``, ``per_level_build``, ``scalar_sqnr``), the reference for
the library's one array pass over all candidates.  ``reference_lloyd_max``
iterates the whole Lloyd-Max codebook, both halves, the reference for the
library's positive-half iteration.  The ``mp_``
helpers evaluate closed forms in 50-digit mpmath arithmetic; they import
mpmath when called, so tests that use them skip where it is not installed.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache
from statistics import NormalDist
from typing import Callable

import numpy as np

from splinequant import QuadratureError, SourceModel
from splinequant.gauss_analytics import compressor, erf, pdf, support_threshold, tail_centroid
from splinequant.quantizer_design import (
    CompandingQuantizer,
    DesignConfig,
    DesignError,
    DistortionReport,
    overload_distortion_closed,
    overload_distortion_exact,
    standard_config,
    step_size,
)
from splinequant.reference_oracles import ConvergenceError, LloydMaxResult, _invert_compressor
from splinequant.spline_fit import (
    FitError,
    InversionError,
    KnotVector,
    QuadraticSpline,
    QuadSegment,
    target_moments,
)
from splinequant.threshold_optimizer import SweepError

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


def residual_moments(target, segment, order: int = 80) -> list[float]:
    """Integrals of (target - segment polynomial) * x^k, k = 0, 1, 2."""
    x, w = gl_nodes(order)
    t = 0.5 * (segment.hi - segment.lo) * x + 0.5 * (segment.hi + segment.lo)
    w = 0.5 * (segment.hi - segment.lo) * w
    resid = np.asarray([target(float(v)) for v in t]) - (
        segment.c0 + segment.c1 * t + segment.c2 * t**2
    )
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
    for seg in spline.segments:
        t = 0.5 * (seg.hi - seg.lo) * x + 0.5 * (seg.hi + seg.lo)
        wt = 0.5 * (seg.hi - seg.lo) * w / (seg.hi - seg.lo)
        resid = np.asarray([target(float(v)) for v in t]) - (
            seg.c0 + seg.c1 * t + seg.c2 * t**2
        )
        base += float(np.dot(wt, resid**2))
        per_seg.append((t, wt, resid))
    n_coef = 3 * len(spline.segments)
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
    return [QuadraticSpline(tuple(QuadSegment(*col) for col in t.T.tolist())) for t in tables]


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


def mp_invert_compressor(x_max: float, value: float) -> float:
    """Preimage of ``value`` under the unit-variance optimal compressor at 50
    digits: sqrt(6) * erfinv(value * erf(x_max / sqrt(6)) / x_max)."""
    import mpmath

    with mpmath.workdps(MP_DIGITS):
        s = mpmath.sqrt(6)
        p = mpmath.mpf(value) * mpmath.erf(mpmath.mpf(x_max) / s) / mpmath.mpf(x_max)
        return float(s * mpmath.erfinv(p))


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
    seg = spline.segments[segment_index]
    a, b, c = seg.c2, seg.c1, seg.c0 - target
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
    inside = [r for r in roots if seg.lo - _DOMAIN_SLACK <= r <= seg.hi + _DOMAIN_SLACK]
    if not inside:
        raise InversionError(
            f"no root in [{seg.lo}, {seg.hi}] for target {target} on segment {segment_index}"
        )
    if len(inside) > 1 and abs(inside[1] - inside[0]) > _DOMAIN_SLACK:
        raise InversionError(
            f"both roots {inside} inside segment {segment_index}: non-monotonic segment"
        )
    return min(max(inside[0], seg.lo), seg.hi)


def _check_monotone(spline: QuadraticSpline) -> None:
    # a quadratic's slope is linear, so its minimum sits at an end
    for i, seg in enumerate(spline.segments):
        for end, x in (("left", seg.lo), ("right", seg.hi)):
            if seg.slope(x) <= 0.0:
                raise DesignError(
                    f"fitted curve not increasing on segment {i} "
                    f"(slope {seg.slope(x):.3e} at its {end} end x={x:.6f})"
                )


def _assign_targets(
    spline: QuadraticSpline, config: DesignConfig
) -> tuple[list[list[float]], float]:
    """Partition the half-step target grid (k - 1/2)*delta among segments:
    segment i takes the targets in [value(knot_i), value(knot_{i+1})), the
    last interval closed on the right."""
    delta = step_size(config)
    kv = spline.knot_values()
    if any(a >= b for a, b in zip(kv, kv[1:])):
        raise DesignError(f"compressed knot values not increasing: {kv}")
    if kv[0] >= 0.5 * delta:
        raise DesignError(
            f"fitted value at 0 ({kv[0]:.6f}) reaches the first target {0.5 * delta:.6f}"
        )
    per_segment: list[list[float]] = [[] for _ in spline.segments]
    last = len(spline.segments) - 1
    for k in range(1, config.granular_per_side + 1):
        t = (k - 0.5) * delta
        if t < kv[0] or t > kv[-1]:
            raise DesignError(
                f"target {t:.6f} outside fitted compressed range [{kv[0]:.6f}, {kv[-1]:.6f}]"
            )
        i = min(max(bisect.bisect_right(kv, t) - 1, 0), last)
        per_segment[i].append(t)
    return per_segment, delta


def _invert_target(spline: QuadraticSpline, i: int, t: float) -> float:
    seg = spline.segments[i]
    if t < seg.value(seg.lo):
        # target sits in an upward fit discontinuity at the left knot; the
        # generalized inverse of the jump is the knot itself
        return seg.lo
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
    kv = spline.knot_values()
    thresholds: list[float] = []
    try:
        for k in range(1, m):
            t = k * delta
            i = min(max(bisect.bisect_right(kv, t) - 1, 0), len(spline.segments) - 1)
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
                f"levels and thresholds do not interleave: grid point {j} maps to {a!r}, "
                f"not below {b!r} for point {j + 1}"
            )

    overload_level = tail_centroid(config.source, config.x_max)
    asym = tuple(
        delta / spline.segments[i].slope(y) for i, y in zip(level_segments, levels)
    )
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
        cell_lengths_asymptotic=asym,
        cell_lengths_exact=exact,
    )


def scalar_solve3(m: list[list[float]], b: list[float]) -> list[float]:
    """3x3 solve by LU with partial pivoting, one system, scalar loops."""
    a = [row[:] for row in m]
    x = b[:]
    for col in range(3):
        piv = max(range(col, 3), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) < 1e-300:
            raise FitError("singular moment matrix")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            x[col], x[piv] = x[piv], x[col]
        for r in range(col + 1, 3):
            f = a[r][col] / a[col][col]
            a[r][col] = 0.0
            for c in range(col + 1, 3):
                a[r][c] -= f * a[col][c]
            x[r] -= f * x[col]
    for r in (2, 1, 0):
        s = x[r] - sum(a[r][c] * x[c] for c in range(r + 1, 3))
        x[r] = s / a[r][r]
    return x


def scalar_fit(knots: KnotVector, moments: np.ndarray) -> QuadraticSpline:
    """Per-segment least squares from given target moments: the Gram matrix
    from scalar float powers, solved by ``scalar_solve3``."""
    segments = []
    for lo, hi, rhs in zip(knots.knots, knots.knots[1:], moments.tolist()):
        gram = [
            [(hi ** (j + k + 1) - lo ** (j + k + 1)) / (j + k + 1) for k in range(3)]
            for j in range(3)
        ]
        c0, c1, c2 = scalar_solve3(gram, rhs)
        segments.append(QuadSegment(c0, c1, c2, lo, hi))
    return QuadraticSpline(tuple(segments))


def scalar_granular_distortion(q: CompandingQuantizer) -> float:
    """Companding-model granular noise power, summed level by level."""
    cfg = q.config
    src = cfg.source
    slopes = [q.spline.segments[i].slope(y) for i, y in zip(q.level_segments, q.levels)]
    lead = sum(
        pdf(src, y) / s**2 * d
        for y, s, d in zip(q.levels, slopes, q.cell_lengths_asymptotic)
    )
    return lead * (2.0 * cfg.x_max**2 / (3.0 * (cfg.n_levels - 2) ** 2))


def scalar_sqnr(q: CompandingQuantizer) -> DistortionReport:
    src = q.config.source
    granular = scalar_granular_distortion(q)
    overload = src.sigma**2 * overload_distortion_closed(q.config.x_max / src.sigma)
    total = granular + overload
    return DistortionReport(
        granular=granular,
        overload=overload,
        total=total,
        sqnr_db=10.0 * math.log10(src.sigma**2 / total),
        overload_exact=overload_distortion_exact(q),
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
            report = scalar_sqnr(per_level_build(spline, config))
        except DesignError as exc:
            rows.append((x1, spline, None, str(exc)))
            continue
        rows.append((x1, spline, report, None))
        if best is None or report.sqnr_db > best_db:
            best, best_db = x1, report.sqnr_db
    if best is None:
        raise SweepError(f"all {len(rows)} sweep candidates failed to build")
    return rows, best


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
    positive = [
        _invert_compressor(source, x_max, (k - 0.5) * delta)
        for k in range(1, (n_levels - 2) // 2 + 1)
    ]
    positive.append(tail_centroid(source, x_max))
    return [-y for y in reversed(positive)] + positive


def reference_lloyd_max(
    source: SourceModel,
    n_levels: int,
    tolerance: float = 1e-12,
    max_iterations: int = 10_000,
) -> LloydMaxResult:
    """Lloyd-Max over the whole codebook: centroids and midpoints of all
    ``n_levels`` cells, and the distortion by 24-point Gauss-Legendre
    quadrature on every cell (end cells truncated 12 sigma out)."""
    if n_levels < 2:
        raise ValueError(f"n_levels must be >= 2, got {n_levels}")
    if tolerance <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    sigma = source.sigma
    levels = np.asarray(_full_initial_levels(source, n_levels), dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    prev = math.inf
    distortion = math.inf
    for iteration in range(1, max_iterations + 1):
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
        distortion = float(np.sum(w * (x - levels[:, None]) ** 2 * dens))
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
        sqnr_db=10.0 * math.log10(sigma**2 / distortion),
        iterations=iteration,
    )
