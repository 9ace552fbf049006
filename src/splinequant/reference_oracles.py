"""Independent validators for the analytic design pipeline.

Four separate routes to distortion live here so the model numbers can be
cross-checked without sharing code paths:

* ``mc_distortion``     seeded Monte-Carlo through the realized encode/decode
                        tables;
* ``true_distortion``   the realized quantizer's error, cell by cell, from the
                        closed-form Gaussian cell moment;
* ``lloyd_max``         the MSE-optimal fixed-rate quantizer, which no design
                        for the same source and level count may beat;
* ``exact_compressor_sqnr``  the companding model evaluated on the closed-form
                        optimal compressor instead of a fitted curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .gauss_analytics import (
    SourceModel,
    cell_second_moment,
    compressor_derivative,
    erf,
    pdf,
    support_threshold,
    tail_centroid,
)
from .quantizer_design import (
    CompandingQuantizer,
    DistortionReport,
    overload_distortion_closed,
)

__all__ = [
    "McEstimate",
    "LloydMaxResult",
    "ConvergenceError",
    "mc_distortion",
    "true_distortion",
    "lloyd_max",
    "exact_compressor_sqnr",
]

_SHARD_SIZE = 1_000_000
_LLOYD_MAX_ITERATIONS = 10_000
_GL_ORDER = 24


class ConvergenceError(RuntimeError):
    """Iteration cap reached before the distortion change met tolerance."""


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo distortion with its standard error; reproducible by seed."""

    mean_distortion: float
    std_error: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class LloydMaxResult:
    levels: tuple[float, ...]
    thresholds: tuple[float, ...]
    distortion: float
    sqnr_db: float
    iterations: int


def mc_distortion(q: CompandingQuantizer, n_samples: int, seed: int) -> McEstimate:
    """Mean squared quantization error over seeded Gaussian draws.

    Samples are generated in fixed-size shards whose generators are seeded
    from (seed, shard index), so the estimate depends only on the arguments,
    never on how the shards are scheduled.
    """
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


def true_distortion(q: CompandingQuantizer) -> float:
    """Noise power of the realized quantizer, cell by cell.

    The closed-form second moment of (x - level)^2 against the source density
    over every positive cell that encode/decode use, the overload cell
    [x_max, inf) included, in one array call; doubled for the negative half.
    Independent of the companding model.
    """
    bounds = np.array((0.0,) + q.thresholds + (math.inf,))
    levels = np.array(q.levels + (q.overload_level,))
    cells = cell_second_moment(q.config.source, bounds[:-1], bounds[1:], levels)
    return 2.0 * float(np.sum(cells))


def _initial_levels(source: SourceModel, n_levels: int) -> list[float]:
    """Positive half of the starting codebook for an even ``n_levels``: the
    companding design's levels, or the upper normal quartile for N = 2."""
    if n_levels == 2:
        return [NormalDist(0.0, source.sigma).inv_cdf(0.75)]
    x_max = support_threshold(source, n_levels)
    delta = 2.0 * x_max / (n_levels - 2)
    positive = [
        _invert_compressor(source, x_max, (k - 0.5) * delta)
        for k in range(1, (n_levels - 2) // 2 + 1)
    ]
    return positive + [tail_centroid(source, x_max)]


def _invert_compressor(source: SourceModel, x_max: float, value: float) -> float:
    """Preimage of ``value`` in [0, x_max] under the optimal compressor: the
    root of erf(x/s) = p, p = value * erf(x_max/s) / x_max, s = sqrt(6) sigma.
    The closed form through the normal quantile loses relative accuracy near
    0, where 1 + p rounds; one Newton step on erf restores it."""
    s = math.sqrt(6.0) * source.sigma
    p = value * math.erf(x_max / s) / x_max
    x = math.sqrt(3.0) * source.sigma * NormalDist().inv_cdf(0.5 * (1.0 + p))
    return x - (math.erf(x / s) - p) * 0.5 * math.sqrt(math.pi) * s * math.exp((x / s) ** 2)


def lloyd_max(
    source: SourceModel,
    n_levels: int,
    tolerance: float = 1e-12,
    max_iterations: int = _LLOYD_MAX_ITERATIONS,
) -> LloydMaxResult:
    """MSE-optimal scalar quantizer by alternating centroids and midpoints.

    ``n_levels`` must be even: the codebook is then antisymmetric bit for bit
    (mirrored start, middle threshold exactly 0, ``math.erf`` odd, symmetric
    Gauss-Legendre rule), so only the positive half is iterated, on the cell
    edges ``[0, midpoints..., last + 12 sigma]``.  Centroids use the
    closed-form Gaussian tail moments.  The distortion deciding convergence is
    re-evaluated every iteration by per-cell Gauss-Legendre quadrature and
    must never increase; it is summed over both mirrored halves in the whole
    codebook's order, so it rounds exactly as a whole-codebook sum.  Stops
    when its relative change drops below ``tolerance``.
    """
    if n_levels < 2 or n_levels % 2:
        raise ValueError(f"n_levels must be even and >= 2, got {n_levels}")
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    sigma = source.sigma
    norm = sigma * math.sqrt(2.0 * math.pi)
    levels = np.asarray(_initial_levels(source, n_levels), dtype=float)
    edges = np.concatenate(([0.0], 0.5 * (levels[:-1] + levels[1:]), [levels[-1] + 12.0 * sigma]))
    nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    prev = math.inf
    distortion = math.inf
    for iteration in range(1, max_iterations + 1):
        # centroid of each cell: sigma^2 * (pdf(lo) - pdf(hi)) / mass
        dens = np.exp(-0.5 * (edges / sigma) ** 2) / norm
        cdf = erf(edges / (sigma * math.sqrt(2.0)))
        levels = sigma**2 * (dens[:-1] - dens[1:]) / (0.5 * (cdf[1:] - cdf[:-1]))
        edges = np.concatenate(([0.0], 0.5 * (levels[:-1] + levels[1:]), [levels[-1] + 12.0 * sigma]))
        lo, hi = edges[:-1], edges[1:]
        x = 0.5 * (hi - lo)[:, None] * nodes[None, :] + 0.5 * (hi + lo)[:, None]
        w = 0.5 * (hi - lo)[:, None] * weights[None, :]
        half = w * (x - levels[:, None]) ** 2 * (np.exp(-0.5 * (x / sigma) ** 2) / norm)
        # full-codebook sum order: the benchmark pins iteration counts until a Newton solve
        distortion = float(np.sum(np.concatenate((half[::-1, ::-1], half))))
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
    levels = np.concatenate((-levels[::-1], levels))
    thresholds = tuple(0.5 * (levels[:-1] + levels[1:]))
    return LloydMaxResult(
        levels=tuple(levels),
        thresholds=thresholds,
        distortion=distortion,
        sqnr_db=10.0 * math.log10(sigma**2 / distortion),
        iterations=iteration,
    )


def exact_compressor_sqnr(source: SourceModel, n_levels: int) -> DistortionReport:
    """Companding-model SQNR with the closed-form optimal compressor itself.

    Same level grid and distortion formulas as the fitted designs, but levels
    and slopes come straight from the ideal curve; serves as the no-fit-error
    comparator.
    """
    if n_levels < 4:
        raise ValueError(f"n_levels must be >= 4, got {n_levels}")
    x_max = support_threshold(source, n_levels)
    return _companding_model_report(
        source,
        n_levels,
        x_max,
        lambda v: _invert_compressor(source, x_max, v),
        lambda y: compressor_derivative(source, x_max, y),
    )


def _companding_model_report(
    source: SourceModel,
    n_levels: int,
    x_max: float,
    inverse,
    slope,
) -> DistortionReport:
    delta = 2.0 * x_max / (n_levels - 2)
    granular = 0.0
    for k in range(1, (n_levels - 2) // 2 + 1):
        y = inverse((k - 0.5) * delta)
        granular += pdf(source, y) * (delta / slope(y)) ** 3
    granular /= 6.0
    overload = source.sigma**2 * overload_distortion_closed(x_max / source.sigma)
    tail = cell_second_moment(source, x_max, math.inf, tail_centroid(source, x_max))
    total = granular + overload
    return DistortionReport(
        granular=granular,
        overload=overload,
        total=total,
        sqnr_db=10.0 * math.log10(source.sigma**2 / total),
        overload_exact=2.0 * float(tail),
    )
