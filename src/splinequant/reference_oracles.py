"""Validators and comparators for the analytic design pipeline.

Three routes to distortion stay independent of the companding model, so
that its numbers can be cross-checked:

* ``mc_distortion``     seeded Monte-Carlo through the realized encode/decode
                        tables;
* ``true_distortion``   the realized quantizer's error, cell by cell, from the
                        closed-form Gaussian cell moment;
* ``lloyd_max``         the MSE-optimal fixed-rate quantizer, which no design
                        for the same source and level count may beat; only
                        its starting codebook is the exact compressor's.

``exact_compressor_sqnr`` shares the model by design: it scores the
closed-form optimal compressor with ``quantizer_design``'s own granular kernel
and report, so that it differs from a fitted design only by the fit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .gauss_analytics import SourceModel, cell_second_moment, compressor_derivative
from .gauss_analytics import _SQRT_2PI, pdf, tail_centroid
from .quantizer_design import (
    CompandingQuantizer,
    DistortionReport,
    _granular,
    _half_step_grid,
    _model_reports,
    standard_config,
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
# mc_distortion consumes a shard in blocks of max(_MC_BLOCK, _MC_BLOCK_PER_LEVEL
# * N) draws for N levels, at most a shard: 512 KB blocks stay in cache at
# small N, and at large N a block spans enough draws per level that the O(N)
# search and level repeat of each block stay a small share of its work
_MC_BLOCK = 2**16
_MC_BLOCK_PER_LEVEL = 16
_LLOYD_MAX_ITERATIONS = 10_000
# Lloyd-Max stops once its distortion changes by less than this, relative
_LLOYD_MAX_TOLERANCE = 1e-12
_UNIT_ROUNDOFF = 2.0**-53
# the 24-point Gauss-Legendre rule on [-1, 1] that scores Lloyd-Max iterates
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


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

    Samples are generated in shards of 10^6 draws whose generators are seeded
    from (seed, shard index), so the estimate depends only on the arguments,
    never on how the shards are scheduled.  A shard is drawn block by block
    into one preallocated buffer, the same draws as one call per shard.  Each
    block is sorted in place and cut into cells at the boundaries by one
    search; a draw equal to a boundary falls in the cell to its right, as in
    ``encode``.  The block's squared errors, then their squares, are formed in
    place and added to the running totals by pairwise sums, so the working set
    is one block and its repeated levels at any ``n_samples``.  ``n_samples``
    and ``seed`` must be integers (``operator.index``), checked before any
    draw.  The draws are unit normals, cut at boundaries/sigma and measured
    from levels/sigma; the mean and its standard error are scaled by sigma^2
    once.
    """
    n_samples = operator.index(n_samples)
    seed = operator.index(seed)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    sigma = q.config.source.sigma
    boundaries = np.asarray(q.all_boundaries, dtype=float) / sigma
    levels = np.asarray(q.all_levels, dtype=float) / sigma
    block = np.empty(min(n_samples, _SHARD_SIZE, max(_MC_BLOCK, _MC_BLOCK_PER_LEVEL * levels.size)))
    total = 0.0
    total_sq = 0.0
    for shard, start in enumerate(range(0, n_samples, _SHARD_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, shard)))
        shard_size = min(_SHARD_SIZE, n_samples - start)
        for offset in range(0, shard_size, block.size):
            x = block[: min(block.size, shard_size - offset)]
            rng.standard_normal(out=x)
            x.sort()
            cuts = np.searchsorted(x, boundaries, side="left")
            x -= np.repeat(levels, np.diff(cuts, prepend=0, append=x.size))
            x *= x
            total += float(x.sum())
            x *= x
            total_sq += float(x.sum())
    mean = total / n_samples
    variance = max(total_sq / n_samples - mean * mean, 0.0)
    std_error = math.sqrt(variance / n_samples)
    return McEstimate(mean * sigma**2, std_error * sigma**2, n_samples, seed)


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


def _initial_levels(n_levels: int) -> list[float]:
    """Positive half of the unit source's starting codebook for an even
    ``n_levels``: the exact compressor's levels, the preimages of the
    half-step grid's level targets, and the overload level, or the upper
    normal quartile for N = 2."""
    if n_levels == 2:
        return [NormalDist().inv_cdf(0.75)]
    cfg = standard_config(n_levels, ())
    levels = [_invert_compressor(cfg.x_max, v) for v in _half_step_grid(cfg)[::2].tolist()]
    return levels + [tail_centroid(cfg.source, cfg.x_max)]


def _invert_compressor(x_max: float, value: float) -> float:
    """Preimage of ``value`` in [0, x_max] under the unit source's optimal
    compressor: the root of erf(x/s) = p, p = value * erf(x_max/s) / x_max,
    s = sqrt(6).  The closed form through the normal quantile loses relative
    accuracy near 0, where 1 + p rounds; one Newton step on erf restores it."""
    s = math.sqrt(6.0)
    p = value * math.erf(x_max / s) / x_max
    x = math.sqrt(3.0) * NormalDist().inv_cdf(0.5 * (1.0 + p))
    return x - (math.erf(x / s) - p) * 0.5 * math.sqrt(math.pi) * s * math.exp((x / s) ** 2)


def lloyd_max(
    source: SourceModel,
    n_levels: int,
    max_iterations: int = _LLOYD_MAX_ITERATIONS,
) -> LloydMaxResult:
    """MSE-optimal scalar quantizer by alternating centroids and midpoints.

    ``n_levels`` must be even: the codebook is then antisymmetric bit for bit
    (mirrored start, middle threshold exactly 0, ``math.erf`` odd, symmetric
    Gauss-Legendre rule), so only the positive half is iterated, on the cell
    edges ``[0, midpoints..., last + 12]``.  Centroids use the closed-form
    Gaussian tail moments.  The distortion deciding convergence is
    re-evaluated for every iterate by per-cell Gauss-Legendre quadrature and
    must never increase; it is summed over both mirrored halves in the whole
    codebook's order, so it rounds exactly as a whole-codebook sum.  Stops
    at the first iterate whose relative change drops below 1e-12.  It runs
    on the unit source and scales the result once: levels by sigma, the
    thresholds of those levels, distortion by sigma^2, the unit SQNR.

    Only iterates on which a check could fire need that distortion.
    Iterate 1 is scored; then centroid steps run unscored while a lower
    bound on each step's decrease stays above a limit.  The centroid step
    alone lowers the distortion by B = 2 sum(mass (old level - new level)^2)
    (2 for both halves) and the midpoints lower it further, so B, from masses
    the step computes anyway, bounds the decrease from below.  The limit is
    tol d1 + R + R', with tol = 1e-12, d1 iterate 1's distortion and R, R'
    the two iterates' bounds on the error of their 24-point sums,
    R = 2 (2 u x_e sqrt(d1) + (log2(48 N) + 8) u d1), u = 2^-53 and x_e the
    iterate's largest edge: (x - level) carries an absolute error of about
    u |x|, which by Cauchy-Schwarz adds at most 2 u x_e sqrt(d) <= 2 u x_e
    sqrt(d1) to the sum, and the terms and the pairwise sum add a relative
    (log2(48 N) + 8) u.  While B exceeds the limit, the scored distortion
    falls by more than tol d1, so neither the stop test nor the increase
    guard can fire.  The factor 2 in R covers the rest, each far below R
    where the run ends: B's own rounding, the computed centroids' distance
    eta from the exact ones (a cross term of at most
    2 sqrt(B sum(mass eta^2))), and the change between neighbouring iterates
    of the 24-point rule's own error.  At the first iterate whose bound is at
    or below the limit, the one before it is scored, unchecked, as the
    previous distortion, and from then on one (N/2, 24) array pass scores
    each iterate before it is checked; the loop keeps only the last two
    iterates.  Every figure, including ``iterations`` and the errors at the
    cap and on an increase, is the same bits as scoring every iterate one at
    a time.  ``n_levels`` and ``max_iterations`` must be integers
    (``operator.index``), checked before any work.

    The centroid step and the unscored bound, which run on every iterate,
    fill buffers made once per run.  With mass = (erf(hi) - erf(lo)) / 2, a
    centroid is -2 (pdf(lo) - pdf(hi)) / (erf(lo) - erf(hi)) and B is
    -sum((old level - new level)^2 (erf(lo) - erf(hi))).
    """
    n_levels = operator.index(n_levels)
    max_iterations = operator.index(max_iterations)
    if n_levels < 2 or n_levels % 2:
        raise ValueError(f"n_levels must be even and >= 2, got {n_levels}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    sigma, unit = source.sigma, SourceModel()
    cells = n_levels // 2
    levels = np.asarray(_initial_levels(n_levels), dtype=float)
    edges = np.concatenate(([0.0], 0.5 * (levels[:-1] + levels[1:]), [levels[-1] + 12.0]))
    # the step's buffers and views, made once (see the docstring)
    erf_args, dens = np.empty((2, cells + 1))
    dens_lo, dens_hi = dens[:-1], dens[1:]
    drop = np.empty(cells)  # erf(lo) - erf(hi): -2 times each cell's mass

    def rows() -> tuple:
        """An iterate's edge and level rows with the step's views: edges,
        levels, levels[:-1], levels[1:] and edges[1:-1]."""
        e, y = np.zeros(cells + 1), np.empty(cells)
        return e, y, y[:-1], y[1:], e[1:-1]

    def step(edges: np.ndarray, into: tuple) -> float:
        """One Lloyd step from the cells ``edges``: their centroids into
        ``into``'s levels, erf(lo) - erf(hi) into ``drop``, the new cells into
        ``into``'s edges; the operations of ``pdf`` and ``erf``, in place.
        Returns the new last edge."""
        next_edges, levels, lower, upper, inner = into
        np.divide(edges, math.sqrt(2.0), out=erf_args)
        np.multiply(edges, -0.5, out=dens)
        np.multiply(dens, edges, out=dens)
        np.exp(dens, out=dens)
        np.divide(dens, _SQRT_2PI, out=dens)
        cdf = np.fromiter(map(math.erf, erf_args.tolist()), float, cells + 1)
        # centroid of each cell: (pdf(lo) - pdf(hi)) / mass
        np.subtract(cdf[:-1], cdf[1:], out=drop)
        np.subtract(dens_lo, dens_hi, out=levels)
        levels *= -2.0
        levels /= drop
        np.add(lower, upper, out=inner)
        inner *= 0.5
        last = levels.item(-1) + 12.0
        next_edges[-1] = last
        return last

    def distortion(iterate: tuple) -> float:
        """The distortion of ``iterate``: the 24-point sums of both halves'
        cells, the negative half mirrored first, summed once in the whole
        codebook's order."""
        edges, levels = iterate[:2]
        lo, hi = edges[:-1, None], edges[1:, None]
        width, centre = (hi - lo) * 0.5, (hi + lo) * 0.5
        x = width * _GL_NODES + centre
        half = width * _GL_WEIGHTS * np.square(x - levels[:, None]) * pdf(unit, x)
        return float(np.concatenate((half[::-1, ::-1], half)).sum())

    tolerance = _LLOYD_MAX_TOLERANCE
    old, new = rows(), rows()
    last = step(edges, old)
    d1 = prev = distortion(old)
    iteration = 1
    # the unscored run (see the docstring); R = spread * x_e + floor
    unscored = True
    gap = np.empty(cells)
    spread = 4.0 * _UNIT_ROUNDOFF * math.sqrt(d1)
    floor = 2.0 * (math.log2(48 * n_levels) + 8.0) * _UNIT_ROUNDOFF * d1
    noise = spread * last + floor
    while iteration < max_iterations:
        last = step(old[0], new)
        iteration += 1
        if unscored:
            np.subtract(old[1], new[1], out=gap)
            gap *= gap
            bound = -float(gap @ drop)
            next_noise = spread * last + floor
            unscored = bound > tolerance * d1 + noise + next_noise
            noise = next_noise
            if not unscored and iteration > 2:  # the older iterate is not iterate 1
                prev = distortion(old)
        if not unscored:
            current = distortion(new)
            if current > prev * (1.0 + 1e-12):
                raise ArithmeticError(
                    f"distortion increased at iteration {iteration}: "
                    f"{prev * sigma**2!r} -> {current * sigma**2!r}"
                )
            if prev - current < tolerance * current:
                levels = np.concatenate((-new[1][::-1], new[1])) * sigma
                return LloydMaxResult(
                    levels=tuple(levels.tolist()),
                    thresholds=tuple((0.5 * (levels[:-1] + levels[1:])).tolist()),
                    distortion=current * sigma**2,
                    sqnr_db=10.0 * math.log10(1.0 / current),
                    iterations=iteration,
                )
            prev = current
        old, new = new, old
    raise ConvergenceError(f"no convergence to {tolerance} within {max_iterations} iterations")


def exact_compressor_sqnr(source: SourceModel, n_levels: int) -> DistortionReport:
    """Companding-model SQNR with the closed-form optimal compressor itself.

    The one-design case of the fitted designs' model with no fit, scored with
    ``quantizer_design``'s own granular kernel and report; serves as the
    no-fit-error comparator.  Under the optimal compressor pdf/c'^3 is the
    same at every level (Panter & Dite 1951), so the granular term is
    (N-2)/2 copies of the kernel's term at 0: (N-2)/2 * delta^3/6 *
    pdf(0)/c'(0)^3, with no compressor inversion.  N must be even and >= 4,
    as for every design (``DesignConfig`` raises ``ValueError`` otherwise).
    """
    cfg = standard_config(n_levels, (), source)
    slope = np.array([compressor_derivative(source, cfg.x_max, 0.0)])
    granular = cfg.granular_per_side * float(_granular(np.zeros(1), slope, cfg))
    (report,) = _model_reports([granular], cfg)
    return report
