"""Construction of the symmetric companding quantizer from a fitted compressor
curve, and its analytic distortion / SQNR evaluation.

Design conventions
------------------
* N output levels total: N-2 granular (symmetric about zero) plus one overload
  level per sign at the conditional tail mean.
* Compressed-domain step ``delta = 2*x_max/(N-2)``.  Levels and thresholds
  are the spline preimages of one half-step grid j*delta/2, j = 1 ... N-3,
  inverted in one pass: odd j give the granular reproduction levels, even j
  the decision thresholds; cells are half-open [threshold, next_threshold).
* The grid is split among segments by the fitted curve's knot values, so
  a segment may receive no level (the N=16 optimum has counts (7, 0)); the
  paper's per-segment level-count rule is not in the repository.
* The coding tables ``all_boundaries`` and ``all_levels`` are computed once
  per quantizer, on first use by ``encode`` or ``decode``.
* Granular distortion uses the companding model: density at the level, slope
  of the compressor there, and the asymptotic cell length delta/slope.  The
  headline SQNR combines it with the asymptotic overload term; the exact
  overload term, from the closed-form tail moment, is reported alongside.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .gauss_analytics import SourceModel, pdf, support_threshold, tail_centroid, upper_tail
from .spline_fit import InversionError, KnotVector, QuadraticSpline, invert_segment

__all__ = [
    "DesignConfig",
    "CompandingQuantizer",
    "DistortionReport",
    "DesignError",
    "standard_config",
    "step_size",
    "build",
    "granular_distortion",
    "overload_distortion_exact",
    "overload_distortion_closed",
    "sqnr",
    "encode",
    "decode",
]

class DesignError(ValueError):
    """A quantizer cannot be built from the given spline/configuration."""


@dataclass(frozen=True)
class DesignConfig:
    """Level budget, segment knots, and source for one quantizer design."""

    n_levels: int
    knots: KnotVector
    source: SourceModel

    def __post_init__(self) -> None:
        if self.n_levels < 4 or self.n_levels % 2:
            raise ValueError(f"n_levels must be even and >= 4, got {self.n_levels}")
        if self.n_levels - 2 < 2 * self.knots.n_segments:
            raise ValueError(
                f"{self.n_levels} levels give {(self.n_levels - 2) // 2} granular levels "
                f"per side, fewer than the {self.knots.n_segments} segments"
            )

    @property
    def x_max(self) -> float:
        return self.knots.x_max

    @property
    def granular_per_side(self) -> int:
        return (self.n_levels - 2) // 2


def standard_config(
    n_levels: int,
    interior_knots: Sequence[float],
    source: SourceModel = SourceModel(),
) -> DesignConfig:
    """Config whose support edge comes from the source's threshold formula."""
    x_max = support_threshold(source, n_levels)
    interior = tuple(float(k) for k in interior_knots)
    if any(not 0.0 < k < x_max for k in interior):
        raise ValueError(f"interior knots {interior} must lie strictly inside (0, {x_max})")
    return DesignConfig(n_levels, KnotVector((0.0, *interior, x_max)), source)


@dataclass(frozen=True)
class DistortionReport:
    """Noise powers and SQNR of one design; ``total = granular + overload``."""

    granular: float
    overload: float
    total: float
    sqnr_db: float
    overload_exact: float

    def __post_init__(self) -> None:
        if not (self.granular > 0.0 and self.overload > 0.0 and self.total > 0.0):
            raise ValueError("distortion powers must be positive")


@dataclass(frozen=True)
class CompandingQuantizer:
    """Immutable symmetric quantizer; negative half mirrors the stored positive half."""

    config: DesignConfig
    spline: QuadraticSpline
    step: float
    levels: tuple[float, ...]
    thresholds: tuple[float, ...]
    counts: tuple[int, ...]
    level_segments: tuple[int, ...]
    overload_level: float
    cell_lengths_asymptotic: tuple[float, ...]
    cell_lengths_exact: tuple[float, ...]

    @cached_property
    def all_boundaries(self) -> tuple[float, ...]:
        """Full inner decision boundaries, most negative first (length N-1)."""
        inner = self.thresholds[:-1]
        return (
            (-self.config.x_max,)
            + tuple(-t for t in reversed(inner))
            + (0.0,)
            + inner
            + (self.config.x_max,)
        )

    @cached_property
    def all_levels(self) -> tuple[float, ...]:
        """Reproduction level per cell, most negative first (length N)."""
        return (
            (-self.overload_level,)
            + tuple(-y for y in reversed(self.levels))
            + self.levels
            + (self.overload_level,)
        )


def step_size(config: DesignConfig) -> float:
    """Compressed-domain step: 2*x_max/(N-2)."""
    return 2.0 * config.x_max / (config.n_levels - 2)


def _check_monotone(spline: QuadraticSpline) -> None:
    # a quadratic's slope is linear, so its minimum sits at an end
    for i, seg in enumerate(spline.segments):
        for end, x in (("left", seg.lo), ("right", seg.hi)):
            if seg.slope(x) <= 0.0:
                raise DesignError(
                    f"fitted curve not increasing on segment {i} "
                    f"(slope {seg.slope(x):.3e} at its {end} end x={x:.6f})"
                )


def build(spline: QuadraticSpline, config: DesignConfig) -> CompandingQuantizer:
    """Assemble the quantizer: levels, thresholds, counts, overload level.

    Raises DesignError when the spline is not strictly increasing per segment,
    a target cannot be inverted, or the resulting levels/thresholds fail to
    interleave.
    """
    if spline.knots != config.knots.knots:
        raise DesignError(
            f"spline knots {spline.knots} do not match config knots {config.knots.knots}"
        )
    _check_monotone(spline)
    delta = step_size(config)
    kv = spline.knot_values()
    if any(a >= b for a, b in zip(kv, kv[1:])):
        raise DesignError(f"compressed knot values not increasing: {kv}")
    if kv[0] >= 0.5 * delta:
        raise DesignError(
            f"fitted value at 0 ({kv[0]:.6f}) reaches the first target {0.5 * delta:.6f}"
        )
    # grid point j is j*delta/2: odd j are levels, even j thresholds
    grid = np.arange(1, 2 * config.granular_per_side) * (0.5 * delta)
    # segment i takes the targets in [kv[i], kv[i+1]), the first and last
    # open outwards: the count of interior knot values at or below the target
    seg = np.asarray(kv[1:-1]).searchsorted(grid, "right")
    c0, c1, c2, lo, _ = spline.coefficients.take(seg, axis=1)
    # a target below its segment's own value at the left knot sits in an
    # upward fit discontinuity there; the generalized inverse of the jump is
    # the knot itself
    start = c0 + lo * (c1 + c2 * lo)
    try:
        x = invert_segment(spline, seg, np.maximum(grid, start))
    except InversionError as exc:
        raise DesignError(f"grid inversion failed: {exc}") from exc
    x = np.where(grid < start, lo, x)

    points = np.concatenate(([0.0], x, [config.x_max]))
    out_of_order = points[:-1] >= points[1:]
    if np.count_nonzero(out_of_order):
        j = int(np.argmax(out_of_order))
        a, b = points[j : j + 2].tolist()
        raise DesignError(
            f"levels and thresholds do not interleave: grid point {j} maps to {a!r}, "
            f"not below {b!r} for point {j + 1}"
        )

    levels, level_segments = x[::2], seg[::2]
    asym = delta / (c1[::2] + 2.0 * c2[::2] * levels)
    return CompandingQuantizer(
        config=config,
        spline=spline,
        step=delta,
        levels=tuple(levels.tolist()),
        thresholds=tuple(points[2::2].tolist()),
        counts=tuple(np.bincount(level_segments, minlength=len(kv) - 1).tolist()),
        level_segments=tuple(level_segments.tolist()),
        overload_level=tail_centroid(config.source, config.x_max),
        cell_lengths_asymptotic=tuple(asym.tolist()),
        cell_lengths_exact=tuple((points[2::2] - points[:-1:2]).tolist()),
    )


def granular_distortion(q: CompandingQuantizer) -> float:
    """Companding-model granular noise power.

    Evaluated as 2*x_max^2/(3(N-2)^2) * sum of density/slope^2 * cell length
    (asymptotic), algebraically equal to the midpoint form sum of density *
    cell_length^3 / 6.
    """
    cfg = q.config
    src = cfg.source
    slopes = [q.spline.segments[i].slope(y) for i, y in zip(q.level_segments, q.levels)]
    lead = sum(
        pdf(src, y) / s**2 * d
        for y, s, d in zip(q.levels, slopes, q.cell_lengths_asymptotic)
    )
    return lead * (2.0 * cfg.x_max**2 / (3.0 * (cfg.n_levels - 2) ** 2))


def overload_distortion_exact(q: CompandingQuantizer) -> float:
    """Overload noise power: twice the integral of (x - overload_level)^2
    times the density over the tail beyond x_max, in closed form."""
    return 2.0 * _tail_second_moment(q.config.source, q.config.x_max, q.overload_level)


def _tail_second_moment(src: SourceModel, a: float, y: float) -> float:
    """Closed form of the integral of (x-y)^2 * density over [a, inf)."""
    s2 = src.sigma**2
    p, tail = pdf(src, a), upper_tail(src, a)
    return (s2 + y * y) * tail + (s2 * a - 2.0 * y * s2) * p


def overload_distortion_closed(x_max: float) -> float:
    """Asymptotic overload noise power for the unit-variance source:
    sqrt(2/pi) * x_max^-3 * exp(-x_max^2/2)."""
    if x_max <= 0.0:
        raise ValueError(f"x_max must be positive, got {x_max}")
    return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x_max * x_max) / x_max**3


def sqnr(q: CompandingQuantizer) -> DistortionReport:
    """Distortion report: granular model + closed-form overload drive the
    headline SQNR; the exact overload term is recorded alongside."""
    src = q.config.source
    granular = granular_distortion(q)
    overload = src.sigma**2 * overload_distortion_closed(q.config.x_max / src.sigma)
    total = granular + overload
    return DistortionReport(
        granular=granular,
        overload=overload,
        total=total,
        sqnr_db=10.0 * math.log10(src.sigma**2 / total),
        overload_exact=overload_distortion_exact(q),
    )


def encode(q: CompandingQuantizer, x: float) -> int:
    """Cell index of amplitude ``x`` (0 = negative overload, N-1 = positive).

    Cells are half-open on the right; anything at or beyond +/-x_max lands in
    the overload cells.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot encode non-finite amplitude {x!r}")
    return bisect.bisect_right(q.all_boundaries, x)


def decode(q: CompandingQuantizer, index: int) -> float:
    """Reproduction level of cell ``index``."""
    if not 0 <= index < q.config.n_levels:
        raise IndexError(f"cell index {index} out of range [0, {q.config.n_levels})")
    return q.all_levels[index]
