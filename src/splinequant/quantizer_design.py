"""Construction of the symmetric companding quantizer from a fitted compressor
curve, and its analytic distortion / SQNR evaluation.

Design conventions
------------------
* N output levels total: N-2 granular (symmetric about zero) plus one overload
  level per sign at the conditional tail mean.
* Compressed-domain step ``delta = 2*x_max/(N-2)``.  Granular reproduction
  levels are the spline preimages of the half-step grid (k - 1/2)*delta,
  decision thresholds the preimages of k*delta; cells are half-open
  [threshold, next_threshold).
* The one grid is split among segments by the fitted curve's knot values, so
  a segment may receive no level (the N=16 optimum has counts (7, 0)); the
  paper's per-segment level-count rule is not in the repository.
* Granular distortion uses the companding model: density at the level, slope
  of the compressor there, and the asymptotic cell length delta/slope.  The
  headline SQNR combines it with the asymptotic overload term; the exact
  overload term, from the closed-form tail moment, is reported alongside.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

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

    @property
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

    @property
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
    return invert_segment(spline, i, t)


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
    if any(a >= b for a, b in zip(interleaved, interleaved[1:])):
        raise DesignError(
            f"levels and thresholds do not interleave: levels={levels} thresholds={thresholds}"
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
