"""Construction of the symmetric companding quantizer from a fitted compressor
curve, and its analytic distortion / SQNR evaluation.

Design conventions
------------------
* N output levels total: N-2 granular (symmetric about zero) plus one overload
  level per sign at the conditional tail mean.
* Compressed-domain step ``delta = 2*x_max/(N-2)``.  Levels and thresholds
  are the spline preimages of one half-step grid j*delta/2, j = 1 ... N-3:
  odd j give the granular reproduction levels, even j the decision
  thresholds; cells are half-open [threshold, next_threshold).
* A fitted curve is a ``spline_fit`` coefficient table; that module owns its
  row layout and evaluates it here (``curve_value``, ``curve_slope``,
  ``segment_inverse``).
* The checks on a fitted curve, the grid inversion, the granular term and the
  report are array kernels over a stack of designs.  ``build`` runs them on
  one design and keeps the report in the quantizer; ``score_batch`` runs them
  on every candidate of a sweep, building no quantizer, and inverts the grids
  in blocks of about 2,048 (design, grid point) pairs to bound its memory.
* The grid is split among segments by the fitted curve's knot values, so
  a segment may receive no level (the N=16 optimum has counts (7, 0)); the
  paper's per-segment level-count rule is not in the repository.
* The coding tables ``all_boundaries`` and ``all_levels`` are computed once
  per quantizer, on first use by ``encode`` or ``decode``.
* Granular distortion uses the companding model: density at the level, slope
  of the compressor there, and the asymptotic cell length delta/slope.  The
  headline SQNR combines it with the asymptotic overload term; the exact
  overload term, the tail's second moment by the shared 24-point cell rule,
  is reported alongside.
  This module owns the model: one half-step grid, one granular kernel and
  one report function serve ``build`` and ``score_batch``; the kernel and the
  report also serve the exact-compressor comparator
  ``reference_oracles.exact_compressor_sqnr``.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .gauss_analytics import SourceModel, cell_second_moment, pdf, support_threshold, tail_centroid
from .spline_fit import KnotVector, QuadraticSpline, curve_slope, curve_value, segment_inverse

__all__ = [
    "DesignConfig",
    "CompandingQuantizer",
    "DistortionReport",
    "DesignError",
    "standard_config",
    "step_size",
    "build",
    "overload_distortion_closed",
    "encode",
    "decode",
]

class DesignError(ValueError):
    """A quantizer cannot be built from the given spline/configuration."""


@dataclass(frozen=True)
class DesignConfig:
    """Level budget, segment knots, and source for one quantizer design;
    ``n_levels`` is taken through ``operator.index`` and stored as an int."""

    n_levels: int
    knots: KnotVector
    source: SourceModel

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_levels", operator.index(self.n_levels))
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


@dataclass(frozen=True)
class CompandingQuantizer:
    """Immutable symmetric quantizer; negative half mirrors the stored positive
    half.  ``report`` is its companding-model report, computed by ``build``."""

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
    report: DistortionReport

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


def _half_step_grid(config: DesignConfig) -> np.ndarray:
    """The grid j*delta/2, j = 1 ... N-3: its odd j are the level targets,
    (2k-1)*(delta/2) having exactly the bits of (k-1/2)*delta, and its even j
    the threshold targets."""
    return np.arange(1, 2 * config.granular_per_side) * (0.5 * step_size(config))


def _curve_failures(tables: np.ndarray, grid: np.ndarray) -> list[str | None]:
    """The checks on the fitted curves alone, for a (designs, 5, segments)
    stack of coefficient tables and the half-step grid: per design the reason
    of the first failing one, or None.  In order: value and slope finite at
    both ends of every segment; increasing on every segment (slope positive
    at both ends, segment by segment, left end first); knot values
    increasing; value at 0 below the first target; value at x_max above the
    last target.  Every check fails on NaN.  A curve that passes them all has
    a preimage in [0, x_max] for every grid point, so the interleave check
    of ``_invert_grid`` is the only later failure."""
    rows = tables.transpose(1, 0, 2)
    ends = np.stack((rows[3], rows[4]), axis=-1)
    with np.errstate(invalid="ignore"):  # an infinite c2 at x = 0 gives NaN
        # a quadratic's slope is linear, so its minimum sits at an end
        values, slopes = curve_value(rows[..., None], ends), curve_slope(rows[..., None], ends)
    kv = np.concatenate((values[:, :1, 0], values[..., 1]), axis=1)
    broken = ~(np.isfinite(values) & np.isfinite(slopes)).all(axis=-1)
    flat = ~(slopes > 0.0).reshape(len(tables), -1)
    bad_kv = ~(kv[:, :-1] < kv[:, 1:]).all(axis=1)
    high_start, low_end = ~(kv[:, 0] < grid[0]), ~(kv[:, -1] > grid[-1])
    failures: list[str | None] = [None] * len(tables)
    for d in np.flatnonzero(
        broken.any(axis=1) | flat.any(axis=1) | bad_kv | high_start | low_end
    ).tolist():
        if broken[d].any():
            failures[d] = f"fitted curve not finite on segment {int(np.argmax(broken[d]))}"
        elif flat[d].any():
            i, end = divmod(int(np.argmax(flat[d])), 2)
            x, slope = ends[d, i, end].item(), slopes[d, i, end].item()
            failures[d] = (
                f"fitted curve not increasing on segment {i} "
                f"(slope {slope:.3e} at its {('left', 'right')[end]} end x={x:.6f})"
            )
        elif bad_kv[d]:
            listed = ", ".join(f"{v:.6g}" for v in kv[d].tolist())
            failures[d] = f"compressed knot values not increasing: ({listed})"
        elif high_start[d]:
            failures[d] = (
                f"fitted value at 0 ({kv[d, 0]:.6f}) reaches the first target {grid[0]:.6f}"
            )
        else:
            failures[d] = (
                f"fitted value at x_max ({kv[d, -1]:.6f}) "
                f"does not exceed the last target {grid[-1]:.6f}"
            )
    return failures


def _invert_grid(
    tables: np.ndarray, grid: np.ndarray, x_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str | None]]:
    """Preimages of the half-step grid under each fitted curve of a stack of
    tables that passed ``_curve_failures``: the points x, their segments, the
    curve's slope at them, each (designs, grid), and per design the reason the
    interleave check failed, or None."""
    rows = tables.transpose(1, 0, 2)
    inner = curve_value(rows, rows[4])[:, :-1]
    # segment i takes the targets in [kv[i], kv[i+1]), the first and last
    # open outwards: the count of interior knot values at or below the target
    seg = np.count_nonzero(inner[:, :, None] <= grid, axis=1)
    at = np.take_along_axis(tables, seg[:, None, :], axis=2).transpose(1, 0, 2)
    # a target inside an upward fit discontinuity at its segment's left knot
    # maps to the knot itself
    x = segment_inverse(at, grid)
    slope = curve_slope(at, x)

    points = np.concatenate((np.zeros((len(x), 1)), x, np.full((len(x), 1), x_max)), axis=1)
    out_of_order = ~(points[:, :-1] < points[:, 1:])
    failures: list[str | None] = [None] * len(x)
    for d in np.flatnonzero(out_of_order.any(axis=1)).tolist():
        j = int(np.argmax(out_of_order[d]))
        a, b = points[d, j : j + 2].tolist()
        failures[d] = (
            f"levels and thresholds do not interleave: grid point {j} maps to {a:.6g}, "
            f"not below {b:.6g} for point {j + 1}"
        )
    return x, seg, slope, failures


def build(spline: QuadraticSpline, config: DesignConfig) -> CompandingQuantizer:
    """Assemble the quantizer: levels, thresholds, counts, overload level and
    model report, by the checks, grid inversion, granular term and report
    that ``score_batch`` runs for a whole sweep, with its bits.  Raises
    DesignError when the fitted curve fails one of its checks (finite,
    increasing per segment, spanning the half-step grid) or the resulting
    levels/thresholds fail to interleave.
    """
    if spline.knots != config.knots.knots:
        raise DesignError(
            f"spline knots {spline.knots} do not match config knots {config.knots.knots}"
        )
    tables, delta, grid = spline.coefficients[None], step_size(config), _half_step_grid(config)
    (failure,) = _curve_failures(tables, grid)
    if failure is None:
        (x,), (seg,), (slope,), (failure,) = _invert_grid(tables, grid, config.x_max)
    if failure is not None:
        raise DesignError(failure)

    # x[j - 1] is the preimage of grid point j: odd j are levels, even j thresholds
    points = np.concatenate(([0.0], x, [config.x_max]))
    levels, level_segments = x[::2], seg[::2]
    (report,) = _model_reports([float(_granular(levels, slope[::2], config))], config)
    return CompandingQuantizer(
        config=config,
        spline=spline,
        step=delta,
        levels=tuple(levels.tolist()),
        thresholds=tuple(points[2::2].tolist()),
        counts=tuple(np.bincount(level_segments, minlength=tables.shape[2]).tolist()),
        level_segments=tuple(level_segments.tolist()),
        overload_level=tail_centroid(config.source, config.x_max),
        cell_lengths_asymptotic=tuple((delta / slope[::2]).tolist()),
        cell_lengths_exact=tuple((points[2::2] - points[:-1:2]).tolist()),
        report=report,
    )


def _granular(levels: np.ndarray, slopes: np.ndarray, cfg: DesignConfig) -> np.ndarray:
    """Companding-model granular noise power of each row of levels, with the
    curve's slope at each level: the sum over the last axis of
    density/slope^2 * (delta/slope), times 2*(x_max/sigma)^2/(3(N-2)^2), times
    sigma^2 once, so that no square leaves the float range at any sigma."""
    s = cfg.source.sigma
    asym = step_size(cfg) / slopes
    lead = np.sum(pdf(cfg.source, levels) / slopes**2 * asym, axis=-1)
    return lead * (2.0 * (cfg.x_max / s) ** 2 / (3.0 * (cfg.n_levels - 2) ** 2)) * (s * s)


def granular_distortion(q: CompandingQuantizer) -> float:
    """Companding-model granular noise power: 2*x_max^2/(3(N-2)^2) times the
    sum of density/slope^2 * cell length (asymptotic), algebraically equal to
    the midpoint form sum of density * cell_length^3 / 6.  Off the public
    surface, kept because the benchmark's tracer binds it."""
    return q.report.granular


def overload_distortion_exact(q: CompandingQuantizer) -> float:
    """Overload noise power: twice the integral of (x - overload_level)^2
    times the density over the tail beyond x_max, by the 24-point cell
    rule.  Off the public surface, kept because the benchmark's tracer binds
    it."""
    return q.report.overload_exact


def overload_distortion_closed(x_max: float) -> float:
    """Asymptotic overload noise power for the unit-variance source:
    sqrt(2/pi) * x_max^-3 * exp(-x_max^2/2)."""
    if not x_max > 0.0:
        raise ValueError(f"x_max must be positive, got {x_max}")
    return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x_max * x_max) / x_max**3


def sqnr(q: CompandingQuantizer) -> DistortionReport:
    """Distortion report: granular model + closed-form overload drive the
    headline SQNR; the exact overload term, about the tail centroid that
    ``build`` makes the overload level, is recorded alongside.  Off the public
    surface, kept because the benchmark's tracer binds it."""
    return q.report


def _model_reports(granular: Sequence[float], cfg: DesignConfig) -> list[DistortionReport]:
    """The companding model's report for each granular noise power, from
    ``_granular``, of a design of ``cfg``: the closed-form overload term
    drives total and SQNR, the exact overload term about the tail centroid is
    recorded alongside; both depend on ``cfg`` alone and are computed once."""
    src = cfg.source
    overload = src.sigma**2 * overload_distortion_closed(cfg.x_max / src.sigma)
    centroid = tail_centroid(src, cfg.x_max)
    overload_exact = 2.0 * float(cell_second_moment(src, cfg.x_max, math.inf, centroid))
    return [
        DistortionReport(
            granular=g,
            overload=overload,
            total=g + overload,
            sqnr_db=10.0 * math.log10(src.sigma**2 / (g + overload)),
            overload_exact=overload_exact,
        )
        for g in granular
    ]


# score_batch inverts the grids of this many (design, grid point) pairs at a
# time, which bounds its working set whatever the number of designs
_BLOCK_POINTS = 2048


def score_batch(
    tables: np.ndarray, config: DesignConfig
) -> tuple[list[DistortionReport | None], list[str | None]]:
    """``build``'s checks and report for a stack of fitted curves, without
    building any quantizer.

    ``tables`` is a (designs, 5, segments) array as ``spline_fit.fit_batch``
    returns it; every design has the level count, support edge and source of
    ``config``, whose own interior knots play no part.  Returns per design its
    report, or None and the DesignError text ``build`` would raise.  The curve
    checks run on all designs at once, the grid inversion and the granular
    term on blocks of the designs that pass them.
    """
    grid = _half_step_grid(config)
    failures = _curve_failures(tables, grid)
    granular = np.zeros(len(tables))
    survivors = np.array([d for d, f in enumerate(failures) if f is None], dtype=int)
    block = max(1, _BLOCK_POINTS // grid.size)
    for first in range(0, survivors.size, block):
        rows = survivors[first : first + block]
        x, _, slope, block_failures = _invert_grid(tables[rows], grid, config.x_max)
        for d, failure in zip(rows.tolist(), block_failures):
            failures[d] = failure
        ok = np.array([f is None for f in block_failures])
        granular[rows[ok]] = _granular(x[ok, ::2], slope[ok, ::2], config)
    valid = np.array([f is None for f in failures], dtype=bool)
    reports = iter(_model_reports(granular[valid].tolist(), config))
    return [None if f is not None else next(reports) for f in failures], failures


def encode(q: CompandingQuantizer, x: float) -> int:
    """Cell index of amplitude ``x`` (0 = negative overload, N-1 = positive).

    Cells are half-open on the right, as ``mc_distortion`` counts them: x_max
    and beyond land in cell N-1, below -x_max in cell 0, while -x_max itself
    lands in cell 1, the first granular cell.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot encode non-finite amplitude {x!r}")
    return bisect.bisect_right(q.all_boundaries, x)


def decode(q: CompandingQuantizer, index: int) -> float:
    """Reproduction level of cell ``index``."""
    if not 0 <= index < q.config.n_levels:
        raise IndexError(f"cell index {index} out of range [0, {q.config.n_levels})")
    return q.all_levels[index]
