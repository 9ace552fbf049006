"""The design pipeline for one threshold, its grid sweep over the free segment
threshold, and optional golden-section refinement of the SQNR maximum.
``evaluate_candidate`` fits one knot row by ``_fit_knots`` and builds its
quantizer, which carries its report; ``sweep`` and ``refine`` score knot rows
by the same fits and ``score_batch``, building no quantizer: ``sweep`` all its
candidates in one pass, ``refine`` each golden-section point together with the
points the next two steps could need, one pass per three steps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gauss_analytics import SourceModel, compressor, support_threshold
from .quantizer_design import (
    CompandingQuantizer,
    DesignConfig,
    DesignError,
    DistortionReport,
    build,
    score_batch,
    standard_config,
)
from .spline_fit import QuadraticSpline, fit_batch, target_moments

__all__ = [
    "SweepCandidate",
    "SweepResult",
    "RefineResult",
    "SweepError",
    "evaluate_candidate",
    "sweep",
    "refine",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# refine's golden-section bracket closes at this width in x1, in units of sigma
_REFINE_X1_TOLERANCE = 1e-4
# refine scores the point it needs with every point the next this many steps
# could need, in one pass: 2 measured faster than 1 or 3
_REFINE_LOOKAHEAD = 2

# sweep refuses finer grids: each candidate is fitted, checked and scored
_MAX_CANDIDATES = 100_000


class SweepError(RuntimeError):
    """No sweep candidate produced a usable design."""


@dataclass(frozen=True)
class SweepCandidate:
    x1: float
    sqnr_db: float | None
    report: DistortionReport | None
    valid: bool
    failure: str | None = None


@dataclass(frozen=True)
class SweepResult:
    """Full threshold-sweep curve plus its argmax and the inputs that made it;
    ``grid_step`` is in units of the source's sigma, as ``sweep`` takes it."""

    candidates: tuple[SweepCandidate, ...]
    best_x1: float
    best_sqnr_db: float
    n_levels: int
    x_max: float
    grid_step: float
    source: SourceModel


@dataclass(frozen=True)
class RefineResult:
    x1: float
    sqnr_db: float
    interior: bool


def evaluate_candidate(
    n_levels: int, x1: float, source: SourceModel = SourceModel()
) -> CompandingQuantizer:
    """The quantizer on knots (0, x1, x_max), fitted by ``_fit_knots`` on its
    one knot row and built once; ``build`` raises the DesignError text that
    ``_score_knots`` records for the same row."""
    config = standard_config(n_levels, (x1,), source)
    (table,) = _fit_knots(config, [config.knots.knots])
    return build(QuadraticSpline(table), config)


def _fit_knots(config: DesignConfig, knots: Sequence[Sequence[float]]) -> np.ndarray:
    """The compressor's fitted tables on each row of a (designs, K+1) knot
    matrix, all with the support edge and source of ``config``: one quadrature
    pass, then ``fit_batch``, on the unit source (knots/sigma, edge x_max/sigma);
    the tables are then scaled once, c0 by sigma and c2 by 1/sigma, with lo and
    hi the given knots.  The one place where a design path names its fit
    target.  Knots that meet in units of sigma raise DesignError."""
    sigma, unit = config.source.sigma, SourceModel()
    knots = np.asarray(knots, dtype=float)
    scaled, edge = knots / sigma, config.x_max / sigma
    meet = ~(scaled[:, 1:] > scaled[:, :-1]).all(axis=1)
    if meet.any():
        raise DesignError(f"knots {knots[np.argmax(meet)].tolist()} meet in units of sigma {sigma!r}")
    tables = fit_batch(scaled, target_moments(lambda u: compressor(unit, edge, u), scaled))
    tables[:, 0], tables[:, 2] = tables[:, 0] * sigma, tables[:, 2] / sigma
    tables[:, 3], tables[:, 4] = knots[:, :-1], knots[:, 1:]
    return tables


def _score_knots(
    config: DesignConfig, knots: Sequence[Sequence[float]]
) -> tuple[list[DistortionReport | None], list[str | None]]:
    """The ``score_batch`` reports and failures of the ``_fit_knots`` fits of
    a knot matrix, for the level count of ``config``."""
    return score_batch(_fit_knots(config, knots), config)


def sweep(
    n_levels: int,
    grid_step: float = 0.01,
    source: SourceModel = SourceModel(),
) -> SweepResult:
    """Evaluate every threshold on the grid x_max/2, x_max/2 + step, ... < x_max,
    where step is ``grid_step`` times the source's sigma: every sigma gives the
    same grid in units of sigma, and at sigma = 1 the step is ``grid_step``.

    All candidates go through one array pass of ``_score_knots``, with no
    per-candidate quantizer; ``score_batch`` inverts their grids in blocks
    of about 2,048 grid points.  The first candidate is the midpoint x_max/2
    exactly.  Each candidate's report is that of ``evaluate_candidate`` at
    its threshold, bit for bit.  Candidates whose fit cannot produce a
    monotone quantizer are kept in the curve but marked invalid, with the
    reason ``build`` gives, and skipped by the argmax.  Ties break toward the
    smaller threshold.  A ``grid_step`` that would give more than 100,000
    candidates raises ValueError before any work.
    """
    x_max = support_threshold(source, n_levels)
    step = grid_step * source.sigma
    if not 0.0 < step < 0.5 * x_max:
        raise ValueError(
            f"grid_step must lie in (0, {0.5 * x_max / source.sigma}) in units of sigma, "
            f"got {grid_step}"
        )
    if 0.5 * x_max / step > _MAX_CANDIDATES:
        raise ValueError(
            f"grid_step {grid_step} gives more than {_MAX_CANDIDATES} candidates on "
            f"[{0.5 * x_max:.6g}, {x_max:.6g})"
        )

    grid = []
    while (x1 := 0.5 * x_max + len(grid) * step) < x_max * (1.0 - 1e-12):
        grid.append(x1)
    # one config checks the level budget and carries what all candidates share
    config = standard_config(n_levels, (grid[0],), source)
    reports, failures = _score_knots(config, [(0.0, x1, x_max) for x1 in grid])

    candidates = tuple(
        SweepCandidate(x1, None if report is None else report.sqnr_db, report, report is not None, failure)
        for x1, report, failure in zip(grid, reports, failures)
    )
    # max keeps the first of equal maxima: ties break toward the smaller x1
    best = max((c for c in candidates if c.valid), key=lambda c: c.sqnr_db, default=None)
    if best is None:
        raise SweepError(f"all {len(candidates)} sweep candidates failed to build")

    return SweepResult(
        candidates=candidates,
        best_x1=best.x1,
        best_sqnr_db=best.sqnr_db,
        n_levels=config.n_levels,
        x_max=x_max,
        grid_step=grid_step,
        source=source,
    )


def _golden_step(a: float, b: float, c: float, d: float, left: bool) -> tuple[float, float, float, float]:
    """One golden-section step on the bracket (a, b) with inner points c < d:
    toward a when ``left`` (c scored above d), else toward b.  The new point
    is the new c when ``left``, else the new d."""
    if left:
        b, d = d, c
        return a, b, b - _INV_PHI * (b - a), d
    a, c = c, d
    return a, b, c, a + _INV_PHI * (b - a)


def _points_ahead(a: float, b: float, c: float, d: float, width: float, depth: int) -> list[float]:
    """Every point that the next ``depth`` golden-section steps from (a, b, c, d)
    could score, whichever way each comparison goes; the recurrence takes no
    step once the bracket is ``width`` wide or less."""
    if depth == 0 or not b - a > width:
        return []
    points = []
    for left in (True, False):
        a2, b2, c2, d2 = _golden_step(a, b, c, d, left)
        points += [c2 if left else d2, *_points_ahead(a2, b2, c2, d2, width, depth - 1)]
    return points


def refine(result: SweepResult) -> RefineResult:
    """Golden-section polish of the sweep maximum within one grid step.

    Requires the grid maximum to be interior; a boundary maximum is returned
    unchanged with ``interior=False``, and a result with no valid candidate
    raises SweepError.  The bracket closes at 1e-4 sigma in x1.  The refined
    SQNR never falls below the grid best.  When the recurrence needs a point
    that has no score yet, that point and every point the following two steps
    could need are scored in one ``_score_knots`` call, one knot row each;
    each row carries the bits of ``evaluate_candidate``'s report, so the walk
    is the one that scores a point per call.  A point that fails to build
    scores -inf.
    """
    valid = [c for c in result.candidates if c.valid]
    if not valid:
        raise SweepError(f"none of the {len(result.candidates)} sweep candidates is valid: nothing to refine")
    if result.best_x1 in (valid[0].x1, valid[-1].x1):
        return RefineResult(result.best_x1, result.best_sqnr_db, interior=False)

    config = standard_config(result.n_levels, (result.best_x1,), result.source)
    sigma = result.source.sigma
    width = _REFINE_X1_TOLERANCE * sigma
    scores: dict[float, float] = {}

    def score(points: list[float]) -> None:
        points = [x1 for x1 in dict.fromkeys(points) if x1 not in scores]
        reports, _ = _score_knots(config, [(0.0, x1, config.x_max) for x1 in points])
        for x1, report in zip(points, reports):
            scores[x1] = -math.inf if report is None else report.sqnr_db

    a = result.best_x1 - result.grid_step * sigma
    b = result.best_x1 + result.grid_step * sigma
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    score([c, d, *_points_ahead(a, b, c, d, width, _REFINE_LOOKAHEAD)])
    fc, fd = scores[c], scores[d]
    while b - a > width:
        left = fc > fd
        a, b, c, d = _golden_step(a, b, c, d, left)
        new = c if left else d
        if new not in scores:
            score([new, *_points_ahead(a, b, c, d, width, _REFINE_LOOKAHEAD)])
        fc, fd = (scores[c], fc) if left else (fd, scores[d])
    x1 = c if fc > fd else d
    val = max(fc, fd)
    if val < result.best_sqnr_db:
        return RefineResult(result.best_x1, result.best_sqnr_db, interior=True)
    return RefineResult(x1, val, interior=True)
