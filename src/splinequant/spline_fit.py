"""Least-squares fitting of a piecewise-quadratic curve to a target function,
plus evaluation, differentiation, and per-segment inversion of the result.

Each segment is fitted independently: the squared-error integral over one knot
interval is minimized by its own quadratic, the target's projection onto the
Legendre polynomials of degree <= 2 on that interval, which needs only the
target moments and no linear solve.  No continuity is imposed across knots;
the jump sizes are available as a diagnostic through
``QuadraticSpline.knot_jumps``.

A fitted curve is its coefficient table, one column per segment, rows c0, c1,
c2, lo, hi.  This module owns that layout: other modules evaluate a table only
through ``curve_value``, ``curve_slope`` and ``segment_roots``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gauss_analytics import integrate

__all__ = [
    "KnotVector",
    "QuadraticSpline",
    "curve_value",
    "curve_slope",
    "InversionError",
    "fit",
    "fit_batch",
    "target_moments",
    "invert_segment",
    "segment_roots",
    "inversion_error",
]

_DOMAIN_SLACK = 1e-9


class InversionError(ValueError):
    """Raised when a segment polynomial has no usable root for a target value."""


@dataclass(frozen=True)
class KnotVector:
    """Strictly increasing breakpoints starting at 0; the last one is the design edge."""

    knots: tuple[float, ...]

    def __init__(self, knots: Sequence[float]):
        object.__setattr__(self, "knots", tuple(float(k) for k in knots))
        if len(self.knots) < 2:
            raise ValueError("need at least two knots (one segment)")
        if self.knots[0] != 0.0:
            raise ValueError(f"first knot must be 0, got {self.knots[0]}")
        if any(a >= b for a, b in zip(self.knots, self.knots[1:])):
            raise ValueError(f"knots must be strictly increasing, got {self.knots}")

    def __len__(self) -> int:
        return len(self.knots)

    def __getitem__(self, i: int) -> float:
        return self.knots[i]

    @property
    def n_segments(self) -> int:
        return len(self.knots) - 1

    @property
    def x_max(self) -> float:
        return self.knots[-1]


def curve_value(rows, x):
    """c0 + x*(c1 + c2*x) from the leading rows c0, c1, c2 of a coefficient
    table, or of any stack or selection of columns that broadcasts with x."""
    return rows[0] + x * (rows[1] + rows[2] * x)


def curve_slope(rows, x):
    """c1 + 2*c2*x, the slope of ``curve_value`` for the same ``rows``."""
    return rows[1] + 2.0 * rows[2] * x


@dataclass(frozen=True, eq=False)
class QuadraticSpline:
    """Piecewise quadratic tiling [knots[0], knots[-1]], held as its read-only
    (5, n_segments) coefficient table: column i is c0 + c1*x + c2*x^2 on [lo, hi]."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        table = np.array(self.coefficients, dtype=float)
        if table.ndim != 2 or table.shape[0] != 5 or table.shape[1] < 1:
            raise ValueError(f"coefficient table must have shape (5, n_segments), got {table.shape}")
        lo, hi = table[3], table[4]
        if not ((lo < hi).all() and (hi[:-1] == lo[1:]).all()):
            bounds = list(zip(lo.tolist(), hi.tolist()))
            raise ValueError(f"segment bounds out of order or not tiling the domain: {bounds}")
        table.flags.writeable = False
        object.__setattr__(self, "coefficients", table)

    @property
    def knots(self) -> tuple[float, ...]:
        return tuple(self.coefficients[3].tolist()) + (self.coefficients[4, -1].item(),)

    def _at(self, f, x):
        """``f`` at x on the owning segment; an interior knot belongs to its left."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.knots[0], self.knots[-1]
        outside = (x < lo) | (x > hi)
        if outside.any():
            raise ValueError(f"x={x.flat[np.argmax(outside)]} outside spline domain [{lo}, {hi}]")
        y = f(self.coefficients.take(np.searchsorted(self.coefficients[4, :-1], x), axis=1), x)
        return float(y) if y.ndim == 0 else y

    def value(self, x: float | np.ndarray) -> float | np.ndarray:
        """Curve value at ``x``, a float or an array."""
        return self._at(curve_value, x)

    def derivative(self, x: float | np.ndarray) -> float | np.ndarray:
        """Curve slope at ``x``, a float or an array."""
        return self._at(curve_slope, x)

    def knot_values(self) -> tuple[float, ...]:
        """Values at all knots under the left-segment tie-break; the first entry
        is the leading segment's value at its own left edge."""
        table = self.coefficients
        return tuple(curve_value(table, table[3])[:1].tolist() + curve_value(table, table[4]).tolist())

    def knot_jumps(self) -> tuple[float, ...]:
        """Discontinuity magnitude at each interior knot (fit diagnostic)."""
        table = self.coefficients
        jumps = curve_value(table, table[3])[1:] - curve_value(table, table[4])[:-1]
        return tuple(np.abs(jumps).tolist())


def target_moments(
    target: Callable[[np.ndarray], np.ndarray],
    knots: Sequence[Sequence[float]],
) -> np.ndarray:
    """Integrals of target * x^k, k = 0, 1, 2, over every segment of every
    row of ``knots`` (knot vectors with equal segment counts), from one
    quadrature pass: a (rows, n_segments, 3) array.  ``target`` must map an
    array of abscissae elementwise."""
    knots = np.asarray(knots, dtype=float)

    def weighted(x):  # rows target, target * x, target * x^2
        t = target(x)
        out = np.empty((3,) + x.shape)
        out[0] = t
        np.multiply(t, x, out=out[1])
        np.multiply(x, x, out=out[2])
        out[2] *= t
        return out

    rows = integrate(weighted, knots[:, :-1].ravel(), knots[:, 1:].ravel()).T
    return rows.reshape(knots.shape[0], knots.shape[1] - 1, 3)


def fit_batch(knots: Sequence[Sequence[float]], moments: np.ndarray) -> np.ndarray:
    """Per-segment least-squares quadratics for many fits at once.

    ``knots`` holds one strictly increasing knot vector per row, ``moments``
    the matching ``target_moments`` array.  Returns a (rows, 5, n_segments)
    array: for each fit the table that ``QuadraticSpline.coefficients``
    holds, rows c0, c1, c2, lo, hi.  Each segment's fit is the closed-form
    projection onto the Legendre polynomials in u = (x - m)/h, with midpoint
    m and half-width h, rewritten as monomials in x; no linear solve.
    """
    knots = np.asarray(knots, dtype=float)
    lo, hi = knots[:, :-1], knots[:, 1:]
    rising = (hi > lo).all(axis=1)
    if not rising.all():
        raise ValueError(f"knots must be strictly increasing, got {knots[np.argmin(rising)].tolist()}")
    m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    m0, m1, m2 = np.moveaxis(np.asarray(moments, dtype=float), -1, 0)
    # integrals of target * u and target * u^2
    a1 = (m1 - m * m0) / h
    a2 = (m2 - m * (2.0 * m1 - m * m0)) / (h * h)
    # Legendre coefficients: b_k = (2k + 1)/(2h) * integral of target * P_k(u)
    b0 = m0 / (2.0 * h)
    b1 = 3.0 * a1 / (2.0 * h)
    b2 = 5.0 * (3.0 * a2 - m0) / (4.0 * h)
    # b0 + b1*u + b2*(3u^2 - 1)/2 = (b0 - b2/2) + (b1/h)(x - m) + (1.5*b2/h^2)(x - m)^2
    s1, c2 = b1 / h, 1.5 * b2 / (h * h)
    c1 = s1 - 2.0 * m * c2
    c0 = b0 - 0.5 * b2 - m * (s1 - m * c2)
    return np.stack((c0, c1, c2, lo, hi), axis=1)


def fit(target: Callable[[np.ndarray], np.ndarray], knots: KnotVector) -> QuadraticSpline:
    """Per-segment least-squares quadratic approximation of ``target``, which
    must map arrays elementwise.

    For each knot interval the returned coefficients minimize the integral of
    (target - polynomial)^2; the residual is therefore orthogonal to 1, x, x^2
    on that interval.  The one-fit case of ``target_moments`` and
    ``fit_batch``, which computes it as a closed-form projection.
    """
    (table,) = fit_batch([knots.knots], target_moments(target, [knots.knots]))
    return QuadraticSpline(table)


def invert_segment(
    spline: QuadraticSpline, segment_index: int | np.ndarray, target: float | np.ndarray
) -> float | np.ndarray:
    """Solve segment polynomial == target inside that segment's interval.

    ``segment_index`` and ``target`` may be arrays that broadcast together;
    the result has their broadcast shape, and is a float for scalar inputs.
    Uses the cancellation-free quadratic formula; falls back to the linear
    solve when the quadratic coefficient is negligible.  Exactly one root may
    lie in [lo, hi] (widened by 1e-9): none raises InversionError, two signal
    a non-monotonic segment and also raise.  Array inputs raise for their
    first failing element, with that element's message.
    """
    idx, t = np.asarray(segment_index), np.asarray(target, dtype=float)
    root, failed = segment_roots(spline.coefficients.take(idx, axis=1), t)
    if np.count_nonzero(failed):
        k = int(np.argmax(failed.ravel()))
        i, tk = (np.broadcast_to(v, failed.shape).flat[k].item() for v in (idx, t))
        raise inversion_error(spline.coefficients[:, i], i, tk)
    return float(root) if root.ndim == 0 else root


def _roots(table: np.ndarray, t: np.ndarray):
    """Both roots of c0 + c1*x + c2*x^2 == t for the rows c0, c1, c2, lo, hi
    of ``table``, elementwise: (r_lo, r_hi, in_lo, in_hi, linear, disc), where
    ``in_`` marks a root inside [lo, hi] widened by the slack."""
    c0, c1, c2, lo, hi = table
    a, b, c = c2, c1, c0 - t
    linear = np.abs(a) < 1e-12 * np.abs(b)
    disc = b * b - 4.0 * a * c
    # a negative discriminant or a constant segment gives NaN or infinite
    # roots, which lie in no segment; the double root at q == 0 gives
    # c/q = NaN, which fmin and fmax drop
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
        r1 = np.where(linear, -c / b, q / a)
        r2 = np.where(linear, r1, c / q)
    r_lo, r_hi = np.fmin(r1, r2), np.fmax(r1, r2)
    lo_slack, hi_slack = lo - _DOMAIN_SLACK, hi + _DOMAIN_SLACK
    in_lo = (lo_slack <= r_lo) & (r_lo <= hi_slack)
    in_hi = (lo_slack <= r_hi) & (r_hi <= hi_slack)
    return r_lo, r_hi, in_lo, in_hi, linear, disc


def segment_roots(table: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The root logic of ``invert_segment`` on coefficient rows c0, c1, c2,
    lo, hi (``table``, any common shape after the first axis) and targets
    that broadcast with them: the roots clamped to [lo, hi], and a mask of
    the elements that have no usable root (``inversion_error`` gives why)."""
    r_lo, r_hi, in_lo, in_hi, _, _ = _roots(table, target)
    failed = ~(in_lo | in_hi) | (in_lo & in_hi & (r_hi - r_lo > _DOMAIN_SLACK))
    _, _, _, lo, hi = table
    return np.minimum(np.maximum(np.where(in_lo, r_lo, r_hi), lo), hi), failed


def inversion_error(row: np.ndarray, segment: int, target: float) -> InversionError:
    """Why segment ``segment``, with coefficient column ``row`` (c0, c1, c2,
    lo, hi), has no usable root for ``target``."""
    r_lo, r_hi, in_lo, in_hi, linear, disc = _roots(row, target)
    _, b, a, lo, hi = row.tolist()
    if a == 0.0 and b == 0.0:
        return InversionError("degenerate segment polynomial (constant)")
    if not linear and disc < 0.0:
        return InversionError(f"no real root for target {target} on segment {segment}")
    if not (in_lo or in_hi):
        return InversionError(f"no root in [{lo}, {hi}] for target {target} on segment {segment}")
    roots = [float(r_lo), float(r_hi)]
    return InversionError(f"both roots {roots} inside segment {segment}: non-monotonic segment")
