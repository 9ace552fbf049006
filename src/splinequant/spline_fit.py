"""Least-squares fitting of a piecewise-quadratic curve to a target function,
plus evaluation, differentiation, and per-segment inversion of the result.

Each segment is fitted independently: the squared-error integral over one knot
interval is minimized by its own quadratic, the target's projection onto the
Legendre polynomials of degree <= 2 on that interval, which needs only the
target moments and no linear solve.  No continuity is imposed across knots;
the jump sizes are available as a diagnostic through
``QuadraticSpline.knot_jumps``.

A fitted curve is its coefficient table, one column per segment, rows c0, c1,
c2, lo, hi.  Other modules evaluate it through ``curve_value``, ``curve_slope``
and ``segment_inverse`` (the increasing branch, the only one a valid design
uses) and index its rows directly: ``threshold_optimizer._fit_knots`` writes
c0, c2, lo and hi, ``quantizer_design`` reads lo and hi, and ``cli`` lists
lo, hi, c0, c1, c2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gauss_analytics import integrate

__all__ = [
    "KnotVector",
    "QuadraticSpline",
    "fit",
]


@dataclass(frozen=True)
class KnotVector:
    """Strictly increasing finite breakpoints starting at 0; the last one is
    the design edge."""

    knots: tuple[float, ...]

    def __init__(self, knots: Sequence[float]):
        object.__setattr__(self, "knots", tuple(float(k) for k in knots))
        if len(self.knots) < 2:
            raise ValueError("need at least two knots (one segment)")
        # NaN fails every comparison, so the ordering check below cannot catch it
        bad = [k for k in self.knots if not math.isfinite(k)]
        if bad:
            raise ValueError(f"knots must be finite, got {bad} in {self.knots}")
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

    ``knots`` holds one strictly increasing knot vector per row (the callers
    check), ``moments`` the matching ``target_moments`` array.  Returns a
    (rows, 5, n_segments) array: for each fit the table that
    ``QuadraticSpline.coefficients`` holds, rows c0, c1, c2, lo, hi.  Each
    segment's fit is the closed-form projection onto the Legendre polynomials
    in u = (x - m)/h, with midpoint m and half-width h, rewritten as
    monomials in x; no linear solve.
    """
    knots = np.asarray(knots, dtype=float)
    lo, hi = knots[:, :-1], knots[:, 1:]
    m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    m0, m1, m2 = np.moveaxis(np.asarray(moments, dtype=float), -1, 0)
    # h or h*h underflowing to 0 gives a non-finite table; the curve checks report it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def segment_inverse(rows, target):
    """The preimage of ``target`` on the increasing branch of each segment of
    ``rows`` (c0, c1, c2, lo, hi, any common shape after the first axis; the
    targets broadcast with them).

    With s = v'(lo) > 0 and d = max(target - v(lo), 0), the root of
    c2*u^2 + s*u = d is u = 2d/(s + sqrt(s^2 + 4*c2*d)), free of cancellation;
    the result is min(lo + u, hi).  A target below v(lo), inside an upward
    jump at the left knot, maps to lo, the generalized inverse of the jump.
    The caller guarantees a positive slope at both ends and a target below
    v(hi).
    """
    _, _, c2, lo, hi = rows
    s = curve_slope(rows, lo)
    d = np.maximum(target - curve_value(rows, lo), 0.0)
    return np.minimum(lo + 2.0 * d / (s + np.sqrt(np.maximum(s * s + 4.0 * c2 * d, 0.0))), hi)


def invert_segment(spline: QuadraticSpline, segment_index: int, target: float) -> float:
    """``segment_inverse`` on one segment of ``spline``; off the public
    surface, kept because the benchmark's tracer binds it."""
    return float(segment_inverse(spline.coefficients[:, segment_index], target))
