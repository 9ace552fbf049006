"""Least-squares fitting of a piecewise-quadratic curve to a target function,
plus evaluation, differentiation, and per-segment inversion of the result.

Each segment is fitted independently: the squared-error integral over one knot
interval is minimized by its own quadratic, so the normal equations decouple
into 3x3 systems.  No continuity is imposed across knots; the jump sizes are
available as a diagnostic through ``QuadraticSpline.knot_jumps``.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .gauss_analytics import Nodes, integrate

__all__ = [
    "KnotVector",
    "QuadSegment",
    "QuadraticSpline",
    "FitError",
    "InversionError",
    "fit",
    "fit_objective",
    "target_moments",
    "invert_segment",
]

log = logging.getLogger(__name__)

_DOMAIN_SLACK = 1e-9


class FitError(ArithmeticError):
    """Raised when the per-segment normal equations cannot be solved."""


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


@dataclass(frozen=True)
class QuadSegment:
    """One polynomial piece c0 + c1*x + c2*x^2 on [lo, hi]."""

    c0: float
    c1: float
    c2: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"segment bounds out of order: [{self.lo}, {self.hi}]")

    def value(self, x: float) -> float:
        return self.c0 + x * (self.c1 + self.c2 * x)

    def slope(self, x: float) -> float:
        return self.c1 + 2.0 * self.c2 * x


@dataclass(frozen=True)
class QuadraticSpline:
    """Ordered segments tiling [knots[0], knots[-1]]; immutable once built."""

    segments: tuple[QuadSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("spline needs at least one segment")
        for left, right in zip(self.segments, self.segments[1:]):
            if left.hi != right.lo:
                raise ValueError(
                    f"segments do not tile the domain: {left.hi} != {right.lo}"
                )

    @property
    def knots(self) -> tuple[float, ...]:
        return tuple(s.lo for s in self.segments) + (self.segments[-1].hi,)

    @property
    def lo(self) -> float:
        return self.segments[0].lo

    @property
    def hi(self) -> float:
        return self.segments[-1].hi

    def segment_index(self, x: float) -> int:
        """Owning segment of ``x``; interior knots resolve to the left segment."""
        if x < self.lo or x > self.hi:
            raise ValueError(f"x={x} outside spline domain [{self.lo}, {self.hi}]")
        return max(0, bisect.bisect_left(self.knots, x) - 1)

    def value(self, x: float) -> float:
        return self.segments[self.segment_index(x)].value(x)

    def derivative(self, x: float) -> float:
        return self.segments[self.segment_index(x)].slope(x)

    def knot_values(self) -> tuple[float, ...]:
        """Values at all knots under the left-segment tie-break; the first entry
        is the leading segment's value at its own left edge."""
        return (self.segments[0].value(self.lo),) + tuple(
            s.value(s.hi) for s in self.segments
        )

    @cached_property
    def coefficients(self) -> np.ndarray:
        """Read-only (5, n_segments) table whose rows are c0, c1, c2, lo, hi."""
        table = np.array([(s.c0, s.c1, s.c2, s.lo, s.hi) for s in self.segments]).T
        table.flags.writeable = False
        return table

    def knot_jumps(self) -> tuple[float, ...]:
        """Discontinuity magnitude at each interior knot (fit diagnostic)."""
        return tuple(
            abs(right.value(right.lo) - left.value(left.hi))
            for left, right in zip(self.segments, self.segments[1:])
        )


def _solve3(m: list[list[float]], b: list[float]) -> list[float]:
    """3x3 solve by LU with partial pivoting; logs a 1-norm condition estimate."""
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
    if log.isEnabledFor(logging.DEBUG):
        log.debug("moment matrix condition estimate: %.3e", np.linalg.cond(m, 1))
    return x


def target_moments(
    target: Callable[[np.ndarray], np.ndarray],
    knot_vectors: Sequence[KnotVector],
) -> list[np.ndarray]:
    """Integrals of target * x^k, k = 0, 1, 2, over every segment of every
    knot vector, from one quadrature pass; one (n_segments, 3) array per
    vector.  ``target`` must map an array of abscissae elementwise."""
    lo, hi = np.array([(lo, hi) for kv in knot_vectors for lo, hi in zip(kv.knots, kv.knots[1:])]).T
    weighted = lambda n: target(n.x) * np.stack((np.ones_like(n.x), n.x, n.x**2))
    rows = integrate(weighted, lo, hi).T
    return np.split(rows, np.cumsum([kv.n_segments for kv in knot_vectors])[:-1])


def fit(
    target: Callable[[np.ndarray], np.ndarray],
    knots: KnotVector,
    moments: np.ndarray | None = None,
) -> QuadraticSpline:
    """Per-segment least-squares quadratic approximation of ``target``.

    For each knot interval the returned coefficients minimize the integral of
    (target - polynomial)^2; the residual is therefore orthogonal to 1, x, x^2
    on that interval.  Monomial moments use closed-form antiderivatives; the
    target-weighted ones come from ``target_moments``, so ``target`` must map
    arrays, unless a batch of fits passes this fit's row of one such call as
    ``moments``.
    """
    if moments is None:
        (moments,) = target_moments(target, [knots])
    segments = []
    for lo, hi, rhs in zip(knots.knots, knots.knots[1:], moments.tolist()):
        gram = [
            [(hi ** (j + k + 1) - lo ** (j + k + 1)) / (j + k + 1) for k in range(3)]
            for j in range(3)
        ]
        c0, c1, c2 = _solve3(gram, rhs)
        segments.append(QuadSegment(c0, c1, c2, lo, hi))
    return QuadraticSpline(tuple(segments))


def fit_objective(
    target: Callable[[np.ndarray], np.ndarray],
    spline: QuadraticSpline,
    knots: KnotVector,
) -> float:
    """Length-weighted squared fit error: sum over segments of
    (1 / segment length) * integral of (target - spline)^2."""
    if spline.knots != knots.knots:
        raise ValueError(
            f"spline segments {spline.knots} do not align with knots {knots.knots}"
        )
    c0, c1, c2, lo, hi = spline.coefficients

    def squared_error(nodes: Nodes) -> np.ndarray:
        x, i = nodes
        return (target(x) - (c0[i] + x * (c1[i] + c2[i] * x))) ** 2

    return sum((integrate(squared_error, lo, hi) / (hi - lo)).tolist())


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
    c0, c1, c2, lo, hi = spline.coefficients.take(idx, axis=1)
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
    failed = ~(in_lo | in_hi) | (in_lo & in_hi & (r_hi - r_lo > _DOMAIN_SLACK))
    if np.count_nonzero(failed):
        if failed.ndim:  # the first failing element raises its own message
            k = int(np.argmax(failed.ravel()))
            first = (np.broadcast_to(v, failed.shape).flat[k].item() for v in (idx, t))
            invert_segment(spline, *first)
        i, tk = int(idx), float(t)
        if a == 0.0 and b == 0.0:
            raise InversionError("degenerate segment polynomial (constant)")
        if not linear and disc < 0.0:
            raise InversionError(f"no real root for target {tk} on segment {i}")
        if not (in_lo or in_hi):
            seg = spline.segments[i]
            raise InversionError(f"no root in [{seg.lo}, {seg.hi}] for target {tk} on segment {i}")
        roots = [float(r_lo), float(r_hi)]
        raise InversionError(f"both roots {roots} inside segment {i}: non-monotonic segment")
    root = np.minimum(np.maximum(np.where(in_lo, r_lo, r_hi), lo), hi)
    return float(root) if root.ndim == 0 else root
