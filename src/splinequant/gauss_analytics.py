"""Gaussian source model: density, tail statistics, the SQNR-optimal compressor,
the closed-form cell moment that every cell and tail distortion uses, and the
batched adaptive quadrature that computes the spline fit's target moments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SourceModel",
    "QuadratureError",
    "pdf",
    "upper_tail",
    "cell_second_moment",
    "compressor",
    "compressor_derivative",
    "support_threshold",
    "tail_centroid",
    "erf",
    "integrate",
    "TAIL_CENTROID_CUTOFF",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT6 = math.sqrt(6.0)

# Beyond this many standard deviations the upper-tail probability leaves the
# normal double range and the centroid ratio is no longer trustworthy.
TAIL_CENTROID_CUTOFF = 35.0

# integrate(): a piece is accepted once its error estimate is within its share
# of max(_ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE * |whole|); one (interval,
# component) pair may be split at most _MAX_SUBDIVISIONS times
_RELATIVE_TOLERANCE = 1e-10
_ABSOLUTE_TOLERANCE = 1e-12
_MAX_SUBDIVISIONS = 100_000
_CHUNK = 32  # intervals integrate() refines together; bounds its working set
_MAX_DEPTH = 60  # interval width shrinks by 2^-60; past that refinement is noise
_ERF = np.frompyfunc(math.erf, 1, 1)
_ERFC = np.frompyfunc(math.erfc, 1, 1)


@dataclass(frozen=True)
class SourceModel:
    """Zero-mean Gaussian amplitude source; ``sigma`` is the standard deviation."""

    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


class QuadratureError(ArithmeticError):
    """Adaptive quadrature ran out of subdivisions before meeting tolerance.

    ``best_estimate`` carries the values assembled so far.
    """

    def __init__(self, message: str, best_estimate: np.ndarray):
        super().__init__(message)
        self.best_estimate = best_estimate


def pdf(model: SourceModel, x: float | np.ndarray) -> float | np.ndarray:
    """Gaussian density of ``model`` at amplitude ``x``, a float or an array."""
    z = x / model.sigma
    exp = np.exp if isinstance(x, np.ndarray) else math.exp
    return exp(-0.5 * z * z) / (model.sigma * _SQRT_2PI)


def upper_tail(model: SourceModel, x: float | np.ndarray) -> float | np.ndarray:
    """P(X > x) at a float or elementwise over an array; computed through
    erfc so large x does not cancel, with the bits of ``math.erfc``."""
    q = 0.5 * np.asarray(_ERFC(x / (model.sigma * math.sqrt(2.0))), dtype=float)
    return q if isinstance(x, np.ndarray) else float(q)


def cell_second_moment(
    model: SourceModel,
    a: float | np.ndarray,
    b: float | np.ndarray,
    y: float | np.ndarray,
) -> float | np.ndarray:
    """Integral of (x - y)^2 * density over [a, b], elementwise over floats
    or arrays that broadcast together; b may be +inf.

    Closed form (sigma^2 + y^2) (Q(a) - Q(b)) + sigma^2 ((a - 2y) pdf(a) -
    (b - 2y) pdf(b)), Q the upper tail: the cell mass is a difference of
    erfc tails, so cells far out keep the mass's relative precision.  The b
    terms vanish where pdf(b) underflows to 0, b = +inf included, without
    forming inf * 0.  The terms still cancel: on a tail [a, inf) about its
    centroid the relative error grows like (a/sigma)^6 * 1e-16, 5e-12 at 6
    sigma.
    """
    s2 = model.sigma**2
    mass = upper_tail(model, a) - upper_tail(model, b)
    pdf_b = pdf(model, b)
    b_factor = np.where(pdf_b > 0.0, b - 2.0 * y, 0.0)
    return (s2 + y * y) * mass + s2 * ((a - 2.0 * y) * pdf(model, a) - b_factor * pdf_b)


def erf(z: np.ndarray) -> np.ndarray:
    """``math.erf`` applied elementwise: bit-identical to the scalar function."""
    return np.asarray(_ERF(z), dtype=float)


def compressor(model: SourceModel, x_max: float, x: float | np.ndarray) -> float | np.ndarray:
    """SQNR-optimal compressor for the Gaussian source on [-x_max, x_max].

    Odd, strictly increasing, maps 0 to 0 and +/-x_max to +/-x_max.  Equals
    x_max * sgn(x) * erf(|x| / (sigma*sqrt(6))) / erf(x_max / (sigma*sqrt(6))),
    the closed form of the normalized cube-root-density integral.  A float
    gives a float and an array is mapped elementwise, with ``math.erf``'s bits.
    """
    if x_max <= 0.0:
        raise ValueError(f"x_max must be positive, got {x_max}")
    s = model.sigma * _SQRT6
    size = np.abs(x)
    if np.any(size > x_max * (1.0 + 1e-12)):
        raise ValueError(f"|x|={np.max(size)} outside compressor domain [0, {x_max}]")
    y = x_max * np.copysign(1.0, x) * erf(size / s) / math.erf(x_max / s)
    return y if isinstance(x, np.ndarray) else float(y)


def compressor_derivative(model: SourceModel, x_max: float, x: float) -> float:
    """Slope of the optimal compressor; positive everywhere on the domain."""
    if x_max <= 0.0:
        raise ValueError(f"x_max must be positive, got {x_max}")
    s = model.sigma * _SQRT6
    z = x / s
    return x_max * (2.0 / math.sqrt(math.pi)) * math.exp(-z * z) / (s * math.erf(x_max / s))


def support_threshold(model: SourceModel, n_levels: int) -> float:
    """Support-region edge for an ``n_levels`` quantizer on this source.

    sigma * sqrt(6 ln N) * [1 - ln(ln N)/(4 ln N) - ln(3 sqrt(pi))/(2 ln N)];
    requires n_levels >= 4 so the inner logarithm is positive and the design
    keeps at least two granular levels.
    """
    if n_levels < 4:
        raise ValueError(f"n_levels must be >= 4, got {n_levels}")
    ln_n = math.log(n_levels)
    bracket = 1.0 - math.log(ln_n) / (4.0 * ln_n) - math.log(3.0 * math.sqrt(math.pi)) / (2.0 * ln_n)
    return model.sigma * math.sqrt(6.0 * ln_n) * bracket


def tail_centroid(model: SourceModel, x_max: float) -> float:
    """Conditional mean of the source beyond ``x_max`` (inverse Mills ratio).

    sigma^2 * pdf(x_max) / P(X > x_max); always exceeds x_max.  Raises
    OverflowError once x_max/sigma > TAIL_CENTROID_CUTOFF, where the tail
    probability underflows.
    """
    if x_max < 0.0:
        raise ValueError(f"x_max must be nonnegative, got {x_max}")
    if x_max / model.sigma > TAIL_CENTROID_CUTOFF:
        raise OverflowError(
            f"tail centroid not computable beyond {TAIL_CENTROID_CUTOFF} standard deviations"
        )
    return model.sigma**2 * pdf(model, x_max) / upper_tail(model, x_max)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float | np.ndarray,
    b: float | np.ndarray,
) -> np.ndarray:
    """Adaptive Simpson quadrature of ``f`` over each interval [a[i], b[i]].

    ``f`` maps an array of abscissae to an array whose last axis runs over
    them; leading axes are components.  The result has the shape of ``f``'s
    value with the abscissa axis replaced by the shape of ``a`` and ``b``.
    Each (interval, component) pair gets the subdivision tree and value of a
    scalar recursive adaptive Simpson: a piece is split until its Richardson
    error estimate falls under its share of max(_ABSOLUTE_TOLERANCE,
    _RELATIVE_TOLERANCE * |whole|), the share halving per level, down to
    depth 60.  The trees of _CHUNK intervals are grown breadth first, with one
    call of ``f`` for the ends and midpoints of all intervals and one per level
    for all midpoints.  More than _MAX_SUBDIVISIONS splits of one pair raise
    QuadratureError carrying the best estimates of all pairs.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(a > b):
        raise ValueError(f"integration bounds out of order: {a[a > b]} > {b[a > b]}")
    values, exhausted = zip(*(
        _simpson_chunk(f, a.ravel()[i : i + _CHUNK], b.ravel()[i : i + _CHUNK])
        for i in range(0, a.size, _CHUNK)
    ))
    values = np.concatenate(values, axis=-1).reshape(values[0].shape[:-1] + a.shape)
    if any(exhausted):
        raise QuadratureError(
            f"quadrature did not converge within {_MAX_SUBDIVISIONS} subdivisions",
            best_estimate=values,
        )
    return values


def _simpson_chunk(f, a, b):
    """integrate() over the intervals [a[i], b[i]]: values, and whether a pair gave up."""
    m = a.size

    def evaluate(*xs):  # one call of f at the abscissae xs of the current nodes, split back
        x = np.concatenate(xs)
        v = np.asarray(f(x), dtype=float)
        v = np.broadcast_to(v, v.shape[:-1] + x.shape)
        return v.shape[:-1], np.split(v.reshape(-1, x.size), len(xs), axis=1)

    node = np.arange(m)
    x0, x2 = a, b
    shape, (f0, f2, f1) = evaluate(a, b, 0.5 * (a + b))
    if not all(np.isfinite(v).all() for v in (f0, f1, f2)):
        raise ValueError("integrand not finite on the integration interval")
    s = (b - a) * (f0 + 4.0 * f1 + f2) / 6.0
    tol = np.maximum(_ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE * np.abs(s))
    active = np.ones(s.shape, dtype=bool)
    pair = np.arange(s.shape[0])[:, None] * m
    used = np.zeros(s.size)
    exhausted, tree = False, []
    for depth in range(_MAX_DEPTH + 1):
        x1 = 0.5 * (x0 + x2)
        _, (fl, fr) = evaluate(0.5 * (x0 + x1), 0.5 * (x1 + x2))
        h = x2 - x0
        s_left = h * (f0 + 4.0 * fl + f1) / 12.0
        s_right = h * (f1 + 4.0 * fr + f2) / 12.0
        err = (s_left + s_right - s) / 15.0
        fail = active & ~(np.abs(err) <= tol)
        # a pair whose splits at this depth would overrun its budget stops here
        used += np.bincount((pair + node).ravel(), fail.ravel(), used.size)
        split = fail & (used <= _MAX_SUBDIVISIONS)[pair + node] & (depth < _MAX_DEPTH)
        exhausted |= bool((fail & ~split).any())
        keep = np.flatnonzero(split.any(axis=0))
        tree.append((s_left + s_right + err, split, keep))
        if keep.size == 0:
            break
        # children: all left halves, then all right halves
        node = np.tile(node[keep], 2)
        x0, x2 = np.concatenate((x0[keep], x1[keep])), np.concatenate((x1[keep], x2[keep]))
        halves = lambda left, right: np.concatenate((left[:, keep], right[:, keep]), axis=1)
        f0, f1, f2, s = halves(f0, f1), halves(fl, fr), halves(f1, f2), halves(s_left, s_right)
        tol = np.tile(0.5 * tol[:, keep], 2)
        active = np.tile(split[:, keep], 2)
    # fold each split node's halves back into it, deepest level first, as the
    # recursive rule sums them: left + right
    result = tree[-1][0]
    for value, split, keep in reversed(tree[:-1]):
        k = keep.size
        value[:, keep] = np.where(split[:, keep], result[:, :k] + result[:, k:], value[:, keep])
        result = value
    return result.reshape(shape + (m,)), exhausted
