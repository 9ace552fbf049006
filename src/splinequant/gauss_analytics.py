"""Gaussian source model: density, tail statistics, the SQNR-optimal compressor,
cell second moments, and the batched adaptive quadrature that computes the
spline fit's target moments.  One 24-point Gauss-Legendre rule integrates every
cell, the tail [a, inf) included: for the exact overload term,
``true_distortion`` and Lloyd-Max alike."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SourceModel",
    "QuadratureError",
    "pdf",
    "upper_tail",
    "compressor",
    "compressor_derivative",
    "support_threshold",
    "tail_centroid",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT6 = math.sqrt(6.0)
# sigma^2 is a normal float from 2^-511 up to sqrt(largest float): [1.49e-154, 1.34e154]
_SIGMA_RANGE = (2.0**-511, math.sqrt(np.finfo(float).max))

# Beyond this many standard deviations the upper-tail probability leaves the
# normal double range and the centroid ratio is no longer trustworthy.
TAIL_CENTROID_CUTOFF = 35.0
# the 24-point Gauss-Legendre rule on [-1, 1] that integrates every cell
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)

# integrate(): a piece is accepted once its error estimate is within its share
# of max(_ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE * |whole|); one (interval,
# component) pair may be split at most _MAX_SUBDIVISIONS times
_RELATIVE_TOLERANCE = 1e-10
_ABSOLUTE_TOLERANCE = 1e-12
_MAX_SUBDIVISIONS = 100_000
_CHUNK = 32  # intervals integrate() refines together; bounds its working set
_MAX_DEPTH = 60  # interval width shrinks by 2^-60; past that refinement is noise


@dataclass(frozen=True)
class SourceModel:
    """Zero-mean Gaussian amplitude source of standard deviation ``sigma`` in
    ``_SIGMA_RANGE``: designs and oracles compute at sigma = 1, then scale once."""

    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not _SIGMA_RANGE[0] <= self.sigma <= _SIGMA_RANGE[1]:
            raise ValueError(f"sigma must lie in {list(_SIGMA_RANGE)}, got {self.sigma}")


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
    erfc so large x does not cancel, with ``math.erfc`` mapped over the floats
    of x, so an array gets the scalar function's bits."""
    q = 0.5 * _elementwise(math.erfc, x / (model.sigma * math.sqrt(2.0)))
    return q if isinstance(x, np.ndarray) else float(q)


def cell_second_moment(
    model: SourceModel,
    a: float | np.ndarray,
    b: float | np.ndarray,
    y: float | np.ndarray,
) -> float | np.ndarray:
    """Integral of (x - y)^2 * density over the cell [a, b], elementwise over
    floats or arrays that broadcast: sigma^2 times ``_cell_terms``' sum in
    z = x/sigma, which unlike a difference of closed-form tails does not cancel.

    Each end is first cut to where the density is e^-50 below its largest
    value in the cell, so an end may be infinite.  A cell on one side of 0 is
    then within 1e-13 relative at any width; a cell across 0, cut to at most
    [-10, 10] sigma, only while it is narrow (8e-13 on [-5, 5], 6e-10 on [-6, 6]).
    """
    s = model.sigma
    lo, hi = a / s, b / s
    reach = np.sqrt(np.square(np.clip(0.0, lo, hi)) + 100.0)
    return s * s * _cell_terms(np.maximum(lo, -reach), np.minimum(hi, reach), y / s).sum(axis=-1)


def _cell_terms(a, b, y) -> np.ndarray:
    """The 24-point Gauss-Legendre rule's terms of (z - y)^2 phi(z), phi the unit
    density, over each cell [a, b]: the broadcast shape plus an axis of 24."""
    lo, hi, y = (np.asarray(v, dtype=float)[..., None] for v in (a, b, y))
    width, centre = (hi - lo) * 0.5, (hi + lo) * 0.5
    z = width * _GL_NODES + centre
    return width * _GL_WEIGHTS * np.square(z - y) * (np.exp(-0.5 * z * z) / _SQRT_2PI)


def erf(z: np.ndarray) -> np.ndarray:
    """``math.erf`` applied elementwise: bit-identical to the scalar function.
    A float or a 0-d array gives a 0-d array."""
    return _elementwise(math.erf, z)


def _elementwise(fn: Callable[[float], float], z: float | np.ndarray) -> np.ndarray:
    """The scalar ``fn`` mapped over the floats of ``z``, in an array of its
    shape: numpy has no erf, and a ``map`` over the Python floats is the
    cheapest way to call ``math``'s."""
    z = np.asarray(z, dtype=float)
    return np.fromiter(map(fn, z.ravel().tolist()), float, z.size).reshape(z.shape)


def compressor(model: SourceModel, x_max: float, x: float | np.ndarray) -> float | np.ndarray:
    """SQNR-optimal compressor for the Gaussian source on [-x_max, x_max].

    Odd, strictly increasing, maps 0 to 0 and +/-x_max to +/-x_max.  Equals
    x_max * sgn(x) * erf(|x| / (sigma*sqrt(6))) / erf(x_max / (sigma*sqrt(6))),
    the closed form of the normalized cube-root-density integral.  A float
    gives a float and an array is mapped elementwise, with ``math.erf``'s bits;
    x_max must be positive and finite, and |x| at most x_max (NaN is not)."""
    if not 0.0 < x_max < math.inf:
        raise ValueError(f"x_max must be positive and finite, got {x_max}")
    s = model.sigma * _SQRT6
    size = np.abs(x)
    if not (size <= x_max * (1.0 + 1e-12)).all():
        raise ValueError(f"|x|={np.max(size)} outside compressor domain [0, {x_max}]")
    y = np.copysign(x_max, x) * erf(size / s) / math.erf(x_max / s)
    return y if isinstance(x, np.ndarray) else float(y)


def compressor_derivative(model: SourceModel, x_max: float, x: float) -> float:
    """Slope of the optimal compressor, on ``compressor``'s domain; positive."""
    if not 0.0 < x_max < math.inf:
        raise ValueError(f"x_max must be positive and finite, got {x_max}")
    s = model.sigma * _SQRT6
    if not abs(x) <= x_max * (1.0 + 1e-12):
        raise ValueError(f"|x|={abs(x)} outside compressor domain [0, {x_max}]")
    z = x / s
    return x_max * (2.0 / math.sqrt(math.pi)) * math.exp(-z * z) / (s * math.erf(x_max / s))


def support_threshold(model: SourceModel, n_levels: int) -> float:
    """Support-region edge for an ``n_levels`` quantizer on this source.

    sigma * sqrt(6 ln N) * [1 - ln(ln N)/(4 ln N) - ln(3 sqrt(pi))/(2 ln N)];
    requires n_levels >= 4 so the inner logarithm is positive and the design
    keeps at least two granular levels; taken through ``operator.index``.
    """
    if operator.index(n_levels) < 4:
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
    if not x_max >= 0.0:
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
    """Adaptive Simpson quadrature of ``f`` over each interval [a[i], b[i]];
    off the public surface, kept for ``spline_fit.target_moments``.

    ``f`` maps an array of abscissae to an array whose last axis runs over
    them; leading axes are components.  The result has the shape of ``f``'s
    value with the abscissa axis replaced by the shape of ``a`` and ``b``.
    Each (interval, component) pair gets the subdivision tree and value of a
    scalar recursive adaptive Simpson, bit for bit: a piece is split until
    its Richardson error estimate falls under its share of
    max(_ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE * |whole|), the share
    halving per level, down to depth 60, and a split piece's value is its
    left half's plus its right half's.  The trees of _CHUNK intervals are
    grown breadth first, with one call of ``f`` for the ends and midpoints of
    all intervals and one per level for all new midpoints.  More than
    _MAX_SUBDIVISIONS splits of one pair raise QuadratureError carrying the
    best estimates of all pairs.  Bounds must be finite and in order; no
    intervals give an empty result.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.all():
        raise ValueError(f"integration bounds not finite: a={a[~finite]}, b={b[~finite]}")
    if np.any(a > b):
        raise ValueError(f"integration bounds out of order: {a[a > b]} > {b[a > b]}")
    if a.size == 0:
        return np.zeros(np.shape(f(np.empty(0)))[:-1] + a.shape)
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
    """integrate() over the intervals [a[i], b[i]]: values, and whether a pair gave up.

    A level's nodes live in a point table (1 + components, 3, nodes): row 0
    holds each node's abscissae (left end, midpoint, right end), the other
    rows the integrand's values there, so one gather moves both.  Per
    (component, node) the level also holds the Simpson value s, the
    tolerance and whether the pair is still refined.  The children of the
    nodes a level keeps are laid out all left halves, then all right halves;
    a left child's points are its parent's (left end, left midpoint,
    midpoint), a right child's (midpoint, right midpoint, right end), so each
    level calls ``f`` only at the new midpoints.
    """
    m = a.size
    x = np.stack((a, 0.5 * (a + b), b))
    v = _values(f, x.ravel())
    shape = v.shape[:-1]
    pts = np.concatenate((x[None], v.reshape(-1, 3, m)))
    if not np.isfinite(pts[1:]).all():
        raise ValueError("integrand not finite on the integration interval")
    s = (b - a) * (pts[1:, 0] + 4.0 * pts[1:, 1] + pts[1:, 2]) / 6.0
    tol = np.maximum(_ABSOLUTE_TOLERANCE, _RELATIVE_TOLERANCE * np.abs(s))
    active = np.ones(s.shape, dtype=bool)
    component = np.arange(s.shape[0])[:, None]
    evaluated, exhausted, tree = 0, False, []
    for depth in range(_MAX_DEPTH + 1):
        n = pts.shape[-1]
        mid = np.empty(pts.shape[:1] + (2, n))  # the halves' midpoints: left, right
        np.add(pts[0, :2], pts[0, 1:], out=mid[0])
        mid[0] *= 0.5
        mid[1:] = _values(f, mid[0].ravel()).reshape(-1, 2, n)
        # h (f0 + 4 fm + f1) / 12 on both halves, in place: + and * commute
        # exactly, so these are the expression's bits
        halves = 4.0 * mid[1:]
        halves += pts[1:, :2]
        halves += pts[1:, 1:]
        halves *= pts[0, 2] - pts[0, 0]
        halves /= 12.0
        whole = halves[:, 0] + halves[:, 1]
        err = (whole - s) / 15.0
        split = ~(np.abs(err) <= tol)
        split &= active
        # a pair whose splits at this depth would overrun its budget stops
        # here; a pair splits at most once per node of its interval, so none
        # can while the chunk has evaluated no more nodes than the budget
        evaluated += n
        if depth == _MAX_DEPTH or evaluated > _MAX_SUBDIVISIONS:
            fail = split
            split = fail & (_splits(tree, fail, m) <= _MAX_SUBDIVISIONS) & (depth < _MAX_DEPTH)
            exhausted |= bool((fail & ~split).any())
        keep = np.nonzero(split.any(axis=0))[0]
        flat = component * n + keep  # (component, kept node) in (components, n) arrays
        split = split.take(flat)
        tree.append((whole + err, split, flat))
        if keep.size == 0:
            break
        pts = _children(pts, mid, keep)
        s = halves.take(keep, axis=-1).reshape(s.shape[0], -1)
        tol = 0.5 * tol.take(flat)
        tol = np.concatenate((tol, tol), axis=1)
        active = np.concatenate((split, split), axis=1)
    # fold each split node's halves back into it, deepest level first, as the
    # recursive rule sums them: left + right
    result = tree[-1][0]
    for value, split, flat in reversed(tree[:-1]):
        k = flat.shape[1]
        value.put(flat, np.where(split, result[:, :k] + result[:, k:], value.take(flat)))
        result = value
    return result.reshape(shape + (m,)), exhausted


def _children(pts, mid, keep):
    """The point table of the kept nodes' children, from the nodes' own
    ``pts`` (rows, 3, nodes) and their halves' midpoints ``mid`` (rows, 2,
    nodes)."""
    pts, mid = pts.take(keep, axis=-1), mid.take(keep, axis=-1)
    out = np.empty((pts.shape[0], 3, 2, keep.size))
    out[:, 0] = pts[:, :2]
    out[:, 1] = mid
    out[:, 2] = pts[:, 1:]
    return out.reshape(pts.shape[0], 3, -1)


def _values(f, x):
    """``f`` at the abscissae ``x``: a float array whose last axis runs over them."""
    v = np.asarray(f(x), dtype=float)
    return v if v.shape[-1:] == x.shape else np.broadcast_to(v, v.shape[:-1] + x.shape)


def _splits(tree, fail, m):
    """For each (component, node) of the current level, how often the pair
    (component, the node's interval) has split: at every level in ``tree``,
    plus ``fail`` at this one.  Each level's intervals are rebuilt from the
    nodes the levels before it kept."""
    pair = np.arange(fail.shape[0])[:, None] * m
    node, used = np.arange(m), np.zeros(fail.shape[0] * m)
    for _, split, flat in tree:
        node = node[flat[0]]
        used += np.bincount((pair + node).ravel(), split.ravel(), used.size)
        node = np.concatenate((node, node))
    used += np.bincount((pair + node).ravel(), fail.ravel(), used.size)
    return used[pair + node]
