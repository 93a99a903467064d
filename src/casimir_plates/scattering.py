"""The multiple-scattering parameter Delta of an N-plate stack.

`delta_total`, the value the quadrature route uses, runs a division-free
2x2 transfer matrix from the last plate to the first: ``O(N)`` work and no
denominator that can vanish.  It is the dressed-mirror recursion, in which
the sub-stack ``k..N-1`` acts as one mirror, with its denominators cleared.
It runs on one node's coefficients with one ``s`` or an array of them, or
on a block of k nodes, coefficients of shape ``(N, k)`` against ``s`` of
shape ``(k, m)``, one row per node.

The paper organizes Delta as a sum over compositions (ordered integer
partitions) of ``N - 1``: a part of size 1 contributes a nearest-neighbour
factor ``1 - r r' y`` and a part of size ``c >= 2`` a beyond-nearest loop
passing through the intermediate plates twice.  `delta_compositions` sums
those ``2**(N-2)`` products literally, the only code that walks them: it is
the independent oracle the tests check the other two against.
`delta_polynomial` groups the same sum by its last part, an ``O(N^2)``
recursion for the polynomial form of Delta in ``x = exp(-s)`` at unit gaps.

Everything is evaluated in the scaled variable ``s = 2 kappa a_ref`` so a
gap of dimensionless length ``g`` carries a round-trip factor
``exp(-s g)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

__all__ = [
    "Composition",
    "StackGeometry",
    "NodeCoefficients",
    "compositions",
    "delta_total",
    "delta_compositions",
    "delta_polynomial",
]

#: One term of the expansion: ordered positive integers summing to N - 1.
Composition = Tuple[int, ...]

_MAX_COMPOSITION_N = 62


@dataclass(frozen=True)
class StackGeometry:
    """Dimensionless gap lengths of an N-plate stack (N - 1 entries)."""

    gaps: Tuple[float, ...]

    def __post_init__(self):
        gaps = tuple(float(g) for g in self.gaps)
        if len(gaps) < 1:
            raise ValueError("a stack needs at least one gap (two plates)")
        if not all(g > 0.0 and math.isfinite(g) for g in gaps):
            raise ValueError(f"gaps must be positive and finite, got {gaps}")
        object.__setattr__(self, "gaps", gaps)

    @property
    def n_plates(self) -> int:
        return len(self.gaps) + 1


@dataclass(frozen=True)
class NodeCoefficients:
    """Per-plate (r, t) amplitudes for one polarization at one node."""

    r: Tuple[float, ...]
    t_coef: Tuple[float, ...]

    def __post_init__(self):
        r = tuple(float(v) for v in self.r)
        t = tuple(float(v) for v in self.t_coef)
        if len(r) != len(t):
            raise ValueError("r and t_coef must have equal length")
        if len(r) < 2:
            raise ValueError("need at least two plates")
        for v in (*r, *t):
            if not (-1.0 <= v <= 1.0):
                raise ValueError(f"amplitude {v} outside [-1, 1]")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "t_coef", t)

    @property
    def n_plates(self) -> int:
        return len(self.r)


@lru_cache(maxsize=None)
def compositions(n: int) -> Tuple[Composition, ...]:
    """All compositions of ``n`` in lexicographic-by-first-part order.

    Parameters
    ----------
    n : int
        Positive integer, at most 62 (there are ``2**(n-1)`` compositions).

    Returns
    -------
    tuple of tuple of int
    """
    if not 1 <= n <= _MAX_COMPOSITION_N:
        raise ValueError(f"n must be in [1, {_MAX_COMPOSITION_N}], got {n}")
    return _compositions(n)


@lru_cache(maxsize=None)
def _compositions(n: int) -> Tuple[Composition, ...]:
    if n == 0:
        return ((),)
    return tuple(
        (first, *rest) for first in range(1, n + 1) for rest in _compositions(n - first)
    )


def _check_sizes(n_plates: int, geometry: StackGeometry) -> None:
    if geometry.n_plates != n_plates:
        raise ValueError(
            f"geometry is for {geometry.n_plates} plates, "
            f"coefficients for {n_plates}"
        )


def delta_total(coeffs, geometry: StackGeometry, s):
    """Full multiple-scattering parameter at one (polarization, node) and ``s``.

    Runs the transfer matrix from ``P = r_{N-1}``, ``Q = 1`` down to plate
    0; with ``y_k = exp(-s g_k)`` each step is

    ``P, Q = (t_k t_k - r_k r_k) y_k P + r_k Q,  Q - r_k y_k P``

    and ``Delta = Q``.  ``Q_k`` and ``P_k`` are the denominator and the
    numerator of the reflection of the dressed sub-stack ``k..N-1``, so the
    recursion never divides.  ``Delta -> 1`` as ``s -> infinity``.

    ``coeffs`` is either the `NodeCoefficients` of one node, with ``s`` a
    float or an ndarray of any shape, or a block: a pair ``(r, t)`` of
    arrays of shape ``(N, k)`` holding k nodes column by column, with ``s``
    of shape ``(k, m)`` whose row ``i`` belongs to column ``i``.  Either
    way the same recursion runs element by element and returns a result
    shaped like ``s``, equal to the scalar calls.
    """
    if isinstance(coeffs, NodeCoefficients):
        r, t = coeffs.r, coeffs.t_coef
    else:
        r, t = (np.asarray(c, float)[:, :, None] for c in coeffs)
    _check_sizes(len(r), geometry)
    gaps = geometry.gaps
    p, q = r[-1], 1.0
    for k in range(len(gaps) - 1, -1, -1):
        yp = np.exp(s * -gaps[k]) * p
        rk = r[k]
        # t_k * t_k rather than t_k ** 2: a float's ** goes through the C
        # library's pow, which can round differently from numpy's squares
        p, q = (t[k] * t[k] - rk * rk) * yp + rk * q, q - rk * yp
    return q


def delta_compositions(
    coeffs: NodeCoefficients, geometry: StackGeometry, s: float
) -> float:
    """Delta as the paper's sum over compositions of ``N - 1``.

    Sums ``2**(N-2)`` composition products in a fixed lexicographic order,
    each accumulated left to right, so results are bit-reproducible.  The
    cost doubles with every plate and `compositions` caps ``N`` at 63; the
    package evaluates Delta with `delta_total` and keeps this expansion as
    the independent reference the tests compare against.
    """
    _check_sizes(coeffs.n_plates, geometry)
    r, t, gaps = coeffs.r, coeffs.t_coef, geometry.gaps
    y = [math.exp(-s * g) for g in gaps]
    total = 0.0
    for comp in compositions(coeffs.n_plates - 1):
        term = 1.0
        p = 0
        for c in comp:
            q = p + c
            if c == 1:
                term *= 1.0 - r[p] * r[q] * y[p]
            else:
                trans = 1.0
                for m in range(p + 1, q):
                    trans *= t[m] ** 2
                prop = 1.0
                for m in range(p, q):
                    prop *= y[m]
                term *= -r[p] * r[q] * trans * prop
            p = q
        total += term
    return total


def delta_polynomial(coeffs: NodeCoefficients) -> Tuple[float, ...]:
    """The coefficients ``c_0 ... c_{N-1}`` of Delta in ``x = exp(-s)``, unit gaps.

    The paper's composition sum grouped by its last part ``c``: with
    ``d_0 = 1``, ``d_j = d_{j-1} + sum_{c=1..j} b_{j,c} x^c d_{j-c}`` where
    ``b_{j,c} = -r_{j-c} r_j prod_{m=j-c+1}^{j-1} t_m^2``, so ``c = 1`` gives
    the nearest-neighbour factor ``1 - r_{j-1} r_j x`` and ``c >= 2`` the
    loop through the intermediate plates.  Delta is ``d_{N-1}``: ``O(N^2)``
    part factors in place of ``2**(N-2)`` products.  Only unit gaps give
    every gap the same variable ``x``.  ``c_0 = 1``; trailing coefficients
    may be exactly zero (opaque interior plates) and are kept.
    """
    r, t = coeffs.r, coeffs.t_coef
    d = [[1.0]]
    for j in range(1, coeffs.n_plates):
        dj = d[j - 1] + [0.0]
        trans = 1.0
        for c in range(1, j + 1):
            part = -r[j - c] * r[j] * trans
            for k, v in enumerate(d[j - c]):
                dj[k + c] += part * v
            trans *= t[j - c] ** 2
        d.append(dj)
    return tuple(d[-1])
