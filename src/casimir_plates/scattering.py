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
the independent oracle the tests check the other two against.  That sum is
the expansion of a determinant: at unit gaps ``Delta = det(I - x M)`` with
``x = exp(-s)`` and `round_trip_matrix` ``M``, whose eigenvalues the
polylog route takes as the inverse roots of Delta.

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

# `compositions` and `Composition` serve only the oracle `delta_compositions`
__all__ = [
    "StackGeometry",
    "NodeCoefficients",
    "delta_total",
    "delta_compositions",
    "round_trip_matrix",
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


def round_trip_matrix(r, t) -> np.ndarray:
    """The ``(N-1) x (N-1)`` round-trip matrix ``M`` with ``Delta = det(I - x M)``.

    ``r`` and ``t`` are the N plates' amplitudes at one node; every gap is
    the unit gap and ``x = exp(-s)``.  The waves of a source-free field are
    ``u_k``, moving right just right of plate ``k``, and ``v_k``, moving
    left just left of plate ``k + 1``, one pair per gap ``k = 0 .. N-2``:

    ``u_0 = r_0 v_0``, ``u_k = t_k u_{k-1} + r_k v_k``,
    ``v_{k-1} = r_k u_{k-1} + t_k v_k``, ``v_{N-2} = r_{N-1} u_{N-2}``,

    where every wave on a right-hand side has crossed one gap, a factor
    ``sqrt(x)``.
    Every equation links the class ``E = {u_k, k even} + {v_k, k odd}`` to
    the rest, ``O``, so the operator is ``[[0, A], [B, 0]]`` and its
    determinant ``det(I - sqrt(x) [[0, A], [B, 0]])`` is ``det(I - x A B)``:
    ``M = A B``.  Row ``k`` of ``A`` is the equation of ``u_k`` for even
    ``k`` and of ``v_k`` for odd ``k``; ``B`` takes the other one.  This is
    the multiple-scattering form ``det(1 - T G T G)`` of Emig, Graham, Jaffe
    and Kardar (PRL 99, 2007); the eigenvalues of ``M`` are the inverse
    roots of Delta in ``x``.

    Given the ``(N, k)`` tables of k nodes instead, it returns the
    ``(k, N-1, N-1)`` stack of their matrices, each equal to a single call.
    """
    r = np.moveaxis(np.asarray(r, float), 0, -1)  # plates on the last axis
    t = np.moveaxis(np.asarray(t, float), 0, -1)
    i = np.arange(r.shape[-1] - 1)
    rightward = np.zeros(r.shape[:-1] + (i.size, i.size))  # the equations of u_k
    leftward = np.zeros_like(rightward)  # the equations of v_k
    rightward[..., i, i], rightward[..., i[1:], i[:-1]] = r[..., :-1], t[..., 1:-1]
    leftward[..., i, i], leftward[..., i[:-1], i[1:]] = r[..., 1:], t[..., 1:-1]
    even = (i % 2 == 0)[:, None]
    return np.where(even, rightward, leftward) @ np.where(even, leftward, rightward)
