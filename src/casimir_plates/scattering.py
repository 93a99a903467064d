"""The multiple-scattering parameter Delta of an N-plate stack.

Every function here takes the plate amplitudes ``r`` and ``t`` as arrays
with the plates on the last axis, as the evaluation routes' coefficient
tables hold them, and the ``N - 1`` gaps as floats.

`delta_total`, the value the quadrature route uses, runs a division-free
2x2 transfer matrix from the last plate to the first: ``O(N)`` work and no
denominator that can vanish.  It is the dressed-mirror recursion, in which
the sub-stack ``k..N-1`` acts as one mirror, with its denominators cleared.
It runs element by element: each plate's amplitudes ``r[..., j]`` broadcast
against ``s``, so one node ``(N,)`` takes any ``s``, and a block of k
nodes ``(..., k, 1, N)`` takes ``s`` of shape ``(k, m)``, one row per node.

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
from functools import lru_cache
from typing import Tuple

import numpy as np

# `compositions` and `Composition` serve only the oracle `delta_compositions`
__all__ = ["delta_total", "delta_compositions", "round_trip_matrix"]

#: One term of the expansion: ordered positive integers summing to N - 1.
Composition = Tuple[int, ...]

_MAX_COMPOSITION_N = 62


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
    return tuple(
        (first, *rest) for first in range(1, n) for rest in compositions(n - first)
    ) + ((n,),)


def delta_total(r, t, gaps, s):
    """Full multiple-scattering parameter at one (polarization, node) and ``s``.

    Runs the transfer matrix from ``P = r_{N-1}``, ``Q = 1`` down to plate
    0; with ``y_k = exp(-s g_k)`` each step is

    ``P, Q = (t_k t_k - r_k r_k) y_k P + r_k Q,  Q - r_k y_k P``

    and ``Delta = Q``.  ``Q_k`` and ``P_k`` are the denominator and the
    numerator of the reflection of the dressed sub-stack ``k..N-1``, so the
    recursion never divides.  ``Delta -> 1`` as ``s -> infinity``.

    ``r`` and ``t`` hold the plates on their last axis; each ``r[..., j]``
    broadcasts against ``s``, and the recursion runs element by element.
    One node, ``(N,)``, takes a float or an ndarray of any shape; a block
    of k nodes, ``(..., k, 1, N)``, takes ``s`` of shape ``(k, m)`` whose
    row ``i`` belongs to node ``i``, and returns ``(..., k, m)``.  Each
    element equals the scalar call.
    """
    r, t = np.asarray(r, float), np.asarray(t, float)
    if len(gaps) != r.shape[-1] - 1:
        raise ValueError(f"{len(gaps)} gaps given for {r.shape[-1]} plates")
    p, q = r[..., -1], 1.0
    for k in range(len(gaps) - 1, -1, -1):
        yp = np.exp(s * -gaps[k]) * p
        rk = r[..., k]
        # t_k * t_k rather than t_k ** 2: a float's ** goes through the C
        # library's pow, which can round differently from numpy's squares
        p, q = (t[..., k] * t[..., k] - rk * rk) * yp + rk * q, q - rk * yp
    return q


def delta_compositions(r, t, gaps, s: float) -> float:
    """Delta as the paper's sum over compositions of ``N - 1``.

    Takes the arguments of `delta_total` for one node and one float ``s``;
    refuses fewer than two plates, sizes that do not match or an amplitude
    outside ``[-1, 1]``.  Sums ``2**(N-2)`` composition products in Python
    floats, in a fixed lexicographic order, each accumulated left to right,
    so results are bit-reproducible.  The cost doubles with every plate and
    `compositions` caps ``N`` at 63; the package evaluates Delta with
    `delta_total` and keeps this expansion as the independent reference the
    tests compare against.
    """
    r, t = [float(v) for v in r], [float(v) for v in t]
    if not 2 <= len(r) == len(t) == len(gaps) + 1:
        raise ValueError(f"need N >= 2 r and t and N - 1 gaps, got {len(r)}, {len(t)}, {len(gaps)}")
    for v in (*r, *t):
        if not (-1.0 <= v <= 1.0):
            raise ValueError(f"amplitude {v} outside [-1, 1]")
    y = [math.exp(-s * g) for g in gaps]
    total = 0.0
    for comp in compositions(len(r) - 1):
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

    ``A`` and ``B`` are block diagonal, ``A`` over the even plates and ``B``
    over the odd ones: an end plate adds its ``r`` alone, an interior plate
    ``k`` its scattering block ``[[r_k, t_k], [t_k, r_k]]``.  Each is filled
    band by band through a flat view.

    Given arrays of shape ``(..., N)``, the plates on the last axis, it
    returns the ``(..., N-1, N-1)`` stack of their matrices, each equal to a
    single call.
    """
    r, t = np.asarray(r, float), np.asarray(t, float)
    n = r.shape[-1] - 1
    step = 2 * (n + 1)  # two rows and two columns: from one block to the next
    a = np.zeros(r.shape[:-1] + (n * n,))
    b = np.zeros_like(a)
    # diagonals: even rows, then odd rows; then the t_k pair of each block
    a[..., ::step], a[..., n + 1::step] = r[..., 0:n:2], r[..., 2::2]
    a[..., 2 * n + 1::step], a[..., n + 2::step] = t[..., 2:n:2], t[..., 2:n:2]
    b[..., ::step], b[..., n + 1::step] = r[..., 1::2], r[..., 1:n:2]
    b[..., n::step], b[..., 1::step] = t[..., 1:n:2], t[..., 1:n:2]
    shape = r.shape[:-1] + (n, n)
    return a.reshape(shape) @ b.reshape(shape)
