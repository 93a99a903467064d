"""Special functions and adaptive quadrature.

Provides the fourth-order polylogarithm on the closed unit disk, the
closed-form frequency integral ``int_0^inf s^2 ln(1 - c e^-s) ds``, a
deterministic adaptive Gauss-Legendre integrator on [0, 1], and a
two-dimensional quadrature over the (angle, frequency) domain that maps the
frequency axis onto (0, 1] by ``u = e^-s``.

``li4`` costs a fixed few dozen terms per call anywhere on the disk.
Below the switch radius ``|z| < 1/2`` it sums the defining series
``sum_k z^k / k^4`` (34 terms, relative truncation error below 1e-16).
From ``|z| = 1/2`` up to and including the unit circle it sums the
expansion in ``mu = ln z`` around ``z = 1`` (Crandall, "Note on fast
polylogarithm computation", 2006), which converges like ``(|mu| / 2 pi)^m``
with ``|mu| / 2 pi <= 0.513`` there; truncated after ``mu^45``, its tail is
below 4e-18.

The integrators use open rules only (no endpoint evaluations), subdivide
worst-panel-first with deterministic tie-breaking, and sum results in a
fixed order, so a given tolerance specification always reproduces the same
bits.  Internally one driver, `_integrate_many`, advances many independent
integrals in lockstep: its integrand ``g(rows, x)`` gets a ``(k, 46)``
array whose row ``i`` holds the 15 + 31 nodes of one panel of integral
``rows[i]``, and returns arrays of values and noise floors of that shape.
Each round evaluates the new panels of every unfinished integral in one
such call.  The 2-D quadrature runs the inner integrals of all nodes of an
outer panel this way.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "ZETA4",
    "LI4_MINUS_ONE",
    "QuadratureSpec",
    "QuadratureConvergenceError",
    "li4",
]

#: Li4(1) = zeta(4) = pi^4 / 90.
ZETA4 = math.pi**4 / 90.0

#: Li4(-1) = -7 pi^4 / 720 (alternating series).
LI4_MINUS_ONE = -7.0 * math.pi**4 / 720.0

_ZETA3 = 1.2020569031595942853997382
_HALF_ZETA2 = math.pi**2 / 12.0

# Li4 switches from the defining series to the log-series at this radius.
_SERIES_RADIUS = 0.5

# Defining series: at |z| < 1/2 the tail after K = 34 terms,
# |z|^(K+1) / ((K+1)^4 (1 - |z|)), is below 1e-16 |Li4(z)|.
_INV_K4 = tuple(1.0 / k**4 for k in range(34, 0, -1))  # highest power first


def _log_series_odd_coeffs(kmax: int) -> Tuple[float, ...]:
    """``zeta(1 - 2k) / (2k + 3)!`` for ``k = kmax, ..., 1``, highest first.

    With ``zeta(1 - 2k) = -B_2k / 2k`` and ``B_2k = (-1)^(k-1) 2k T_k /
    (4^k (4^k - 1))``, where ``T_k`` is the k-th tangent number, each
    coefficient is an exact integer ratio, rounded once to a float.  The
    tangent numbers come from the integer recurrence of Brent and Harvey
    (2011).
    """
    t = [0] * (kmax + 1)
    t[1] = 1
    for k in range(2, kmax + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, kmax + 1):
        for j in range(k, kmax + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(
        (-1) ** k * t[k] / (4**k * (4**k - 1) * math.factorial(2 * k + 3))
        for k in range(kmax, 0, -1)
    )


# Log-series coefficients of mu^5, mu^7, ..., mu^45 (the even powers above
# mu^4 vanish).  On |z| >= 1/2, |mu| <= (ln(2)^2 + pi^2)^(1/2) < 3.218 and
# the omitted tail from mu^47 on is below 4e-18.
_LOG_SERIES_ODD = _log_series_odd_coeffs(21)

_OVERSHOOT = 1e-12


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for the adaptive integrators."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not all(0.0 < tol < math.inf for tol in (self.rel_tol, self.abs_tol)):
            raise ValueError(
                f"tolerances must be positive and finite, got rel_tol={self.rel_tol!r}, "
                f"abs_tol={self.abs_tol!r}"
            )
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


class QuadratureConvergenceError(RuntimeError):
    """Adaptive integration ran out of subdivisions.

    Attributes
    ----------
    estimate : float
        Best available value of the integral.
    error_bound : float
        Accumulated error bound for that estimate.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate {estimate!r}, bound {error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


def _series(z):
    """Defining series ``sum_{k<=34} z^k / k^4`` by Horner's rule."""
    acc = 0.0
    for c in _INV_K4:
        acc = acc * z + c
    return acc * z


def _log_series(mu, log_neg_mu):
    """``Li4(e^mu)`` for ``|mu| < 3.22``, given ``ln(-mu)`` on the principal branch.

    ``sum_{m != 3} zeta(4 - m) mu^m / m! + mu^3 / 6 (H_3 - ln(-mu))`` with
    ``H_3 = 11/6``, by Horner's rule; works on floats and complex numbers alike.
    """
    mu2 = mu * mu
    acc = 0.0
    for c in _LOG_SERIES_ODD:
        acc = acc * mu2 + c
    acc = -1.0 / 48.0 + mu * acc  # zeta(0) / 4! = -1/48
    acc = (11.0 / 6.0 - log_neg_mu) / 6.0 + mu * acc
    acc = _HALF_ZETA2 + mu * acc
    return ZETA4 + mu * (_ZETA3 + mu * acc)


def _li4_real(x: float) -> float:
    """Li4 of a real ``x`` in [-1, 1], in real arithmetic."""
    if x == 1.0:
        return ZETA4
    if x == -1.0:
        return LI4_MINUS_ONE
    if x <= -_SERIES_RADIUS:
        # duplication: Li4(x) + Li4(-x) = Li4(x^2) / 8, with -x in (1/2, 1)
        return _li4_real(x * x) / 8.0 - _li4_real(-x)
    if x < _SERIES_RADIUS:
        return _series(x)
    mu = math.log(x)
    return _log_series(mu, math.log(-mu))


def li4(z):
    """Fourth-order polylogarithm ``Li4(z)`` for ``|z| <= 1``.

    Two branches, each a fixed few dozen terms.  For ``|z| < 1/2`` it sums
    the defining series ``sum_k z^k / k^4`` to 34 terms (relative
    truncation error below 1e-16).  For ``|z| >= 1/2``, up to and
    including the unit circle, it sums the expansion in ``mu = ln z``
    around ``z = 1`` to ``mu^45`` (truncation error below 4e-18).  A
    negative real ``x <= -1/2`` goes through ``Li4(x^2) / 8 - Li4(-x)``,
    so real arguments stay in real arithmetic.  The total error is below
    1e-14 everywhere on the closed disk.

    It gives the energy's frequency integral in closed form: expanding the
    logarithm and integrating term by term, ``int_0^inf s^2 ln(1 - c e^-s)
    ds = -2 Li4(c)`` for ``|c| <= 1``.

    A real argument returns a float, a complex argument a complex;
    ``li4(conj(z)) == conj(li4(z))`` bit for bit, because the lower half
    plane is evaluated as the conjugate of the upper one.

    Raises
    ------
    ValueError
        If ``|z|`` exceeds ``1 + 1e-12`` (smaller overshoots are projected
        back onto the unit circle).
    """
    is_complex = isinstance(z, complex)
    zc = complex(z)
    az = abs(zc)
    if az > 1.0 + _OVERSHOOT:
        raise ValueError(f"li4 argument outside the unit disk: |z| = {az!r}")
    if az > 1.0:
        zc /= az
    if zc.imag == 0.0:
        v = _li4_real(zc.real)
        return complex(v) if is_complex else v
    upper = zc if zc.imag > 0.0 else zc.conjugate()
    if az < _SERIES_RADIUS:
        v = _series(upper)
    else:
        mu = cmath.log(upper)
        v = _log_series(mu, cmath.log(-mu))
    return v if zc.imag > 0.0 else v.conjugate()


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre machinery

_GL_LO_X, _GL_LO_W = np.polynomial.legendre.leggauss(15)
_GL_HI_X, _GL_HI_W = np.polynomial.legendre.leggauss(31)
_NODES = np.concatenate((_GL_LO_X, _GL_HI_X))
_N_LO = _GL_LO_X.size


def _rules(g, rows, a: np.ndarray, b: np.ndarray):
    """High-order estimates, error estimates and noise floors of k panels.

    Row ``i`` is the panel ``[a[i], b[i]]`` of integral ``rows[i]``.  ``g``
    is called once, on the ``(k, 46)`` array of the panels' 15 + 31 nodes
    (the 15-point rule's first), and returns two arrays of that shape: the
    values and a ``floor`` per node that bounds the evaluation error of the
    value itself.  The error estimate is the difference of the 15- and
    31-point Gauss rules; the floor is integrated with the high-order
    weights.  Each rule is summed node by node in node order, vectorised
    across rows, so every row sees the same sequential sum a loop over its
    nodes would give.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values, floors = g(rows, mid[:, None] + half[:, None] * _NODES)
    # accumulate adds strictly in order; np.sum or np.dot may pair terms
    lo = np.add.accumulate(values[:, :_N_LO] * _GL_LO_W, axis=1)[:, -1]
    hi = np.add.accumulate(values[:, _N_LO:] * _GL_HI_W, axis=1)[:, -1]
    floor = np.add.accumulate(floors[:, _N_LO:] * _GL_HI_W, axis=1)[:, -1]
    return (half * hi).tolist(), abs(half * (hi - lo)).tolist(), (half * floor).tolist()


def _integrate_many(
    g: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]],
    m: int,
    a: float,
    b: float,
    spec: QuadratureSpec,
) -> Tuple[np.ndarray, np.ndarray]:
    """Adaptive driver for ``m`` integrals over ``[a, b]`` advanced in lockstep.

    Returns two arrays of length ``m``: the integrals and their total error
    bounds.  ``g(rows, x)`` evaluates integral ``rows[i]`` on row ``i`` of
    ``x`` (shape ``(k, 46)``) as `_rules` describes.

    Each integral splits whichever of its panels carries the largest
    reducible error until its summed error estimate drops below tolerance.
    A panel whose estimate sinks below the integrated noise floor of its own
    integrand values is never split further, which prevents endless
    subdivision of integrands that are only known to limited accuracy.
    Every round, each unfinished integral takes one such step, and all the
    new half-panels are evaluated in one call of ``g``; the integrals share
    nothing else, so each returns the bits it would return alone.

    Raises
    ------
    QuadratureConvergenceError
        For the lowest-numbered integral that exhausts its subdivision
        budget, with that integral's estimate and bound.
    """
    panels = [{} for _ in range(m)]
    heaps = [[] for _ in range(m)]
    totals = [0.0] * m
    bounds = [0.0] * m
    active = list(range(m))
    todo = [(i, a, b, 0) for i in active]  # (integral, panel ends, panel key)
    splits = 0  # every unfinished integral has split this many panels
    while todo:
        rows, lows, highs, _ = (np.array(c) for c in zip(*todo))
        for (i, pa, pb, key), pi, pe, pf in zip(todo, *_rules(g, rows, lows, highs)):
            panels[i][key] = (pa, pb, pi, pe, pf)
            if pe > pf:
                heapq.heappush(heaps[i], (-pe, key))
        todo = []
        going = []
        for i in active:
            value = error = floor = 0.0
            for _, _, pi, pe, pf in panels[i].values():
                value += pi
                error += pe
                floor += pf
            tol_total = max(spec.abs_tol, spec.rel_tol * abs(value))
            # an empty heap: every panel is at its own noise floor
            if error <= tol_total + floor or not heaps[i]:
                total = bound = 0.0
                for _, _, pi, pe, pf in sorted(panels[i].values()):
                    total += pi
                    bound += pe + pf
                totals[i], bounds[i] = total, bound
                continue
            if splits >= spec.max_subdivisions:
                # the integrals before this one have either converged or
                # failed here first, so it is the one a sequential run hits
                raise QuadratureConvergenceError(
                    f"no convergence after {spec.max_subdivisions} subdivisions",
                    float(value),
                    float(error + floor),
                )
            _, key = heapq.heappop(heaps[i])
            pa, pb = panels[i].pop(key)[:2]
            pm = 0.5 * (pa + pb)
            todo += ((i, pa, pm, 2 * splits + 1), (i, pm, pb, 2 * splits + 2))
            going.append(i)
        active = going
        splits += 1
    return np.array(totals), np.array(bounds)


def _integrate_floor(
    g: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    a: float,
    b: float,
    spec: QuadratureSpec,
) -> Tuple[float, float]:
    """One adaptive integral; returns (integral, total error bound).

    `_integrate_many` with ``m = 1``.  ``g(x)`` takes the 46 nodes of one
    panel and returns their values and noise floors: one call per panel.
    """

    def one_per_panel(rows, x):
        pairs = [g(xi) for xi in x]
        return np.array([v for v, _ in pairs]), np.array([fl for _, fl in pairs])

    values, bounds = _integrate_many(one_per_panel, 1, a, b, spec)
    return float(values[0]), float(bounds[0])


def _cubed(g: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """The angular integrand ``g(t)`` on [0, 1] taken in ``t = x**3``: ``3 x^2 g(x^3)``.

    A sheet's reflections switch on near grazing angle, TM near ``t = sigma / 2``
    and TE near ``t = 2 / sigma``; the weight spreads those angles over more of
    [0, 1].  ``g``'s values and floors, stacked on its first axis, both take it.
    """
    return lambda x: 3.0 * x * x * g(x**3)


def _integrate_2d_bound(
    f: Callable[[np.ndarray], Callable[[np.ndarray, np.ndarray], np.ndarray]],
    spec: QuadratureSpec,
) -> Tuple[float, float]:
    """Integral ``int_0^1 dt int_0^inf s^2 f(t, s) ds`` and its total error bound.

    ``f(t)`` takes the angular nodes ``t`` of one outer panel (one call per
    panel) and returns ``F(rows, s)``: row ``i`` of the ``(k, 46)``
    frequencies ``s`` belongs to node ``t[rows[i]]``, and ``F`` returns the
    integrand values in the same shape.  ``s^2 F`` must be absolutely
    integrable, which in practice means ``F`` decays exponentially in ``s``.

    The outer integral runs in `_cubed`'s ``t = x**3``, the inner one in
    ``u = exp(-s)``, which maps the frequency axis onto (0, 1] with integrand
    ``ln(u)^2 F(rows, -ln u) / u`` and no tail heuristics.  The inner
    integrals of all the panel's nodes run in lockstep (`_integrate_many`).
    """
    ispec = QuadratureSpec(spec.rel_tol * 0.1, spec.abs_tol * 0.1, spec.max_subdivisions)

    def inner(t: np.ndarray) -> np.ndarray:
        F = f(t)

        def h(rows: np.ndarray, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            lg = np.log(u)
            return lg * lg * F(rows, -lg) / u, np.zeros(u.shape)

        return np.array(_integrate_many(h, t.size, 0.0, 1.0, ispec))

    return _integrate_floor(_cubed(inner), 0.0, 1.0, spec)
