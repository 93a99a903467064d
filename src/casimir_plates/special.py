"""Special functions and adaptive quadrature.

Provides the fourth-order polylogarithm on the closed unit disk, as the
private array kernel ``_li4_array`` and its 0-d case, the scalar ``li4``,
a deterministic adaptive Gauss-Kronrod integrator on [0, 1], and a
two-dimensional quadrature over the (angle, frequency) domain that runs its
angle in ``t = x**3`` and its frequency in ``s = 2x / (1 - x)``
(`_half_line`).

Li4 costs a fixed few dozen terms per element anywhere on the disk, in a
fixed number of numpy calls per array.  Below the switch radius
``|z| < 1/2`` it sums the defining series ``sum_k z^k / k^4`` (34 terms,
relative truncation error below 1e-16).  From ``|z| = 1/2`` up to and
including the unit circle it sums the expansion in ``mu = ln z`` around
``z = 1`` (Crandall, "Note on fast polylogarithm computation", 2006),
which converges like ``(|mu| / 2 pi)^m`` with ``|mu| / 2 pi <= 0.513``
there; truncated after ``mu^45``, its tail is below 4e-18.  The total
error stays below 1e-14; on the real axis ``z = 1`` and ``z = -1`` are
exact, and a real ``x`` in (-1, -1/2] errs by up to about 3.4e-15.

The integrators use open rules only (no endpoint evaluations), subdivide
worst-panel-first, the oldest of equal panels first, and sum results in a
fixed order, so a given tolerance specification always reproduces the same
bits.  Internally one driver, `_integrate_many`, advances many independent
integrals over [0, 1] in lockstep: its integrand ``g(rows, x)`` gets a
``(k, 31)`` array whose row ``i`` holds the 31 Kronrod nodes of one panel
of integral ``rows[i]``, the 15 Gauss nodes among them first, and returns
arrays of values and noise floors of that shape.  Each round evaluates the
new panels of every unfinished integral in one such call.  Both energy
routes take their angular integral through `_integrate_floor`, in
``t = x**3``, whose integrand takes a whole round's nodes in one call; the
2-D quadrature runs the inner integrals of all those nodes in lockstep, in
``s = 2x / (1 - x)``, each from the two panels [0, 1/2] and [1/2, 1].
"""

from __future__ import annotations

import math
import numbers
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

# Defining series, coefficients of z^1 ... z^34: at |z| < 1/2 the tail after
# K = 34 terms, |z|^(K+1) / ((K+1)^4 (1 - |z|)), is below 1e-16 |Li4(z)|.
_SERIES_VECTOR = np.array([1.0 / k**4 for k in range(1, 35)])


def _log_series_odd_coeffs(kmax: int) -> np.ndarray:
    """``zeta(1 - 2k) / (2k + 3)!`` for ``k = 1, ..., kmax``.

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
    return np.array([
        (-1) ** k * t[k] / (4**k * (4**k - 1) * math.factorial(2 * k + 3))
        for k in range(1, kmax + 1)
    ])


# Log-series coefficients of mu^5, mu^7, ..., mu^45 (the even powers above
# mu^4 vanish).  On |z| >= 1/2, |mu| <= (ln(2)^2 + pi^2)^(1/2) < 3.218 and
# the omitted tail from mu^47 on is below 4e-18.
_LOG_SERIES_VECTOR = _log_series_odd_coeffs(21)

_OVERSHOOT = 1e-12


def _is_integer(value) -> bool:
    """An integer, a numpy one too, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for the adaptive integrators.

    The budget is an integer of at least 1: under NaN, say, a solve that
    cannot converge would never stop."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not all(0.0 < tol < math.inf for tol in (self.rel_tol, self.abs_tol)):
            raise ValueError(
                f"tolerances must be positive and finite, got rel_tol={self.rel_tol!r}, "
                f"abs_tol={self.abs_tol!r}"
            )
        budget = self.max_subdivisions
        if not _is_integer(budget) or budget < 1:
            raise ValueError(f"max_subdivisions must be an integer of at least 1, got {budget!r}")


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


def _log_series_head(mu, log_neg_mu, odd):
    """``Li4(e^mu)`` from the sum ``odd`` of its terms in ``mu^5, mu^7, ...``.

    ``sum_{m != 3} zeta(4 - m) mu^m / m! + mu^3 / 6 (H_3 - ln(-mu))`` with
    ``H_3 = 11/6``, where ``odd = sum_k _LOG_SERIES_VECTOR[k] mu^(2k)``
    carries every term above ``mu^4``; ``log_neg_mu`` is ``ln(-mu)`` on the
    principal branch.
    """
    acc = -1.0 / 48.0 + mu * odd  # zeta(0) / 4! = -1/48
    acc = (11.0 / 6.0 - log_neg_mu) / 6.0 + mu * acc
    acc = _HALF_ZETA2 + mu * acc
    return ZETA4 + mu * (_ZETA3 + mu * acc)


def _power_table(x: np.ndarray, n: int) -> np.ndarray:
    """``x^k`` for ``k = 1 ... n``, shape ``(m, n)`` for ``m`` values ``x``."""
    return np.cumprod(np.broadcast_to(x[:, None], (x.size, n)), axis=1)


def _contract(powers: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Row sums ``powers @ coefficients``, each in an order fixed by the row alone.

    ``einsum`` sums every row the same way however many rows there are;
    ``@`` hands the stack to BLAS, whose blocking depends on its size.
    """
    return np.einsum("ij,j->i", powers, coefficients)


def _li4_array(z) -> np.ndarray:
    """``Li4`` of every element of a real or complex array on the closed unit disk.

    The one Li4 kernel; `li4` is its 0-d case.  Returns a complex array of
    the same shape.  The elements on either side of the switch radius
    ``|z| = 1/2`` are gathered into one vector each, maybe empty, whose
    series is its power table (``z^k``, ``k <= 34``, or ``(mu^2)^k``,
    ``k <= 20``) contracted with the coefficients.  ``mu = ln min(|z|, 1)
    + i arg z`` projects an overshoot onto the unit circle.  A real ``z`` on or past
    the circle gives ``ZETA4`` at ``+1`` and ``LI4_MINUS_ONE`` at ``-1``
    exactly.  Any other real ``x <= -1/2`` takes the log series like a
    complex argument, with an error of up to about 3.4e-15.  Each value
    depends only on its own element, so a row gives the same bits alone as
    inside a stack.

    Raises
    ------
    ValueError
        If some ``|z|`` exceeds ``1 + 1e-12``, naming the first such element
        in C order.
    """
    z = np.asarray(z, dtype=complex)
    az = np.abs(z)
    outside = az > 1.0 + _OVERSHOOT
    if outside.any():
        raise ValueError(f"li4 argument outside the unit disk: |z| = {az[outside][0].item()!r}")
    values = np.empty(z.shape, complex)
    inner = az < _SERIES_RADIUS
    values[inner] = _contract(_power_table(z[inner], _SERIES_VECTOR.size), _SERIES_VECTOR)
    outer = ~inner
    zo = z[outer]
    mu = np.log(np.minimum(az[outer], 1.0)) + 1j * np.arctan2(zo.imag, zo.real)
    mu2_powers = _power_table(mu * mu, _LOG_SERIES_VECTOR.size - 1)
    odd = _LOG_SERIES_VECTOR[0] + _contract(mu2_powers, _LOG_SERIES_VECTOR[1:])
    with np.errstate(divide="ignore", invalid="ignore"):  # ln(-mu) is infinite at z = 1
        values[outer] = _log_series_head(mu, np.log(-mu), odd)
    axis = (az >= 1.0) & (z.imag == 0.0)  # z = +-1 after the projection; z = 1 gave NaN
    values[axis] = np.where(z.real[axis] > 0.0, ZETA4, LI4_MINUS_ONE)
    return values


def li4(z):
    """Fourth-order polylogarithm ``Li4(z)`` for ``|z| <= 1``.

    The array kernel `_li4_array` applied to one value, with its series
    and its error below 1e-14 on the closed disk (module docstring).
    ``x = 1`` and ``x = -1`` are exact; a real ``x`` in (-1, -1/2] errs by
    up to about 3.4e-15, inside that bound.

    It gives the energy's frequency integral in closed form: expanding the
    logarithm and integrating term by term, ``int_0^inf s^2 ln(1 - c e^-s)
    ds = -2 Li4(c)`` for ``|c| <= 1``.

    A real argument returns a float, a complex argument a complex;
    ``li4(conj(z)) == conj(li4(z))`` bit for bit.

    Raises
    ------
    ValueError
        If ``|z|`` exceeds ``1 + 1e-12`` (smaller overshoots are projected
        back onto the unit circle).
    """
    v = _li4_array(z)[()]
    return complex(v) if isinstance(z, complex) else float(v.real)


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod machinery

# The 15-point Gauss rule and its 31-point Kronrod extension on [-1, 1], as
# QUADPACK's qk31 tabulates them (Piessens et al., QUADPACK, 1983): the
# non-negative nodes from the largest down, the Gauss nodes at odd
# positions, and the weights of both rules.  The Kronrod rule is exact to
# degree 46 (47 by symmetry).
_XGK = np.array([
    0.998002298693397060285, 0.987992518020485428490, 0.967739075679139134257,
    0.937273392400705904308, 0.897264532344081900883, 0.848206583410427216201,
    0.790418501442465932968, 0.724417731360170047416, 0.650996741297416970534,
    0.570972172608538847537, 0.485081863640239680694, 0.394151347077563369897,
    0.299180007153168812167, 0.201194093997434522301, 0.101142066918717499027,
    0.0,
])
_WGK = np.array([
    0.00537747987292334898779, 0.0150079473293161225384, 0.0254608473267153201869,
    0.0353463607913758462220, 0.0445897513247648766082, 0.0534815246909280872653,
    0.0620095678006706402851, 0.0698541213187282587095, 0.0768496807577203788944,
    0.0830805028231330210383, 0.0885644430562117706473, 0.0931265981708253212255,
    0.0966427269836236785052, 0.0991735987217919593324, 0.100769845523875595045,
    0.101330007014791549017,
])
_WG = np.array([
    0.0307532419961172683546, 0.0703660474881081247093, 0.107159220467171935012,
    0.139570677926154314448, 0.166269205816993933553, 0.186161000015562211027,
    0.198431485327111576456, 0.202578241925561272881,
])


def _ascending(half: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """A symmetric rule's table over all its nodes, ascending, from its
    non-negative half, largest node first and 0 last; ``sign=-1`` mirrors
    the nodes themselves."""
    return np.concatenate((sign * half[:-1], half[::-1]))


# In ascending order the Gauss nodes take the odd positions; `_rules`
# evaluates them first, then the other 16.
_X31, _W31 = _ascending(_XGK, -1.0), _ascending(_WGK)
_NODES = np.concatenate((_X31[1::2], _X31[0::2]))
_K31_WEIGHTS = np.concatenate((_W31[1::2], _W31[0::2]))
_G15_WEIGHTS = _ascending(_WG)
_N_GAUSS = _G15_WEIGHTS.size

# A sum of n products rounds by at most n u sum |w f| with u = eps / 2
# (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3);
# n eps leaves room for the panel's scaling.
_SUM_ROUNDING = _NODES.size * np.finfo(float).eps


def _rules(g, rows, a: np.ndarray, b: np.ndarray):
    """Kronrod estimates, error estimates and noise floors of k panels.

    Row ``i`` is the panel ``[a[i], b[i]]`` of integral ``rows[i]``.  ``g``
    is called once, on the ``(k, 31)`` array of the panels' Kronrod nodes
    (the 15 Gauss nodes first), and returns two arrays of that shape: the
    values and a ``floor`` per node that bounds the evaluation error of the
    value itself.  The estimate is the 31-point Kronrod sum, the error
    estimate its difference from the 15-point Gauss sum on the same values.
    The panel's floor integrates, with the Kronrod weights, each node's floor
    plus the bound `_SUM_ROUNDING` on the rounding of the sum, so a panel
    whose two rules agree to rounding is not split further.  Each rule is
    summed node by node in node order, vectorised across rows, so every row
    sees the same sequential sum a loop over its nodes would give.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values, floors = g(rows, mid[:, None] + half[:, None] * _NODES)
    # accumulate adds strictly in order; np.sum or np.dot may pair terms
    gauss = np.add.accumulate(values[:, :_N_GAUSS] * _G15_WEIGHTS, axis=1)[:, -1]
    kronrod = np.add.accumulate(values * _K31_WEIGHTS, axis=1)[:, -1]
    noise = floors + _SUM_ROUNDING * abs(values)
    floor = np.add.accumulate(noise * _K31_WEIGHTS, axis=1)[:, -1]
    estimate, error = half * kronrod, abs(half * (kronrod - gauss))
    return estimate.tolist(), error.tolist(), (half * floor).tolist()


def _integrate_many(
    g: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]],
    m: int,
    spec: QuadratureSpec,
    start: Tuple[float, ...] = (0.0, 1.0),
) -> Tuple[np.ndarray, np.ndarray]:
    """Adaptive driver for ``m`` integrals over [0, 1] advanced in lockstep.

    Returns two arrays of length ``m``: the integrals and their total error
    bounds.  ``g(rows, x)`` evaluates integral ``rows[i]`` on row ``i`` of
    ``x`` (shape ``(k, 31)``) as `_rules` describes.  Every integral starts
    from the panels between consecutive breakpoints of ``start``, which runs
    from 0 to 1; the first call holds the first of them for all ``m``
    integrals, then the second, and so on.

    Each integral splits whichever of its panels carries the largest
    reducible error, the oldest of equal ones, until its summed error
    estimate drops below tolerance.  A panel whose estimate sinks below the
    integrated noise floor of its own integrand values is never split
    further, which prevents endless subdivision of integrands that are only
    known to limited accuracy.  Every round, each unfinished integral takes
    one such step, and all the new half-panels are evaluated in one call of
    ``g``; the integrals share nothing else, so each returns the bits it
    would return alone.

    Raises
    ------
    QuadratureConvergenceError
        For the lowest-numbered integral that exhausts its subdivision
        budget, with that integral's estimate and bound.
    """
    panels = [[] for _ in range(m)]  # per integral, its panels oldest first
    totals = [0.0] * m
    bounds = [0.0] * m
    active = list(range(m))
    # (integral, panel ends)
    todo = [(i, pa, pb) for pa, pb in zip(start[:-1], start[1:]) for i in active]
    splits = 0  # every unfinished integral has split this many panels
    while todo:
        rows, lows, highs = (np.array(c) for c in zip(*todo))
        for (i, pa, pb), pi, pe, pf in zip(todo, *_rules(g, rows, lows, highs)):
            panels[i].append((pa, pb, pi, pe, pf))
        todo = []
        going = []
        for i in active:
            value = error = floor = 0.0
            # the panel to split; it stays -1 if every panel is at its noise floor
            worst, worst_error = -1, -1.0  # errors are never negative
            for j, (_, _, pi, pe, pf) in enumerate(panels[i]):
                value += pi
                error += pe
                floor += pf
                if pe > pf and pe > worst_error:
                    worst, worst_error = j, pe
            tol_total = max(spec.abs_tol, spec.rel_tol * abs(value))
            if error <= tol_total + floor or worst < 0:
                total = bound = 0.0
                for _, _, pi, pe, pf in sorted(panels[i]):
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
            pa, pb = panels[i].pop(worst)[:2]
            pm = 0.5 * (pa + pb)
            todo += ((i, pa, pm), (i, pm, pb))
            going.append(i)
        active = going
        splits += 1
    return np.array(totals), np.array(bounds)


def _integrate_floor(
    g: Callable[[np.ndarray], np.ndarray], spec: QuadratureSpec
) -> Tuple[float, float]:
    """``int_0^1 g(t) dt`` and its total error bound, taken in ``t = x**3``.

    ``g(t)`` takes the ``(k, 31)`` nodes ``t`` of a whole round, one row per
    panel (one call per round), and returns their values and noise floors
    stacked as ``(2, k, 31)``; both are weighted by ``3 x^2``.  A sheet's
    reflections switch on near grazing angle, TM near ``t = sigma / 2`` and
    TE near ``t = 2 / sigma``; the map spreads those angles over more of
    [0, 1].
    """

    def in_x(rows, x):
        weight = 3.0 * x * x
        return tuple(weight * part for part in g(x**3))  # values, floors

    values, bounds = _integrate_many(in_x, 1, spec)
    return float(values[0]), float(bounds[0])


def _half_line(F):
    """``int_0^inf s^2 F(rows, s) ds`` as an integrand of `_integrate_many`.

    In ``s = 2x / (1 - x)``, with ``ds = 2 dx / (1 - x)^2``, the values are
    ``2 s^2 F(rows, s) / (1 - x)^2`` and the floors zero.  ``1 - x`` is exact
    on [1/2, 1], so ``s`` is accurate to rounding up to the last float below
    1.  At ``x = 1`` itself, ``s`` is infinite and the value 0, the limit
    for any ``F`` that decays exponentially; ``F`` sees ``s = 2`` there
    instead, so no ``inf * 0`` is formed.
    """

    def in_x(rows, x):
        y = 1.0 - x
        end = y == 0.0
        y[end] = 1.0
        s = 2.0 * x / y
        values = 2.0 * s * s * F(rows, s) / (y * y)
        values[end] = 0.0
        return values, np.zeros(x.shape)

    return in_x


def _integrate_2d_bound(
    f: Callable[[np.ndarray], Callable[[np.ndarray, np.ndarray], np.ndarray]],
    spec: QuadratureSpec,
) -> Tuple[float, float]:
    """Integral ``int_0^1 dt int_0^inf s^2 f(t, s) ds`` and its total error bound.

    ``f(t)`` takes the flat array of a round's angular nodes ``t`` (one call
    per round) and returns ``F(rows, s)``: row ``i`` of the ``(k, 31)``
    frequencies ``s`` belongs to node ``t[rows[i]]``, and ``F`` returns the
    integrand values in the same shape.  ``s^2 F`` must be absolutely
    integrable, which in practice means ``F`` decays exponentially in ``s``.

    The outer integral runs in `_integrate_floor`, the inner ones, all the
    round's nodes in lockstep, in `_half_line`'s algebraic map of the half
    line onto [0, 1] (QUADPACK's ``qagi`` maps it algebraically too), with no
    tail heuristics.  ``s^2`` stays rational, so the map adds no logarithm
    at either end: as ``s -> inf``, ``F ~ -r r' e^-s`` and the integrand in
    ``x`` vanishes faster than any power of ``1 - x``; as ``s -> 0`` it goes
    like ``8 x^2 F(2x)``.  (In ``e^-s = x**3``, ``s^2`` was ``9 ln(x)^2``
    and the integrand ``-27 r r' x^2 ln(x)^2``, not analytic at ``x = 0``.)
    The caller scales frequencies so that ``s^2 e^-s``, the shape of a
    pair's integrand, peaks at ``s = 2``, ``x = 1/2``: each inner integral
    starts from the two panels [0, 1/2] and [1/2, 1].
    """
    ispec = QuadratureSpec(spec.rel_tol * 0.1, spec.abs_tol * 0.1, spec.max_subdivisions)

    def inner(t: np.ndarray) -> np.ndarray:
        result = _integrate_many(_half_line(f(t.ravel())), t.size, ispec, (0.0, 0.5, 1.0))
        return np.array(result).reshape((2,) + t.shape)

    return _integrate_floor(inner, spec)
