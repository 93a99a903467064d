"""Casimir energy ratios for stacks of parallel delta-function plates.

All energies are quoted as the dimensionless ratio to the energy of a pair
of perfectly conducting plates at the reference gap, ``-pi^2 A / (720 a^3)``
in natural units, so ``ratio > 0`` means net attraction.  Two independent
evaluation routes are provided:

* a semi-analytic route that factors the scattering polynomial at each
  angular node and sums fourth-order polylogarithms of its inverse roots
  (uniform gaps only), and
* a direct two-dimensional quadrature of ``ln Delta`` over the full
  (angle, frequency) domain, valid for any gaps and any material mix.

For stacks of perfect conductors the ratio is also available in exact
rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .optics import (
    AngularNode,
    Material,
    PerfectElectric,
    PerfectMagnetic,
    Polarization,
    SweepSlot,
    coefficients,
)
from .scattering import NodeCoefficients, StackGeometry, delta_polynomial, delta_total
from .special import (
    _ZETA3,
    QuadratureConvergenceError,
    QuadratureSpec,
    _integrate_floor,
    _integrate_2d_bound,
    li4,
)

__all__ = [
    "HBAR",
    "C_LIGHT",
    "StackSpec",
    "EnergyResult",
    "SweepPoint",
    "PolylogPathError",
    "UnitDiskRootError",
    "DeltaDomainError",
    "SweepError",
    "energy_ratio",
    "energy_ratio_polylog",
    "energy_ratio_quadrature",
    "ideal_stack_ratio",
    "sweep",
    "absolute_energy",
]

#: Reduced Planck constant, J s.
HBAR = 1.054571817e-34

#: Speed of light, m / s.
C_LIGHT = 2.99792458e8

_PREFACTOR_POLYLOG = 45.0 / math.pi**4
_PREFACTOR_QUAD = -45.0 / (2.0 * math.pi**4)

_EPS = float(np.finfo(float).eps)

# Inverse roots may stick out of the unit disk by this much before any
# conditioning analysis is consulted.
_DISK_TOL = 1e-9

# Auto dispatch trusts a polylog result whose certified error is below the
# requested tolerance or this absolute ratio error, whichever is larger;
# beyond that the quadrature route takes over.
_POLYLOG_TRUST = 1e-6

# The Delta polynomial is expanded over the 2**(n - 2) compositions of an
# n-plate segment; longer segments are left to the quadrature route.
_MAX_POLYLOG_PLATES = 16


class PolylogPathError(RuntimeError):
    """The semi-analytic route could not certify this node."""


class UnitDiskRootError(PolylogPathError):
    """A scattering-polynomial root landed inside the unit interval.

    Equivalently, an inverse root left the closed unit disk by more than
    its numerical error bar, which would make ``ln Delta`` singular on the
    integration domain.  Carries the offending node for diagnosis.
    """

    def __init__(self, message: str, *, t: float, pol: Polarization, roots):
        super().__init__(f"{message} at t={t!r}, {pol.value}: roots {roots!r}")
        self.t = t
        self.pol = pol
        self.roots = roots


class DeltaDomainError(RuntimeError):
    """``Delta <= 0`` was encountered: invalid coefficient regime."""


class SweepError(RuntimeError):
    """A sweep point failed; ``sigma`` identifies the failing point."""

    def __init__(self, message: str, sigma: float):
        super().__init__(message)
        self.sigma = sigma


@dataclass(frozen=True)
class StackSpec:
    """An ordered stack of plates with dimensionless gap lengths.

    ``gaps[i]`` is the distance between plates ``i`` and ``i + 1`` in units
    of the reference gap.  Sweep slots are admitted so the object can serve
    as a sweep template, but must be bound before any energy evaluation.
    """

    plates: Tuple[Material, ...]
    gaps: Tuple[float, ...]

    def __post_init__(self):
        plates = tuple(self.plates)
        gaps = tuple(self.gaps)
        if len(plates) < 2:
            raise ValueError("a stack needs at least two plates")
        if len(gaps) != len(plates) - 1:
            raise ValueError(
                f"{len(plates)} plates need {len(plates) - 1} gaps, got {len(gaps)}"
            )
        object.__setattr__(self, "plates", plates)
        object.__setattr__(self, "gaps", StackGeometry(gaps).gaps)

    @property
    def n_plates(self) -> int:
        return len(self.plates)

    @property
    def uniform(self) -> bool:
        """All gaps equal (not necessarily to 1)."""
        return all(g == self.gaps[0] for g in self.gaps)

    @property
    def all_ideal(self) -> bool:
        return all(isinstance(p, (PerfectElectric, PerfectMagnetic)) for p in self.plates)

    @property
    def has_sweep_slot(self) -> bool:
        return any(isinstance(p, SweepSlot) for p in self.plates)


@dataclass(frozen=True)
class EnergyResult:
    """Dimensionless energy ratio with per-plate normalization.

    ``ratio`` is relative to the perfect-conductor pair at the reference
    gap (positive means attractive); ``per_plate`` is ``ratio / N``;
    ``err_estimate`` bounds the numerical error of ``ratio``.
    """

    ratio: float
    per_plate: float
    method: str
    err_estimate: float

    def __post_init__(self):
        if self.err_estimate < 0.0:
            raise ValueError("error estimate must be non-negative")


class SweepPoint(NamedTuple):
    sigma: float
    result: EnergyResult


def _require_bound(stack: StackSpec):
    if stack.has_sweep_slot:
        raise ValueError("stack contains an unbound sweep slot")


def _node_coefficients(stack: StackSpec, pol: Polarization, t: float) -> NodeCoefficients:
    node = AngularNode(t)
    pairs = [coefficients(p, pol, node) for p in stack.plates]
    return NodeCoefficients(tuple(c.r for c in pairs), tuple(c.t_coef for c in pairs))


def _opaque_segments(coeffs: NodeCoefficients) -> List[Tuple[Tuple[float, ...], Tuple[float, ...]]]:
    """Split the plate list at perfectly opaque plates.

    A plate with exactly zero transmission kills every loop through it, so
    Delta factorizes into the product over the resulting sub-stacks; the
    opaque plate terminates both neighbouring segments.  Returns the (r, t)
    tuples of every segment with at least two plates.
    """
    n = coeffs.n_plates
    cuts = [i for i in range(n) if coeffs.t_coef[i] == 0.0]
    bounds = sorted({0, n - 1, *cuts})
    segments = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo >= 1:
            segments.append((coeffs.r[lo : hi + 1], coeffs.t_coef[lo : hi + 1]))
    return segments


def _inverse_roots(poly: Sequence[float]) -> Tuple[np.ndarray, float]:
    """Inverse roots ``w = 1/x`` of a scattering polynomial, with error bar.

    The reversed polynomial is monic (constant term 1), so its companion
    matrix directly yields the inverse roots; each gets one guarded Newton
    polish.  Roots within 1e-9 of ``+-1`` snap to the exact ideal values.

    A root may stick out of the unit disk purely because a cluster of
    near-equal roots amplifies coefficient rounding (first-order error bar
    ``kappa * eps`` with ``kappa`` the root condition number).  Such roots
    are projected back onto the circle and the induced uncertainty of the
    polylogarithm sum, bounded through the Lipschitz constant of Li4, is
    returned alongside.  An excursion beyond its error bar is genuine and
    raises ``ValueError``.
    """
    c = np.asarray(poly, float)
    d = c.size - 1
    while d > 0 and c[d] == 0.0:
        d -= 1
    c = c[: d + 1]
    if d == 0:
        return np.empty(0, complex), 0.0
    if d == 1:
        w = np.array([-c[1]], complex)
    else:
        w = np.roots(c)
        dc = np.polyder(c)
        resid = np.polyval(c, w)
        deriv = np.polyval(dc, w)
        safe = np.abs(deriv) > 0.0
        step = np.where(safe, resid / np.where(safe, deriv, 1.0), 0.0)
        polished = w - step
        better = np.abs(np.polyval(c, polished)) < np.abs(resid)
        w = np.where(better, polished, w)
    w = np.where(np.abs(w - 1.0) <= _DISK_TOL, 1.0, w)
    w = np.where(np.abs(w + 1.0) <= _DISK_TOL, -1.0, w)
    aw = np.abs(w)
    err = 0.0
    if np.any(aw > 1.0 + _DISK_TOL):
        dc = np.polyder(c)
        deriv = np.abs(np.polyval(dc, w)) * np.maximum(aw, 1e-300)
        scale = np.polyval(np.abs(c), aw)
        kappa = scale / np.maximum(deriv, 1e-300)
        bar = np.minimum(50.0 * _EPS * kappa, 0.05)
        excess = aw - 1.0 - _DISK_TOL
        if np.any(excess > bar):
            j = int(np.argmax(excess - bar))
            raise ValueError(
                f"inverse root at |w| = {aw[j]!r} exceeds its error bar {bar[j]!r}"
            )
        err = _ZETA3 * float(np.sum(bar))  # |Li4'| <= zeta(3) on the closed disk
        w = np.where(aw > 1.0, w / aw, w)
    order = np.lexsort((w.imag, w.real))
    return w[order], err


def _li4_root_sum(w: np.ndarray) -> complex:
    """Sum of Li4 over sorted roots, pairing conjugates exactly."""
    total = 0.0 + 0.0j
    i = 0
    n = w.size
    while i < n:
        wi = w[i]
        if wi.imag == 0.0:
            total += li4(float(wi.real))
            i += 1
            continue
        if i + 1 < n and abs(w[i + 1] - np.conj(wi)) <= 1e-12 * max(1.0, abs(wi)):
            total += 2.0 * li4(complex(wi)).real
            i += 2
            continue
        total += li4(complex(wi))
        i += 1
    return total


def _polylog_node(stack: StackSpec, t: float) -> Tuple[float, float]:
    """Node value ``sum_pol sum_j Li4(w_j)`` and its uncertainty."""
    value = 0.0 + 0.0j
    floor = 0.0
    for pol in Polarization:
        coeffs = _node_coefficients(stack, pol, t)
        for r_seg, t_seg in _opaque_segments(coeffs):
            if len(r_seg) > _MAX_POLYLOG_PLATES:
                raise PolylogPathError(
                    f"a segment of {len(r_seg)} plates at t={t!r} exceeds the "
                    f"{_MAX_POLYLOG_PLATES} plates the Delta polynomial is expanded for"
                )
            if len(r_seg) == 2:
                # pair: Delta = 1 - r r' x has the single inverse root r r'
                value += li4(r_seg[0] * r_seg[1])
                continue
            poly = delta_polynomial(NodeCoefficients(r_seg, t_seg))
            try:
                roots, err = _inverse_roots(poly)
            except ValueError as exc:
                raise UnitDiskRootError(str(exc), t=t, pol=pol, roots=None) from exc
            value += _li4_root_sum(roots)
            floor += err
    if abs(value.imag) >= 1e-10:
        raise PolylogPathError(
            f"conjugate roots failed to cancel at t={t!r}: Im = {value.imag!r}"
        )
    return value.real, floor


def energy_ratio_polylog(
    stack: StackSpec, spec: Optional[QuadratureSpec] = None
) -> EnergyResult:
    """Energy ratio via per-node root finding and polylogarithms.

    Requires uniform gaps (all equal); a common gap ``g != 1`` only rescales
    the ratio by ``1 / g**3``.  The returned error estimate combines the
    angular quadrature bound with the accumulated uncertainty of any
    ill-conditioned root clusters (see `_inverse_roots`); a large estimate
    is the signal that the quadrature route should be preferred.
    """
    _require_bound(stack)
    spec = spec or QuadratureSpec()
    if not stack.uniform:
        raise ValueError("the polylog route requires uniform gaps")
    g = stack.gaps[0]
    value, bound = _integrate_floor(
        lambda x: np.array([_polylog_node(stack, t) for t in x]).T, 0.0, 1.0, spec
    )
    scale = _PREFACTOR_POLYLOG / g**3
    ratio = scale * value
    return EnergyResult(ratio, ratio / stack.n_plates, "polylog", abs(scale) * bound)


def energy_ratio_quadrature(
    stack: StackSpec, spec: Optional[QuadratureSpec] = None
) -> EnergyResult:
    """Energy ratio via direct 2-D quadrature of ``ln Delta``.

    Valid for any material mix and any gap vector, including exact ideal
    plates.  Internally the frequency variable is rescaled by the smallest
    gap so that every propagation exponent is at least one, which keeps the
    substituted integrand regular; the ratio is restored by the cube of the
    rescaling.
    """
    _require_bound(stack)
    spec = spec or QuadratureSpec()
    g_min = min(stack.gaps)
    geometry = StackGeometry(tuple(g / g_min for g in stack.gaps))

    def log_delta(t: np.ndarray):
        # per polarization, r and t_coef of the outer panel's nodes, shape (N, 46)
        tables = []
        for pol in Polarization:
            nodes = [_node_coefficients(stack, pol, ti) for ti in t]
            r = np.array([c.r for c in nodes]).T
            tables.append((r, np.array([c.t_coef for c in nodes]).T))

        def block(rows: np.ndarray, s: np.ndarray) -> np.ndarray:
            total = 0.0
            for r, tc in tables:
                d = delta_total((r[:, rows], tc[:, rows]), geometry, s)
                bad = d <= 0.0
                if bad.any():
                    i, j = np.unravel_index(np.argmax(bad), bad.shape)
                    raise DeltaDomainError(
                        f"Delta = {float(d[i, j])!r} at t={float(t[rows[i]])!r}, "
                        f"s={float(s[i, j])!r}: invalid coefficient regime"
                    )
                total = total + np.log(d)
            return total

        return block

    value, bound = _integrate_2d_bound(log_delta, spec)
    scale = _PREFACTOR_QUAD / g_min**3
    ratio = scale * value
    return EnergyResult(ratio, ratio / stack.n_plates, "quadrature", abs(scale) * bound)


def ideal_stack_ratio(stack: StackSpec) -> Fraction:
    """Exact energy ratio of a stack of perfect conductors at unit gaps.

    Opacity makes the energy pairwise additive: each adjacent pair of equal
    type contributes 1, each opposite pair contributes -7/8.
    """
    _require_bound(stack)
    if not stack.all_ideal:
        raise ValueError("ideal_stack_ratio requires perfect-conductor plates only")
    if any(g != 1.0 for g in stack.gaps):
        raise ValueError("exact rational ratios are defined at unit gaps")
    total = Fraction(0)
    for left, right in zip(stack.plates[:-1], stack.plates[1:]):
        total += Fraction(1) if type(left) is type(right) else Fraction(-7, 8)
    return total


def energy_ratio(
    stack: StackSpec,
    spec: Optional[QuadratureSpec] = None,
    method: str = "auto",
) -> EnergyResult:
    """Energy ratio by the requested route.

    ``auto`` picks the exact route for all-ideal unit stacks, otherwise the
    polylog route for uniform gaps with a quadrature fallback whenever the
    semi-analytic route aborts or cannot certify the requested tolerance.
    """
    spec = spec or QuadratureSpec()
    if method == "auto" and stack.all_ideal and all(g == 1.0 for g in stack.gaps):
        method = "ideal"
    if method == "polylog":
        return energy_ratio_polylog(stack, spec)
    if method == "quadrature":
        return energy_ratio_quadrature(stack, spec)
    if method == "ideal":
        ratio = float(ideal_stack_ratio(stack))
        return EnergyResult(ratio, ratio / stack.n_plates, "ideal", 0.0)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    if stack.uniform:
        try:
            result = energy_ratio_polylog(stack, spec)
        except (PolylogPathError, QuadratureConvergenceError):
            return energy_ratio_quadrature(stack, spec)
        tolerance = max(spec.abs_tol, spec.rel_tol * abs(result.ratio))
        if result.err_estimate <= max(tolerance, _POLYLOG_TRUST):
            return result
        fallback = energy_ratio_quadrature(stack, spec)
        return fallback if fallback.err_estimate < result.err_estimate else result
    return energy_ratio_quadrature(stack, spec)


def _bind(stack: StackSpec, sigma: float) -> StackSpec:
    from .optics import ConstantConductivity

    plates = tuple(
        ConstantConductivity(sigma) if isinstance(p, SweepSlot) else p
        for p in stack.plates
    )
    return StackSpec(plates, stack.gaps)


def sweep(
    stack_template: StackSpec,
    sigma_grid: Sequence[float],
    *,
    shared: bool = False,
    method: str = "auto",
    spec: Optional[QuadratureSpec] = None,
) -> List[SweepPoint]:
    """Evaluate the template once per conductivity in ``sigma_grid``.

    The template must contain exactly one sweep slot, or any number of
    slots with ``shared=True`` (all bound to the same value).  Points are
    evaluated independently in grid order; a failure at one point is
    reported with its sigma attached.
    """
    slots = sum(isinstance(p, SweepSlot) for p in stack_template.plates)
    if slots == 0:
        raise ValueError("sweep template has no sweep slot")
    if slots > 1 and not shared:
        raise ValueError(
            f"{slots} sweep slots require shared=True (one common conductivity)"
        )
    grid = [float(s) for s in sigma_grid]
    if not grid:
        raise ValueError("sigma grid is empty")
    if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
        raise ValueError("sigma grid must be strictly increasing")
    if grid[0] < 0.0:
        raise ValueError("conductivities must be non-negative")
    table = []
    for sigma in grid:
        bound_stack = _bind(stack_template, sigma)
        try:
            result = energy_ratio(bound_stack, spec, method)
        except Exception as exc:
            raise SweepError(f"sweep point sigma={sigma!r} failed: {exc}", sigma) from exc
        table.append(SweepPoint(sigma, result))
    return table


def absolute_energy(result: EnergyResult, a: float, area: float) -> float:
    """Interaction energy in joules for gap ``a`` (m) and plate area (m^2).

    Restores SI factors in the perfect-conductor pair energy
    ``-pi^2 hbar c A / (720 a^3)`` and scales it by the dimensionless ratio.
    """
    if not a > 0.0:
        raise ValueError(f"gap must be positive, got {a}")
    if not area > 0.0:
        raise ValueError(f"area must be positive, got {area}")
    pair = -math.pi**2 * HBAR * C_LIGHT / (720.0 * a**3) * area
    return result.ratio * pair
