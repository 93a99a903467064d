"""Casimir energy ratios for stacks of parallel delta-function plates.

All energies are quoted as the dimensionless ratio to the energy of a pair
of perfectly conducting plates at the reference gap, ``-pi^2 A / (720 a^3)``
in natural units, so ``ratio > 0`` means net attraction.  Two independent
evaluation routes are provided:

* a semi-analytic route that takes, at each angular node, the eigenvalues
  of the round-trip matrix, which are the inverse roots of ``Delta``, and
  sums their fourth-order polylogarithms (uniform gaps only; one stacked
  eigenvalue call per round of the angular integral), and
* a direct two-dimensional quadrature of ``ln Delta`` over the full
  (angle, frequency) domain, valid for any gaps and any material mix.

For stacks of perfect conductors, at any gaps, the ratio is also available
in exact rational arithmetic: pairs add, each scaled by ``1 / g**3`` with
the float gap ``g`` taken exactly, so a gap of ``0.1`` gives
``1 / Fraction(0.1)**3``, not 1000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .optics import (
    ConstantConductivity,
    Material,
    PerfectElectric,
    PerfectMagnetic,
    Polarization,
    SweepSlot,
    coefficients,
)
from .scattering import delta_total, round_trip_matrix
from .special import (
    _OVERSHOOT,
    QuadratureConvergenceError,
    QuadratureSpec,
    _integrate_floor,
    _integrate_2d_bound,
    _li4_array,
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

# The error bound of the Li4 kernel `_li4_array`, charged to a node once per Li4 term.
_LI4_ERROR = 1e-14

# The evaluation routes `energy_ratio` accepts.
_METHODS = ("auto", "polylog", "quadrature", "ideal")


class PolylogPathError(RuntimeError):
    """The semi-analytic route could not certify this node."""


class UnitDiskRootError(PolylogPathError):
    """An inverse root of Delta left the closed unit disk.

    The eigenvalue of the round-trip matrix lies beyond ``|w| = 1 + 1e-12``,
    the most `li4` accepts, which would make ``ln Delta`` singular on the
    integration domain.  Carries the offending node for diagnosis.
    """

    def __init__(self, message: str, *, t: float, pol: Polarization):
        super().__init__(f"{message} at t={t!r}, {pol.value}")
        self.t = t
        self.pol = pol


class DeltaDomainError(RuntimeError):
    """``Delta <= 0`` was encountered: an invalid coefficient regime, or,
    when ``|Delta|`` is below the smallest normal float, an underflow."""


class SweepError(RuntimeError):
    """A sweep point failed; ``sigma`` identifies the failing point."""

    def __init__(self, message: str, sigma: float):
        super().__init__(message)
        self.sigma = sigma


@dataclass(frozen=True)
class StackSpec:
    """An ordered stack of plates with dimensionless gap lengths.

    ``gaps[i]`` is the distance between plates ``i`` and ``i + 1`` in units
    of the reference gap, from ``2**-300`` to ``2**300``.  Sweep slots are
    admitted so the object can serve as a sweep template, but must be bound
    before any energy evaluation.
    """

    plates: Tuple[Material, ...]
    gaps: Tuple[float, ...]

    def __post_init__(self):
        plates = tuple(self.plates)
        gaps = tuple(float(g) for g in self.gaps)
        if len(plates) < 2:
            raise ValueError("a stack needs at least two plates")
        if len(gaps) != len(plates) - 1:
            raise ValueError(
                f"{len(plates)} plates need {len(plates) - 1} gaps, got {len(gaps)}"
            )
        # in this range every route's g**3 and 1/g**3 stay finite and normal,
        # and the exact route's sum stays far from overflow at any N
        if not all(2.0**-300 <= g <= 2.0**300 for g in gaps):
            raise ValueError(
                f"gaps must be positive and finite, from 2**-300 to 2**300, got {gaps}"
            )
        object.__setattr__(self, "plates", plates)
        object.__setattr__(self, "gaps", gaps)

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
    ``err_estimate`` estimates the numerical error of ``ratio``.
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


def _check_route(stack: StackSpec, method: str) -> None:
    """Reject an unknown method, and a stack its route cannot evaluate.

    ``ideal`` needs perfect conductors, at any gaps; ``polylog`` uniform
    gaps.  Config validation applies the same rules to its stacks.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {', '.join(_METHODS)}, got {method!r}")
    if method == "ideal" and not stack.all_ideal:
        raise ValueError("method 'ideal' requires perfect-conductor plates only")
    if method == "polylog" and not stack.uniform:
        raise ValueError("method 'polylog' requires uniform gaps")


def _check_sweep(template: StackSpec, shared: bool, grid: Sequence[float]) -> None:
    """Reject a sweep of ``template`` over ``grid`` that `sweep` cannot run.

    Config validation applies the same rules to its sweeps.
    """
    slots = sum(isinstance(p, SweepSlot) for p in template.plates)
    if slots == 0:
        raise ValueError("a sweep needs a sweep slot ('plate sigma *' in a config)")
    if slots > 1 and not shared:
        raise ValueError(
            f"{slots} sweep slots need one shared conductivity "
            "(shared=True, or 'sweep-shared' in a config)"
        )
    if not grid:
        raise ValueError("sweep needs at least one point")
    for sigma in grid:
        if not math.isfinite(sigma):
            raise ValueError(f"sweep conductivities must be finite, got {sigma!r}")
    if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
        raise ValueError("sweep conductivities must be strictly increasing")
    if grid[0] < 0.0:
        raise ValueError("conductivities are non-negative")


def _coefficient_tables(stack: StackSpec, t: np.ndarray) -> np.ndarray:
    """The amplitudes of every plate at the nodes ``t``, in one table.

    Shape ``(2,) + t.shape[:-1] + (2, t.shape[-1], N)``: ``r``, then
    ``t_coef``; the panels of ``t``; the polarizations TM and TE, next to
    the node axis; the nodes; the plates, last, as `round_trip_matrix`
    takes them.  `coefficients` runs once per polarization and distinct
    plate, on all nodes at once; a plate equal to an earlier one copies its
    columns.
    """
    first = {}
    source = [first.setdefault(plate, i) for i, plate in enumerate(stack.plates)]
    table = np.empty((2,) + t.shape[:-1] + (2, t.shape[-1], len(source)))
    for p, pol in enumerate(Polarization):
        for i, (plate, j) in enumerate(zip(stack.plates, source)):
            table[..., p, :, i] = coefficients(plate, pol, t) if j == i else table[..., p, :, j]
    return table


def _inverse_roots(m: np.ndarray) -> np.ndarray:
    """Inverse roots ``w = 1/x`` of Delta: the eigenvalues of its round-trip matrix.

    ``Delta(x) = det(I - x M) = prod_i (1 - w_i x)`` (see
    `round_trip_matrix`); for a ``(..., n, n)`` stack of them, row ``j``
    of the ``(..., n)`` result holds those of one matrix.  The eigenvalues
    are backward stable in the entries of ``M``, each a sum of at most two
    products of two amplitudes; unlike the roots of Delta multiplied out
    into coefficients, they do not inherit the rounding of those
    coefficients, which spreads the root cluster near ``t -> 0``.
    """
    return np.linalg.eigvals(m)


def _li4_root_sum(w: np.ndarray) -> np.ndarray:
    """Sums of Li4 over the last axis of an array of eigenvalues of real matrices.

    ``w`` has shape ``(..., n)``, each row the eigenvalues of one real
    matrix; returns shape ``(...)``, from one `_li4_array` call.  Non-real
    eigenvalues come in conjugate pairs with conjugate Li4 values, so each
    row adds the real parts of its Li4 values.

    Raises
    ------
    ValueError
        If an eigenvalue lies outside the unit disk, as `li4` refuses it.
    """
    return _li4_array(w).real.sum(axis=-1)


def _polylog_panel(stack: StackSpec, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Node values ``sum_pol sum_i Li4(w_i)`` and their floors at the nodes ``t``.

    ``t`` holds nodes on its last axis, panels on any before it; returns
    the values and the floors, each of ``t``'s shape.  The coefficient table
    holds both polarizations next to the node axis, so one `_inverse_roots`
    call and one `_li4_root_sum` call serve every panel, polarization and
    node.  An opaque plate makes ``M`` block diagonal, with the segments'
    eigenvalues, so it needs no special case.  The floor is the error bound
    of `li4`, once per eigenvalue.  An eigenvalue outside the unit disk (``li4`` refuses
    ``|w| > 1 + 1e-12``) raises `UnitDiskRootError` naming the first node
    that holds one, in the order panel, polarization, node.
    """
    r, t_coef = _coefficient_tables(stack, t)
    w = _inverse_roots(round_trip_matrix(r, t_coef))  # (..., pol, node, N-1)
    try:
        sums = _li4_root_sum(w)
    except ValueError as exc:
        first = np.argmax((np.abs(w) > 1.0 + _OVERSHOOT).any(axis=-1))
        *panel, pol, node = np.unravel_index(first, w.shape[:-1])
        pol = list(Polarization)[pol]
        raise UnitDiskRootError(str(exc), t=float(t[(*panel, node)]), pol=pol) from exc
    values = 0.0 + sums[..., 0, :] + sums[..., 1, :]  # the polarizations in turn
    floors = np.full(t.shape, _LI4_ERROR * (2 * (stack.n_plates - 1)))
    return values, floors


def energy_ratio_polylog(
    stack: StackSpec, spec: Optional[QuadratureSpec] = None
) -> EnergyResult:
    """Energy ratio via per-node eigenvalues and polylogarithms.

    Requires uniform gaps (all equal); a common gap ``g != 1`` only rescales
    the ratio by ``1 / g**3``.  The angle runs in `_integrate_floor`'s
    ``t = x**3``.  The error estimate combines the angular quadrature bound
    with the `li4` error bound of every node.
    """
    _require_bound(stack)
    _check_route(stack, "polylog")
    spec = spec or QuadratureSpec()
    g = stack.gaps[0]
    value, bound = _integrate_floor(lambda t: _polylog_panel(stack, t), spec)
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
    rescaling.  One `delta_total` call serves both polarizations; the first
    ``Delta <= 0``, by polarization, node and frequency, raises `DeltaDomainError`.
    """
    _require_bound(stack)
    spec = spec or QuadratureSpec()
    g_min = min(stack.gaps)
    gaps = tuple(g / g_min for g in stack.gaps)

    def log_delta(t: np.ndarray):
        r, tc = _coefficient_tables(stack, t)  # (pol, k, N) each, k nodes

        def block(rows: np.ndarray, s: np.ndarray) -> np.ndarray:
            # (pol, rows, 1, N) against s of shape (rows, m): one node per row
            d = delta_total(r[:, rows, None], tc[:, rows, None], gaps, s)
            bad = d <= 0.0
            if bad.any():
                pol, i, j = np.unravel_index(np.argmax(bad), bad.shape)
                value = float(d[pol, i, j])
                cause = "invalid coefficient regime"
                if abs(value) < np.finfo(float).tiny:
                    cause = "Delta underflowed below the smallest normal float"
                raise DeltaDomainError(
                    f"Delta = {value!r} at t={float(t[rows[i]])!r}, "
                    f"s={float(s[i, j])!r}: {cause}"
                )
            return np.log(d[0]) + np.log(d[1])  # TM, then TE

        return block

    value, bound = _integrate_2d_bound(log_delta, spec)
    scale = _PREFACTOR_QUAD / g_min**3
    ratio = scale * value
    return EnergyResult(ratio, ratio / stack.n_plates, "quadrature", abs(scale) * bound)


def ideal_stack_ratio(stack: StackSpec) -> Fraction:
    """Exact energy ratio of a stack of perfect conductors, at any gaps.

    Opacity makes the energy pairwise additive: an adjacent pair of equal
    type at gap ``g`` contributes ``1 / g**3``, an opposite pair
    ``-7/8 / g**3``.  The sum is exact in the float gaps: a gap of ``0.1``
    contributes ``1 / Fraction(0.1)**3``, not 1000.
    """
    _require_bound(stack)
    _check_route(stack, "ideal")
    total = Fraction(0)
    for left, right, g in zip(stack.plates[:-1], stack.plates[1:], stack.gaps):
        total += (Fraction(1) if type(left) is type(right) else Fraction(-7, 8)) / Fraction(g) ** 3
    return total


def energy_ratio(
    stack: StackSpec,
    spec: Optional[QuadratureSpec] = None,
    method: str = "auto",
) -> EnergyResult:
    """Energy ratio by the requested route.

    ``auto`` picks the exact route for every stack of perfect conductors, at
    any gaps, exact in the float gaps (see `ideal_stack_ratio`); its
    ``err_estimate`` is 0 where that exact ratio is a float, and one unit in
    the last place of ``ratio`` otherwise.  Other stacks take the polylog
    route for uniform gaps, at any number of plates, kept only when
    its ``err_estimate`` meets ``max(abs_tol, rel_tol * |ratio|)``.  Otherwise, or when that route
    aborts, the quadrature route runs, and of two results the one with the
    smaller estimate is returned.  That fallback is not yet checked against
    the tolerance.
    """
    spec = spec or QuadratureSpec()
    if method == "auto" and stack.all_ideal:
        method = "ideal"
    if method == "polylog":
        return energy_ratio_polylog(stack, spec)
    if method == "quadrature":
        return energy_ratio_quadrature(stack, spec)
    if method == "ideal":
        exact = ideal_stack_ratio(stack)
        ratio = float(exact)
        error = 0.0 if Fraction(ratio) == exact else math.ulp(ratio)  # bounds the rounding
        return EnergyResult(ratio, ratio / stack.n_plates, "ideal", error)
    _check_route(stack, method)  # the routes above check their own; here only "auto" passes
    if stack.uniform:
        try:
            result = energy_ratio_polylog(stack, spec)
        except (PolylogPathError, QuadratureConvergenceError):
            return energy_ratio_quadrature(stack, spec)
        if result.err_estimate <= max(spec.abs_tol, spec.rel_tol * abs(result.ratio)):
            return result
        fallback = energy_ratio_quadrature(stack, spec)
        return fallback if fallback.err_estimate < result.err_estimate else result
    return energy_ratio_quadrature(stack, spec)


def _bind(stack: StackSpec, sigma: float) -> StackSpec:
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
    slots with ``shared=True`` (all bound to the same value).  The grid,
    and the method against the template as `energy_ratio` checks it, are
    refused with ``ValueError`` before any point runs.  Points are
    evaluated independently in grid order; a failure at one point is
    reported with its sigma attached.
    """
    grid = [float(s) for s in sigma_grid]
    _check_sweep(stack_template, shared, grid)
    _check_route(stack_template, method)
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
