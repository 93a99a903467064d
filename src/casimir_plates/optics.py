"""Plate materials and their reflection/transmission coefficients.

Every plate is an infinitesimally thin sheet whose electromagnetic response
is characterized either by a dimensionless constant conductivity ``sigma``
(graphene-like), by a pair of dimensionless delta-potential strengths
``lambda_e``/``lambda_g`` (electric / magnetic response), or by an exact
ideal limit (perfect electric or perfect magnetic conductor).

The amplitudes are evaluated on the Euclidean frequency axis at angular
nodes ``t = zeta/kappa`` in [0, 1], the cosine of the polar angle in the
(frequency, transverse-momentum) plane.  `coefficients` takes one node or
an array of them and returns arrays shaped like ``t``; both evaluation
routes call it once per distinct plate and polarization with all nodes of
a round of the angular integral, so the material dispatch runs once per
round rather than once per node, and equal plates share one call.  All
quantities are in Heaviside-Lorentz natural units and dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple, Union

import numpy as np

__all__ = [
    "ALPHA_FS",
    "SIGMA_GRAPHENE",
    "Polarization",
    "ConstantConductivity",
    "GenericDeltaPlate",
    "PerfectElectric",
    "PerfectMagnetic",
    "Transparent",
    "SweepSlot",
    "Material",
    "coefficients",
]

#: Fine-structure constant (CODATA-style inverse value used throughout).
ALPHA_FS = 1.0 / 137.035999

#: Universal constant conductivity of a graphene sheet, sigma = pi * alpha.
SIGMA_GRAPHENE = math.pi * ALPHA_FS


class Polarization(Enum):
    """Electromagnetic mode: transverse magnetic or transverse electric."""

    TM = "TM"
    TE = "TE"


@dataclass(frozen=True)
class ConstantConductivity:
    """Plate with frequency-independent sheet conductivity sigma >= 0.

    The TM reflection is ``sigma / (sigma + 2 t)`` and the TE reflection is
    ``-sigma t / (sigma t + 2)``; transmissions follow from ``t = 1 - r``
    (TM) and ``t = 1 + r`` (TE).
    """

    sigma: float

    def __post_init__(self):
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        object.__setattr__(self, "sigma", float(self.sigma) + 0.0)  # a float; -0.0 becomes 0.0


@dataclass(frozen=True)
class GenericDeltaPlate:
    """Plate described by dimensionless delta-potential strengths.

    Parameters
    ----------
    lambda_e : float
        Electric response strength (kappa-scaled), >= 0.
    lambda_g : float
        Magnetic response strength (kappa-scaled), >= 0.

    Notes
    -----
    The TM coefficients are

    .. math::

        r = \\frac{\\Lambda_e}{\\Lambda_e + 2}
            - \\frac{\\Lambda_g t^2}{\\Lambda_g t^2 + 2},
        \\qquad
        t_{\\mathrm{coef}} = 1 - \\frac{\\Lambda_e}{\\Lambda_e + 2}
            - \\frac{\\Lambda_g t^2}{\\Lambda_g t^2 + 2},

    and the TE ones follow by swapping the two strengths.  For a plate with
    both strengths large the transmission can become negative; only ``t**2``
    ever enters the scattering expansion, and ``|r| <= 1``, ``|t| <= 1``
    hold for all admissible strengths.
    """

    lambda_e: float
    lambda_g: float

    def __post_init__(self):
        for name in ("lambda_e", "lambda_g"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, float(v) + 0.0)  # a float; -0.0 becomes 0.0


@dataclass(frozen=True)
class PerfectElectric:
    """Perfectly conducting (infinite electric response) plate: r_TM = +1."""


@dataclass(frozen=True)
class PerfectMagnetic:
    """Infinitely permeable plate: r_TM = -1, r_TE = +1."""


@dataclass(frozen=True)
class Transparent:
    """Absent plate: reflects nothing, transmits everything."""


@dataclass(frozen=True)
class SweepSlot:
    """Placeholder for a conductivity value supplied later by a sweep.

    Evaluating coefficients on an unbound slot is an error; the sweep
    machinery replaces slots with ``ConstantConductivity`` instances before
    any energy evaluation.
    """


Material = Union[
    ConstantConductivity,
    GenericDeltaPlate,
    PerfectElectric,
    PerfectMagnetic,
    Transparent,
    SweepSlot,
]

# Ideal-limit coefficients are exact by construction.  TM sign convention:
# perfect electric reflects with +1, perfect magnetic with -1; TE negates.
_IDEAL_R = {
    (PerfectElectric, Polarization.TM): 1.0,
    (PerfectElectric, Polarization.TE): -1.0,
    (PerfectMagnetic, Polarization.TM): -1.0,
    (PerfectMagnetic, Polarization.TE): 1.0,
}


def coefficients(m: Material, pol: Polarization, t) -> Tuple[np.ndarray, np.ndarray]:
    """Reflection and transmission amplitudes of plate ``m`` at angular nodes.

    Parameters
    ----------
    m : Material
    pol : Polarization
    t : float or array_like
        Angular nodes ``t = zeta/kappa``, each in [0, 1].

    Returns
    -------
    (r, t_coef) : pair of ndarray
        Shaped like ``t``, each amplitude dimensionless and in [-1, 1].
    """
    t = np.asarray(t, float)
    inside = (0.0 <= t) & (t <= 1.0)  # false for NaN
    if not np.all(inside):
        bad = float(t[~inside].flat[0])
        raise ValueError(f"angular node t must lie in [0, 1], got {bad!r}")
    if isinstance(m, ConstantConductivity):
        sigma = m.sigma
        if pol is Polarization.TE:
            r = -sigma * t / (sigma * t + 2.0)
            return r, 1.0 + r
        # the t = 0 limit of the TM reflection is 1 for any positive sigma
        r = sigma / (sigma + 2.0 * t) if sigma != 0.0 else np.zeros(t.shape)
        return r, 1.0 - r
    if isinstance(m, GenericDeltaPlate):
        lam_e, lam_g = m.lambda_e, m.lambda_g
        if pol is Polarization.TE:
            lam_e, lam_g = lam_g, lam_e
        # the infinite electric limit belongs to the ideal material classes
        e_term = lam_e / (lam_e + 2.0)
        g_term = lam_g * t * t / (lam_g * t * t + 2.0)
        return e_term - g_term, 1.0 - e_term - g_term
    if isinstance(m, (PerfectElectric, PerfectMagnetic)):
        return np.full(t.shape, _IDEAL_R[(type(m), pol)]), np.zeros(t.shape)
    if isinstance(m, Transparent):
        return np.zeros(t.shape), np.ones(t.shape)
    if isinstance(m, SweepSlot):
        raise TypeError("sweep slot is not bound to a conductivity value")
    raise TypeError(f"unsupported material: {m!r}")
