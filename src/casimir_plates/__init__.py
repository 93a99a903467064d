"""Casimir interaction energies of stacked delta-function plates.

The package computes the vacuum interaction energy of N parallel plates
described by electric and magnetic delta-function couplings — constant
conductivity sheets (graphene-like), generic two-coupling plates, and
perfect electric or magnetic conductors — normalized to the energy of a
perfectly conducting pair at the reference gap.

Quick start::

    from casimir_plates import (
        ConstantConductivity, SIGMA_GRAPHENE, StackSpec, energy_ratio,
    )

    plate = ConstantConductivity(SIGMA_GRAPHENE)
    stack = StackSpec((plate, plate, plate), gaps=(1.0, 1.0))
    result = energy_ratio(stack)
    print(result.ratio, result.per_plate, result.method)

The ``casimir-plates`` console script exposes the same functionality for
config files and named presets.
"""

from .optics import (
    ALPHA_FS,
    SIGMA_GRAPHENE,
    ConstantConductivity,
    GenericDeltaPlate,
    Material,
    PerfectElectric,
    PerfectMagnetic,
    Polarization,
    SweepSlot,
    Transparent,
    coefficients,
)
from .scattering import (
    NodeCoefficients,
    StackGeometry,
    delta_compositions,
    delta_total,
    round_trip_matrix,
)
from .special import (
    LI4_MINUS_ONE,
    ZETA4,
    QuadratureConvergenceError,
    QuadratureSpec,
    li4,
    s_integral,
)
from .energy import (
    C_LIGHT,
    HBAR,
    DeltaDomainError,
    EnergyResult,
    PolylogPathError,
    StackSpec,
    SweepError,
    SweepPoint,
    UnitDiskRootError,
    absolute_energy,
    energy_ratio,
    energy_ratio_polylog,
    energy_ratio_quadrature,
    ideal_stack_ratio,
    sweep,
)
from .config import (
    ConfigError,
    RunConfig,
    SweepGrid,
    format_config,
    parse_config,
    validate_config,
)
from .presets import PRESET_NAMES, list_presets, preset_configs

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # optics
    "ALPHA_FS",
    "SIGMA_GRAPHENE",
    "ConstantConductivity",
    "GenericDeltaPlate",
    "Material",
    "PerfectElectric",
    "PerfectMagnetic",
    "Polarization",
    "SweepSlot",
    "Transparent",
    "coefficients",
    # scattering
    "NodeCoefficients",
    "StackGeometry",
    "delta_compositions",
    "delta_total",
    "round_trip_matrix",
    # special functions and quadrature
    "LI4_MINUS_ONE",
    "ZETA4",
    "QuadratureConvergenceError",
    "QuadratureSpec",
    "li4",
    "s_integral",
    # energy
    "C_LIGHT",
    "HBAR",
    "DeltaDomainError",
    "EnergyResult",
    "PolylogPathError",
    "StackSpec",
    "SweepError",
    "SweepPoint",
    "UnitDiskRootError",
    "absolute_energy",
    "energy_ratio",
    "energy_ratio_polylog",
    "energy_ratio_quadrature",
    "ideal_stack_ratio",
    "sweep",
    # configuration and presets
    "ConfigError",
    "RunConfig",
    "SweepGrid",
    "format_config",
    "parse_config",
    "validate_config",
    "PRESET_NAMES",
    "list_presets",
    "preset_configs",
]
