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

from . import config, energy, optics, presets, scattering, special
from .optics import *
from .scattering import *
from .special import *
from .energy import *
from .config import *
from .presets import *

__version__ = "0.1.0"

# each module's `__all__` is the one list of its public names
__all__ = [
    "__version__",
    *optics.__all__,
    *scattering.__all__,
    *special.__all__,
    *energy.__all__,
    *config.__all__,
    *presets.__all__,
]
