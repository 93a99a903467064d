"""Named run scenarios.

A preset expands to one or more `RunConfig` objects; multi-config presets
(the figure curves) share a conductivity grid so their CSV blocks line up
row for row.  Figure presets use relaxed tolerances: curve data does not
need the library's default nine-digit certification.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Tuple

from .config import RunConfig, SweepGrid
from .optics import (
    ConstantConductivity,
    PerfectElectric,
    PerfectMagnetic,
    SweepSlot,
    SIGMA_GRAPHENE,
)

__all__ = ["PRESET_NAMES", "preset_configs", "list_presets"]

_GRAPHENE = ConstantConductivity(SIGMA_GRAPHENE)
_PE = PerfectElectric()
_PM = PerfectMagnetic()

# Per-plate curves share one conductivity grid, wide enough to show both
# the weak (linear in sigma) and the strong (ideal-asymptote) ends, and
# one shared slot value per point.
_CURVE = {
    "sweep_grid": SweepGrid("log", 0.005, 1000.0, 25),
    "sweep_shared": True,
    "rel_tol": 1e-5,
    "abs_tol": 1e-7,
}


def _magnetic_mix(n: int, pm_index: int, label: str) -> List[RunConfig]:
    plates = [SweepSlot()] * n
    plates[pm_index] = _PM
    return [RunConfig(tuple(plates), label=label, **_CURVE)]


# name -> (description, builder), in listing order
_PRESETS: Dict[str, Tuple[str, Callable[[], List[RunConfig]]]] = {
    "graphene-pair": (
        "two constant-conductivity plates at the graphene value",
        lambda: [RunConfig((_GRAPHENE, _GRAPHENE), label="graphene-pair")],
    ),
    **{
        f"graphene-stack-{n}": (
            f"N={n} graphene sheets at unit gaps",
            lambda n=n: [RunConfig((_GRAPHENE,) * n, label=f"graphene-stack-{n}")],
        )
        for n in range(2, 7)
    },
    "boyer-pair": (
        "perfect electric vs perfect magnetic conductor",
        lambda: [RunConfig((_PE, _PM), label="boyer-pair")],
    ),
    "pe-graphene": (
        "perfect electric conductor plus graphene plate",
        lambda: [RunConfig((_PE, _GRAPHENE), label="pe-graphene")],
    ),
    "pm-graphene": (
        "perfect magnetic conductor plus graphene plate",
        lambda: [RunConfig((_PM, _GRAPHENE), label="pm-graphene")],
    ),
    "fig2": (
        "per-plate ratio vs sigma for N identical sheets at unit gaps, N=2..6",
        lambda: [
            RunConfig((SweepSlot(),) * n, label=f"sweep-N{n}", **_CURVE) for n in range(2, 7)
        ],
    ),
    **{
        f"fig{n}-{where}": (
            f"N={n}, magnetic conductor {place}, sigma sweep",
            partial(_magnetic_mix, n, i, f"fig{n}-{where}"),
        )
        for n in range(3, 7)
        for where, i, place in (
            ("edge", 0, "at the edge"),
            ("middle", 1, "in the middle" if n == 3 else "second from the edge"),
        )
    },
    "ideal-asymptotes": (
        "exact per-plate ratios for perfect-conductor stacks",
        lambda: [
            RunConfig((_PE,) * n, method="ideal", label=f"ideal-N{n}") for n in range(2, 11)
        ],
    ),
}

PRESET_NAMES = tuple(_PRESETS)


def preset_configs(name: str) -> List[RunConfig]:
    """Configs for a preset name; raises `KeyError` for unknown names."""
    try:
        _, builder = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    return builder()


def list_presets() -> str:
    """Human-readable listing, one preset per line."""
    width = max(len(n) for n in PRESET_NAMES)
    return "\n".join(f"{n:<{width}}  {_PRESETS[n][0]}" for n in PRESET_NAMES)
