"""Workload inputs as plain data, shared by the benchmark and its references.

A plate is a tuple: ``("sigma", s)`` constant conductivity, ``("generic",
lambda_e, lambda_g)``, ``("pe",)``, ``("pm",)`` or ``("transparent",)``.
An operation (one solve) is a dict with an ``id``, its ``plates``, its
``gaps`` and its tolerance ``tol = (rel_tol, abs_tol)``.  Nothing here
imports the package, so the reference script can read the same stacks.
"""

from __future__ import annotations

import math

SIGMA_GRAPHENE = math.pi * (1.0 / 137.035999)
GRAPHENE = ("sigma", SIGMA_GRAPHENE)
PE = ("pe",)
PM = ("pm",)
TRANSPARENT = ("transparent",)

DEFAULT_TOL = (1e-9, 1e-12)  # the library default
CURVE_TOL = (1e-5, 1e-7)  # the figure presets' curve tolerance
STRONG_TOL = (1e-4, 1e-12)
UNEQUAL_TOL = (1e-6, 1e-12)

# Generic two-coupling plates with visibly different electric and magnetic
# response, so both polarizations vary with the angle.
GENERIC_A = ("generic", 1.0, 0.5)
GENERIC_B = ("generic", 3.0, 1.0)
GENERIC_C = ("generic", 0.5, 2.0)

# The CLI figure presets sweep 25 log-spaced conductivities on this grid.
FIGURE_PRESETS = ("fig3-middle", "fig3-edge")
FIGURE_GRID = (0.005, 1000.0, 25)


def _op(op_id, plates, gaps=None, tol=DEFAULT_TOL):
    plates = tuple(plates)
    if gaps is None:
        gaps = (1.0,) * (len(plates) - 1)
    return {"id": op_id, "plates": plates, "gaps": tuple(gaps), "tol": tol}


def _equal_gap_ops():
    ops = [_op(f"graphene-N{n}", (GRAPHENE,) * n) for n in range(2, 7)]
    ops += [
        _op("pe-graphene", (PE, GRAPHENE)),
        _op("pm-graphene", (PM, GRAPHENE)),
        _op("boyer", (PE, PM)),
        _op("generic-N3-gap1", (GENERIC_A, GENERIC_B, GENERIC_C)),
        _op("generic-N3-gap1.5", (GENERIC_A, GENERIC_B, GENERIC_C), (1.5, 1.5)),
        _op("pm-edge-N3", (PM, ("sigma", 2.0), ("sigma", 0.5))),
        _op("pm-edge-N3-mirror", (("sigma", 0.5), ("sigma", 2.0), PM)),
        _op("graphene-N7-curve", (GRAPHENE,) * 7, tol=CURVE_TOL),
    ]
    ops += [
        _op(f"strong-N{n}", (("sigma", 1e6),) * n, tol=STRONG_TOL)
        for n in range(2, 7)
    ]
    return ops


def _unequal_gap_ops():
    pm_edge = (PM, ("sigma", 2.0), ("sigma", 0.5), ("sigma", 1.0))
    return [
        _op("graphene-N3-gaps12", (GRAPHENE,) * 3, (1.0, 2.0), UNEQUAL_TOL),
        _op(
            "generic-mix-N4",
            (GENERIC_A, GENERIC_B, ("sigma", 1.0), GENERIC_C),
            (1.0, 1.5, 0.75),
            UNEQUAL_TOL,
        ),
        _op("graphene-T-graphene", (GRAPHENE, TRANSPARENT, GRAPHENE), (1.0, 2.0), UNEQUAL_TOL),
        _op("graphene-PE-graphene", (GRAPHENE, PE, GRAPHENE), (1.0, 2.0), UNEQUAL_TOL),
        _op("pm-edge-N4", pm_edge, (1.0, 2.0, 1.5), UNEQUAL_TOL),
        _op("pm-edge-N4-mirror", pm_edge[::-1], (1.5, 2.0, 1.0), UNEQUAL_TOL),
    ]


def figure_grid():
    """The presets' conductivity grid, as numpy's geomspace spaces it."""
    import numpy as np

    start, stop, points = FIGURE_GRID
    return [float(v) for v in np.geomspace(start, stop, points)]


def sigma_key(sigma):
    """A grid point as the CLI prints it in the ``sigma`` column."""
    return f"{sigma:.9e}"


def figure_plates(preset, sigma):
    s = ("sigma", sigma)
    return (s, PM, s) if preset == "fig3-middle" else (PM, s, s)


def figure_ops():
    """One operation per CSV row of each figure preset."""
    return [
        _op(f"{preset}@{sigma_key(sigma)}", figure_plates(preset, sigma), tol=CURVE_TOL)
        for preset in FIGURE_PRESETS
        for sigma in figure_grid()
    ]


LIBRARY_WORKLOADS = {
    "equal-gap-stacks": _equal_gap_ops,
    "unequal-gap-stacks": _unequal_gap_ops,
}
WORKLOADS = ("equal-gap-stacks", "unequal-gap-stacks", "figure-sweeps")


def workload_ops(name):
    """The operations of one workload, in definition order."""
    if name == "figure-sweeps":
        return figure_ops()
    return LIBRARY_WORKLOADS[name]()


def to_package(pkg, op):
    """The operation's stack and tolerance as the package's own objects."""
    kinds = {
        "sigma": pkg.ConstantConductivity,
        "generic": pkg.GenericDeltaPlate,
        "pe": pkg.PerfectElectric,
        "pm": pkg.PerfectMagnetic,
        "transparent": pkg.Transparent,
    }
    plates = tuple(kinds[p[0]](*p[1:]) for p in op["plates"])
    rel, abs_ = op["tol"]
    return pkg.StackSpec(plates, op["gaps"]), pkg.QuadratureSpec(rel_tol=rel, abs_tol=abs_)


def qualified(workload, op_id):
    """The key under which the reference file stores an operation."""
    return f"{workload}/{op_id}"
