"""Recompute the reference ratio of every value-checked solve, apart from the package.

Usage, from the root of the repository::

    python3 perfbench/references.py            # writes perfbench/references.json

Nothing here imports ``casimir_plates``.  Two independent routes are used:

* pairs: the 1-D integral ``45/pi^4 / g^3 * int_0^1 sum_pol Li4(r r') dt``,
  evaluated with mpmath's ``quad`` and ``polylog`` at 30 digits;
* larger stacks: ``-45/(2 pi^4) int_0^1 dt int_0^inf s^2 sum_pol ln Delta ds``
  by nested ``scipy.integrate.quad``, with ``Delta`` from the dressed-mirror
  recursion written below (each gap ``g`` carries the round trip
  ``exp(-s g)``).

Each reference carries its own uncertainty: the integrators' error
estimates, scaled by the prefactor.  The paper's published values are
checked as loose anchors, and the run fails if any of them is missed.
Needs scipy and mpmath; the benchmark itself needs only numpy.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import mpmath as mp
import numpy as np
from scipy.integrate import quad

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stacks  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# Loose anchors: the paper's quoted values and exact ideal limits.
ANCHORS = {
    "equal-gap-stacks/graphene-N2": (0.00538, 5e-6),
    "equal-gap-stacks/graphene-N3": (0.011, 5e-4),
    "equal-gap-stacks/graphene-N4": (0.017, 5e-4),
    "equal-gap-stacks/graphene-N5": (0.022, 5e-4),
    "equal-gap-stacks/graphene-N6": (0.028, 5e-4),
    "equal-gap-stacks/boyer": (-0.875, 0.0),
    "equal-gap-stacks/pe-graphene": (0.027, 5e-4),
    "equal-gap-stacks/pm-graphene": (-0.026, 5e-4),
}


# -- reflection and transmission, TM then TE, at angular node t ------------


def plate_rt(plate, tm, t):
    kind = plate[0]
    if kind == "sigma":
        s = plate[1]
        if tm:
            r = s / (s + 2.0 * t) if s > 0.0 else 0.0
            return r, 1.0 - r
        r = -s * t / (s * t + 2.0)
        return r, 1.0 + r
    if kind == "generic":
        le, lg = plate[1], plate[2]
        if not tm:
            le, lg = lg, le
        e = le / (le + 2.0)
        g = lg * t * t / (lg * t * t + 2.0)
        return e - g, 1.0 - e - g
    if kind == "pe":
        return (1.0 if tm else -1.0), 0.0
    if kind == "pm":
        return (-1.0 if tm else 1.0), 0.0
    if kind == "transparent":
        return 0.0, 1.0
    raise ValueError(f"unknown plate {plate!r}")


def plate_r_mp(plate, tm, t):
    """The same reflection in mpmath arithmetic, for the pair integral."""
    kind = plate[0]
    if kind == "sigma":
        s = mp.mpf(plate[1])
        if tm:
            return s / (s + 2 * t)
        return -s * t / (s * t + 2)
    if kind == "generic":
        le, lg = mp.mpf(plate[1]), mp.mpf(plate[2])
        if not tm:
            le, lg = lg, le
        return le / (le + 2) - lg * t * t / (lg * t * t + 2)
    if kind == "pe":
        return mp.mpf(1 if tm else -1)
    if kind == "pm":
        return mp.mpf(-1 if tm else 1)
    if kind == "transparent":
        return mp.mpf(0)
    raise ValueError(f"unknown plate {plate!r}")


def angular_breaks(plates):
    """Angles where some reflection turns over; split the t integral there."""
    pts = set()
    for p in plates:
        if p[0] == "sigma" and p[1] > 0.0:
            pts.update((p[1] / 2.0, 2.0 / p[1]))
        elif p[0] == "generic" and p[2] > 0.0:
            pts.add(math.sqrt(2.0 / p[2]))
    return sorted(x for x in pts if 1e-9 < x < 1.0)


# -- references --------------------------------------------------------------


def pair_ratio(plates, gap):
    """Pair ratio from the 1-D Li4 integral, with its error estimate."""
    a, b = plates
    mp.mp.dps = 30

    def f(t):
        return sum(
            mp.polylog(4, plate_r_mp(a, tm, t) * plate_r_mp(b, tm, t))
            for tm in (True, False)
        )

    pts = [mp.mpf(0)] + [mp.mpf(x) for x in angular_breaks(plates)] + [mp.mpf(1)]
    value, err = mp.quad(f, pts, error=True, maxdegree=10)
    scale = 45 / mp.pi**4 / mp.mpf(gap) ** 3
    ratio = float(scale * value)
    unc = float(abs(scale) * err) + 4.0 * np.finfo(float).eps * abs(ratio)
    return ratio, float(unc)


def log_delta(coeffs, gaps, s):
    """ln Delta for one polarization by the dressed-mirror recursion."""
    r, tc = coeffs
    dressed = r[-1]
    total = 0.0
    for k in range(len(gaps) - 1, -1, -1):
        y = math.exp(-s * gaps[k])
        x = r[k] * dressed * y
        total += math.log1p(-x)
        dressed = r[k] + tc[k] * tc[k] * dressed * y / (1.0 - x)
    return total


def stack_ratio(plates, gaps, epsabs):
    """Stack ratio by nested 2-D quadrature of s^2 ln Delta."""
    inner_err = [0.0]

    def inner(t):
        pols = []
        for tm in (True, False):
            rt = [plate_rt(p, tm, t) for p in plates]
            pols.append(([v[0] for v in rt], [v[1] for v in rt]))

        def h(s):
            return s * s * (log_delta(pols[0], gaps, s) + log_delta(pols[1], gaps, s))

        value, err = quad(h, 0.0, np.inf, epsabs=0.1 * epsabs, epsrel=1e-13, limit=400)
        inner_err[0] = max(inner_err[0], err)
        return value

    value, err = quad(
        inner,
        0.0,
        1.0,
        points=angular_breaks(plates) or None,
        epsabs=epsabs,
        epsrel=1e-13,
        limit=400,
    )
    scale = -45.0 / (2.0 * math.pi**4)
    ratio = scale * value
    unc = abs(scale) * (err + inner_err[0]) + 4.0 * np.finfo(float).eps * abs(ratio)
    return ratio, float(unc)


def exact_ratio(plates, gaps):
    """Exact ratio of a stack of ideal plates: pairs add up, scaled by 1/g^3."""
    total = 0.0
    for a, b, g in zip(plates[:-1], plates[1:], gaps):
        total += (1.0 if a == b else -7.0 / 8.0) / g**3
    return total, 0.0


def reference(op):
    plates, gaps, (rel, abs_) = op["plates"], op["gaps"], op["tol"]
    if all(p[0] in ("pe", "pm") for p in plates):
        return exact_ratio(plates, gaps), "exact"
    if len(plates) == 2:
        return pair_ratio(plates, gaps[0]), "mpmath-pair"
    if op["id"].startswith("fig3-middle@"):
        # the magnetic middle plate is opaque: two independent pairs
        left, left_unc = pair_ratio(plates[:2], gaps[0])
        right, right_unc = pair_ratio(plates[1:], gaps[1])
        return (left + right, left_unc + right_unc), "mpmath-pairs"
    # aim well inside the tolerance the solve is checked against
    epsabs = max(1e-3 * abs_, 1e-14)
    if rel >= 1e-6:
        epsabs = max(epsabs, 1e-11)
    return stack_ratio(plates, gaps, epsabs), "scipy-2d"


def main():
    refs = {}
    for name in stacks.WORKLOADS:
        for op in stacks.workload_ops(name):
            key = stacks.qualified(name, op["id"])
            t0 = time.perf_counter()
            (ratio, unc), how = reference(op)
            refs[key] = {"ratio": ratio, "unc": unc, "how": how}
            print(f"{key:48s} {ratio:+.13e} +- {unc:.2e}  {how}  "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
    missed = [k for k, (value, slack) in ANCHORS.items() if abs(refs[k]["ratio"] - value) > slack]
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"anchors": {k: v[0] for k, v in ANCHORS.items()}, "references": refs},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    if missed:
        print(f"anchors missed: {missed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
