"""End-to-end acceptance checks.

Each test covers one headline claim of the package and prints a single
PASS/FAIL line (visible under `pytest -s` or on failure), with wall-time
budgets where responsiveness is part of the claim.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from casimir_plates.energy import (
    StackSpec,
    energy_ratio,
    energy_ratio_polylog,
    energy_ratio_quadrature,
    ideal_stack_ratio,
    sweep,
)
from casimir_plates.optics import (
    SIGMA_GRAPHENE,
    ConstantConductivity,
    GenericDeltaPlate,
    PerfectElectric,
    PerfectMagnetic,
    SweepSlot,
    Transparent,
)
from casimir_plates.scattering import delta_compositions, delta_total
from casimir_plates.special import (
    LI4_MINUS_ONE,
    ZETA4,
    QuadratureSpec,
    li4,
)

GRAPHENE = ConstantConductivity(SIGMA_GRAPHENE)
PE = PerfectElectric()
PM = PerfectMagnetic()


def uniform_stack(plates, gap=1.0):
    return StackSpec(tuple(plates), (gap,) * (len(plates) - 1))


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name} -- {detail}")
    assert ok, f"{name}: {detail}"


def test_graphene_pair_reference():
    start = time.perf_counter()
    result = energy_ratio(uniform_stack([GRAPHENE, GRAPHENE]))
    elapsed = time.perf_counter() - start
    ok = abs(result.ratio - 0.00538) < 5e-5 and elapsed < 1.0
    report(
        "graphene pair ratio 0.00538 +/- 5e-5 within 1 s",
        ok,
        f"ratio={result.ratio:.6f} elapsed={elapsed:.2f}s",
    )


def test_graphene_stack_family():
    targets = {3: 0.011, 4: 0.017, 5: 0.022, 6: 0.028}
    start = time.perf_counter()
    got = {
        n: energy_ratio(uniform_stack([GRAPHENE] * n)).ratio for n in targets
    }
    elapsed = time.perf_counter() - start
    ok = all(abs(got[n] - targets[n]) < 5e-4 for n in targets) and elapsed < 10.0
    detail = " ".join(f"N={n}:{got[n]:.4f}" for n in targets)
    report(
        "graphene stacks N=3..6 match 0.011/0.017/0.022/0.028 within 10 s",
        ok,
        f"{detail} elapsed={elapsed:.2f}s",
    )


def test_ideal_and_mixed_pair_references():
    boyer = energy_ratio(uniform_stack([PE, PM])).ratio
    pe_g = energy_ratio(uniform_stack([PE, GRAPHENE])).ratio
    pm_g = energy_ratio(uniform_stack([PM, GRAPHENE])).ratio
    ok = (
        abs(boyer + 0.875) < 1e-6
        and abs(pe_g - 0.027) < 5e-4
        and abs(pm_g + 0.026) < 5e-4
    )
    report(
        "conductor/magnetic pair references (-0.875, 0.027, -0.026)",
        ok,
        f"boyer={boyer:.7f} pe+sheet={pe_g:.4f} pm+sheet={pm_g:.4f}",
    )


def test_ideal_multiplate_asymptotics():
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10)
    checks = []
    for n in range(2, 7):
        checks.append(ideal_stack_ratio(uniform_stack([PE] * n)) == n - 1)
        alternating = [PE if i % 2 == 0 else PM for i in range(n)]
        checks.append(
            ideal_stack_ratio(uniform_stack(alternating))
            == Fraction(-7, 8) * (n - 1)
        )
    for n in (2, 3, 4):
        quad = energy_ratio_quadrature(uniform_stack([PE] * n), spec).ratio
        checks.append(abs(quad - (n - 1)) < 1e-6)
    alt3 = energy_ratio_quadrature(uniform_stack([PE, PM, PE]), spec).ratio
    checks.append(abs(alt3 + 7.0 / 4.0) < 1e-6)
    mixed_a = ideal_stack_ratio(uniform_stack([PM, PE, PE, PE])) / 4
    mixed_b = ideal_stack_ratio(uniform_stack([PE, PM, PE, PE])) / 4
    checks.append(float(mixed_a) == 0.28125)
    checks.append(float(mixed_b) == -0.1875)
    ok = all(checks)
    report(
        "ideal stacks: N-1 growth, -(N-1)*7/8 alternating, mixed per-plate values",
        ok,
        f"{sum(checks)}/{len(checks)} identities hold "
        f"(mixed per-plate {float(mixed_a)}, {float(mixed_b)})",
    )


def test_strong_coupling_saturation():
    plate = ConstantConductivity(1e6)
    spec = QuadratureSpec(rel_tol=1e-4, abs_tol=1e-5)
    worst = 0.0
    for n in range(2, 7):
        result = energy_ratio(uniform_stack([plate] * n), spec)
        worst = max(worst, abs(result.per_plate - (n - 1) / n))
    ok = worst < 1e-3
    report(
        "sigma=1e6 per-plate ratio approaches (N-1)/N for N=2..6",
        ok,
        f"max deviation {worst:.2e}",
    )


def _well_conditioned(r, t, gaps, s, cutoff=1e-3):
    big_r = r[-1]
    for k in range(len(r) - 2, -1, -1):
        y = math.exp(-s * gaps[k])
        den = 1.0 - r[k] * big_r * y
        if abs(den) < cutoff:
            return False
        big_r = r[k] + t[k] ** 2 * big_r * y / den
    return True


def test_scattering_oracle_equivalence():
    rng = np.random.default_rng(715)
    instances = 0
    worst = 0.0
    while instances < 1000:
        n = int(rng.integers(2, 9))
        r = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=n))
        t = tuple(float(v) for v in rng.uniform(0.0, 1.0, size=n))
        gaps = tuple(float(v) for v in rng.uniform(0.2, 3.0, size=n - 1))
        s = float(rng.uniform(0.0, 20.0))
        if not _well_conditioned(r, t, gaps, s):
            continue
        instances += 1
        expansion = delta_compositions(r, t, gaps, s)
        recursion = delta_total(r, t, gaps, s)
        scale = max(1.0, abs(expansion))
        worst = max(worst, abs(expansion - recursion) / scale)
        # reversal invariance on the same instance
        reverse = delta_total(r[::-1], t[::-1], gaps[::-1], s)
        worst = max(worst, abs(expansion - reverse) / scale)
        # making an interior plate transparent merges its two gaps
        if n >= 3:
            m = int(rng.integers(1, n - 1))
            clear_r = r[:m] + (0.0,) + r[m + 1 :]
            clear_t = t[:m] + (1.0,) + t[m + 1 :]
            full = delta_total(clear_r, clear_t, gaps, s)
            reduced = delta_total(
                r[:m] + r[m + 1 :],
                t[:m] + t[m + 1 :],
                gaps[: m - 1] + (gaps[m - 1] + gaps[m],) + gaps[m + 1 :],
                s,
            )
            scale2 = max(1.0, abs(full))
            worst = max(worst, abs(full - reduced) / scale2)
    ok = worst <= 1e-12
    report(
        "composition sum == dressed-mirror recursion on 1000 random stacks",
        ok,
        f"worst relative deviation {worst:.2e} (incl. reversal/transparency)",
    )


def _random_material(rng):
    kind = rng.integers(0, 10)
    if kind < 5:
        return ConstantConductivity(float(rng.uniform(0.02, 30.0)))
    if kind < 7:
        return GenericDeltaPlate(
            float(rng.uniform(0.0, 8.0)), float(rng.uniform(0.0, 8.0))
        )
    if kind == 7:
        return PerfectElectric()
    if kind == 8:
        return PerfectMagnetic()
    return Transparent()


def test_route_agreement():
    rng = np.random.default_rng(20250825)
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        stack = uniform_stack(
            [_random_material(rng) for _ in range(n)],
            gap=float(rng.uniform(0.6, 1.8)),
        )
        a = energy_ratio_polylog(stack, spec).ratio
        b = energy_ratio_quadrature(stack, spec).ratio
        worst = max(worst, abs(a - b))
    ok = worst <= 1e-6
    report(
        "polylog and 2-D quadrature routes agree on 50 random stacks",
        ok,
        f"worst absolute gap {worst:.2e}",
    )


def test_special_function_identities():
    checks = [li4(1.0) == ZETA4, li4(-1.0) == LI4_MINUS_ONE]
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        c = float(rng.uniform(-1.0, 1.0))
        direct, _ = scipy.integrate.quad(
            lambda s: s * s * math.log1p(-c * math.exp(-s)),
            0.0,
            60.0,
            limit=200,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        worst = max(worst, abs(-2.0 * li4(c) - direct))
    checks.append(worst <= 1e-9)
    ok = all(checks)
    report(
        "li4(+/-1) exact and s-weighted log integral matches direct quadrature",
        ok,
        f"endpoint identities {checks[0]}/{checks[1]}, worst gap {worst:.2e}",
    )


def test_magnetic_mixture_sign_structure():
    spec = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-6)
    grid = list(np.geomspace(1e-2, 1e3, 20))
    start = time.perf_counter()
    flanked = sweep(
        StackSpec((SweepSlot(), PM, SweepSlot()), (1.0, 1.0)),
        grid,
        shared=True,
        spec=spec,
    )
    edge = sweep(
        StackSpec((PM, SweepSlot(), SweepSlot()), (1.0, 1.0)),
        grid,
        shared=True,
        spec=spec,
    )
    elapsed = time.perf_counter() - start
    all_repulsive = all(p.result.ratio < 0 for p in flanked)
    signs = [p.result.ratio > 0 for p in edge]
    crossing = (not signs[0]) and signs[-1]
    ok = all_repulsive and crossing and elapsed < 30.0
    report(
        "magnetic plate between sheets stays repulsive; at the edge the "
        "sign flips with conductivity",
        ok,
        f"repulsive={all_repulsive} crossing={crossing} elapsed={elapsed:.1f}s",
    )
