"""Energy ratios: reference values, route cross-checks, and invariants.

Reference numbers were frozen from high-precision evaluations (mpmath
node sums and independent 2-D quadrature) that agree with the package to
the stated tolerances.
"""

import cmath
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from casimir_plates.energy import (
    DeltaDomainError,
    EnergyResult,
    PolylogPathError,
    StackSpec,
    SweepError,
    UnitDiskRootError,
    _inverse_roots,
    _li4_root_sum,
    absolute_energy,
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
    Polarization,
    SweepSlot,
    Transparent,
    coefficients,
)
from casimir_plates.scattering import round_trip_matrix
from casimir_plates.special import QuadratureSpec, _integrate_many, _li4_array, li4

GRAPHENE = ConstantConductivity(SIGMA_GRAPHENE)
PE = PerfectElectric()
PM = PerfectMagnetic()

# graphene-stack ratios, frozen from 60-digit node-sum evaluations
GRAPHENE_RATIOS = {
    2: 0.005383322874,
    3: 0.010999557906,
    4: 0.016658419044,
    5: 0.022330307141,
    6: 0.028007412696,
}


def integrate_1d(g, spec, start=(0.0, 1.0)):
    """``int_0^1 g(x) dx`` and its bound on the plain driver (no change of
    variable), from the panels between the breakpoints ``start``; ``g``
    takes one panel's nodes and returns values and floors."""

    def one_per_panel(rows, x):
        pairs = [g(xi) for xi in x]
        return np.array([v for v, _ in pairs]), np.array([fl for _, fl in pairs])

    values, bounds = _integrate_many(one_per_panel, 1, spec, start)
    return float(values[0]), float(bounds[0])


def integrate_t(f):
    """``int_0^1 f(t) dt`` of a scalar callable, one call per node."""
    g = lambda x: (np.array([f(t) for t in x]), np.zeros(x.shape))
    return integrate_1d(g, QuadratureSpec())[0]


def uniform_stack(plates, gap=1.0):
    return StackSpec(tuple(plates), (gap,) * (len(plates) - 1))


@pytest.fixture
def delta_evaluations(monkeypatch):
    """A function that solves a stack by quadrature and returns how many
    Delta values the solve evaluated, both polarizations counted."""
    import casimir_plates.energy as energy_mod

    real_delta = energy_mod.delta_total
    evaluations = [0]

    def counted_delta(r, t, gaps, s):
        d = real_delta(r, t, gaps, s)
        evaluations[0] += d.size
        return d

    monkeypatch.setattr(energy_mod, "delta_total", counted_delta)

    def solve(stack, spec):
        evaluations[0] = 0
        energy_ratio(stack, spec, method="quadrature")
        return evaluations[0]

    return solve


class TestReferenceValues:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_graphene_stacks_polylog(self, n):
        result = energy_ratio_polylog(uniform_stack([GRAPHENE] * n))
        assert result.ratio == pytest.approx(GRAPHENE_RATIOS[n], abs=1e-8)
        assert result.err_estimate < 1e-8

    def test_graphene_six_plates(self):
        result = energy_ratio_polylog(uniform_stack([GRAPHENE] * 6))
        assert result.ratio == pytest.approx(GRAPHENE_RATIOS[6], abs=1e-10)
        assert result.err_estimate < 1e-8

    def test_graphene_pair_quadrature(self):
        result = energy_ratio_quadrature(uniform_stack([GRAPHENE, GRAPHENE]))
        assert result.ratio == pytest.approx(GRAPHENE_RATIOS[2], abs=1e-8)

    def test_perfect_electric_plus_graphene(self):
        result = energy_ratio(uniform_stack([PE, GRAPHENE]))
        assert result.ratio == pytest.approx(0.026723107102, abs=1e-8)

    def test_perfect_magnetic_plus_graphene(self):
        result = energy_ratio(uniform_stack([PM, GRAPHENE]))
        assert result.ratio == pytest.approx(-0.026050191743, abs=1e-8)

    def test_boyer_pair_all_routes(self):
        stack = uniform_stack([PE, PM])
        assert ideal_stack_ratio(stack) == Fraction(-7, 8)
        assert energy_ratio(stack).ratio == -0.875  # exact rational route
        assert energy_ratio_polylog(stack).ratio == pytest.approx(-0.875, abs=1e-12)
        assert energy_ratio_quadrature(stack).ratio == pytest.approx(-0.875, abs=1e-8)

    def test_conducting_pair_normalization(self):
        stack = uniform_stack([PE, PE])
        assert energy_ratio_quadrature(stack).ratio == pytest.approx(1.0, abs=1e-8)


class TestClosedFormStructure:
    def test_pair_node_is_polylog_of_squared_reflections(self):
        sigma = 0.8
        plate = ConstantConductivity(sigma)

        def node(t):
            total = 0.0
            for pol in Polarization:
                r = coefficients(plate, pol, t)[0]
                total += li4(r * r)
            return total

        expected = 45.0 / math.pi**4 * integrate_t(node)
        result = energy_ratio_polylog(uniform_stack([plate, plate]))
        assert result.ratio == pytest.approx(expected, rel=1e-12)

    def test_three_plates_node_matches_quadratic_roots(self):
        sigma = 1.7
        plate = ConstantConductivity(sigma)

        def node(t):
            total = 0.0 + 0.0j
            for pol in Polarization:
                r, t_coef = coefficients(plate, pol, t)
                a = -2.0 * r * r
                b = r**4 - r**2 * t_coef**2
                root = cmath.sqrt(a * a - 4.0 * b)
                total += li4((-a + root) / 2.0) + li4((-a - root) / 2.0)
            return total.real

        expected = 45.0 / math.pi**4 * integrate_t(node)
        result = energy_ratio_polylog(uniform_stack([plate] * 3))
        assert result.ratio == pytest.approx(expected, rel=1e-10)


# all-ideal stacks at gaps other than 1, each with its exact ratio sum c_k / g_k**3
IDEAL_AT_GAPS = {
    "PE-PE-PE-gaps-1-2": ((PE, PE, PE), (1.0, 2.0), 1 + Fraction(1, 8)),
    "PE-PM-PE-gaps-1.5-0.5": ((PE, PM, PE), (1.5, 0.5), Fraction(-7, 8) * (Fraction(8, 27) + 8)),
    "PM-PM-PE-PE-gaps-0.75-1-2": (
        (PM, PM, PE, PE), (0.75, 1.0, 2.0), Fraction(64, 27) - Fraction(7, 8) + Fraction(1, 8)
    ),
    "PE-PE-gap-3": ((PE, PE), (3.0,), Fraction(1, 27)),
    # the float nearest 1/10, so not 1000
    "PE-PE-gap-0.1": ((PE, PE), (0.1,), 1 / Fraction(0.1) ** 3),
}


class TestIdealStacks:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_all_conductors(self, n):
        assert ideal_stack_ratio(uniform_stack([PE] * n)) == n - 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_alternating(self, n):
        plates = [PE if i % 2 == 0 else PM for i in range(n)]
        assert ideal_stack_ratio(uniform_stack(plates)) == Fraction(-7, 8) * (n - 1)

    def test_mixed_four_plate_per_plate_values(self):
        a = ideal_stack_ratio(uniform_stack([PM, PE, PE, PE]))
        assert a / 4 == Fraction(9, 32)
        assert float(a / 4) == 0.28125
        b = ideal_stack_ratio(uniform_stack([PE, PM, PE, PE]))
        assert b / 4 == Fraction(-3, 16)
        assert float(b / 4) == -0.1875

    def test_rejects_non_ideal(self):
        with pytest.raises(ValueError):
            ideal_stack_ratio(uniform_stack([PE, GRAPHENE]))

    @pytest.mark.parametrize("plates, gaps, exact", IDEAL_AT_GAPS.values(), ids=IDEAL_AT_GAPS)
    def test_auto_is_exact_at_any_gaps(self, plates, gaps, exact):
        stack = StackSpec(plates, gaps)
        assert ideal_stack_ratio(stack) == exact
        result = energy_ratio(stack)
        assert result.method == "ideal"
        assert abs(Fraction(result.ratio) - exact) <= Fraction(result.err_estimate)
        # no error where the exact ratio is a float, as 9/8 is
        assert (result.err_estimate == 0.0) == (Fraction(result.ratio) == exact)

    def test_quadrature_agrees_with_exact_ratios(self):
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10)
        cases = [
            ((PE, PE, PE), (1.0, 1.0), Fraction(2)),
            ((PE, PM, PE), (1.0, 1.0), Fraction(-7, 4)),
            ((PM, PM, PE, PE), (1.0, 1.0, 1.0), Fraction(2) - Fraction(7, 8)),
            *IDEAL_AT_GAPS.values(),
        ]
        for plates, gaps, exact in cases:
            result = energy_ratio_quadrature(StackSpec(plates, gaps), spec)
            assert abs(Fraction(result.ratio) - exact) <= Fraction(result.err_estimate)

    def test_polylog_on_ideal_stacks(self):
        result = energy_ratio_polylog(uniform_stack([PE, PM, PE, PM, PE]))
        assert result.ratio == pytest.approx(float(Fraction(-7, 8) * 4), abs=1e-12)
        assert result.err_estimate < 1e-12


# a grid for TestPathAgreement's check of the quadrature route against the
# polylog route at (1e-12, 1e-15), which shares no inner integral with it
GRID_STACKS = {
    **{
        f"sigma{sigma:g}-N{n}": uniform_stack([ConstantConductivity(sigma)] * n)
        for sigma in (1e-3, 1.0, 1e3, 1e6)
        for n in (2, 8, 16)
    },
    "PM-sigma2-sigma0.5": uniform_stack([PM, ConstantConductivity(2.0), ConstantConductivity(0.5)]),
    "PE-generic-T-PM-gap1.5": uniform_stack(
        [PE, GenericDeltaPlate(3.0, 1.0), Transparent(), PM], gap=1.5
    ),
    "generic-N3": uniform_stack(
        [GenericDeltaPlate(1.0, 0.5), GenericDeltaPlate(3.0, 1.0), GenericDeltaPlate(0.5, 2.0)]
    ),
    "PE-PM": uniform_stack([PE, PM]),
    "PE-N4": uniform_stack([PE] * 4),
}
GRID_SPECS = {"default": QuadratureSpec(), "curve": QuadratureSpec(1e-5, 1e-7)}
WEAK_N16 = ("sigma0.001-N16", "default")  # a test of its own


class TestPathAgreement:
    def _random_material(self, rng):
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

    def test_random_uniform_stacks(self):
        rng = np.random.default_rng(20250826)
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            plates = [self._random_material(rng) for _ in range(n)]
            gap = float(rng.uniform(0.6, 1.8))
            stack = uniform_stack(plates, gap)
            a = energy_ratio_polylog(stack, spec)
            b = energy_ratio_quadrature(stack, spec)
            assert abs(a.ratio - b.ratio) <= a.err_estimate + b.err_estimate

    def assert_quadrature_covers_fine_polylog(self, stack, spec):
        fine = energy_ratio_polylog(stack, QuadratureSpec(1e-12, 1e-15))
        result = energy_ratio_quadrature(stack, spec)
        assert abs(result.ratio - fine.ratio) <= result.err_estimate + fine.err_estimate

    @pytest.mark.parametrize(
        "stack, spec",
        [
            pytest.param(stack, spec, id=f"{name}-{spec_name}")
            for name, stack in GRID_STACKS.items()
            for spec_name, spec in GRID_SPECS.items()
            if (name, spec_name) != WEAK_N16
        ],
    )
    def test_quadrature_covers_fine_polylog(self, stack, spec):
        self.assert_quadrature_covers_fine_polylog(stack, spec)

    def test_weak_sheets_n16_at_the_default_spec(self):
        # the slowest case of the grid, seconds long and near the subdivision
        # budget; in e^-s = x**3 it ran out of subdivisions
        name, spec_name = WEAK_N16
        self.assert_quadrature_covers_fine_polylog(GRID_STACKS[name], GRID_SPECS[spec_name])


class TestStructuralInvariants:
    def test_reversal_uniform(self):
        plates = [GRAPHENE, PM, ConstantConductivity(2.0), PE]
        fwd = energy_ratio_polylog(uniform_stack(plates))
        rev = energy_ratio_polylog(uniform_stack(plates[::-1]))
        assert fwd.ratio == pytest.approx(rev.ratio, abs=1e-8)

    def test_reversal_non_uniform(self):
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10)
        plates = (ConstantConductivity(0.7), PE, ConstantConductivity(5.0))
        gaps = (0.8, 1.9)
        fwd = energy_ratio_quadrature(StackSpec(plates, gaps), spec)
        rev = energy_ratio_quadrature(StackSpec(plates[::-1], gaps[::-1]), spec)
        assert fwd.ratio == pytest.approx(rev.ratio, abs=1e-8)

    def test_gap_rescaling_cubes(self):
        pair = uniform_stack([GRAPHENE, GRAPHENE])
        wide = uniform_stack([GRAPHENE, GRAPHENE], gap=2.0)
        assert energy_ratio(wide).ratio == pytest.approx(
            energy_ratio(pair).ratio / 8.0, rel=1e-10
        )

    def test_opaque_middle_splits_energy(self):
        left = energy_ratio(uniform_stack([GRAPHENE, PE])).ratio
        right = energy_ratio(uniform_stack([PE, ConstantConductivity(3.0)])).ratio
        total = energy_ratio(
            uniform_stack([GRAPHENE, PE, ConstantConductivity(3.0)])
        ).ratio
        assert total == pytest.approx(left + right, abs=1e-8)

    @pytest.mark.parametrize(
        "segments",
        [
            ((GRAPHENE, PE), (PE, GRAPHENE, GRAPHENE)),
            ((ConstantConductivity(3.0), PM), (PM, ConstantConductivity(3.0))),
            ((PE, GRAPHENE, PM), (PM, GRAPHENE)),
        ],
        ids=["G-PE-G-G", "s3-PM-s3", "PE-G-PM-G"],
    )
    def test_polylog_opaque_plate_splits_energy(self, segments):
        # the whole stack's round-trip matrix is block diagonal at the
        # opaque plate; its total is the segments' sum within their bounds
        left, right = (energy_ratio_polylog(uniform_stack(p)) for p in segments)
        whole = energy_ratio_polylog(uniform_stack(segments[0] + segments[1][1:]))
        bound = whole.err_estimate + left.err_estimate + right.err_estimate
        assert abs(whole.ratio - (left.ratio + right.ratio)) <= bound

    def test_opaque_additivity_non_uniform_gaps(self):
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10)
        g1, g2 = 0.9, 1.6
        full = energy_ratio_quadrature(
            StackSpec((GRAPHENE, PE, GRAPHENE), (g1, g2)), spec
        ).ratio
        pair = energy_ratio(uniform_stack([GRAPHENE, PE])).ratio
        pair_rev = energy_ratio(uniform_stack([PE, GRAPHENE])).ratio
        assert full == pytest.approx(pair / g1**3 + pair_rev / g2**3, abs=1e-7)

    def test_ideal_all_conductor_additivity_quadrature(self):
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10)
        result = energy_ratio_quadrature(StackSpec((PE, PE, PE), (1.0, 2.0)), spec)
        assert result.ratio == pytest.approx(1.0 + 1.0 / 8.0, abs=1e-6)

    def test_zero_conductivity_gives_zero(self):
        none = ConstantConductivity(0.0)
        assert energy_ratio(uniform_stack([none, none, none])).ratio == 0.0

    def test_transparent_plate_drops_out(self):
        with_t = energy_ratio(uniform_stack([GRAPHENE, Transparent(), GRAPHENE]))
        without = energy_ratio(uniform_stack([GRAPHENE, GRAPHENE], gap=2.0))
        assert with_t.ratio == pytest.approx(without.ratio, abs=1e-10)


class TestSignsAndMonotonicity:
    def test_repulsive_pairs(self):
        assert energy_ratio(uniform_stack([PE, PM])).ratio < 0
        for sigma in (0.1, 1.0, 10.0):
            plate = ConstantConductivity(sigma)
            assert energy_ratio(uniform_stack([PM, plate])).ratio < 0

    def test_attractive_pairs(self):
        for sigma in (0.1, 1.0, 10.0):
            plate = ConstantConductivity(sigma)
            assert energy_ratio(uniform_stack([plate, plate])).ratio > 0
            assert energy_ratio(uniform_stack([PE, plate])).ratio > 0

    def test_ratio_increases_with_conductivity(self):
        grid = [1e-2, 1e-1, 1.0, 10.0, 1e2]
        for n in (2, 3):
            ratios = [
                energy_ratio(uniform_stack([ConstantConductivity(s)] * n)).ratio
                for s in grid
            ]
            assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_large_sigma_approaches_ideal(self):
        spec = QuadratureSpec(rel_tol=1e-4, abs_tol=1e-5)
        for n in (2, 3):
            stack = uniform_stack([ConstantConductivity(1e6)] * n)
            result = energy_ratio(stack, spec)
            assert result.per_plate == pytest.approx((n - 1) / n, abs=1e-3)


class TestSweep:
    def test_table_structure(self):
        template = uniform_stack([SweepSlot(), GRAPHENE])
        grid = [0.1, 1.0, 10.0]
        table = sweep(template, grid)
        assert [p.sigma for p in table] == grid
        assert all(p.result.ratio > 0 for p in table)

    def test_shared_slots(self):
        template = uniform_stack([SweepSlot(), PM, SweepSlot()])
        table = sweep(template, [0.5], shared=True)
        direct = energy_ratio(
            uniform_stack([ConstantConductivity(0.5), PM, ConstantConductivity(0.5)])
        )
        assert table[0].result.ratio == pytest.approx(direct.ratio, rel=1e-12)

    def test_template_validation(self):
        no_slot = uniform_stack([GRAPHENE, GRAPHENE])
        with pytest.raises(ValueError):
            sweep(no_slot, [1.0])
        two_slots = uniform_stack([SweepSlot(), SweepSlot()])
        with pytest.raises(ValueError):
            sweep(two_slots, [1.0])  # needs shared=True
        one_slot = uniform_stack([SweepSlot(), GRAPHENE])
        with pytest.raises(ValueError):
            sweep(one_slot, [])
        with pytest.raises(ValueError):
            sweep(one_slot, [2.0, 1.0])
        with pytest.raises(ValueError):
            sweep(one_slot, [-1.0, 2.0])

    @pytest.mark.parametrize("grid", [[0.1, math.nan], [math.nan], [math.inf]])
    def test_non_finite_conductivity_rejected_before_any_solve(self, monkeypatch, grid):
        import casimir_plates.energy as energy_mod

        calls = []
        monkeypatch.setattr(energy_mod, "energy_ratio", lambda *args: calls.append(args))
        template = uniform_stack([SweepSlot(), GRAPHENE])
        with pytest.raises(ValueError, match=repr(grid[-1])):
            energy_mod.sweep(template, grid)
        assert calls == []

    @pytest.mark.parametrize(
        "template, method, message",
        [
            (uniform_stack([SweepSlot(), GRAPHENE]), "exact", "method must be one of"),
            (
                StackSpec((SweepSlot(), GRAPHENE, GRAPHENE), (1.0, 2.0)),
                "polylog",
                "method 'polylog' requires uniform gaps",
            ),
            (
                uniform_stack([SweepSlot(), PE]),
                "ideal",
                "method 'ideal' requires perfect-conductor plates only",
            ),
        ],
    )
    def test_route_misuse_rejected_before_any_solve(self, monkeypatch, template, method, message):
        # the ValueError energy_ratio raises, not a SweepError at the first point
        import casimir_plates.energy as energy_mod

        plates = tuple(GRAPHENE if isinstance(p, SweepSlot) else p for p in template.plates)
        with pytest.raises(ValueError, match=message) as direct:
            energy_ratio(StackSpec(plates, template.gaps), method=method)
        calls = []
        monkeypatch.setattr(energy_mod, "energy_ratio", lambda *args: calls.append(args))
        with pytest.raises(ValueError) as err:
            energy_mod.sweep(template, [0.1, 1.0], method=method)
        assert str(err.value) == str(direct.value)
        assert calls == []

    def test_failure_identifies_sigma(self, monkeypatch):
        import casimir_plates.energy as energy_mod

        def boom(stack, spec=None, method="auto"):
            raise PolylogPathError("synthetic failure")

        monkeypatch.setattr(energy_mod, "energy_ratio", boom)
        template = uniform_stack([SweepSlot(), GRAPHENE])
        with pytest.raises(SweepError) as err:
            energy_mod.sweep(template, [0.25, 0.5])
        assert err.value.sigma == 0.25

    def test_unbound_slot_rejected_by_energy(self):
        with pytest.raises(ValueError):
            energy_ratio(uniform_stack([SweepSlot(), GRAPHENE]))


class TestAbsoluteEnergy:
    def test_reference_magnitude(self):
        # -pi^2 hbar c / 720 / (1 um)^3 * 1 cm^2
        unit = EnergyResult(1.0, 0.5, "ideal", 0.0)
        value = absolute_energy(unit, 1e-6, 1e-4)
        assert value == pytest.approx(-4.33375e-14, rel=1e-4)

    def test_zero_ratio(self):
        assert absolute_energy(EnergyResult(0.0, 0.0, "ideal", 0.0), 1e-6, 1e-4) == 0.0

    def test_repulsive_scaling(self):
        unit = absolute_energy(EnergyResult(1.0, 0.5, "ideal", 0.0), 1e-6, 1e-4)
        boyer = absolute_energy(EnergyResult(-0.875, -0.4375, "ideal", 0.0), 1e-6, 1e-4)
        assert boyer == pytest.approx(-0.875 * unit, rel=1e-14)
        assert boyer > 0.0

    @pytest.mark.parametrize("a,area", [(0.0, 1.0), (-1e-6, 1.0), (1e-6, 0.0)])
    def test_dimension_validation(self, a, area):
        with pytest.raises(ValueError):
            absolute_energy(EnergyResult(1.0, 0.5, "ideal", 0.0), a, area)


class TestResultAndSpecValidation:
    def test_per_plate_times_n_is_ratio(self):
        for n in (2, 3, 5):
            result = energy_ratio(uniform_stack([GRAPHENE] * n))
            assert result.per_plate * n == pytest.approx(result.ratio, rel=1e-15)

    def test_stack_validation(self):
        with pytest.raises(ValueError):
            StackSpec((GRAPHENE,), ())
        with pytest.raises(ValueError):
            StackSpec((GRAPHENE, GRAPHENE), (1.0, 1.0))
        with pytest.raises(ValueError):
            StackSpec((GRAPHENE, GRAPHENE), (-1.0,))
        with pytest.raises(ValueError):
            StackSpec((GRAPHENE, GRAPHENE), (math.inf,))

    @pytest.mark.parametrize("gap", [2.0**-300, 2.0**300])
    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    def test_every_route_is_finite_at_the_ends_of_the_range(self, gap, method):
        for plates in ((GRAPHENE, GRAPHENE), (PE, PM, PE)):
            result = energy_ratio(StackSpec(plates, (gap,) * (len(plates) - 1)), method=method)
            assert math.isfinite(result.ratio) and result.ratio != 0.0
            assert math.isfinite(result.err_estimate)

    def test_error_estimate_sign(self):
        with pytest.raises(ValueError):
            EnergyResult(1.0, 0.5, "polylog", -1e-3)

    def test_polylog_requires_uniform_gaps(self):
        with pytest.raises(ValueError):
            energy_ratio_polylog(StackSpec((PE, PE, PE), (1.0, 2.0)))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            energy_ratio(uniform_stack([PE, PE]), method="montecarlo")

    def test_method_ideal_requires_ideal_plates(self):
        with pytest.raises(ValueError):
            energy_ratio(uniform_stack([GRAPHENE, GRAPHENE]), method="ideal")


class TestRootDiagnostics:
    def test_inverse_roots_are_the_eigenvalues(self):
        # Delta = (1 - 0.25 x)(1 - 0.6 x) for a triangular M
        assert _inverse_roots(np.array([[0.25]])).tolist() == [0.25]
        w = _inverse_roots(np.array([[0.25, 3.0], [0.0, 0.6]]))
        assert sorted(w.real.tolist()) == pytest.approx([0.25, 0.6], rel=1e-15)
        assert not w.imag.any()

    def test_genuine_interior_root_aborts(self):
        # inverse roots 2.0 and 0.6: li4 refuses the former
        with pytest.raises(ValueError):
            _li4_root_sum(_inverse_roots(np.array([[2.0, 0.0], [0.0, 0.6]])))

    def test_marginal_root_aborts(self):
        with pytest.raises(ValueError):
            _li4_root_sum(_inverse_roots(np.array([[1.0 + 1e-5]])))

    def test_roots_on_the_unit_circle_pass(self):
        # Delta = 1 - x^2: inverse roots +1 and -1, Li4 sum zeta(4) + Li4(-1)
        w = _inverse_roots(round_trip_matrix((1.0, 0.0, 1.0), (0.0, 1.0, 0.0)))
        assert sorted(w.real.tolist()) == [-1.0, 1.0]
        assert _li4_root_sum(w) == pytest.approx(li4(1.0) + li4(-1.0), abs=1e-15)

    def test_non_real_roots_come_with_their_exact_conjugates(self):
        import casimir_plates.energy as energy_mod

        rng = np.random.default_rng(20261019)
        matrices = [rng.uniform(-0.3, 0.3, (d, d)) for d in rng.integers(2, 8, 200)]
        kinds = [ConstantConductivity(s) for s in (0.01, SIGMA_GRAPHENE, 1.0, 50.0)]
        kinds += [GenericDeltaPlate(e, m) for e, m in ((1.0, 0.5), (3.0, 1.0), (0.5, 2.0))]
        for _ in range(60):
            n = int(rng.integers(3, 9))
            plates = [kinds[k] for k in rng.integers(0, len(kinds), n)]
            t = rng.uniform(0.001, 1.0, 4)
            r, t_coef = energy_mod._coefficient_tables(uniform_stack(plates), t)
            for p in range(2):  # the polarizations
                for j in range(t.size):
                    matrices.append(round_trip_matrix(r[p, j], t_coef[p, j]))
        paired = 0
        for m in matrices:
            w = _inverse_roots(m).tolist()
            lower = sorted((z.real, -z.imag) for z in w if z.imag < 0.0)
            upper = sorted((z.real, z.imag) for z in w if z.imag > 0.0)
            # the imaginary parts of their Li4 values cancel, so
            # `_li4_root_sum` adds only the real parts
            assert lower == upper, m
            paired += len(lower)
        assert paired > 300

    def test_error_message_prints_plain_floats(self):
        with pytest.raises(ValueError) as err:
            _li4_root_sum(_inverse_roots(np.array([[1.5]])))
        message = str(err.value)
        assert message == "li4 argument outside the unit disk: |z| = 1.5"
        assert "np.float64" not in message

    def test_node_floor_is_the_li4_bound_per_term(self):
        import casimir_plates.energy as energy_mod

        # the opaque plate needs no split: one 3x3 matrix and 3 eigenvalues
        # per polarization and node, 2 * 3 Li4 terms
        stack = uniform_stack([GRAPHENE, PE, GRAPHENE, GRAPHENE])
        t = np.array([0.05, 0.3])
        values, floors = energy_mod._polylog_panel(stack, t)
        assert floors.tolist() == [6 * 1e-14] * 2
        r, t_coef = energy_mod._coefficient_tables(stack, t)
        for j in range(t.size):
            expected = 0.0
            for p in range(2):  # the polarizations
                m = round_trip_matrix(r[p, j], t_coef[p, j])
                assert m.shape == (3, 3)
                expected += _li4_root_sum(_inverse_roots(m))
            assert values[j] == expected

    def test_one_eigenvalue_call_per_round(self, monkeypatch):
        # machine-independent: graphene N=6 at the default spec takes three
        # rounds of the angular integral, and each round makes one
        # `_inverse_roots` call for all its panels and both polarizations
        # (one call per panel and polarization would make 10)
        import casimir_plates.energy as energy_mod

        real_roots = energy_mod._inverse_roots
        shapes = []

        def counted_roots(m):
            shapes.append(m.shape)
            return real_roots(m)

        monkeypatch.setattr(energy_mod, "_inverse_roots", counted_roots)
        energy_ratio(uniform_stack([GRAPHENE] * 6))
        assert [shape[:2] for shape in shapes] == [(1, 2), (2, 2), (2, 2)]

    def test_exception_hierarchy(self):
        assert issubclass(UnitDiskRootError, PolylogPathError)
        assert issubclass(PolylogPathError, RuntimeError)

    @pytest.mark.parametrize("pol", list(Polarization), ids=lambda pol: pol.value)
    def test_unit_disk_error_names_node_and_polarization(self, monkeypatch, pol):
        import casimir_plates.energy as energy_mod

        real_tables = energy_mod._coefficient_tables
        real_roots = energy_mod._inverse_roots
        seen_t, calls = [], []

        def coefficient_tables(stack, t):
            seen_t.append(t)
            return real_tables(stack, t)

        def escaping_roots(m):
            # one call per round, on (panel, polarization, node, eigenvalue):
            # the first round's panel gets an eigenvalue at |w| = 1.5 in `pol`
            # at its fourth node, and the error names that node, not the later
            # one at |w| = 1.25; a TE one at an earlier node comes after TM
            w = real_roots(m).astype(complex)
            calls.append(w.shape)
            p = list(Polarization).index(pol)
            w[0, p, 3, 1] = 1.5
            w[0, p, 7, 0] = 1.25
            if pol is Polarization.TM:
                w[0, 1, 0, 0] = 1.25
            return w

        monkeypatch.setattr(energy_mod, "_coefficient_tables", coefficient_tables)
        monkeypatch.setattr(energy_mod, "_inverse_roots", escaping_roots)
        with pytest.raises(UnitDiskRootError) as err:
            energy_ratio_polylog(uniform_stack([GRAPHENE] * 3))
        assert len(seen_t) == 1 and calls == [(1, 2, seen_t[0].shape[1], 2)]
        node = float(seen_t[0][0, 3])
        assert node != float(seen_t[0][0, 0])
        assert type(err.value.t) is float and err.value.t == node
        assert err.value.pol is pol
        assert str(err.value) == (
            f"li4 argument outside the unit disk: |z| = 1.5 at t={node!r}, {pol.value}"
        )
        assert isinstance(err.value.__cause__, ValueError)
        assert not hasattr(err.value, "roots")

    def test_unit_disk_error_names_the_first_panel_of_a_round(self, monkeypatch):
        import casimir_plates.energy as energy_mod

        real_tables = energy_mod._coefficient_tables
        real_roots = energy_mod._inverse_roots
        seen_t = []

        def coefficient_tables(stack, t):
            seen_t.append(t)
            return real_tables(stack, t)

        def escaping_roots(m):
            # the second round holds two panels: a TE eigenvalue at the first
            # panel's sixth node comes before a TM one at the second's first
            w = real_roots(m).astype(complex)
            if len(seen_t) == 2:
                w[0, 1, 5, 0] = 1.5
                w[1, 0, 0, 1] = 1.25
            return w

        monkeypatch.setattr(energy_mod, "_coefficient_tables", coefficient_tables)
        monkeypatch.setattr(energy_mod, "_inverse_roots", escaping_roots)
        with pytest.raises(UnitDiskRootError) as err:
            energy_ratio_polylog(uniform_stack([GRAPHENE] * 3))
        assert len(seen_t) == 2 and seen_t[1].shape[0] == 2
        assert (err.value.t, err.value.pol) == (float(seen_t[1][0, 5]), Polarization.TE)
        assert str(err.value).startswith("li4 argument outside the unit disk: |z| = 1.5 at")

    @pytest.mark.parametrize(
        "plates, scalar_ratio",
        [
            ((PE, PE), 1.000000000000001),  # w = 1 at every node
            ((GRAPHENE, Transparent(), GRAPHENE), 0.0006729153591945162),  # zero eigenvalues
            ((GRAPHENE, PE, GRAPHENE, GRAPHENE), 0.061247621558123),  # opaque split
        ],
        ids=["pe-pe", "transparent-inside", "opaque-split"],
    )
    def test_special_spectra_solve_without_warnings(self, plates, scalar_ratio):
        # scalar_ratio: the value with one scalar `li4` call per eigenvalue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = energy_ratio_polylog(uniform_stack(plates))
        assert result.method == "polylog"
        assert abs(result.ratio - scalar_ratio) <= result.err_estimate

    def test_non_uniform_auto_uses_quadrature(self):
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-8)
        result = energy_ratio(StackSpec((GRAPHENE, PE, GRAPHENE), (0.5, 1.5)), spec)
        assert result.method == "quadrature"


def plain_coefficient_tables(stack, t):
    """Per polarization, the ``(r, t_coef)`` tables of shape ``(N,) + t.shape``,
    one `coefficients` call per plate (looked up at call time, so a test can
    patch it for both pipelines)."""
    import casimir_plates.energy as energy_mod

    return [
        tuple(np.array(c) for c in zip(*(energy_mod.coefficients(p, pol, t) for p in stack.plates)))
        for pol in Polarization
    ]


def plain_round_trip_matrix(r, t):
    """The reference ``M = A B``: the full matrices of the u and v equations,
    rows picked by parity with ``np.where``, the plates on the first axis."""
    r = np.moveaxis(np.asarray(r, float), 0, -1)
    t = np.moveaxis(np.asarray(t, float), 0, -1)
    i = np.arange(r.shape[-1] - 1)
    rightward = np.zeros(r.shape[:-1] + (i.size, i.size))
    leftward = np.zeros_like(rightward)
    rightward[..., i, i], rightward[..., i[1:], i[:-1]] = r[..., :-1], t[..., 1:-1]
    leftward[..., i, i], leftward[..., i[:-1], i[1:]] = r[..., 1:], t[..., 1:-1]
    even = (i % 2 == 0)[:, None]
    return np.where(even, rightward, leftward) @ np.where(even, leftward, rightward)


def plain_polylog_panel(stack, t):
    """The reference `_polylog_panel`: per-polarization tables stacked next to
    the node axis, `plain_round_trip_matrix`, LAPACK's eigenvalues of every
    matrix, and Li4 of every eigenvalue."""
    r, t_coef = (np.stack(part, axis=-2) for part in zip(*plain_coefficient_tables(stack, t)))
    w = np.linalg.eigvals(plain_round_trip_matrix(r, t_coef))
    try:
        sums = _li4_array(w).real.sum(axis=-1)
    except ValueError as exc:
        first = np.argmax((np.abs(w) > 1.0 + 1e-12).any(axis=-1))
        *panel, pol, node = np.unravel_index(first, w.shape[:-1])
        pol = list(Polarization)[pol]
        raise UnitDiskRootError(str(exc), t=float(t[(*panel, node)]), pol=pol) from exc
    values = 0.0 + sums[..., 0, :] + sums[..., 1, :]
    floors = np.full(t.shape, 1e-14 * (2 * (stack.n_plates - 1)))
    return values, floors


def panel_bytes(panel):
    """The bytes of a panel's values and floors, each array as it is."""
    return [part.tobytes() for part in panel]


# plate factories: each call makes a new object, as perfbench and `sweep` do
PLATE_KINDS = (
    lambda: ConstantConductivity(0.0),
    lambda: ConstantConductivity(SIGMA_GRAPHENE),
    lambda: ConstantConductivity(1e6),
    lambda: GenericDeltaPlate(1.0, 0.5),
    lambda: GenericDeltaPlate(3.0, 1.0),
    PerfectElectric,
    PerfectMagnetic,
    Transparent,
)


def oracle_nodes(rng, k):
    """A ``(k, 31)`` node array holding t = 0 and t = 1."""
    t = rng.uniform(0.0, 1.0, (k, 31))
    t[0, 0], t[-1, -1] = 0.0, 1.0
    return t


class TestNodePipelineOracle:
    """The polylog node pipeline against the plain reference pipeline, bit for bit."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_panel_equals_the_plain_pipeline(self, n):
        import casimir_plates.energy as energy_mod

        rng = np.random.default_rng(20261020 + n)
        for _ in range(10):
            kinds = rng.integers(0, len(PLATE_KINDS), n)
            plates = [PLATE_KINDS[i]() for i in kinds]
            if rng.uniform() < 0.5:  # some equal plates as one object
                plates[-1] = plates[0]
            stack = uniform_stack(plates)
            for k in (1, 2, 3):
                t = oracle_nodes(rng, k)
                r, t_coef = energy_mod._coefficient_tables(stack, t)
                plain = [np.stack(part, axis=-2) for part in zip(*plain_coefficient_tables(stack, t))]
                assert r.tobytes() == np.moveaxis(plain[0], 0, -1).tobytes()
                assert t_coef.tobytes() == np.moveaxis(plain[1], 0, -1).tobytes()
                m = round_trip_matrix(r, t_coef)
                assert m.tobytes() == plain_round_trip_matrix(*plain).tobytes()
                panel = energy_mod._polylog_panel(stack, t)
                assert panel_bytes(panel) == panel_bytes(plain_polylog_panel(stack, t)), (kinds, k)

    def test_one_coefficients_call_per_distinct_plate_and_polarization(self, monkeypatch):
        import casimir_plates.energy as energy_mod

        calls = []

        def counted(m, pol, t):
            calls.append((m, pol))
            return coefficients(m, pol, t)

        monkeypatch.setattr(energy_mod, "coefficients", counted)
        t = oracle_nodes(np.random.default_rng(20261020), 2)
        energy_mod._polylog_panel(uniform_stack([ConstantConductivity(SIGMA_GRAPHENE) for _ in range(6)]), t)
        assert len(calls) == 2
        # sigma = -0.0 is stored as 0.0, so the two zero plates share one call
        assert not np.signbit(ConstantConductivity(-0.0).sigma)
        plates = [ConstantConductivity(-0.0), ConstantConductivity(0.0), GRAPHENE, GRAPHENE]
        stack = uniform_stack(plates)
        expected = plain_polylog_panel(stack, t)
        calls.clear()
        assert panel_bytes(energy_mod._polylog_panel(stack, t)) == panel_bytes(expected)
        assert len(calls) == 4
        assert sum(m == ConstantConductivity(0.0) for m, _ in calls) == 2

    def test_numpy_plate_solves_as_its_float_twin(self):
        # the two plates are equal, so the dedupe may copy either one's columns
        plate = GenericDeltaPlate(np.float32(0.1), 1.0)
        twin = GenericDeltaPlate(float(np.float32(0.1)), 1.0)
        expected = energy_ratio(uniform_stack([twin, twin]))
        for plates in ([plate, twin], [twin, plate], [plate, plate]):
            assert energy_ratio(uniform_stack(plates)) == expected

    @pytest.mark.parametrize("pol", list(Polarization), ids=lambda pol: pol.value)
    def test_unit_disk_error_equals_the_plain_pipeline(self, monkeypatch, pol):
        # amplitudes past 1 at t > 0.4 in one polarization push eigenvalues
        # out of the unit disk; both pipelines must name the same node
        import casimir_plates.energy as energy_mod

        def inflated(m, p, t):
            r, t_coef = coefficients(m, p, t)
            return (r * np.where(t > 0.4, 1.25, 1.0) if p is pol else r), t_coef

        monkeypatch.setattr(energy_mod, "coefficients", inflated)
        rng = np.random.default_rng(20261021)
        raised = 0
        for n in range(2, 10):
            plates = [ConstantConductivity(1e6)] + [PLATE_KINDS[i]() for i in rng.integers(0, 5, n - 2)]
            stack = uniform_stack(plates + [ConstantConductivity(1e6)])
            for k in (1, 2, 3):
                t = oracle_nodes(rng, k)
                try:
                    expected = plain_polylog_panel(stack, t)
                except UnitDiskRootError as plain:
                    with pytest.raises(UnitDiskRootError) as err:
                        energy_mod._polylog_panel(stack, t)
                    assert (err.value.t, err.value.pol) == (plain.t, plain.pol) and plain.pol is pol
                    assert str(err.value) == str(plain)
                    raised += 1
                else:
                    assert panel_bytes(energy_mod._polylog_panel(stack, t)) == panel_bytes(expected)
        assert raised >= 12


class TestLongUniformStacks:
    @pytest.mark.parametrize("n", [20, 64])
    def test_auto_and_polylog_meet_tolerance_without_compositions(self, monkeypatch, n):
        import casimir_plates.scattering as scattering_mod

        def compositions(n):
            raise AssertionError(f"compositions({n}) was called")

        monkeypatch.setattr(scattering_mod, "compositions", compositions)
        spec = QuadratureSpec()
        stack = uniform_stack((GRAPHENE,) * n)
        for result in (energy_ratio_polylog(stack, spec), energy_ratio(stack, spec)):
            assert result.err_estimate <= auto_tolerance(spec, result)

    @pytest.mark.parametrize(
        "plates", [(GRAPHENE,) * 5, (PM,) + (ConstantConductivity(1.0),) * 3]
    )
    def test_polylog_builds_round_trip_matrix_without_compositions(self, monkeypatch, plates):
        import casimir_plates.scattering as scattering_mod

        def compositions(n):
            raise AssertionError(f"compositions({n}) was called")

        monkeypatch.setattr(scattering_mod, "compositions", compositions)
        result = energy_ratio_polylog(uniform_stack(plates), QuadratureSpec(1e-5, 1e-7))
        assert result.method == "polylog"
        if plates[-1] is GRAPHENE:
            assert result.ratio == pytest.approx(GRAPHENE_RATIOS[5], abs=1e-6)


def auto_tolerance(spec, result):
    """The tolerance ``auto`` is asked to meet for this result."""
    return max(spec.abs_tol, spec.rel_tol * abs(result.ratio))


def mp_node_sum(r, t_coef):
    """``sum_i Li4(w_i)`` over the inverse roots of one polarization's Delta, 60 digits.

    Delta's polynomial in ``x`` comes from the paper's composition sum
    grouped by its last part, in mpmath arithmetic on the same float
    amplitudes; its inverse roots are the roots of the reversed polynomial.
    """
    with mpmath.workdps(60):
        r = [mpmath.mpf(v) for v in r]
        t_coef = [mpmath.mpf(v) for v in t_coef]
        d = [[mpmath.mpf(1)]]
        for j in range(1, len(r)):
            dj = d[j - 1] + [mpmath.mpf(0)]
            trans = mpmath.mpf(1)
            for c in range(1, j + 1):
                part = -r[j - c] * r[j] * trans
                for k, v in enumerate(d[j - c]):
                    dj[k + c] += part * v
                trans *= t_coef[j - c] ** 2
            d.append(dj)
        w = mpmath.polyroots(d[-1], maxsteps=500, extraprec=500)
        return float(mpmath.re(mpmath.fsum(mpmath.polylog(4, z) for z in w)))


class TestPolylogNode:
    @pytest.mark.parametrize("t", [1e-6, 1e-4, 1e-2])
    @pytest.mark.parametrize(
        "plates",
        [(GRAPHENE,) * 6, (GRAPHENE,) * 8, (ConstantConductivity(1.0),) * 12],
        ids=["graphene-N6", "graphene-N8", "sigma1-N12"],
    )
    def test_node_within_its_floor_of_mpmath(self, plates, t):
        # near grazing angle the inverse roots cluster at the unit circle
        import casimir_plates.energy as energy_mod

        stack = uniform_stack(plates)
        (value,), (floor,) = energy_mod._polylog_panel(stack, np.array([t]))
        r, tc = energy_mod._coefficient_tables(stack, np.array([t]))
        reference = sum(mp_node_sum(r[p, 0].tolist(), tc[p, 0].tolist()) for p in range(2))
        assert abs(value - reference) <= floor


class TestPolylogReferences:
    # nested scipy quadrature of ln Delta at epsabs 1e-13, apart from the
    # package (the method of perfbench/references.py): (ratio, uncertainty)
    REFERENCES = [
        ((GRAPHENE,) * 6, 0.028007412696402036, 2.3e-13),
        ((GRAPHENE,) * 8, 0.039367883254657364, 3.0e-13),
        ((GRAPHENE,) * 12, 0.06209670973467868, 5.4e-13),
        ((GRAPHENE,) * 16, 0.0848283115407663, 7.2e-13),
        ((ConstantConductivity(1.0),) * 10, 1.6669711230603892, 4.2e-13),
        ((ConstantConductivity(1.0),) * 12, 2.038965905332651, 5.7e-13),
        ((ConstantConductivity(1.0),) * 16, 2.7829590412522376, 7.9e-13),
    ]

    @pytest.mark.parametrize(
        "plates, reference, unc",
        REFERENCES,
        ids=["graphene-N6", "graphene-N8", "graphene-N12", "graphene-N16",
             "sigma1-N10", "sigma1-N12", "sigma1-N16"],
    )
    @pytest.mark.parametrize(
        "route", [energy_ratio_polylog, energy_ratio_quadrature], ids=["polylog", "quadrature"]
    )
    def test_route_meets_tolerance_and_covers_reference(self, route, plates, reference, unc):
        spec = QuadratureSpec()
        result = route(uniform_stack(plates), spec)
        assert result.err_estimate <= auto_tolerance(spec, result)
        assert abs(result.ratio - reference) <= result.err_estimate + unc

    # CLI rows whose printed err_estimate did not cover their error when the
    # polylog route factored the multiplied-out Delta polynomial; references
    # from energy_ratio_quadrature at QuadratureSpec(1e-11, 1e-14), estimates
    # 2e-12 to 7e-12, each within 1.1e-12 of nested scipy quadrature
    CLI_ROWS = [
        ("fig5-edge", "fig5-edge", 601.3450635, 2.072097692052),
        ("fig2", "sweep-N6", 2.236067977, 1.602543990743),
        ("fig2", "sweep-N5", 17.09975947, 2.898814089179),
        ("fig2", "sweep-N6", 1.34464844, 1.147070252391),
        ("fig2", "sweep-N5", 6.18354466, 2.128141722875),
    ]

    @pytest.mark.parametrize("preset, label, sigma, reference", CLI_ROWS)
    def test_preset_row_within_its_estimate(self, preset, label, sigma, reference):
        from casimir_plates.presets import preset_configs

        config = next(c for c in preset_configs(preset) if c.label == label)
        exact = next(s for s in config.sweep_grid if abs(s - sigma) < 1e-6 * sigma)
        (point,) = sweep(
            config.to_spec(),
            [exact],
            shared=config.sweep_shared,
            method=config.method,
            spec=config.quadrature_spec(),
        )
        result = point.result
        assert abs(result.ratio - reference) <= result.err_estimate + 2e-11


class TestAutoTolerance:
    def test_polylog_result_over_tolerance_falls_back(self, monkeypatch):
        import casimir_plates.energy as energy_mod

        spec = QuadratureSpec()
        stack = uniform_stack([GRAPHENE] * 3)
        exact = energy_ratio_polylog(stack, spec)

        def loose_polylog(stack, spec=None):
            return EnergyResult(exact.ratio, exact.per_plate, "polylog", 1e-3)

        monkeypatch.setattr(energy_mod, "energy_ratio_polylog", loose_polylog)
        result = energy_ratio(stack, spec)
        assert result.method == "quadrature"
        assert result.err_estimate <= auto_tolerance(spec, result)
        assert abs(result.ratio - exact.ratio) <= result.err_estimate + exact.err_estimate

    def test_graphene_six_plates_at_gap_two_stays_polylog(self):
        # the ratio scales as 1/g**3, so gap 2 must agree with the 60-digit
        # mpmath value at gap 1 over 8
        spec = QuadratureSpec()
        result = energy_ratio(uniform_stack([GRAPHENE] * 6, gap=2.0), spec)
        assert result.method == "polylog"
        assert result.err_estimate <= auto_tolerance(spec, result)
        assert abs(result.ratio - 0.028007412696401914 / 8) <= result.err_estimate

    def test_auto_meets_tolerance_or_raises(self):
        from casimir_plates.presets import preset_configs

        curve = next(c for c in preset_configs("fig2") if c.label == "sweep-N5")
        sigma = next(s for s in curve.sweep_grid if abs(s - 601.3450635) < 1e-6)
        cases = [
            (uniform_stack([ConstantConductivity(1.0)] * 10), QuadratureSpec()),
            (uniform_stack([ConstantConductivity(sigma)] * 5), curve.quadrature_spec()),
        ]
        missed = []
        for stack, spec in cases:
            try:
                result = energy_ratio(stack, spec)
            except RuntimeError:
                continue  # saying plainly that it failed is allowed
            tolerance = auto_tolerance(spec, result)
            if result.err_estimate > tolerance:
                missed.append((stack.n_plates, result.err_estimate, tolerance))
        assert not missed


class TestQuadratureRoute:
    def test_repeat_is_bit_identical(self):
        stack = StackSpec((GRAPHENE, PE, GRAPHENE), (0.5, 1.5))
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-8)
        first = energy_ratio_quadrature(stack, spec)
        second = energy_ratio_quadrature(stack, spec)
        assert first == second

    def test_domain_error_names_node_and_first_bad_frequency(self, monkeypatch):
        import casimir_plates.energy as energy_mod

        real_delta = energy_mod.delta_total
        real_tables = energy_mod._coefficient_tables
        seen_t, bad_s, rows_seen = [], [], []

        def coefficient_tables(stack, t):
            seen_t.append(t)
            return real_tables(stack, t)

        def poisoned_delta(r, t, gaps, s):
            d = np.array(real_delta(r, t, gaps, s))
            d[0, 1, 7] = -0.25
            d[0, 1, 20] = 0.0
            d[0, 2, 0] = -1.0  # a later row: (row, column) order names row 1
            d[1, 0, 0] = -2.0  # TE: (polarization, row, column) order names TM
            bad_s.append(s[1, 7])
            rows_seen.append(s.shape[0])
            return d

        monkeypatch.setattr(energy_mod, "_coefficient_tables", coefficient_tables)
        monkeypatch.setattr(energy_mod, "delta_total", poisoned_delta)
        stack = StackSpec((GRAPHENE, GRAPHENE, GRAPHENE), (1.0, 2.0))
        with pytest.raises(DeltaDomainError) as err:
            energy_ratio_quadrature(stack, QuadratureSpec(rel_tol=1e-6))
        message = str(err.value)
        # the first call holds the two start panels of all 31 nodes, [0, 1/2]
        # of every node first, so row i holds node i
        assert rows_seen == [62]
        assert "Delta = -0.25" in message
        assert message.endswith(": invalid coefficient regime")
        assert f"t={float(seen_t[0][1])!r}" in message
        assert f"s={float(bad_s[-1])!r}" in message

    def test_domain_error_in_te_alone_names_its_node_and_frequency(self, monkeypatch):
        import casimir_plates.energy as energy_mod

        real_delta = energy_mod.delta_total
        real_tables = energy_mod._coefficient_tables
        seen_t, bad_s = [], []

        def coefficient_tables(stack, t):
            seen_t.append(t)
            return real_tables(stack, t)

        def poisoned_delta(r, t, gaps, s):
            d = np.array(real_delta(r, t, gaps, s))
            d[1, 4, 11] = -0.5
            bad_s.append(s[4, 11])
            return d

        monkeypatch.setattr(energy_mod, "_coefficient_tables", coefficient_tables)
        monkeypatch.setattr(energy_mod, "delta_total", poisoned_delta)
        stack = StackSpec((GRAPHENE, GRAPHENE, GRAPHENE), (1.0, 2.0))
        with pytest.raises(DeltaDomainError) as err:
            energy_ratio_quadrature(stack, QuadratureSpec(rel_tol=1e-6))
        assert str(err.value) == (
            f"Delta = -0.5 at t={float(seen_t[0][4])!r}, s={float(bad_s[0])!r}: "
            "invalid coefficient regime"
        )

    def test_one_delta_call_covers_both_polarizations(self, monkeypatch):
        import casimir_plates.energy as energy_mod

        real_delta = energy_mod.delta_total
        shapes = []

        def recorded_delta(r, t, gaps, s):
            d = real_delta(r, t, gaps, s)
            shapes.append((d.shape, s.shape))
            return d

        monkeypatch.setattr(energy_mod, "delta_total", recorded_delta)
        energy_ratio_quadrature(StackSpec((GRAPHENE, PE, GRAPHENE), (1.0, 2.0)), QuadratureSpec(1e-6))
        assert shapes and all(d == (2,) + s for d, s in shapes)

    @pytest.mark.parametrize("bad", [0.0, -5e-324])
    def test_domain_error_names_an_underflow(self, monkeypatch, bad):
        import casimir_plates.energy as energy_mod

        real_delta = energy_mod.delta_total

        def poisoned_delta(r, t, gaps, s):
            d = np.array(real_delta(r, t, gaps, s))
            d[0, 1, 7] = bad
            return d

        monkeypatch.setattr(energy_mod, "delta_total", poisoned_delta)
        stack = StackSpec((GRAPHENE, GRAPHENE, GRAPHENE), (1.0, 2.0))
        with pytest.raises(DeltaDomainError) as err:
            energy_ratio_quadrature(stack, QuadratureSpec(rel_tol=1e-6))
        message = str(err.value)
        assert message.startswith(f"Delta = {bad!r} at t=")
        assert message.endswith(": Delta underflowed below the smallest normal float")
        assert "coefficient" not in message

    # the stacks of the benchmark's unequal-gap workload
    UNEQUAL_GAP_STACKS = (
        ((GRAPHENE,) * 3, (1.0, 2.0)),
        (
            (
                GenericDeltaPlate(1.0, 0.5),
                GenericDeltaPlate(3.0, 1.0),
                ConstantConductivity(1.0),
                GenericDeltaPlate(0.5, 2.0),
            ),
            (1.0, 1.5, 0.75),
        ),
        ((GRAPHENE, Transparent(), GRAPHENE), (1.0, 2.0)),
        ((GRAPHENE, PE, GRAPHENE), (1.0, 2.0)),
        (
            (PM, ConstantConductivity(2.0), ConstantConductivity(0.5), ConstantConductivity(1.0)),
            (1.0, 2.0, 1.5),
        ),
        (
            (ConstantConductivity(1.0), ConstantConductivity(0.5), ConstantConductivity(2.0), PM),
            (1.5, 2.0, 1.0),
        ),
    )

    @pytest.mark.parametrize("plates, gaps", UNEQUAL_GAP_STACKS)
    def test_lockstep_equals_per_node_integrals(self, plates, gaps):
        # the route one node at a time: each inner integral on its own, with
        # Delta on the 1-D array of one panel's frequencies, in s = 2x / (1 - x)
        # with its weight 2 / (1 - x)**2 from the panels [0, 1/2] and [1/2, 1],
        # and the outer integral in t = x**3 with its weight 3 x**2 from [0, 1]
        from casimir_plates.scattering import delta_total

        stack = StackSpec(plates, gaps)
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-12)
        inner_spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-13)
        g_min = min(gaps)
        scaled_gaps = tuple(g / g_min for g in gaps)

        def node(t):
            pair = []
            for pol in Polarization:
                r, t_coef = zip(*(coefficients(p, pol, t) for p in plates))
                pair.append((np.array(r), np.array(t_coef)))

            def h(x):
                y = 1.0 - x
                s = 2.0 * x / y
                total = 0.0
                for r, t_coef in pair:
                    total = total + np.log(delta_total(r, t_coef, scaled_gaps, s))
                return 2.0 * s * s * total / (y * y), np.zeros(x.shape)

            return integrate_1d(h, inner_spec, (0.0, 0.5, 1.0))

        value, bound = integrate_1d(
            lambda x: 3.0 * x * x * np.array([node(t) for t in x**3]).T, spec
        )
        scale = -45.0 / (2.0 * math.pi**4) / g_min**3
        result = energy_ratio_quadrature(stack, spec)
        assert (result.ratio, result.err_estimate) == (scale * value, abs(scale) * bound)

    # perfbench/references.json, from perfbench/references.py's stack_ratio
    # apart from the package: nested scipy quadrature of ln Delta, called as
    # stack_ratio(plates, gaps, 1e-11); (ratio, uncertainty) per stack of
    # UNEQUAL_GAP_STACKS, in its order
    UNEQUAL_GAP_REFERENCES = (
        (0.006125686517517557, 1.6837105443445688e-12),
        (0.05183325169376679, 1.7947270076737452e-13),
        (0.00019938232865191954, 1.4547882223965208e-12),
        (0.03006349549021328, 2.2190740370273847e-12),
        (-0.38538196119827567, 3.508685447092293e-13),
        (-0.38538196119827567, 3.508601782711069e-13),
    )

    @pytest.mark.parametrize(
        "stack_and_reference",
        list(zip(UNEQUAL_GAP_STACKS, UNEQUAL_GAP_REFERENCES)),
        ids=[
            "graphene-N3-gaps12",
            "generic-mix-N4",
            "graphene-T-graphene",
            "graphene-PE-graphene",
            "pm-edge-N4",
            "pm-edge-N4-mirror",
        ],
    )
    def test_unequal_gap_estimates_cover_their_errors(self, stack_and_reference):
        (plates, gaps), (reference, unc) = stack_and_reference
        result = energy_ratio_quadrature(StackSpec(plates, gaps), QuadratureSpec(1e-6, 1e-12))
        assert abs(result.ratio - reference) <= result.err_estimate + unc

    # machine-independent ceilings: the Delta evaluations of graphene x3 at
    # gaps (1, 2) by quadrature at (1e-6, 1e-12)
    GRAPHENE_GAPS_12 = StackSpec((GRAPHENE,) * 3, (1.0, 2.0))

    def test_inner_map_resolves_the_high_frequency_end(self, delta_evaluations):
        # in u = e^-s the inner integrand is -r r' ln(u)^2 near u = 0, which the
        # driver can only resolve by bisecting toward 0 (495,144 evaluations
        # here); in s = 2x / (1 - x) it vanishes faster than any power of
        # 1 - x at x = 1, the infinite-frequency end (11,532)
        assert 0 < delta_evaluations(self.GRAPHENE_GAPS_12, QuadratureSpec(1e-6, 1e-12)) <= 150_000

    def test_kronrod_rule_shares_the_gauss_nodes(self, delta_evaluations):
        # the 31-point Kronrod rule reuses the 15 Gauss nodes, where separate
        # 15- and 31-point Gauss rules took 46 per panel (66,056 evaluations
        # in e^-s = x**3); it needs 30,070 there
        assert 0 < delta_evaluations(self.GRAPHENE_GAPS_12, QuadratureSpec(1e-6, 1e-12)) <= 35_000

    def test_algebraic_map_is_smooth_at_both_ends(self, delta_evaluations):
        # in e^-s = x**3 the inner integrand goes like -27 r r' x^2 ln(x)^2,
        # not analytic at x = 0, and most splits bisect toward 0 (30,070
        # evaluations); in s = 2x / (1 - x), from [0, 1/2] and [1/2, 1], s^2
        # stays rational and the integrand smooth at both ends (11,532)
        assert 0 < delta_evaluations(self.GRAPHENE_GAPS_12, QuadratureSpec(1e-6, 1e-12)) <= 15_000


class TestStrongCouplingBound:
    def test_polylog_bound_holds_at_large_sigma(self):
        stack = StackSpec((ConstantConductivity(1e6),) * 2, (1.0,))
        result = energy_ratio_polylog(stack, QuadratureSpec(1e-4))
        # mpmath value of the pair's 1-D integral over Li4(r r')
        assert abs(result.ratio - 0.99997116889) <= result.err_estimate

    def test_quadrature_bound_has_a_twofold_margin_at_large_sigma(self):
        # the TE reflection switches on at t = 2 / sigma = 2e-6
        stack = StackSpec((ConstantConductivity(1e6),) * 2, (1.0,))
        result = energy_ratio_quadrature(stack, QuadratureSpec(1e-4))
        assert result.err_estimate >= 2.0 * abs(result.ratio - 0.99997116889)

    # perfbench/references.py's stack_ratio, apart from the package: nested
    # scipy quadrature of ln Delta, called as
    # stack_ratio([("sigma", 1e6)] * n, [1.0] * (n - 1), 1e-9);
    # (plates, ratio, uncertainty)
    STACK_REFERENCES = [
        (8, 6.999798612474318, 8.94e-11),
        (16, 14.999568542679322, 1.69e-10),
    ]

    @pytest.mark.parametrize("n, reference, unc", STACK_REFERENCES, ids=["N8", "N16"])
    def test_quadrature_bound_holds_at_large_sigma(self, n, reference, unc):
        stack = uniform_stack([ConstantConductivity(1e6)] * n)
        result = energy_ratio_quadrature(stack, QuadratureSpec(1e-5, 1e-7))
        assert abs(result.ratio - reference) <= result.err_estimate + unc

    # perfbench/references.py's pair_ratio, apart from the package: mpmath's
    # 1-D integral over Li4(r r'), called as
    # pair_ratio([("sigma", 10**9.2)] * 2, 1.0); (ratio, uncertainty)
    SIGMA_9_2_REFERENCE = (0.9999999714820539, 8.9e-16)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: the TE reflection switches on at t = 2 / sigma, below "
        "the nodes of the first angular panel, so the estimate misses the error",
    )
    @pytest.mark.parametrize(
        "route", [energy_ratio_polylog, energy_ratio_quadrature], ids=["polylog", "quadrature"]
    )
    def test_bound_holds_at_sigma_10_to_the_9_2(self, route):
        reference, unc = self.SIGMA_9_2_REFERENCE
        result = route(StackSpec((ConstantConductivity(10**9.2),) * 2, (1.0,)))
        assert abs(result.ratio - reference) <= result.err_estimate + unc
