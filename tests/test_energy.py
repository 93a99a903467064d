"""Energy ratios: reference values, route cross-checks, and invariants.

Reference numbers were frozen from high-precision evaluations (mpmath
node sums and independent 2-D quadrature) that agree with the package to
the stated tolerances.
"""

import cmath
import math
from fractions import Fraction

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
    AngularNode,
    coefficients,
)
from casimir_plates.special import QuadratureSpec, _integrate_floor, li4

GRAPHENE = ConstantConductivity(SIGMA_GRAPHENE)
PE = PerfectElectric()
PM = PerfectMagnetic()

# graphene-stack ratios, frozen from 60-digit node-sum evaluations
GRAPHENE_RATIOS = {
    2: 0.005383322874,
    3: 0.010999557906,
    4: 0.016658419044,
    5: 0.022330307141,
    6: 0.028007407939,
}


def integrate_t(f):
    """``int_0^1 f(t) dt`` of a scalar callable, one call per node."""
    g = lambda x: (np.array([f(t) for t in x]), np.zeros(x.shape))
    return _integrate_floor(g, 0.0, 1.0, QuadratureSpec())[0]


def uniform_stack(plates, gap=1.0):
    return StackSpec(tuple(plates), (gap,) * (len(plates) - 1))


class TestReferenceValues:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_graphene_stacks_polylog(self, n):
        result = energy_ratio_polylog(uniform_stack([GRAPHENE] * n))
        assert result.ratio == pytest.approx(GRAPHENE_RATIOS[n], abs=1e-8)
        assert result.err_estimate < 1e-8

    def test_graphene_six_plates(self):
        result = energy_ratio_polylog(uniform_stack([GRAPHENE] * 6))
        assert result.ratio == pytest.approx(GRAPHENE_RATIOS[6], abs=2e-6)

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
                r = coefficients(plate, pol, AngularNode(t)).r
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
                r, t_coef = coefficients(plate, pol, AngularNode(t))
                a = -2.0 * r * r
                b = r**4 - r**2 * t_coef**2
                root = cmath.sqrt(a * a - 4.0 * b)
                total += li4((-a + root) / 2.0) + li4((-a - root) / 2.0)
            return total.real

        expected = 45.0 / math.pi**4 * integrate_t(node)
        result = energy_ratio_polylog(uniform_stack([plate] * 3))
        assert result.ratio == pytest.approx(expected, rel=1e-10)


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

    def test_rejects_non_unit_gaps(self):
        with pytest.raises(ValueError):
            ideal_stack_ratio(uniform_stack([PE, PE], gap=2.0))

    def test_quadrature_agrees_with_exact_ratios(self):
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10)
        cases = [
            ([PE, PE, PE], Fraction(2)),
            ([PE, PM, PE], Fraction(-7, 4)),
            ([PM, PM, PE, PE], Fraction(2) - Fraction(7, 8)),
        ]
        for plates, exact in cases:
            result = energy_ratio_quadrature(uniform_stack(plates), spec)
            assert result.ratio == pytest.approx(float(exact), abs=1e-6)

    def test_polylog_on_ideal_stacks(self):
        result = energy_ratio_polylog(uniform_stack([PE, PM, PE, PM, PE]))
        assert result.ratio == pytest.approx(float(Fraction(-7, 8) * 4), abs=1e-12)
        assert result.err_estimate < 1e-12


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
            assert a.ratio == pytest.approx(b.ratio, abs=1e-6)


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
    def test_genuine_interior_root_aborts(self):
        # inverse roots 2.0 and 0.6: the former is far outside any error bar
        with pytest.raises(ValueError):
            _inverse_roots([1.0, -2.6, 1.2])

    def test_marginal_root_aborts(self):
        with pytest.raises(ValueError):
            _inverse_roots([1.0, -(1.0 + 1e-5)])

    def test_clean_roots_pass(self):
        roots, err = _inverse_roots([1.0, -0.25])
        assert err == 0.0
        assert roots[0] == pytest.approx(0.25)

    def test_exception_hierarchy(self):
        assert issubclass(UnitDiskRootError, PolylogPathError)
        assert issubclass(PolylogPathError, RuntimeError)

    def test_non_uniform_auto_uses_quadrature(self):
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-8)
        result = energy_ratio(StackSpec((GRAPHENE, PE, GRAPHENE), (0.5, 1.5)), spec)
        assert result.method == "quadrature"


class TestLongUniformStacks:
    def test_auto_falls_back_to_quadrature(self):
        spec = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-7)
        result = energy_ratio(uniform_stack((GRAPHENE,) * 64), spec)
        assert result.method == "quadrature"
        assert result.err_estimate <= max(spec.abs_tol, spec.rel_tol * abs(result.ratio))

    def test_polylog_refuses_before_expanding_compositions(self, monkeypatch):
        import casimir_plates.scattering as scattering_mod

        def compositions(n):
            raise AssertionError(f"compositions({n}) was called")

        monkeypatch.setattr(scattering_mod, "compositions", compositions)
        with pytest.raises(PolylogPathError):
            energy_ratio(uniform_stack((GRAPHENE,) * 20), method="polylog")


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
        real_coefficients = energy_mod._node_coefficients
        seen_t, bad_s, rows_seen = [], [], []

        def node_coefficients(stack, pol, t):
            seen_t.append(t)
            return real_coefficients(stack, pol, t)

        def poisoned_delta(coeffs, geometry, s):
            d = np.array(real_delta(coeffs, geometry, s))
            d[1, 7] = -0.25
            d[1, 20] = 0.0
            d[2, 0] = -1.0  # a later row: (row, column) order names row 1
            bad_s.append(s[1, 7])
            rows_seen.append(s.shape[0])
            return d

        monkeypatch.setattr(energy_mod, "_node_coefficients", node_coefficients)
        monkeypatch.setattr(energy_mod, "delta_total", poisoned_delta)
        stack = StackSpec((GRAPHENE, GRAPHENE, GRAPHENE), (1.0, 2.0))
        with pytest.raises(DeltaDomainError) as err:
            energy_ratio_quadrature(stack, QuadratureSpec(rel_tol=1e-6))
        message = str(err.value)
        # the first call holds the first panel of all 46 nodes, row i at node i
        assert rows_seen == [46]
        assert "Delta = -0.25" in message
        assert f"t={float(seen_t[1])!r}" in message
        assert f"s={float(bad_s[-1])!r}" in message

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
        # Delta on the 1-D array of one panel's frequencies
        from casimir_plates.energy import _node_coefficients
        from casimir_plates.scattering import StackGeometry, delta_total
        from casimir_plates.special import _integrate_floor

        stack = StackSpec(plates, gaps)
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-12)
        inner_spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-13)
        g_min = min(gaps)
        geometry = StackGeometry(tuple(g / g_min for g in gaps))

        def node(t):
            pair = [_node_coefficients(stack, pol, t) for pol in Polarization]

            def h(u):
                lg = np.log(u)
                total = 0.0
                for coeffs in pair:
                    total = total + np.log(delta_total(coeffs, geometry, -lg))
                return lg * lg * total / u, np.zeros(u.shape)

            return _integrate_floor(h, 0.0, 1.0, inner_spec)

        value, bound = _integrate_floor(
            lambda x: np.array([node(t) for t in x]).T, 0.0, 1.0, spec
        )
        scale = -45.0 / (2.0 * math.pi**4) / g_min**3
        result = energy_ratio_quadrature(stack, spec)
        assert (result.ratio, result.err_estimate) == (scale * value, abs(scale) * bound)


class TestStrongCouplingBound:
    @pytest.mark.xfail(
        strict=True,
        reason="known fault: at sigma=1e6 and rel 1e-4 the adaptive t-integration stops "
        "early; err_estimate 3.1e-6 against a true error of 9.8e-6",
    )
    def test_polylog_bound_holds_at_large_sigma(self):
        stack = StackSpec((ConstantConductivity(1e6),) * 2, (1.0,))
        result = energy_ratio_polylog(stack, QuadratureSpec(1e-4))
        # mpmath value of the pair's 1-D integral over Li4(r r')
        assert abs(result.ratio - 0.99997116889) <= result.err_estimate
