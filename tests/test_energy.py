"""Energy ratios: reference values, route cross-checks, and invariants.

Reference numbers were frozen from high-precision evaluations (mpmath
node sums and independent 2-D quadrature) that agree with the package to
the stated tolerances.
"""

import cmath
import math
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
    6: 0.028007412696,
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
            for r, t_coef in energy_mod._coefficient_tables(uniform_stack(plates), t):
                for j in range(t.size):
                    matrices.append(round_trip_matrix(r[:, j], t_coef[:, j]))
        paired = 0
        for m in matrices:
            w = _inverse_roots(m).tolist()
            lower = sorted((z.real, -z.imag) for z in w if z.imag < 0.0)
            upper = sorted((z.real, z.imag) for z in w if z.imag > 0.0)
            # `_li4_root_sum` counts the lower member twice and skips the upper
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
        tables = energy_mod._coefficient_tables(stack, t)
        for j in range(t.size):
            expected = 0.0
            for r, t_coef in tables:
                m = round_trip_matrix(r[:, j], t_coef[:, j])
                assert m.shape == (3, 3)
                expected += _li4_root_sum(_inverse_roots(m))
            assert values[j] == expected

    def test_exception_hierarchy(self):
        assert issubclass(UnitDiskRootError, PolylogPathError)
        assert issubclass(PolylogPathError, RuntimeError)

    def test_unit_disk_error_names_node_and_polarization(self, monkeypatch):
        import casimir_plates.energy as energy_mod

        real_tables = energy_mod._coefficient_tables
        real_roots = energy_mod._inverse_roots
        seen_t, calls = [], []

        def coefficient_tables(stack, t):
            seen_t.append(t)
            return real_tables(stack, t)

        def escaping_roots(m):
            # one call per polarization, TM before TE; the TE stack gets an
            # eigenvalue at |w| = 1.5 at the panel's fourth node
            w = real_roots(m).astype(complex)
            calls.append(w.shape)
            if len(calls) == 2:
                w[3, 1] = 1.5
            return w

        monkeypatch.setattr(energy_mod, "_coefficient_tables", coefficient_tables)
        monkeypatch.setattr(energy_mod, "_inverse_roots", escaping_roots)
        with pytest.raises(UnitDiskRootError) as err:
            energy_ratio_polylog(uniform_stack([GRAPHENE] * 3))
        assert len(seen_t) == 1 and calls == [(seen_t[0].size, 2)] * 2
        node = float(seen_t[0][3])
        assert node != float(seen_t[0][0])
        assert type(err.value.t) is float and err.value.t == node
        assert err.value.pol is Polarization.TE
        assert str(err.value) == (
            f"li4 argument outside the unit disk: |z| = 1.5 at t={node!r}, TE"
        )
        assert isinstance(err.value.__cause__, ValueError)
        assert not hasattr(err.value, "roots")

    def test_non_uniform_auto_uses_quadrature(self):
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-8)
        result = energy_ratio(StackSpec((GRAPHENE, PE, GRAPHENE), (0.5, 1.5)), spec)
        assert result.method == "quadrature"


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
        tables = energy_mod._coefficient_tables(stack, np.array([t]))
        reference = sum(mp_node_sum(r[:, 0].tolist(), tc[:, 0].tolist()) for r, tc in tables)
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
    def test_polylog_meets_tolerance_and_covers_reference(self, plates, reference, unc):
        spec = QuadratureSpec()
        result = energy_ratio_polylog(uniform_stack(plates), spec)
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
        exact = next(s for s in config.sweep_grid.values() if abs(s - sigma) < 1e-6 * sigma)
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
        sigma = next(s for s in curve.sweep_grid.values() if abs(s - 601.3450635) < 1e-6)
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

        def poisoned_delta(coeffs, geometry, s):
            d = np.array(real_delta(coeffs, geometry, s))
            d[1, 7] = -0.25
            d[1, 20] = 0.0
            d[2, 0] = -1.0  # a later row: (row, column) order names row 1
            bad_s.append(s[1, 7])
            rows_seen.append(s.shape[0])
            return d

        monkeypatch.setattr(energy_mod, "_coefficient_tables", coefficient_tables)
        monkeypatch.setattr(energy_mod, "delta_total", poisoned_delta)
        stack = StackSpec((GRAPHENE, GRAPHENE, GRAPHENE), (1.0, 2.0))
        with pytest.raises(DeltaDomainError) as err:
            energy_ratio_quadrature(stack, QuadratureSpec(rel_tol=1e-6))
        message = str(err.value)
        # the first call holds the first panel of all 46 nodes, row i at node i
        assert rows_seen == [46]
        assert "Delta = -0.25" in message
        assert message.endswith(": invalid coefficient regime")
        assert f"t={float(seen_t[0][1])!r}" in message
        assert f"s={float(bad_s[-1])!r}" in message

    @pytest.mark.parametrize("bad", [0.0, -5e-324])
    def test_domain_error_names_an_underflow(self, monkeypatch, bad):
        import casimir_plates.energy as energy_mod

        real_delta = energy_mod.delta_total

        def poisoned_delta(coeffs, geometry, s):
            d = np.array(real_delta(coeffs, geometry, s))
            d[1, 7] = bad
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
        # Delta on the 1-D array of one panel's frequencies
        from casimir_plates.scattering import (
            NodeCoefficients,
            StackGeometry,
            delta_total,
        )
        from casimir_plates.special import _integrate_floor

        stack = StackSpec(plates, gaps)
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-12)
        inner_spec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-13)
        g_min = min(gaps)
        geometry = StackGeometry(tuple(g / g_min for g in gaps))

        def node(t):
            pair = []
            for pol in Polarization:
                r, t_coef = zip(*(coefficients(p, pol, t) for p in plates))
                pair.append(NodeCoefficients(r, t_coef))

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
    def test_polylog_bound_holds_at_large_sigma(self):
        stack = StackSpec((ConstantConductivity(1e6),) * 2, (1.0,))
        result = energy_ratio_polylog(stack, QuadratureSpec(1e-4))
        # mpmath value of the pair's 1-D integral over Li4(r r')
        assert abs(result.ratio - 0.99997116889) <= result.err_estimate
