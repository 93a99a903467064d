"""The multiple-scattering parameter Delta and its composition expansion.

The central check plays the paper's composition sum (`delta_compositions`)
against the transfer matrix (`delta_total`), two algebraically equal but
structurally unrelated computations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import casimir_plates
from casimir_plates import config, energy, optics, presets, scattering, special
from casimir_plates.optics import (
    ConstantConductivity,
    PerfectMagnetic,
    Polarization,
    Transparent,
    coefficients,
)
from casimir_plates.scattering import (
    NodeCoefficients,
    StackGeometry,
    compositions,
    delta_compositions,
    delta_total,
    round_trip_matrix,
)

RNG_SEED = 20250822


def random_instance(rng, n=None, ideal=False):
    """Random coefficients, geometry and s."""
    n = n if n is not None else int(rng.integers(2, 9))
    if ideal:
        r = tuple(float(v) for v in rng.choice([-1.0, 1.0], size=n))
        t = (0.0,) * n
    else:
        r = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=n))
        t = tuple(float(v) for v in rng.uniform(0.0, 1.0, size=n))
    gaps = tuple(float(v) for v in rng.uniform(0.2, 3.0, size=n - 1))
    s = float(rng.uniform(0.0, 20.0))
    return NodeCoefficients(r, t), StackGeometry(gaps), s


class TestCompositions:
    def test_single_gap(self):
        assert [c for c in compositions(1)] == [(1,)]

    def test_two_gaps(self):
        assert list(compositions(2)) == [(1, 1), (2,)]

    def test_five_gaps_has_sixteen_terms(self):
        parts = list(compositions(5))
        assert len(parts) == 16
        assert len(set(parts)) == 16
        assert all(sum(p) == 5 for p in parts)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_counts_are_powers_of_two(self, n):
        assert len(list(compositions(n))) == 2 ** (n - 1)

    def test_lexicographic_order(self):
        parts = list(compositions(4))
        assert parts == sorted(parts)

    @pytest.mark.parametrize("n", [0, -3, 63])
    def test_bounds(self, n):
        with pytest.raises(ValueError):
            compositions(n)


class TestFactors:
    """The two kinds of factor of the expansion, read off stacks whose
    composition sum reduces to a single factor or a single loop."""

    def test_nearest_perfect_conductors(self):
        coeffs = NodeCoefficients((1.0, 1.0), (0.0, 0.0))
        value = delta_compositions(coeffs, StackGeometry((1.0,)), math.log(4.0))
        assert value == pytest.approx(0.75, rel=1e-15)

    def test_nearest_infinite_separation(self):
        coeffs = NodeCoefficients((0.3, -0.8), (0.5, 0.5))
        assert delta_compositions(coeffs, StackGeometry((1.0,)), math.inf) == 1.0

    def test_nearest_opposite_signs(self):
        coeffs = NodeCoefficients((1.0, -1.0), (0.0, 0.0))
        value = delta_compositions(coeffs, StackGeometry((1.0,)), math.log(2.0))
        assert value == pytest.approx(1.5, rel=1e-15)

    def test_beyond_opaque_middle_vanishes(self):
        # the loop through an opaque plate is zero, leaving the two factors
        coeffs = NodeCoefficients((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        y = math.exp(-1.3)
        value = delta_compositions(coeffs, StackGeometry((1.0, 1.0)), 1.3)
        assert value == (1.0 - y) * (1.0 - y)

    def test_beyond_unit_coefficients(self):
        # a reflectionless middle plate leaves only the loop: Delta = 1 - x^2
        x = 0.37
        s = -math.log(x)
        coeffs = NodeCoefficients((1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
        value = delta_compositions(coeffs, StackGeometry((1.0, 1.0)), s)
        assert value - 1.0 == pytest.approx(-(x**2), rel=1e-14)

    def test_beyond_hand_expanded(self):
        x = 0.5
        s = -math.log(x)
        coeffs = NodeCoefficients((0.5, 0.0, 0.0, 0.5), (0.0, 0.5, 0.5, 0.0))
        geo = StackGeometry((1.0, 1.0, 1.0))
        expected = -0.5 * 0.5 * (0.5**2 * 0.5**2) * 0.5**3
        # every other term of the expansion is exactly zero or one
        assert delta_compositions(coeffs, geo, s) - 1.0 == pytest.approx(
            expected, rel=1e-14
        )
        assert expected == -0.001953125


class TestDeltaTotal:
    def test_pair_single_factor(self):
        coeffs = NodeCoefficients((1.0, 1.0), (0.0, 0.0))
        geo = StackGeometry((1.0,))
        s = -math.log(0.25)
        assert delta_total(coeffs, geo, s) == pytest.approx(0.75, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_no_scattering(self, n):
        coeffs = NodeCoefficients((0.0,) * n, (0.7,) * n)
        geo = StackGeometry((1.0,) * (n - 1))
        assert delta_total(coeffs, geo, 0.8) == 1.0

    def test_three_plates_hand_formula(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(25):
            r = rng.uniform(-1.0, 1.0, size=3)
            t = rng.uniform(0.0, 1.0, size=3)
            x = rng.uniform(0.0, 0.999)
            s = -math.log(x) if x > 0 else 50.0
            coeffs = NodeCoefficients(tuple(r), tuple(t))
            geo = StackGeometry((1.0, 1.0))
            expected = (1 - r[0] * r[1] * x) * (1 - r[1] * r[2] * x) - (
                r[0] * t[1] ** 2 * r[2] * x**2
            )
            assert delta_total(coeffs, geo, s) == pytest.approx(expected, rel=1e-13)

    def test_size_mismatch(self):
        coeffs = NodeCoefficients((0.1, 0.2, 0.3), (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            delta_total(coeffs, StackGeometry((1.0,)), 1.0)

    def test_large_s_approaches_one(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        coeffs, geo, _ = random_instance(rng, n=6)
        assert delta_total(coeffs, geo, 200.0) == pytest.approx(1.0, abs=1e-15)


class TestOracleEquivalence:
    def test_pair_matches_nearest_factor(self):
        coeffs = NodeCoefficients((0.4, -0.7), (0.6, 0.3))
        geo = StackGeometry((1.7,))
        s = 0.9
        y = math.exp(-s * 1.7)
        assert delta_total(coeffs, geo, s) == pytest.approx(
            1.0 - 0.4 * -0.7 * y, rel=1e-15
        )

    def test_three_plates_recursion_expands_correctly(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(25):
            coeffs, geo, s = random_instance(rng, n=3)
            x01 = math.exp(-s * geo.gaps[0])
            x12 = math.exp(-s * geo.gaps[1])
            r, t = coeffs.r, coeffs.t_coef
            expected = (1 - r[0] * r[1] * x01) * (1 - r[1] * r[2] * x12) - (
                r[0] * t[1] ** 2 * r[2] * x01 * x12
            )
            assert delta_total(coeffs, geo, s) == pytest.approx(expected, rel=1e-12)

    def test_equivalence_thousand_instances(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        for _ in range(1100):
            coeffs, geo, s = random_instance(rng)
            a = delta_compositions(coeffs, geo, s)
            b = delta_total(coeffs, geo, s)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_equivalence_on_ideal_stacks(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(100):
            coeffs, geo, s = random_instance(rng, ideal=True)
            a = delta_compositions(coeffs, geo, s)
            b = delta_total(coeffs, geo, s)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_ideal_coincidence_gives_zero(self):
        # |r r' y| = 1: the transfer matrix has no denominator to vanish
        coeffs = NodeCoefficients((1.0, 1.0), (0.0, 0.0))
        assert delta_total(coeffs, StackGeometry((1.0,)), 0.0) == 0.0

    def test_transparent_interior_beyond_composition_cap(self):
        # 70 plates, more than compositions() admits: only the outer pair
        # scatters, across the sum of all 69 gaps
        pol = Polarization.TM
        plates = (
            (ConstantConductivity(1.7),) + (Transparent(),) * 68 + (PerfectMagnetic(),)
        )
        r, t_coef = zip(*(coefficients(p, pol, 0.35) for p in plates))
        coeffs = NodeCoefficients(r, t_coef)
        rng = np.random.default_rng(RNG_SEED + 9)
        geo = StackGeometry(tuple(float(g) for g in rng.uniform(0.2, 3.0, size=69)))
        s = 0.004
        expected = 1.0 - coeffs.r[0] * coeffs.r[69] * math.exp(-s * sum(geo.gaps))
        assert delta_total(coeffs, geo, s) == pytest.approx(expected, rel=1e-14)


class TestArrayFrequencies:
    """`delta_total` on an ndarray of s, as the quadrature route calls it."""

    @staticmethod
    def s_grid(rng):
        return np.concatenate(([0.0], np.sort(rng.uniform(0.0, 20.0, size=45))))

    def test_elementwise_equal_to_scalar_calls(self):
        rng = np.random.default_rng(RNG_SEED + 10)
        for _ in range(200):
            coeffs, geo, _ = random_instance(rng)
            s = self.s_grid(rng)
            values = delta_total(coeffs, geo, s)
            assert isinstance(values, np.ndarray) and values.shape == s.shape
            for si, v in zip(s.tolist(), values.tolist()):
                assert v == delta_total(coeffs, geo, si)

    def test_agrees_with_compositions(self):
        rng = np.random.default_rng(RNG_SEED + 11)
        for _ in range(200):
            coeffs, geo, _ = random_instance(rng)
            s = self.s_grid(rng)
            values = delta_total(coeffs, geo, s)
            for si, v in zip(s.tolist(), values.tolist()):
                a = delta_compositions(coeffs, geo, si)
                assert abs(a - v) <= 1e-12 * max(1.0, abs(a))

    def test_grid_shape_is_kept(self):
        rng = np.random.default_rng(RNG_SEED + 12)
        coeffs, geo, _ = random_instance(rng, n=5)
        s = rng.uniform(0.0, 10.0, size=(3, 4))
        values = delta_total(coeffs, geo, s)
        assert values.shape == (3, 4)
        assert values[2, 1] == delta_total(coeffs, geo, float(s[2, 1]))

    def test_block_equals_scalar_calls(self):
        # k nodes side by side: column i of (r, t) goes with row i of s
        rng = np.random.default_rng(RNG_SEED + 13)
        for n in (2, 3, 4, 7):
            nodes = [random_instance(rng, n=n)[0] for _ in range(9)]
            geo = StackGeometry(tuple(rng.uniform(0.5, 2.0, size=n - 1)))
            r = np.array([c.r for c in nodes]).T
            t = np.array([c.t_coef for c in nodes]).T
            s = np.stack([self.s_grid(rng) for _ in nodes])
            values = delta_total((r, t), geo, s)
            assert values.shape == (len(nodes), 46)
            for coeffs, row_s, row in zip(nodes, s.tolist(), values.tolist()):
                assert row == [delta_total(coeffs, geo, si) for si in row_s]

    def test_block_size_mismatch(self):
        r = t = np.zeros((3, 2))
        with pytest.raises(ValueError):
            delta_total((r, t), StackGeometry((1.0,)), np.ones((2, 46)))

    def test_ideal_pair_vanishes_at_zero_frequency(self):
        coeffs = NodeCoefficients((1.0, 1.0), (0.0, 0.0))
        values = delta_total(coeffs, StackGeometry((1.0,)), np.array([0.0, 1.0]))
        assert values[0] == 0.0
        assert values[1] > 0.0

    def test_exactly_one_where_exp_underflows(self):
        rng = np.random.default_rng(RNG_SEED + 13)
        for n in (2, 3, 8):
            coeffs, geo, _ = random_instance(rng, n=n)
            # exp(-s g) == 0.0 for every gap g >= 0.2
            s = np.array([1e4, 1e5, np.inf])
            assert np.exp(-s * min(geo.gaps)).tolist() == [0.0, 0.0, 0.0]
            assert delta_total(coeffs, geo, s).tolist() == [1.0, 1.0, 1.0]


class TestStructuralInvariants:
    def test_reversal_symmetry(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        for _ in range(300):
            coeffs, geo, s = random_instance(rng)
            fwd = delta_total(coeffs, geo, s)
            rev = delta_total(
                NodeCoefficients(coeffs.r[::-1], coeffs.t_coef[::-1]),
                StackGeometry(geo.gaps[::-1]),
                s,
            )
            assert abs(fwd - rev) <= 1e-12 * max(1.0, abs(fwd))

    def test_transparent_plate_merges_gaps(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        for _ in range(300):
            coeffs, geo, s = random_instance(rng, n=int(rng.integers(3, 8)))
            n = coeffs.n_plates
            m = int(rng.integers(1, n - 1))  # interior plate
            r = list(coeffs.r)
            t = list(coeffs.t_coef)
            r[m], t[m] = 0.0, 1.0
            full = delta_total(NodeCoefficients(tuple(r), tuple(t)), geo, s)
            merged_gaps = (
                geo.gaps[: m - 1]
                + (geo.gaps[m - 1] + geo.gaps[m],)
                + geo.gaps[m + 1 :]
            )
            reduced = delta_total(
                NodeCoefficients(tuple(r[:m] + r[m + 1 :]), tuple(t[:m] + t[m + 1 :])),
                StackGeometry(merged_gaps),
                s,
            )
            assert abs(full - reduced) <= 1e-12 * max(1.0, abs(full))

    def test_opaque_stack_factorizes_exactly(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        for _ in range(100):
            coeffs, geo, s = random_instance(rng, ideal=True)
            product = 1.0
            for k in range(coeffs.n_plates - 1):
                y = math.exp(-s * geo.gaps[k])
                product *= 1.0 - coeffs.r[k] * coeffs.r[k + 1] * y
            assert delta_compositions(coeffs, geo, s) == product

    @given(st.integers(2, 8), st.floats(0.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_term_count(self, n, s):
        coeffs = NodeCoefficients((0.5,) * n, (0.5,) * n)
        geo = StackGeometry((1.0,) * (n - 1))
        # the expansion must sum exactly 2^(n-2) composition products
        assert len(list(compositions(n - 1))) == 2 ** (n - 2)
        value = delta_compositions(coeffs, geo, s)
        assert math.isfinite(value)


class TestRoundTripMatrix:
    def test_pair_is_one_round_trip(self):
        r0, r1 = 0.62, -0.3
        m = round_trip_matrix((r0, r1), (1 - r0, 1 + r1))
        assert m.tolist() == [[r0 * r1]]

    def test_three_plates_hand_formula(self):
        r0, r1, r2, t1 = 0.4, 0.3, -0.7, 0.6
        m = round_trip_matrix((r0, r1, r2), (0.5, t1, 0.2))
        assert m.tolist() == [[r0 * r1, r0 * t1], [r2 * t1, r2 * r1]]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_determinant_matches_total_and_oracle(self, n):
        # Delta = det(I - x M) at unit gaps, x = exp(-s)
        rng = np.random.default_rng(RNG_SEED + 8)
        for _ in range(20):
            coeffs, _, _ = random_instance(rng, n=n)
            geo = StackGeometry((1.0,) * (n - 1))
            m = round_trip_matrix(coeffs.r, coeffs.t_coef)
            assert m.shape == (n - 1, n - 1)
            for x in rng.uniform(0.0, 0.95, size=5):
                s = -math.log(x) if x > 0 else 60.0
                value = np.linalg.det(np.eye(n - 1) - x * m)
                for delta in (delta_total, delta_compositions):
                    assert value == pytest.approx(delta(coeffs, geo, s), rel=1e-12, abs=1e-12)

    def test_opaque_plate_decouples_the_segments(self):
        # t = 0 inside the stack: the matrix is block diagonal and its
        # eigenvalues are those of the two segments
        r, t = (0.5, -0.4, 1.0, 0.3, 0.8), (0.5, 0.6, 0.0, 0.7, 0.2)
        whole = np.sort_complex(np.linalg.eigvals(round_trip_matrix(r, t)))
        parts = np.concatenate(
            [np.linalg.eigvals(round_trip_matrix(r[:3], t[:3])),
             np.linalg.eigvals(round_trip_matrix(r[2:], t[2:]))]
        )
        assert whole == pytest.approx(np.sort_complex(parts), abs=1e-15)

    @pytest.mark.parametrize(
        "plates",
        [
            (ConstantConductivity(0.5), ConstantConductivity(2.0)),
            (ConstantConductivity(0.5), PerfectMagnetic(), ConstantConductivity(2.0),
             ConstantConductivity(0.0)),
            (ConstantConductivity(2.0), Transparent(), ConstantConductivity(0.5),
             ConstantConductivity(1.0), ConstantConductivity(0.5)),
        ],
        ids=["pair", "interior-opaque", "transparent"],
    )
    @pytest.mark.parametrize("pol", list(Polarization))
    def test_node_tables_stack_the_single_matrices(self, plates, pol):
        # (N, k) tables give the (k, N-1, N-1) stack of the k single-node
        # matrices, bit for bit (a sigma = 0 plate brings -0.0 amplitudes)
        t = np.linspace(0.0, 1.0, 7) ** 3
        r, t_coef = (np.array(c) for c in zip(*(coefficients(p, pol, t) for p in plates)))
        stacked = round_trip_matrix(r, t_coef)
        single = np.array([round_trip_matrix(r[:, j], t_coef[:, j]) for j in range(t.size)])
        assert stacked.shape == (t.size, len(plates) - 1, len(plates) - 1)
        assert stacked.tobytes() == single.tobytes()


class TestValidation:
    @pytest.mark.parametrize("module", [casimir_plates, scattering])
    def test_public_names_resolve(self, module):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == []

    def test_public_surface_is_the_modules_lists(self):
        names = casimir_plates.__all__
        modules = (optics, scattering, special, energy, config, presets)
        assert len(set(names)) == len(names)
        assert names == ["__version__"] + [n for m in modules for n in m.__all__]
        assert sorted(names) == [
            "ALPHA_FS", "C_LIGHT", "ConfigError", "ConstantConductivity",
            "DeltaDomainError", "EnergyResult", "GenericDeltaPlate", "HBAR",
            "LI4_MINUS_ONE", "Material", "NodeCoefficients", "PRESET_NAMES",
            "PerfectElectric", "PerfectMagnetic", "Polarization", "PolylogPathError",
            "QuadratureConvergenceError", "QuadratureSpec", "RunConfig",
            "SIGMA_GRAPHENE", "StackGeometry", "StackSpec", "SweepError", "SweepGrid",
            "SweepPoint", "SweepSlot", "Transparent", "UnitDiskRootError", "ZETA4",
            "__version__", "absolute_energy", "coefficients", "delta_compositions",
            "delta_total", "energy_ratio", "energy_ratio_polylog",
            "energy_ratio_quadrature", "format_config", "ideal_stack_ratio", "li4",
            "list_presets", "parse_config", "preset_configs", "round_trip_matrix",
            "sweep", "validate_config",
        ]

    def test_geometry_positive_gaps(self):
        with pytest.raises(ValueError):
            StackGeometry((1.0, -0.5))
        with pytest.raises(ValueError):
            StackGeometry(())

    def test_coefficients_in_range(self):
        with pytest.raises(ValueError):
            NodeCoefficients((1.5, 0.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            NodeCoefficients((0.5,), (0.5,))
