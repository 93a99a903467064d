"""Reflection and transmission coefficients for all plate materials."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from casimir_plates.optics import (
    ALPHA_FS,
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

TM = Polarization.TM
TE = Polarization.TE
GRAPHENE_PLATE = ConstantConductivity(SIGMA_GRAPHENE)


def reflection(m, pol, t):
    return coefficients(m, pol, t)[0]


def transmission(m, pol, t):
    return coefficients(m, pol, t)[1]


def test_graphene_constant():
    assert SIGMA_GRAPHENE == pytest.approx(math.pi / 137.035999, rel=1e-15)
    assert ALPHA_FS == pytest.approx(1 / 137.035999, rel=1e-15)


class TestConstantConductivity:
    def test_tm_reflection_value(self):
        assert reflection(ConstantConductivity(2.0), TM, 1.0) == 0.5

    def test_tm_transmission_value(self):
        assert transmission(ConstantConductivity(2.0), TM, 1.0) == 0.5

    def test_te_reflection_graphene(self):
        sigma = SIGMA_GRAPHENE
        r = reflection(ConstantConductivity(sigma), TE, 1.0)
        assert r == pytest.approx(-sigma / (sigma + 2.0), rel=1e-15)
        assert r == pytest.approx(-0.0113328, abs=5e-7)

    def test_t_zero_limits(self):
        plate = ConstantConductivity(1.3)
        assert reflection(plate, TM, 0.0) == 1.0
        assert reflection(plate, TE, 0.0) == 0.0

    def test_zero_conductivity_is_transparent(self):
        plate = ConstantConductivity(0.0)
        for pol in Polarization:
            assert reflection(plate, pol, 0.0) == 0.0
            assert reflection(plate, pol, 0.7) == 0.0
            assert transmission(plate, pol, 0.7) == 1.0

    @given(
        sigma=st.floats(1e-6, 1e6),
        t=st.floats(1e-6, 1.0),
    )
    def test_coefficient_ranges_and_sum_rules(self, sigma, t):
        plate = ConstantConductivity(sigma)
        r_tm, t_tm = coefficients(plate, TM, t)
        r_te, t_te = coefficients(plate, TE, t)
        assert 0.0 < r_tm < 1.0
        assert -1.0 < r_te < 0.0
        assert 0.0 < t_tm < 1.0
        assert 0.0 < t_te < 1.0
        assert r_tm + t_tm == pytest.approx(1.0, abs=1e-15)
        assert t_te - r_te == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("sigma", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("t", [0.01, 0.3, 1.0])
    def test_monotone_approach_to_ideal(self, sigma, t):
        cap = 2.0 / (sigma * min(t, 1.0 / t))
        r_tm = reflection(ConstantConductivity(sigma), TM, t)
        r_te = reflection(ConstantConductivity(sigma), TE, t)
        assert abs(1.0 - abs(r_tm)) <= cap
        assert abs(1.0 - abs(r_te)) <= cap
        # strict growth toward the ideal values with sigma
        r_tm_lo = reflection(ConstantConductivity(sigma / 10), TM, t)
        r_te_lo = reflection(ConstantConductivity(sigma / 10), TE, t)
        assert r_tm > r_tm_lo
        assert r_te < r_te_lo

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            ConstantConductivity(-0.1)

    def test_negative_zero_is_stored_as_zero(self):
        # equal plates give equal amplitudes, down to the sign of a zero
        plate = ConstantConductivity(-0.0)
        assert not np.signbit(plate.sigma)
        t = np.linspace(0.0, 1.0, 5)
        for pol in Polarization:
            for a, b in zip(coefficients(plate, pol, t), coefficients(ConstantConductivity(0.0), pol, t)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_numpy_sigma_is_stored_as_a_float(self, dtype):
        # an equal plate must give the same amplitudes, not float32 ones
        plate, twin = ConstantConductivity(dtype(0.1)), ConstantConductivity(float(dtype(0.1)))
        assert type(plate.sigma) is float and plate.sigma == twin.sigma
        t = np.linspace(0.0, 1.0, 5)
        for pol in Polarization:
            for a, b in zip(coefficients(plate, pol, t), coefficients(twin, pol, t)):
                assert a.tobytes() == b.tobytes()


class TestIdealPlates:
    def test_perfect_electric(self):
        t = 0.3
        assert reflection(PerfectElectric(), TM, t) == 1.0
        assert reflection(PerfectElectric(), TE, t) == -1.0
        assert transmission(PerfectElectric(), TE, t) == 0.0
        assert transmission(PerfectElectric(), TM, t) == 0.0

    def test_perfect_magnetic(self):
        t = 0.9
        assert reflection(PerfectMagnetic(), TM, t) == -1.0
        assert reflection(PerfectMagnetic(), TE, t) == 1.0
        assert transmission(PerfectMagnetic(), TM, t) == 0.0

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 1.0])
    def test_electric_magnetic_are_exact_negations(self, t):
        for pol in Polarization:
            assert reflection(PerfectElectric(), pol, t) == -reflection(
                PerfectMagnetic(), pol, t
            )


class TestTransparent:
    def test_reflects_nothing(self):
        assert reflection(Transparent(), TE, 0.5) == 0.0

    def test_transmits_everything(self):
        assert transmission(Transparent(), TM, 0.7) == 1.0


class TestGenericDeltaPlate:
    def test_electric_only_matches_tm_te_split(self):
        # lambda_g = 0: TM reflects with the electric coupling, TE with none
        plate = GenericDeltaPlate(3.0, 0.0)
        t = 0.4
        e_term = 3.0 / (3.0 + 2.0)
        assert reflection(plate, TM, t) == pytest.approx(e_term, rel=1e-15)
        assert transmission(plate, TM, t) == pytest.approx(1.0 - e_term, rel=1e-15)
        g_term = 3.0 * 0.4**2 / (3.0 * 0.4**2 + 2.0)
        assert reflection(plate, TE, t) == pytest.approx(-g_term, rel=1e-15)

    def test_te_swaps_couplings(self):
        # swapping the couplings exchanges the polarizations
        t = 0.6
        a = coefficients(GenericDeltaPlate(1.2, 0.7), TM, t)
        b = coefficients(GenericDeltaPlate(0.7, 1.2), TE, t)
        assert a[0] == b[0]
        assert a[1] == b[1]

    @given(
        le=st.floats(0.0, 1e6),
        lg=st.floats(0.0, 1e6),
        t=st.floats(0.0, 1.0),
    )
    def test_amplitudes_stay_in_unit_interval(self, le, lg, t):
        plate = GenericDeltaPlate(le, lg)
        for pol in Polarization:
            r, t_coef = coefficients(plate, pol, t)
            assert abs(r) <= 1.0
            assert abs(t_coef) <= 1.0

    def test_negative_couplings_rejected(self):
        with pytest.raises(ValueError):
            GenericDeltaPlate(-1.0, 0.5)
        with pytest.raises(ValueError):
            GenericDeltaPlate(0.5, -1.0)

    def test_negative_zero_couplings_are_stored_as_zero(self):
        plate = GenericDeltaPlate(-0.0, -0.0)
        assert not np.signbit(plate.lambda_e) and not np.signbit(plate.lambda_g)
        assert GenericDeltaPlate(1.5, -0.0) == GenericDeltaPlate(1.5, 0.0)
        assert repr(GenericDeltaPlate(1.5, -0.0)) == repr(GenericDeltaPlate(1.5, 0.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_numpy_couplings_are_stored_as_floats(self, dtype):
        # GenericDeltaPlate(np.float32(0.1), 1.0) is == and hash-equal to its
        # float twin, so its TM amplitudes must not be float32 ones
        plate = GenericDeltaPlate(dtype(0.1), dtype(1.0))
        twin = GenericDeltaPlate(float(dtype(0.1)), 1.0)
        assert type(plate.lambda_e) is float and type(plate.lambda_g) is float
        assert repr(plate) == repr(twin)
        t = np.linspace(0.0, 1.0, 5)
        for pol in Polarization:
            for a, b in zip(coefficients(plate, pol, t), coefficients(twin, pol, t)):
                assert a.tobytes() == b.tobytes()


MATERIALS = (
    GRAPHENE_PLATE,
    ConstantConductivity(0.0),
    ConstantConductivity(1e6),
    GenericDeltaPlate(1.5, 0.3),
    GenericDeltaPlate(0.0, 2.0),
    PerfectElectric(),
    PerfectMagnetic(),
    Transparent(),
)


class TestNodesAndSlots:
    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan, math.inf])
    def test_node_domain(self, bad):
        with pytest.raises(ValueError):
            coefficients(GRAPHENE_PLATE, TM, bad)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan, math.inf])
    def test_array_with_one_bad_node(self, bad):
        t = np.array([0.0, 0.25, bad, 1.0])
        with pytest.raises(ValueError, match=rf"t must lie in \[0, 1\], got {bad!r}"):
            coefficients(GRAPHENE_PLATE, TE, t)

    def test_sweep_slot_cannot_be_evaluated(self):
        with pytest.raises(TypeError):
            reflection(SweepSlot(), TM, 0.5)


class TestArrayNodes:
    @pytest.mark.parametrize("pol", list(Polarization))
    @pytest.mark.parametrize("plate", MATERIALS, ids=repr)
    def test_array_equals_one_node_calls(self, plate, pol):
        t = np.concatenate(([0.0, 1.0], np.random.default_rng(3).uniform(0.0, 1.0, 44)))
        r, t_coef = coefficients(plate, pol, t)
        assert r.shape == t_coef.shape == t.shape
        for j, tj in enumerate(t.tolist()):
            # bit for bit, the sign of zero included
            one = [float(v).hex() for v in coefficients(plate, pol, tj)]
            assert [float(r[j]).hex(), float(t_coef[j]).hex()] == one
