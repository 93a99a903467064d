"""Reflection and transmission coefficients for all plate materials."""

import math

import pytest
from hypothesis import given, strategies as st

from casimir_plates.optics import (
    ALPHA_FS,
    SIGMA_GRAPHENE,
    AngularNode,
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


def reflection(m, pol, node):
    return coefficients(m, pol, node).r


def transmission(m, pol, node):
    return coefficients(m, pol, node).t_coef


def test_graphene_constant():
    assert SIGMA_GRAPHENE == pytest.approx(math.pi / 137.035999, rel=1e-15)
    assert ALPHA_FS == pytest.approx(1 / 137.035999, rel=1e-15)


class TestConstantConductivity:
    def test_tm_reflection_value(self):
        assert reflection(ConstantConductivity(2.0), TM, AngularNode(1.0)) == 0.5

    def test_tm_transmission_value(self):
        assert transmission(ConstantConductivity(2.0), TM, AngularNode(1.0)) == 0.5

    def test_te_reflection_graphene(self):
        sigma = SIGMA_GRAPHENE
        r = reflection(ConstantConductivity(sigma), TE, AngularNode(1.0))
        assert r == pytest.approx(-sigma / (sigma + 2.0), rel=1e-15)
        assert r == pytest.approx(-0.0113328, abs=5e-7)

    def test_t_zero_limits(self):
        plate = ConstantConductivity(1.3)
        assert reflection(plate, TM, AngularNode(0.0)) == 1.0
        assert reflection(plate, TE, AngularNode(0.0)) == 0.0

    def test_zero_conductivity_is_transparent(self):
        plate = ConstantConductivity(0.0)
        for pol in Polarization:
            assert reflection(plate, pol, AngularNode(0.0)) == 0.0
            assert reflection(plate, pol, AngularNode(0.7)) == 0.0
            assert transmission(plate, pol, AngularNode(0.7)) == 1.0

    @given(
        sigma=st.floats(1e-6, 1e6),
        t=st.floats(1e-6, 1.0),
    )
    def test_coefficient_ranges_and_sum_rules(self, sigma, t):
        plate = ConstantConductivity(sigma)
        node = AngularNode(t)
        r_tm, t_tm = coefficients(plate, TM, node)
        r_te, t_te = coefficients(plate, TE, node)
        assert 0.0 < r_tm < 1.0
        assert -1.0 < r_te < 0.0
        assert 0.0 < t_tm < 1.0
        assert 0.0 < t_te < 1.0
        assert r_tm + t_tm == pytest.approx(1.0, abs=1e-15)
        assert t_te - r_te == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("sigma", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("t", [0.01, 0.3, 1.0])
    def test_monotone_approach_to_ideal(self, sigma, t):
        node = AngularNode(t)
        cap = 2.0 / (sigma * min(t, 1.0 / t))
        r_tm = reflection(ConstantConductivity(sigma), TM, node)
        r_te = reflection(ConstantConductivity(sigma), TE, node)
        assert abs(1.0 - abs(r_tm)) <= cap
        assert abs(1.0 - abs(r_te)) <= cap
        # strict growth toward the ideal values with sigma
        r_tm_lo = reflection(ConstantConductivity(sigma / 10), TM, node)
        r_te_lo = reflection(ConstantConductivity(sigma / 10), TE, node)
        assert r_tm > r_tm_lo
        assert r_te < r_te_lo

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            ConstantConductivity(-0.1)


class TestIdealPlates:
    def test_perfect_electric(self):
        node = AngularNode(0.3)
        assert reflection(PerfectElectric(), TM, node) == 1.0
        assert reflection(PerfectElectric(), TE, node) == -1.0
        assert transmission(PerfectElectric(), TE, node) == 0.0
        assert transmission(PerfectElectric(), TM, node) == 0.0

    def test_perfect_magnetic(self):
        node = AngularNode(0.9)
        assert reflection(PerfectMagnetic(), TM, node) == -1.0
        assert reflection(PerfectMagnetic(), TE, node) == 1.0
        assert transmission(PerfectMagnetic(), TM, node) == 0.0

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 1.0])
    def test_electric_magnetic_are_exact_negations(self, t):
        node = AngularNode(t)
        for pol in Polarization:
            assert reflection(PerfectElectric(), pol, node) == -reflection(
                PerfectMagnetic(), pol, node
            )


class TestTransparent:
    def test_reflects_nothing(self):
        assert reflection(Transparent(), TE, AngularNode(0.5)) == 0.0

    def test_transmits_everything(self):
        assert transmission(Transparent(), TM, AngularNode(0.7)) == 1.0


class TestGenericDeltaPlate:
    def test_electric_only_matches_tm_te_split(self):
        # lambda_g = 0: TM reflects with the electric coupling, TE with none
        plate = GenericDeltaPlate(3.0, 0.0)
        node = AngularNode(0.4)
        e_term = 3.0 / (3.0 + 2.0)
        assert reflection(plate, TM, node) == pytest.approx(e_term, rel=1e-15)
        assert transmission(plate, TM, node) == pytest.approx(1.0 - e_term, rel=1e-15)
        g_term = 3.0 * 0.4**2 / (3.0 * 0.4**2 + 2.0)
        assert reflection(plate, TE, node) == pytest.approx(-g_term, rel=1e-15)

    def test_te_swaps_couplings(self):
        # swapping the couplings exchanges the polarizations
        node = AngularNode(0.6)
        a = coefficients(GenericDeltaPlate(1.2, 0.7), TM, node)
        b = coefficients(GenericDeltaPlate(0.7, 1.2), TE, node)
        assert a.r == b.r
        assert a.t_coef == b.t_coef

    @given(
        le=st.floats(0.0, 1e6),
        lg=st.floats(0.0, 1e6),
        t=st.floats(0.0, 1.0),
    )
    def test_amplitudes_stay_in_unit_interval(self, le, lg, t):
        plate = GenericDeltaPlate(le, lg)
        node = AngularNode(t)
        for pol in Polarization:
            r, t_coef = coefficients(plate, pol, node)
            assert abs(r) <= 1.0
            assert abs(t_coef) <= 1.0

    def test_negative_couplings_rejected(self):
        with pytest.raises(ValueError):
            GenericDeltaPlate(-1.0, 0.5)
        with pytest.raises(ValueError):
            GenericDeltaPlate(0.5, -1.0)


class TestNodesAndSlots:
    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan, math.inf])
    def test_node_domain(self, bad):
        with pytest.raises(ValueError):
            AngularNode(bad)

    def test_sweep_slot_cannot_be_evaluated(self):
        with pytest.raises(TypeError):
            reflection(SweepSlot(), TM, AngularNode(0.5))
