"""Polylogarithm, closed-form frequency integral, and the integrators.

Reference values come from mpmath (arbitrary precision) and
scipy.integrate (an unrelated adaptive scheme), so agreement is evidence,
not circularity.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate as sp_integrate

from casimir_plates import special
from casimir_plates.special import (
    LI4_MINUS_ONE,
    ZETA4,
    QuadratureConvergenceError,
    QuadratureSpec,
    _G15_WEIGHTS,
    _K31_WEIGHTS,
    _NODES,
    _SUM_ROUNDING,
    _half_line,
    _integrate_2d_bound,
    _integrate_floor,
    _integrate_many,
    _li4_array,
    _rules,
    li4,
)

mpmath.mp.dps = 30


def integrate_t(f, spec=None):
    """``int_0^1 f(t) dt`` of a scalar callable, one call per node, on the
    plain driver (no change of variable)."""
    g = lambda x: (np.array([f(t) for t in x]), np.zeros(x.shape))
    return float(_integrate_many(_batch((g,)), 1, spec or QuadratureSpec())[0][0])


def mp_li4(z):
    v = mpmath.polylog(4, complex(z))
    return complex(v.real, v.imag)


class TestLi4:
    def test_zero(self):
        assert li4(0.0) == 0.0

    def test_plus_one_exact(self):
        assert li4(1.0) == ZETA4
        assert ZETA4 == pytest.approx(1.0823232337, abs=1e-10)
        assert ZETA4 == math.pi**4 / 90.0

    def test_minus_one_exact(self):
        assert li4(-1.0) == LI4_MINUS_ONE
        assert LI4_MINUS_ONE == pytest.approx(-0.9470328294, abs=1e-10)
        assert LI4_MINUS_ONE == -7.0 * math.pi**4 / 720.0

    def test_real_input_gives_float(self):
        assert isinstance(li4(0.62), float)
        assert isinstance(li4(-0.99), float)

    def test_complex_input_gives_complex(self):
        assert isinstance(li4(0.1 + 0.2j), complex)

    @pytest.mark.parametrize("x", [-1.0, -0.9, -0.5, 0.0, 0.3, 0.7, 0.95, 0.999, 1.0])
    def test_real_axis_against_mpmath(self, x):
        assert li4(x) == pytest.approx(mp_li4(x).real, abs=1e-13)

    def test_random_disk_against_mpmath(self):
        rng = np.random.default_rng(20250823)
        for _ in range(60):
            radius = rng.uniform(0.0, 1.0)
            phase = rng.uniform(0.0, 2 * math.pi)
            z = radius * complex(math.cos(phase), math.sin(phase))
            assert li4(z) == pytest.approx(mp_li4(z), abs=1e-13)

    def test_unit_circle_against_mpmath(self):
        for phase in np.linspace(0.1, 2 * math.pi - 0.1, 9):
            z = complex(math.cos(phase), math.sin(phase))
            assert li4(z) == pytest.approx(mp_li4(z), abs=5e-13)

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(20250824)
        for _ in range(25):
            radius = rng.uniform(0.0, 1.0)
            phase = rng.uniform(0.05, math.pi - 0.05)
            z = radius * complex(math.cos(phase), math.sin(phase))
            assert li4(z.conjugate()) == li4(z).conjugate()

    def test_tiny_overshoot_clamped(self):
        assert li4(1.0 + 5e-13) == ZETA4
        assert li4(-(1.0 + 5e-13)) == LI4_MINUS_ONE

    @pytest.mark.parametrize("z", [1.0 + 1e-11, -1.0 - 1e-9, 2.0, 1.2j])
    def test_outside_disk_rejected(self, z):
        with pytest.raises(ValueError):
            li4(z)


def _on_circle(radius, phase):
    return radius * complex(math.cos(phase), math.sin(phase))


# phases of the dense grid: every pi/48, plus phases within 1e-6 of 0 and pi
_DENSE_PHASES = [math.pi * i / 48 for i in range(-48, 49)] + [
    sign * p
    for sign in (1.0, -1.0)
    for p in (1e-12, 1e-9, 1e-6, math.pi - 1e-6, math.pi - 1e-9)
]


# the switch radius, 1e-15 and 1e-9 either side of it, and phases around it
_SWITCH_RADII = [0.5 - 1e-9, 0.5 - 1e-15, 0.5, 0.5 + 1e-15, 0.5 + 1e-9]
_SWITCH_PHASES = [0.0, 1e-6, 0.5, 1.5, 2.5, math.pi - 1e-6, math.pi, -2.0]


class TestLi4Coverage:
    """Both branches of li4: the defining series below |z| = 1/2, the log-series above."""

    @pytest.mark.parametrize("k", range(2, 16))
    def test_approach_to_plus_and_minus_one(self, k):
        x = 1.0 - 10.0**-k
        assert li4(x) == pytest.approx(mp_li4(x).real, abs=1e-13)
        assert li4(-x) == pytest.approx(mp_li4(-x).real, abs=1e-13)

    @pytest.mark.parametrize("radius", [0.9, 0.99, 0.999, 1.0])
    def test_dense_phase_grid_against_mpmath(self, radius):
        for phase in _DENSE_PHASES:
            z = _on_circle(radius, phase)
            assert li4(z) == pytest.approx(mp_li4(z), abs=1e-13), (radius, phase)

    @pytest.mark.parametrize("radius", _SWITCH_RADII)
    def test_across_switch_radius(self, radius):
        for phase in _SWITCH_PHASES:
            z = _on_circle(radius, phase)
            assert li4(z) == pytest.approx(mp_li4(z), abs=1e-13), (radius, phase)
        assert li4(radius) == pytest.approx(mp_li4(radius).real, abs=1e-13)
        assert li4(-radius) == pytest.approx(mp_li4(-radius).real, abs=1e-13)

    def test_conjugation_symmetry_on_log_series_branch(self):
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            radius = rng.uniform(0.5, 1.0)
            phase = rng.uniform(1e-9, math.pi)
            z = _on_circle(radius, phase)
            assert li4(z.conjugate()) == li4(z).conjugate()
        for phase in _DENSE_PHASES:
            z = _on_circle(1.0, phase)
            assert li4(z.conjugate()) == li4(z).conjugate()

    @pytest.mark.parametrize("x", [0.0, 0.3, -0.3, 0.4999, -0.4999, 0.5, -0.5, 0.7, -0.7, 0.9999, -0.9999])
    def test_real_input_gives_float_on_both_branches(self, x):
        assert type(li4(x)) is float
        assert type(li4(complex(x))) is complex


def _coverage_points():
    """TestLi4Coverage's points as one complex array: 1 - 10^-k and its
    negative, the dense phase grid on |z| in {0.9, 0.99, 0.999, 1}, and the
    switch radius and 1e-15 and 1e-9 either side of it."""
    points = [s * (1.0 - 10.0**-k) for k in range(2, 16) for s in (1.0, -1.0)]
    points += [_on_circle(r, p) for r in (0.9, 0.99, 0.999, 1.0) for p in _DENSE_PHASES]
    points += [_on_circle(r, p) for r in _SWITCH_RADII for p in _SWITCH_PHASES]
    points += [s * r for r in _SWITCH_RADII for s in (1.0, -1.0)]
    return np.array(points)


class TestLi4Array:
    """The array kernel: `li4`'s series and rules on a whole array at once."""

    POINTS = _coverage_points()

    def test_against_mpmath(self):
        values = _li4_array(self.POINTS)
        assert values.shape == self.POINTS.shape
        for z, v in zip(self.POINTS.tolist(), values.tolist()):
            assert abs(v - mp_li4(z)) <= 1e-14, z

    def test_agrees_with_scalar_li4(self):
        values = _li4_array(self.POINTS)
        for z, v in zip(self.POINTS.tolist(), values.tolist()):
            assert abs(v - li4(z)) <= 1e-14, z

    def test_exact_points(self):
        values = _li4_array(np.array([0.0, 1.0, -1.0]))
        assert values[0] == 0.0
        assert values[1] == ZETA4
        assert abs(values[2] - LI4_MINUS_ONE) <= 1e-15

    @pytest.mark.parametrize("z", [1.0, -1.0, 1j, _on_circle(1.0, 2.0)], ids=["1", "-1", "i", "e^2i"])
    def test_overshoot_accepted_and_refused_as_li4(self, z):
        inside = z * (1.0 + 0.9e-12)
        assert abs(_li4_array(np.array([0.3, inside]))[1] - li4(inside)) <= 1e-14
        outside = z * (1.0 + 1.1e-12)
        with pytest.raises(ValueError) as scalar:
            li4(outside)
        with pytest.raises(ValueError) as array:
            _li4_array(np.array([[0.3, 0.2], [outside, 1.5]]))
        assert str(array.value) == str(scalar.value)

    def test_real_zero_and_large_inputs_without_warnings(self):
        rng = np.random.default_rng(20261019)
        real = rng.uniform(-1.0, 1.0, (46, 3))  # eigvals of an all-real spectrum
        real[5] = 0.0
        z = np.sqrt(rng.uniform(0.0, 1.0, (46, 127))) * np.exp(1j * rng.uniform(-4.0, 4.0, (46, 127)))
        z[::7, ::5] = 0.0
        z[3, 4] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _li4_array(real)
            stacked = _li4_array(z)
        assert values.dtype == complex and values.shape == real.shape
        assert (values[5] == 0.0).all()
        expected = [li4(x) for x in real.ravel().tolist()]
        assert np.abs(values.ravel() - expected).max() <= 1e-14
        assert stacked.shape == z.shape and (stacked[::7, ::5] == 0.0).all()
        assert stacked[3, 4] == ZETA4
        # each element's value depends on that element alone
        for row, row_values in zip(z, stacked):
            assert _li4_array(row).tolist() == row_values.tolist()
        for row, row_values in zip(real, values):
            assert _li4_array(row).tolist() == row_values.tolist()
        for x, v in zip(z[1].tolist(), stacked[1].tolist()):
            assert _li4_array(x) == v

    def test_li4_is_the_kernel_at_one_value(self):
        for z in self.POINTS.tolist():
            kernel = _li4_array(np.array(z))[()]
            assert np.array(li4(z)).tobytes() == kernel.tobytes(), z
            kernel = _li4_array(np.array(z.real))[()]
            assert np.array(li4(z.real)).tobytes() == kernel.real.tobytes(), z.real

    def test_conjugation_symmetry_bit_for_bit(self):
        # `_li4_root_sum` adds the real parts of a conjugate pair's Li4 values,
        # so they must be equal; on the axis itself, x + 0j and x - 0j may
        # differ in the sign of a zero imaginary part
        rng = np.random.default_rng(20261020)
        inner = np.sqrt(rng.uniform(0.0, 0.25, 500)) * np.exp(1j * rng.uniform(-4.0, 4.0, 500))
        outer = np.sqrt(rng.uniform(0.25, 1.0, 500)) * np.exp(1j * rng.uniform(-4.0, 4.0, 500))
        mixed = np.concatenate([inner, self.POINTS, outer])
        rng.shuffle(mixed)
        for z in (inner, mixed, mixed.reshape(-1, 6)):
            conjugated, values = _li4_array(z.conj()), _li4_array(z)
            assert conjugated.real.tobytes() == values.real.tobytes()
            off_axis = z.imag != 0.0
            assert conjugated.imag[off_axis].tobytes() == (-values.imag[off_axis]).tobytes()
            assert (conjugated == values.conj()).all()

    def test_minus_one_exact_after_the_projection(self):
        x = np.array([-1.0, -(1.0 + 5e-13)])
        assert _li4_array(x).tolist() == [LI4_MINUS_ONE] * 2
        assert _li4_array(x + 0j).tolist() == [LI4_MINUS_ONE] * 2
        assert _li4_array((x + 0j).conj()).tolist() == [LI4_MINUS_ONE] * 2


class TestSIntegral:
    """``int_0^inf s^2 ln(1 - c e^-s) ds = -2 Li4(c)``, as `li4` states."""

    def test_zero(self):
        assert -2.0 * li4(0.0) == 0.0

    def test_unit_argument(self):
        assert -2.0 * li4(1.0) == pytest.approx(-math.pi**4 / 45.0, rel=1e-14)

    def test_against_direct_quadrature_50_args(self):
        rng = np.random.default_rng(20250825)
        for _ in range(50):
            c = float(rng.uniform(-1.0, 1.0))

            def integrand(s, c=c):
                return s * s * math.log(1.0 - c * math.exp(-s))

            direct, est = sp_integrate.quad(integrand, 0.0, 60.0, epsabs=1e-12, limit=200)
            assert -2.0 * li4(c) == pytest.approx(direct, abs=max(1e-9, 10 * est))

    def test_unit_argument_against_direct_quadrature(self):
        direct, _ = sp_integrate.quad(
            lambda s: s * s * math.log(1.0 - math.exp(-s)), 0.0, 60.0, epsabs=1e-12, limit=200
        )
        assert -2.0 * li4(1.0) == pytest.approx(direct, abs=1e-9)


class TestKronrodRule:
    """The 31-point Kronrod extension of the 15-point Gauss rule in `_rules`."""

    def test_gauss_nodes_come_first_within_two_ulp_of_leggauss(self):
        x15, w15 = np.polynomial.legendre.leggauss(15)
        assert _NODES.shape == _K31_WEIGHTS.shape == (31,)
        assert np.all(np.abs(_NODES[:15] - x15) <= 2.0 * np.spacing(np.abs(x15)))
        assert np.all(np.abs(_G15_WEIGHTS - w15) <= 1e-15)
        # the other 16 interlace them: in ascending order every other node is Gauss
        order = np.argsort(_NODES)
        assert sorted(order[1::2]) == list(range(15))

    def test_qk31_check_value(self):
        i = int(np.argmax(_NODES))
        assert (_NODES[i], _K31_WEIGHTS[i]) == (0.998002298693397060, 0.005377479872923349)

    @pytest.mark.parametrize("weights", ["kronrod", "gauss"])
    def test_weights_positive_and_symmetric(self, weights):
        x, w = (_NODES, _K31_WEIGHTS) if weights == "kronrod" else (_NODES[:15], _G15_WEIGHTS)
        order = np.argsort(x)
        assert np.all(w > 0.0)
        assert x[order].tolist() == (-x[order][::-1]).tolist()
        assert w[order].tolist() == w[order][::-1].tolist()

    def test_kronrod_rule_exact_to_degree_46(self):
        for k in range(47):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(math.fsum(_K31_WEIGHTS * _NODES**k) - exact) <= 1e-15, k


class TestIntegrateT:
    def test_constant(self):
        assert integrate_t(lambda t: 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_cubic(self):
        assert integrate_t(lambda t: t**3) == pytest.approx(0.25, rel=1e-13)

    def test_exponential(self):
        assert integrate_t(math.exp) == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_endpoint_log_singularity(self):
        # integrable endpoint singularity: int_0^1 ln(t)^2 dt = 2
        assert integrate_t(lambda t: math.log(t) ** 2) == pytest.approx(2.0, rel=1e-9)

    def test_graphene_pair_closed_form(self):
        sigma = math.pi / 137.035999

        def node(t):
            r_tm = sigma / (sigma + 2.0 * t)
            r_te = sigma / (sigma + 2.0 / t) if t > 0 else 0.0
            return li4(r_tm**2) + li4(r_te**2)

        ratio = 45.0 / math.pi**4 * integrate_t(node)
        assert ratio == pytest.approx(0.00538, abs=5e-5)

    def test_determinism(self):
        f = lambda t: math.sin(3.0 * t) / (0.1 + t)
        assert integrate_t(f) == integrate_t(f)

    def test_array_integrand_one_call_per_round(self):
        # one integral splits one panel per round, so after the first round
        # every call holds the two new halves
        shapes = []

        def g(t):
            shapes.append(t.shape)
            return np.log(t) ** 2, np.zeros(t.shape)

        _integrate_floor(g, QuadratureSpec())
        assert len(shapes) > 2
        assert shapes == [(1, 31)] + [(2, 31)] * (len(shapes) - 1)

    def test_panel_sums_node_by_node(self):
        # the rules are summed in node order, one node at a time, as a loop
        # over scalar evaluations would; np.dot or pairwise sums round differently
        rng = np.random.default_rng(7)
        a, b = 0.125, 0.75
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        values = rng.uniform(-1.0, 1.0, size=(20, 31))
        floors = rng.uniform(0.0, 1e-9, size=(20, 31))
        nodes = []

        def g(rows, x):
            nodes.append(x)
            return values[rows], floors[rows]

        est, err, floor = _rules(g, np.arange(20), np.full(20, a), np.full(20, b))
        assert len(nodes) == 1
        row = (mid + half * _NODES).tolist()
        assert nodes[0].tolist() == [row] * 20
        for i in range(20):
            lo = 0.0
            for wi, v in zip(_G15_WEIGHTS, values[i, :15]):
                lo += wi * v
            hi = fl = 0.0
            for wi, v, fe in zip(_K31_WEIGHTS, values[i], floors[i]):
                hi += wi * v
                fl += wi * (fe + _SUM_ROUNDING * abs(v))
            assert (est[i], err[i], floor[i]) == (half * hi, abs(half * (hi - lo)), half * fl)

    def test_non_convergence_carries_estimate(self):
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=3)
        with pytest.raises(QuadratureConvergenceError) as err:
            integrate_t(lambda t: 1.0 / (1e-4 + (t - 0.37) ** 2), spec)
        assert math.isfinite(err.value.estimate)
        assert err.value.error_bound > 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(rel_tol=math.inf)
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(abs_tol=math.inf)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, 2.5, True])
    def test_subdivision_budget_must_be_a_positive_integer(self, budget):
        with pytest.raises(ValueError, match="max_subdivisions"):
            QuadratureSpec(max_subdivisions=budget)

    def test_tolerances_are_stored_as_python_floats(self):
        spec = QuadratureSpec(rel_tol=np.float32(1e-6), abs_tol=np.float32(1e-12))
        assert type(spec.rel_tol) is float and type(spec.abs_tol) is float
        assert spec.rel_tol == float(np.float32(1e-6))
        # a float64 keeps its bits
        assert QuadratureSpec(abs_tol=np.float64(0.1)).abs_tol.hex() == (0.1).hex()
        with pytest.raises(TypeError):
            QuadratureSpec(rel_tol="1e-6")

    def test_subdivision_budget_takes_a_numpy_integer(self):
        assert QuadratureSpec(max_subdivisions=np.int64(3)).max_subdivisions == 3


def _peak(width, centre):
    return lambda x: (1.0 / (width + (x - centre) ** 2), np.zeros(x.shape))


def _batch(family, calls=None):
    """``g(rows, x)`` of `_integrate_many` over 1-D integrands ``family[i](x)``."""

    def g(rows, x):
        if calls is not None:
            calls.append(x.shape)
        pairs = [family[i](xi) for i, xi in zip(rows, x)]
        return np.array([v for v, _ in pairs]), np.array([fl for _, fl in pairs])

    return g


def _sequential_integral(f, spec, start=(0.0, 1.0)):
    """One integral by a plain loop from the panels between the breakpoints
    ``start``: per panel the 31 Kronrod nodes, each rule summed node by node,
    worst panel split first, ties to the older panel."""

    def panel(pa, pb):
        mid, half = 0.5 * (pa + pb), 0.5 * (pb - pa)
        values, floors = f(mid + half * _NODES)
        lo = hi = fl = 0.0
        for wi, v in zip(_G15_WEIGHTS.tolist(), values[:15].tolist()):
            lo += wi * v
        for wi, v, fe in zip(_K31_WEIGHTS.tolist(), values.tolist(), floors.tolist()):
            hi += wi * v
            fl += wi * (fe + _SUM_ROUNDING * abs(v))
        return half * hi, abs(half * (hi - lo)), half * fl

    ends = zip(start[:-1], start[1:])
    panels = {j: (pa, pb, *panel(pa, pb)) for j, (pa, pb) in enumerate(ends)}
    made = len(panels)
    while True:
        value = error = floor = 0.0
        for _, _, pi, pe, pf in panels.values():
            value += pi
            error += pe
            floor += pf
        splittable = [(-rec[3], key) for key, rec in panels.items() if rec[3] > rec[4]]
        if error <= max(spec.abs_tol, spec.rel_tol * abs(value)) + floor or not splittable:
            break
        pa, pb = panels.pop(min(splittable)[1])[:2]
        pm = 0.5 * (pa + pb)
        for lo, hi in ((pa, pm), (pm, pb)):
            panels[made] = (lo, hi, *panel(lo, hi))
            made += 1
    total = bound = 0.0
    for _, _, pi, pe, pf in sorted(panels.values()):
        total += pi
        bound += pe + pf
    return total, bound


class TestIntegrateMany:
    # converge after different numbers of rounds; sqrt stops at its noise floor
    FAMILY = (
        lambda x: (np.exp(x), np.zeros(x.shape)),
        _peak(1e-2, 0.37),
        lambda x: (np.sqrt(x), np.full(x.shape, 1e-7)),
        _peak(1e-4, 0.61),
        lambda x: (np.cos(20.0 * x), np.zeros(x.shape)),
        _peak(1e-3, 0.05),
    )

    def test_equals_a_plain_sequential_loop(self):
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)
        m = len(self.FAMILY)
        values, bounds = _integrate_many(_batch(self.FAMILY), m, spec)
        expected, calls = [], []
        for f in self.FAMILY:
            n = []
            counted = lambda x, f=f: n.append(1) or f(x)
            expected.append(_sequential_integral(counted, spec))
            calls.append(len(n))
        assert len(set(calls)) >= 4  # the integrals finish in different rounds
        assert list(zip(values.tolist(), bounds.tolist())) == expected

    def test_start_partition_equals_a_plain_sequential_loop(self):
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)
        start = (0.0, 0.5, 1.0)
        shapes, rows = [], []
        g = _batch(self.FAMILY, shapes)
        values, bounds = _integrate_many(
            lambda r, x: rows.append(r.tolist()) or g(r, x), len(self.FAMILY), spec, start
        )
        # the first call holds [0, 1/2] of every integral, then [1/2, 1]
        m = len(self.FAMILY)
        assert shapes[0] == (2 * m, 31)
        assert rows[0] == list(range(m)) * 2
        expected = [_sequential_integral(f, spec, start) for f in self.FAMILY]
        assert list(zip(values.tolist(), bounds.tolist())) == expected

    def test_noise_floor_integral_stops_short_of_tolerance(self):
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)
        value, bound = _integrate_many(_batch(self.FAMILY[2:3]), 1, spec)
        assert bound[0] > spec.rel_tol
        assert abs(value[0] - 2.0 / 3.0) <= bound[0]

    def test_one_call_per_round(self):
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)
        shapes = []
        _integrate_many(_batch(self.FAMILY, shapes), len(self.FAMILY), spec)
        assert shapes[0] == (len(self.FAMILY), 31)
        assert all(k % 2 == 0 and k <= 2 * len(self.FAMILY) and n == 31 for k, n in shapes[1:])
        # one call per round: as many rounds as the slowest integral needs
        slowest = []
        _integrate_many(_batch((lambda x: slowest.append(1) or self.FAMILY[3](x),)), 1, spec)
        assert len(shapes) == (len(slowest) + 1) // 2

    def test_budget_error_matches_sequential_run(self):
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=3)
        family = (
            lambda x: (x * x, np.zeros(x.shape)),
            lambda x: (x**3, np.zeros(x.shape)),
            _peak(1e-4, 0.37),
            _peak(1e-6, 0.61),
        )
        _integrate_many(_batch(family[0:1]), 1, spec)
        _integrate_many(_batch(family[1:2]), 1, spec)
        errors = []
        for f in family[2:]:
            with pytest.raises(QuadratureConvergenceError) as err:
                _integrate_many(_batch((f,)), 1, spec)
            errors.append(err.value)
        assert errors[0].estimate != errors[1].estimate
        with pytest.raises(QuadratureConvergenceError) as err:
            _integrate_many(_batch(family), len(family), spec)
        expected = errors[0]  # integral #2, the lowest-numbered one to fail
        assert str(err.value) == str(expected)
        assert (err.value.estimate, err.value.error_bound) == (
            expected.estimate,
            expected.error_bound,
        )


    # panel error estimates by midpoint, in units of the Kronrod weights of
    # the 16 nodes the Gauss rule lacks: [0, 1/2] splits first, then its left
    # half [0, 1/4] ties the older [1/2, 1]; deeper panels are exact
    TIE_LEVELS = {0.5: 1.0, 0.25: 2.0, 0.75: 1.0, 0.125: 2.0, 0.375: 1.0, 0.625: 1.0, 0.875: 1.0}

    def _tied(self, mids):
        def f(x):
            mids.append(float(x[7]))  # the middle Gauss node: the midpoint
            values = np.zeros(31)
            values[15:] = self.TIE_LEVELS.get(mids[-1], 0.0)  # the Gauss rule misses it
            return values, np.zeros(31)

        return f

    def test_exact_tie_splits_the_older_panel(self):
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300)
        mids, reference_mids = [], []
        result = _integrate_many(_batch((self._tied(mids),)), 1, spec)
        expected = _sequential_integral(self._tied(reference_mids), spec)
        assert (float(result[0][0]), float(result[1][0])) == expected
        # [1/2, 1] before [0, 1/4]; leftmost-first or newest-first would swap them
        assert mids == reference_mids == [
            0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875,
            0.0625, 0.1875, 0.3125, 0.4375, 0.5625, 0.6875, 0.8125, 0.9375,
        ]

    def test_budget_error_after_a_tie_depends_on_the_order(self):
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=3)
        mids = []
        with pytest.raises(QuadratureConvergenceError) as err:
            _integrate_many(_batch((self._tied(mids),)), 1, spec)
        assert mids == [0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875]
        # live panels [0, 1/4], [1/4, 1/2], [1/2, 3/4], [3/4, 1], summed oldest
        # first; splitting [0, 1/4] at the tie would leave 0.25 + 0.125 units.
        # The Gauss sum of each panel is 0, so its value equals its error;
        # the bound adds the rounding floor of each panel's sum
        unit = np.add.accumulate(_K31_WEIGHTS[15:])[-1]
        rounding_unit = np.add.accumulate(_SUM_ROUNDING * _K31_WEIGHTS[15:])[-1]
        error = floor = 0.0
        for level in (0.25, 0.125, 0.125, 0.125):
            error += level * unit
            floor += level * rounding_unit
        assert (err.value.estimate, err.value.error_bound) == (error, error + floor)


class TestAngularIntegral:
    """`_integrate_floor`: ``int_0^1 g(t) dt`` taken in ``t = x**3``."""

    @pytest.mark.parametrize(
        "g, exact",
        [
            (np.exp, math.e - 1.0),
            (lambda t: np.log(t) ** 2, 2.0),
            (lambda t: 1.0 / np.sqrt(t), 2.0),
        ],
    )
    def test_closed_form_one_call_per_round(self, g, exact):
        calls = []

        def node(t):
            calls.append(t)
            return g(t), np.zeros(t.shape)

        spec = QuadratureSpec()
        value, bound = _integrate_floor(node, spec)
        assert value == pytest.approx(exact, rel=spec.rel_tol)
        assert abs(value - exact) <= bound
        assert all(t.shape[1:] == (31,) and 0.0 < t.min() and t.max() < 1.0 for t in calls)
        # one call per round: the first panel, then the two halves of each split
        rounds = len(calls)
        assert [t.shape[0] for t in calls] == [1] + [2] * (rounds - 1)
        assert calls[0].tolist() == [((0.5 + 0.5 * _NODES) ** 3).tolist()]
        # the plain driver on the weighted integrand ``3 x^2 g(x^3)``, one call per panel
        def in_x(x):
            weight = 3.0 * x * x
            values, floors = node(x**3)
            return weight * values, weight * floors

        weighted = _batch((in_x,))
        values, bounds = _integrate_many(weighted, 1, spec)
        assert len(calls) == rounds + 1 + 2 * (rounds - 1)
        assert (value, bound) == (float(values[0]), float(bounds[0]))


class TestHalfLine:
    """`_half_line`: ``int_0^inf s^2 F ds`` in ``s = 2x / (1 - x)``."""

    def test_finite_at_both_ends(self):
        # at x = 1, s is infinite, 1 / (1 - x) too, and F vanishes; the
        # suite's RuntimeWarning filter fails on any inf * 0 formed here
        x = np.array([[0.0, 1.0 - 2.0**-53, 1.0]])
        values, floors = _half_line(lambda rows, s: -np.exp(-s))(np.array([0]), x)
        assert np.isfinite(values).all()
        assert values[0, 2] == 0.0
        assert floors.tolist() == [[0.0, 0.0, 0.0]]

    def test_values_are_the_weighted_integrand(self):
        x = np.array([[0.25, 0.5, 0.75]])
        values, _ = _half_line(lambda rows, s: -np.exp(-s))(np.array([0]), x)
        s = 2.0 * x / (1.0 - x)
        assert values.tolist() == (2.0 * s * s * -np.exp(-s) / (1.0 - x) ** 2).tolist()
        assert s.tolist() == [[2.0 / 3.0, 2.0, 6.0]]


def _kernel(f):
    """`_integrate_2d_bound` integrand of an array kernel ``f(t, s)``."""
    return lambda t: lambda rows, s: f(t[rows, None], s)


class TestIntegrate2D:
    """``int_0^1 dt int_0^inf s^2 f(t, s) ds`` against closed forms."""

    def assert_exact(self, f, exact, rel):
        value, bound = _integrate_2d_bound(_kernel(f), QuadratureSpec())
        assert value == pytest.approx(exact, rel=rel)
        assert abs(value - exact) <= bound

    def test_gamma_three(self):
        self.assert_exact(lambda t, s: np.exp(-s), 2.0, rel=1e-10)

    def test_attractive_pair_kernel(self):
        self.assert_exact(lambda t, s: np.log(1.0 - np.exp(-s)), -math.pi**4 / 45.0, rel=1e-9)

    def test_repulsive_pair_kernel(self):
        self.assert_exact(lambda t, s: np.log(1.0 + np.exp(-s)), 7.0 * math.pi**4 / 360.0, rel=1e-9)

    def test_separable_angular_factor(self):
        self.assert_exact(lambda t, s: t * np.exp(-s), 1.0, rel=1e-10)

    def test_angle_dependent_kernel_exact_series(self):
        # int_0^1 -2 Li4(0.8 t) dt = -2 sum_k 0.8^k / (k^4 (k + 1))
        c = mpmath.mpf(0.8)
        exact = float(-2 * mpmath.nsum(lambda k: c**k / (k**4 * (k + 1)), [1, mpmath.inf]))
        assert exact == pytest.approx(-0.83073882798529, abs=1e-14)
        self.assert_exact(lambda t, s: np.log(1.0 - 0.8 * t * np.exp(-s)), exact, rel=1e-9)

    def test_inner_spec_compares_in_float64(self, monkeypatch):
        # a float32 tolerance times 0.1 would stay float32 under numpy 2
        specs = []
        driver = special._integrate_many

        def spy(g, m, spec, *start):
            specs.append(spec)
            return driver(g, m, spec, *start)

        monkeypatch.setattr(special, "_integrate_many", spy)
        spec = QuadratureSpec(rel_tol=np.float32(1e-6))
        _integrate_2d_bound(_kernel(lambda t, s: np.exp(-s)), spec)
        outer, inner = specs[0], specs[-1]
        assert (outer.rel_tol, inner.rel_tol) == (float(np.float32(1e-6)), outer.rel_tol * 0.1)
        assert {type(tol) for s in specs for tol in (s.rel_tol, s.abs_tol)} == {float}

    def test_determinism(self):
        f = _kernel(lambda t, s: np.log(1.0 - 0.5 * np.exp(-s) * (1 - t)))
        assert _integrate_2d_bound(f, QuadratureSpec()) == _integrate_2d_bound(f, QuadratureSpec())
