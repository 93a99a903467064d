"""Polylogarithm, closed-form frequency integral, and the integrators.

Reference values come from mpmath (arbitrary precision) and
scipy.integrate (an unrelated adaptive scheme), so agreement is evidence,
not circularity.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate as sp_integrate

from casimir_plates.special import (
    LI4_MINUS_ONE,
    ZETA4,
    QuadratureConvergenceError,
    QuadratureSpec,
    _integrate_2d_bound,
    _integrate_floor,
    _integrate_many,
    _rules,
    li4,
)

mpmath.mp.dps = 30


def integrate_t(f, spec=None):
    """``int_0^1 f(t) dt`` of a scalar callable, one call per node."""
    g = lambda x: (np.array([f(t) for t in x]), np.zeros(x.shape))
    return _integrate_floor(g, 0.0, 1.0, spec or QuadratureSpec())[0]


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

    @pytest.mark.parametrize("radius", [0.5 - 1e-9, 0.5 - 1e-15, 0.5, 0.5 + 1e-15, 0.5 + 1e-9])
    def test_across_switch_radius(self, radius):
        for phase in [0.0, 1e-6, 0.5, 1.5, 2.5, math.pi - 1e-6, math.pi, -2.0]:
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

    def test_array_integrand_one_call_per_panel(self):
        sizes = []

        def g(x):
            sizes.append(x.shape)
            return np.exp(x), np.zeros(x.shape)

        _integrate_floor(g, 0.0, 1.0, QuadratureSpec())
        assert sizes and set(sizes) == {(46,)}

    def test_panel_sums_node_by_node(self):
        # the rules are summed in node order, one node at a time, as a loop
        # over scalar evaluations would; np.dot or pairwise sums round differently
        rng = np.random.default_rng(7)
        lo_x, lo_w = np.polynomial.legendre.leggauss(15)
        hi_x, hi_w = np.polynomial.legendre.leggauss(31)
        a, b = 0.125, 0.75
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        values = rng.uniform(-1.0, 1.0, size=(20, 46))
        floors = rng.uniform(0.0, 1e-9, size=(20, 46))
        nodes = []

        def g(rows, x):
            nodes.append(x)
            return values[rows], floors[rows]

        est, err, floor = _rules(g, np.arange(20), np.full(20, a), np.full(20, b))
        assert len(nodes) == 1
        row = (mid + half * np.concatenate((lo_x, hi_x))).tolist()
        assert nodes[0].tolist() == [row] * 20
        for i in range(20):
            lo = 0.0
            for wi, v in zip(lo_w, values[i, :15]):
                lo += wi * v
            hi = fl = 0.0
            for wi, v, fe in zip(hi_w, values[i, 15:], floors[i, 15:]):
                hi += wi * v
                fl += wi * fe
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


def _sequential_integral(f, a, b, spec):
    """One integral by a plain loop: per panel the 46 nodes, each rule summed
    node by node, worst panel split first, ties to the older panel."""
    lo_x, lo_w = np.polynomial.legendre.leggauss(15)
    hi_x, hi_w = np.polynomial.legendre.leggauss(31)

    def panel(pa, pb):
        mid, half = 0.5 * (pa + pb), 0.5 * (pb - pa)
        values, floors = f(mid + half * np.concatenate((lo_x, hi_x)))
        lo = hi = fl = 0.0
        for wi, v in zip(lo_w.tolist(), values[:15].tolist()):
            lo += wi * v
        for wi, v, fe in zip(hi_w.tolist(), values[15:].tolist(), floors[15:].tolist()):
            hi += wi * v
            fl += wi * fe
        return half * hi, abs(half * (hi - lo)), half * fl

    panels = {0: (a, b, *panel(a, b))}
    made = 1
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
        values, bounds = _integrate_many(_batch(self.FAMILY), m, 0.0, 1.0, spec)
        expected, calls = [], []
        for f in self.FAMILY:
            n = []
            counted = lambda x, f=f: n.append(1) or f(x)
            expected.append(_sequential_integral(counted, 0.0, 1.0, spec))
            calls.append(len(n))
        assert len(set(calls)) >= 4  # the integrals finish in different rounds
        assert list(zip(values.tolist(), bounds.tolist())) == expected

    def test_noise_floor_integral_stops_short_of_tolerance(self):
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)
        value, bound = _integrate_many(_batch(self.FAMILY[2:3]), 1, 0.0, 1.0, spec)
        assert bound[0] > spec.rel_tol
        assert abs(value[0] - 2.0 / 3.0) <= bound[0]

    def test_one_call_per_round(self):
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)
        shapes = []
        _integrate_many(_batch(self.FAMILY, shapes), len(self.FAMILY), 0.0, 1.0, spec)
        assert shapes[0] == (len(self.FAMILY), 46)
        assert all(k % 2 == 0 and k <= 2 * len(self.FAMILY) and n == 46 for k, n in shapes[1:])
        # one call per round: as many rounds as the slowest integral needs
        slowest = []
        _integrate_floor(lambda x: slowest.append(1) or self.FAMILY[3](x), 0.0, 1.0, spec)
        assert len(shapes) == (len(slowest) + 1) // 2

    def test_budget_error_matches_sequential_run(self):
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=3)
        family = (
            lambda x: (x * x, np.zeros(x.shape)),
            lambda x: (x**3, np.zeros(x.shape)),
            _peak(1e-4, 0.37),
            _peak(1e-6, 0.61),
        )
        _integrate_floor(family[0], 0.0, 1.0, spec)
        _integrate_floor(family[1], 0.0, 1.0, spec)
        errors = []
        for f in family[2:]:
            with pytest.raises(QuadratureConvergenceError) as err:
                _integrate_floor(f, 0.0, 1.0, spec)
            errors.append(err.value)
        assert errors[0].estimate != errors[1].estimate
        with pytest.raises(QuadratureConvergenceError) as err:
            _integrate_many(_batch(family), len(family), 0.0, 1.0, spec)
        expected = errors[0]  # integral #2, the lowest-numbered one to fail
        assert str(err.value) == str(expected)
        assert (err.value.estimate, err.value.error_bound) == (
            expected.estimate,
            expected.error_bound,
        )


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

    def test_determinism(self):
        f = _kernel(lambda t, s: np.log(1.0 - 0.5 * np.exp(-s) * (1 - t)))
        assert _integrate_2d_bound(f, QuadratureSpec()) == _integrate_2d_bound(f, QuadratureSpec())
