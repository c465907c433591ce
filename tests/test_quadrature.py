import math
import sys
from itertools import pairwise

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import _panels, principal_value, resonance_outside, resonance_window, sici
from scipy.integrate import quad

from rcpi.geometry import DeSitterPatch, ThermalBath, response_shape
from rcpi.quadrature import (
    IntegralResult,
    QuadratureError,
    _RHO,
    _RULE,
    _SICI_SWITCH,
    _WINDOW_NODES,
    _ellipse_maxima,
    _outside,
    _resonance_kernel,
    _sici,
    _window,
    rcpi_integral,
)


def closed_form_integral(spacetime, omega0, L):
    """Independent closed-form value of the resonance integral (pi/D) cos(sigma omega0)."""
    if isinstance(spacetime, DeSitterPatch):
        k = math.sqrt((spacetime.alpha - spacetime.r) * (spacetime.alpha + spacetime.r))
        sigma = 2.0 * k * math.asinh(L / (2.0 * k))
        D = L * math.sqrt(1.0 + (L / (2.0 * k)) ** 2)
    else:
        sigma, D = L, L
    return math.pi / D * math.cos(sigma * omega0)


class TestPrincipalValue:
    """QUADPACK's Cauchy-weighted rule (QAWC, ``oracles.principal_value``) against known principal values, and the
    fixed Gauss-Legendre rule that takes the pole window against the sine and cosine integrals and against QAWC."""

    def test_odd_integrand_about_pole_vanishes(self):
        value, _ = principal_value(lambda w: 1.0, 0.0, 2.0, 1.0, abs_tol=1e-14)
        assert abs(value) < 1e-12

    def test_linear_over_pole(self):
        # w/(w - w0) = 1 + w0/(w - w0); the PV of the second term vanishes by
        # symmetry over [0, 2 w0].
        value, _ = principal_value(lambda w: w, 0.0, 2.0, 1.0, abs_tol=1e-14)
        assert value == pytest.approx(2.0, rel=1e-12)

    def test_smooth_integrand_matches_plain_quadrature(self):
        value, _ = principal_value(lambda w: math.sin(w) * (w - 1.0), 0.0, 2.0, 1.0, abs_tol=1e-14)
        plain, _ = quad(math.sin, 0.0, 2.0, epsabs=1e-13)
        assert value == pytest.approx(plain, rel=1e-12)

    def test_quadratic_over_pole(self):
        # Antiderivative of w^2/(w - 1): w^2/2 + w + ln|w - 1|, with the PV cancellation at the pole.
        value, _ = principal_value(lambda w: w * w, 0.0, 3.0, 1.0, abs_tol=1e-14)
        assert value == pytest.approx(4.5 + 3.0 + math.log(2.0), rel=1e-11)

    @pytest.mark.parametrize("d", [1.0, 0.4, 0.2, 0.1, 0.05])
    def test_invariant_under_window_radius(self, d):
        # A window of radius d around the pole a = 1 plus the stretches outside it, as the kernel splits its
        # integral, is (pi/2) cos(1) whatever d is.
        w, _, error = _window(1.0, d)
        outside, rounding, _ = _outside(1.0, d)
        assert abs(w + outside - 0.5 * math.pi * math.cos(1.0)) <= error + rounding

    def test_asymmetric_stretch_matches_quadpack(self):
        # [0, 3] has no window symmetric about the pole y = 1: the window [0, 2] plus plain quadrature over [2, 3],
        # against QAWC on the whole of it.
        w, _, error = _window(1.0, 1.0)
        rest, rest_error = quad(lambda y: y * math.sin(y) / (y * y - 1.0), 2.0, 3.0, epsabs=1e-14)
        oracle, oracle_error = principal_value(lambda y: y * math.sin(y) / (y + 1.0), 0.0, 3.0, 1.0)
        assert abs(w + rest - oracle) <= error + rest_error + oracle_error


class TestOscillatoryTail:
    """The kernel I(a) of one variable a = sigma omega0: a Gauss-Legendre rule on the pole window, the sine and
    cosine integrals outside it."""

    @pytest.mark.parametrize(
        "a",
        [5e-324, 1e-300, 1e-9, 1.0, math.pi, 1e6, 1.5 * math.pi],
        ids=["5e-324", "1e-300", "1e-9", "1", "pi", "1e6", "zero-of-cos"],
    )
    def test_kernel_matches_half_pi_cos(self, a):
        # I(a) = P int_0^inf y sin(y) / (y^2 - a^2) dy = (pi/2) cos(a), taken at the exact double a.
        # From a = pi on, the window no longer reaches down to y = 0.  At a = 5e-324 every node d x underflows to
        # 0 or to a, and the rule divides by x, not by t.
        exact = float(mpmath.pi / 2 * mpmath.cos(mpmath.mpf(a)))
        res = _resonance_kernel(a)
        assert abs(res.value - exact) <= res.error <= 1e-9
        assert res.evaluations > 0

    @pytest.mark.parametrize("a", [4352165.543776667, 9998549.346647047])
    def test_estimate_bounds_the_truth_at_large_a(self, a):
        # With the window taken in y, its nodes and Cauchy weight were rounded to u a near the pole, and the
        # kernel missed here by 1.4 and 4.6 times its estimate.
        res = _resonance_kernel(a)
        assert abs(res.value - float(mpmath.pi / 2 * mpmath.cos(mpmath.mpf(a)))) <= res.error

    @pytest.mark.parametrize("a", [1e-300, 1e-9, math.pi, 30.0, 1e6, 1e12, 1e15])
    def test_fixed_evaluation_count_at_every_a(self, a):
        # A fixed rule: the 12 nodes of the Gauss-Legendre rule, each at t and -t, whatever a is.
        assert _resonance_kernel(a).evaluations == 24


WINDOW_CASES = [1e-300, 1e-100, 1e-9, 0.5, math.pi, 1.5 * math.pi, 5.5 * math.pi, 30.0, 1e3, 4352165.543776667, 1e7, 1e15, 1e100, 1e308]


class TestWindow:
    """W, the principal value over the pole window [a - d, a + d], by the fixed Gauss-Legendre rule in t = y - a."""

    @pytest.mark.parametrize("a", WINDOW_CASES)
    def test_matches_quadpack(self, a):
        d = min(a, math.pi)
        value, _, error = _window(a, d)
        oracle, oracle_error = resonance_window(a, d)
        assert abs(value - oracle) <= error + oracle_error

    @pytest.mark.parametrize("a", WINDOW_CASES + [1e-320, 1.151e-320, 2.2e-310])
    def test_matches_mpmath(self, a):
        # int_0^1 [g(d x) - g(-d x)] / x dx in 50 digits with sin(a + t) expanded, and with the integrand over d, as
        # mpmath's tolerance is absolute.  Near a zero of cos(a) (5.5 pi), g(d x) and g(-d x) cancel near x = 0.  At a
        # subnormal a, a term rounded to a whole ulp(0) and then divided by a node x near 0 would miss the estimate.
        d = min(a, math.pi)
        value, _, error = _window(a, d)
        with mpmath.workdps(50):
            A, D = mpmath.mpf(a), mpmath.mpf(d)
            sin_a, cos_a = mpmath.sin(A), mpmath.cos(A)

            def g(t):
                return (A + t) * (sin_a * mpmath.cos(t) + cos_a * mpmath.sin(t)) / (2 * A + t)

            exact = D * mpmath.quad(lambda x: (g(D * x) - g(-D * x)) / (D * x), [0, 1])
        assert abs(value - float(exact)) <= error

    @pytest.mark.parametrize("a", [0.5, math.pi, 30.0, 1e3])
    def test_conjugate_is_close_to_the_derivative(self, a):
        # W' stands in for dW/da in the a-scale term.  They differ by the integral of sin(y) times the derivative
        # of y / (y + a) in a, over t, which is at most int 1 / (2a + t)^2 dt = 2d / (4a^2 - d^2).
        d = min(a, math.pi)
        step = 1e-6 * a
        derivative = (_window(a + step, d)[0] - _window(a - step, d)[0]) / (2.0 * step)
        assert abs(_window(a, d)[1] - derivative) <= 2.0 * d / (4.0 * a * a - d * d) + 1e-6


@pytest.mark.parametrize(
    "d, q", [(1e-300, 1.0), (0.5, 1.0), (math.pi, 1.0), (math.pi, 0.3), (math.pi, 1e-3), (1.0, 1e-9)]
)
def test_ellipse_maxima_bound_the_integrand_on_the_ellipse(d, q):
    # _window's error bound takes M1 and M2 in closed form.  Sample F1 = 2q cos(d x) / (4 - q^2 x^2) and
    # F2 = sin(d x) / x (4 - 2 q^2 x^2) / (4 - q^2 x^2) at x = (1 + s) / 2, s = (r z + 1 / (r z)) / 2 with |z| = 1, on
    # the Bernstein ellipse E_rho (r = rho) and on smaller ones inside it: the closed forms bound every sample.
    m1, m2 = _ellipse_maxima(d, q)
    r, z = np.linspace(1.0, _RHO, 12)[1:, None], np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 2001))
    x = (1.0 + (r * z + 1.0 / (r * z)) / 2.0) / 2.0
    den = 4.0 - (q * x) ** 2
    assert np.max(np.abs(2.0 * q * np.cos(d * x) / den)) <= m1
    assert np.max(np.abs(np.sin(d * x) / x * (4.0 - 2.0 * (q * x) ** 2) / den)) <= m2


def _window_edge(a):
    """A half-width d near min(a, pi) whose window edges a - d and a + d are both doubles, so that a QUADPACK
    oracle in y integrates over the same stretch as the sine and cosine integrals."""
    return (a + min(a, math.pi)) - a


# Seeded draws of a, log-uniform in [1e-12, 1e308].
TAIL_SCAN = np.exp(np.random.default_rng(29).uniform(math.log(1e-12), math.log(1e308), 200)).tolist()


class TestTail:
    """O(a, d), the integral over [0, a - d] and [a + d, inf) in the sine and cosine integrals."""

    @pytest.mark.parametrize("a", [1e-300, 1e-100, 1e-9, 1e-3, 0.5, 1.0, math.pi, 1.5 * math.pi, 10.0, 1e2, 1e3])
    def test_matches_quadpack(self, a):
        d = _window_edge(a)
        value, error, _ = _outside(a, d)
        oracle, oracle_error = resonance_outside(a, d)
        assert abs(value - oracle) <= error + oracle_error

    @pytest.mark.parametrize(
        "a",
        [1e-300, 1e-9, 0.5, math.pi, 1.5 * math.pi, 1e3, 1e5, 4352165.543776667, 1e7, 1e15, 1e308]
        + [pytest.param(a, id=f"scan-{a:.6g}") for a in TAIL_SCAN],
    )
    def test_matches_mpmath(self, a):
        # At a = 1e308, 2a - d and 2a + d overflow to inf, where Si is pi/2 and Ci is 0 to double precision;
        # the result is a double, with no RuntimeWarning (an error under the suite's warning filters).  a = pi puts
        # 2a - d and 2a + d on either side of the switch of _sici; the scan puts both below it in 8 draws, above it
        # in the rest.
        d = min(a, math.pi)
        value, error, _ = _outside(a, d)
        with mpmath.workdps(50):
            A, D = mpmath.mpf(a), mpmath.mpf(d)
            exact = (
                mpmath.cos(A) * (mpmath.pi - 2 * mpmath.si(D) + mpmath.si(2 * A - D) - mpmath.si(2 * A + D))
                + mpmath.sin(A) * (mpmath.ci(2 * A + D) - mpmath.ci(2 * A - D))
            ) / 2
        assert abs(value - float(exact)) <= error


# The zero of Ci near 0.6165, where only the absolute rounding of Ci can be bounded.
_CI_ZERO = float(mpmath.findroot(mpmath.ci, 0.6165))


class TestSici:
    """Si and Ci in plain Python: the power series up to _SICI_SWITCH, the continued fraction of e^(ix) E1(ix) for the
    auxiliary functions past it.  4.5 to 20 are where the fraction takes the most steps."""

    @staticmethod
    def _within_rounding(x, si, ci, exact_si, exact_ci, ulps=4.0):
        # Si > 0 is taken to a few units in its last place; Ci to a few of |Ci| + 1 + |ln min(x, switch)|, the
        # weight of the estimate in _outside, as Ci has a zero.
        eps = sys.float_info.epsilon
        assert abs(si - exact_si) <= ulps * eps * exact_si, (x, si, exact_si)
        assert abs(ci - exact_ci) <= ulps * eps * (abs(exact_ci) + 1.0 + abs(math.log(min(x, _SICI_SWITCH)))), (x, ci)

    @pytest.mark.parametrize(
        "x",
        [5e-324, 1e-300, _CI_ZERO, math.pi, _SICI_SWITCH, math.nextafter(_SICI_SWITCH, math.inf), 4.5, 6.0, 10.0, 20.0,
         30.0, 1e8, 1e154, 1.7e308],
        ids=["5e-324", "1e-300", "zero-of-Ci", "pi", "switch", "past-the-switch", "4.5", "6", "10", "20", "30", "1e8",
             "1e154", "1.7e308"],
    )
    def test_matches_mpmath(self, x):
        with mpmath.workdps(50):
            exact_si, exact_ci = float(mpmath.si(mpmath.mpf(x))), float(mpmath.ci(mpmath.mpf(x)))
        self._within_rounding(x, *_sici(x), exact_si, exact_ci)

    def test_infinity(self):
        assert _sici(math.inf) == (0.5 * math.pi, 0.0)

    def test_matches_scipy_over_a_log_uniform_scan(self):
        # scipy's own rounding, about one unit in the last place, is inside the margin.
        xs = np.exp(np.random.default_rng(4).uniform(math.log(1e-12), math.log(1e12), 2000))
        for x, exact_si, exact_ci in zip(xs.tolist(), *(v.tolist() for v in sici(xs))):
            self._within_rounding(x, *_sici(x), exact_si, exact_ci, ulps=6.0)


class TestRules:
    """The nodes and weights of the window's Gauss-Legendre rule, against the roots of mpmath's Legendre polynomial in
    40 digits, found from numpy's nodes: each is the nearest double."""

    @staticmethod
    def _nearest(value, exact):
        # Within half a unit in the last place of value: the double nearest to the exact value, or a tie.
        assert abs(mpmath.mpf(value) - exact) <= mpmath.mpf(math.ulp(value)) / 2, (value, exact)

    def test_legendre(self):
        # On (0, 1) the node of a root x of P_n is (1 + x) / 2 and its weight (1 - x^2) / (n P_{n-1}(x))^2.
        n, rule = 12, _RULE
        assert len(rule) == n == _WINDOW_NODES
        with mpmath.workdps(40):
            for (t, w), x0 in zip(rule, np.polynomial.legendre.leggauss(n)[0].tolist()):
                x = mpmath.findroot(lambda x: mpmath.legendre(n, x), x0)
                self._nearest(t, (1 + x) / 2)
                self._nearest(w, (1 - x * x) / (n * mpmath.legendre(n - 1, x)) ** 2)


def _panel_cases():
    """(start, stop, pole): a stretch up to a gap below the pole, or from a gap above it."""
    pole = st.floats(1e-6, 1e8)
    fraction = st.floats(1e-6, 1.0, exclude_max=True)
    below = st.tuples(pole, fraction, st.floats(0.0, 1.0)).map(
        lambda t: (t[0] * (1.0 - t[1]) * t[2], t[0] * (1.0 - t[1]), t[0])
    )
    above = st.tuples(pole, fraction, st.floats(1e-6, 1e6)).map(
        lambda t: (t[0] * (1.0 + t[1]), t[0] * (1.0 + t[1] + t[2]), t[0])
    )
    return st.one_of(below, above).filter(lambda case: case[0] < case[1])


@given(_panel_cases())
@settings(max_examples=300, derandomize=True)
def test_panels_no_longer_than_their_distance_to_the_pole(case):
    start, stop, pole = case
    edges = _panels(start, stop, pole)
    assert edges[0] == start and edges[-1] == stop
    for lo, hi in pairwise(edges):
        assert lo < hi
        # Half the distance on the near side, the whole distance past the pole; up to the rounding of hi.
        bound = 0.5 * (pole - lo) if hi <= pole else lo - pole
        assert hi - lo <= bound + math.ulp(hi)


GRID_SEPARATIONS = (0.1, 0.3, 1.0, 3.0, 10.0)
GRID_FREQUENCIES = (0.5, 1.0, 2.0)


class TestResonanceIntegral:
    @pytest.mark.parametrize("lk", GRID_SEPARATIONS)
    @pytest.mark.parametrize("wk", GRID_FREQUENCIES)
    def test_oracle_equivalence_desitter(self, lk, wk):
        patch = DeSitterPatch(1.0, 0.0)
        res = rcpi_integral(patch, wk, lk)
        exact = closed_form_integral(patch, wk, lk)
        assert res.value == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("lk", GRID_SEPARATIONS)
    @pytest.mark.parametrize("wk", GRID_FREQUENCIES)
    def test_error_estimates_bound_truth(self, lk, wk):
        patch = DeSitterPatch(1.0, 0.0)
        res = rcpi_integral(patch, wk, lk)
        exact = closed_form_integral(patch, wk, lk)
        assert res.error >= abs(res.value - exact)

    def test_thermal_matches_closed_form_for_any_temperature(self):
        for T in (0.0, 0.3, 3.0):
            bath = ThermalBath(T)
            res = rcpi_integral(bath, 1.0, 1.3)
            assert res.value == pytest.approx(closed_form_integral(bath, 1.0, 1.3), rel=1e-6)

    def test_thermal_result_is_temperature_free(self):
        values = {rcpi_integral(ThermalBath(T), 1.0, 2.1).value for T in (0.0, 0.1, 1.0, 10.0)}
        assert len(values) == 1

    def test_short_distance_agreement_between_spacetimes(self):
        # At L/kappa = 1e-3 the curvature is invisible.
        ds = rcpi_integral(DeSitterPatch(1.0, 0.0), 1.0, 1e-3)
        flat = rcpi_integral(ThermalBath(0.0), 1.0, 1e-3)
        assert ds.value == pytest.approx(flat.value, rel=1e-5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            rcpi_integral(ThermalBath(0.0), -1.0, 1.0)
        with pytest.raises(ValueError):
            rcpi_integral(ThermalBath(0.0), 1.0, 0.0)

    @pytest.mark.parametrize("omega0, L", [(1e7, 1e8), (1e3, 1e12)], ids=["c-1e8", "c-1e12"])
    def test_phase_1e15(self, omega0, L):
        # sigma omega0 = 1e15: the a-scale term of the estimate, about u a, misses the target c abs_tol / 2 at
        # c = 1e8 and meets it at c = 1e12.
        if L < 1e12:
            with pytest.raises(QuadratureError, match="requested tolerance not met"):
                rcpi_integral(ThermalBath(0.0), omega0, L)
        else:
            res = rcpi_integral(ThermalBath(0.0), omega0, L)
            assert abs(res.value - closed_form_integral(ThermalBath(0.0), omega0, L)) <= res.error

    def test_result_fields(self):
        res = rcpi_integral(DeSitterPatch(1.0, 0.0), 1.0, 1.0)
        assert isinstance(res, IntegralResult)
        assert res.evaluations > 0
        assert res.error > 0

    @pytest.mark.parametrize("arg", ["omega0", "L"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_arguments(self, arg, bad):
        kwargs = {"omega0": 1.0, "L": 1.0, arg: bad}
        with pytest.raises(ValueError, match=arg):
            rcpi_integral(DeSitterPatch(1.0, 0.0), **kwargs)


def _exact_phase_draws(n=400, seed=1):
    """Draws of (spacetime, omega0, L): a bath at T = 0 at odd draws; at even ones de Sitter, with alpha
    log-uniform in [0.1, 10] and r / alpha uniform in [0, 0.99).  L is log-uniform in [1e-2, 1e3] and
    a = sigma omega0 in [10, 1e15]."""
    rng = np.random.default_rng(seed)
    for i, (u_alpha, u_r, u_L, u_a) in enumerate(rng.random((n, 4))):
        if i % 2:
            spacetime = ThermalBath(0.0)
        else:
            alpha = 10.0 ** (2.0 * u_alpha - 1.0)
            spacetime = DeSitterPatch(float(alpha), float(0.99 * u_r * alpha))
        L = float(10.0 ** (5.0 * u_L - 2.0))
        yield spacetime, float(10.0 ** (14.0 * u_a + 1.0)) / response_shape(spacetime, L)[0], L


def _exact_phase_truth(spacetime, omega0, L):
    """(2/c) (pi/2) cos(omega0 sigma) in 60-digit mpmath at the exact inputs, sigma and c included."""
    with mpmath.workdps(60):
        L = mpmath.mpf(L)
        if isinstance(spacetime, DeSitterPatch):
            k = mpmath.sqrt(mpmath.mpf(spacetime.alpha) ** 2 - mpmath.mpf(spacetime.r) ** 2)
            sigma, c = 2 * k * mpmath.asinh(L / (2 * k)), L * mpmath.sqrt(1 + (L / (2 * k)) ** 2)
        else:
            sigma = c = L
        return float(mpmath.pi / c * mpmath.cos(mpmath.mpf(omega0) * sigma))


@pytest.mark.parametrize(
    "spacetime, omega0, L", [pytest.param(*draw, id=f"draw-{i}") for i, draw in enumerate(_exact_phase_draws())]
)
def test_exact_phase_within_the_estimate_or_exit_3(spacetime, omega0, L):
    # Against the exact phase omega0 sigma at default tolerances: a value within its estimate, or QuadratureError.
    try:
        res = rcpi_integral(spacetime, omega0, L)
    except QuadratureError:
        return
    assert abs(res.value - _exact_phase_truth(spacetime, omega0, L)) <= res.error


def test_exact_phase_exits_3_at_most_as_often_as_before():
    # A looser window estimate would move draws from a value to exit 3.  198 of the 400 draws exit 3 with the window's
    # estimate taken from a 20- and a 10-point rule, |G20 - G10| plus the rounding term.
    exits = 0
    for spacetime, omega0, L in _exact_phase_draws():
        try:
            rcpi_integral(spacetime, omega0, L)
        except QuadratureError:
            exits += 1
    assert exits <= 198


# The mapped domain of the quadrature route, as stated in the README.
DOMAIN_GRIDS = [
    (DeSitterPatch(1.0, 0.0), np.logspace(-3, 4, 15), np.logspace(-3, 2, 11)),
    (ThermalBath(0.7), np.logspace(-3, 2, 11), np.logspace(-3, 2, 11)),
    # A near-horizon patch (kappa ~ 1.4e-6) and sigma omega0 = 1e6 in a bath.
    (DeSitterPatch(1.0, 1.0 - 1e-12), [1e-3], np.logspace(-3, 2, 11)),
    (ThermalBath(0.7), [100.0], [1e4]),
]

# Points where an earlier principal-value plus Aitken-tail scheme, or a
# kernel with relative per-piece targets, missed the default tolerance: two
# near zeros of the cosine and one where the pieces cancel.
PINNED_POINTS = [
    (DeSitterPatch(0.6405270068704646, 0.552946347986623), 27.3944554211311, 1.1374877243764485),
    (ThermalBath(1.379571807175093), 9.991722859337235, 0.15735533230468382),
    (ThermalBath(1.2540803222810732), 4.285926603709489, 1.0982408666939338),
]


class TestDomainMap:
    def test_error_estimate_bounds_truth_over_the_domain(self):
        misses = []
        for spacetime, separations, frequencies in DOMAIN_GRIDS:
            for L in separations:
                for omega0 in frequencies:
                    res = rcpi_integral(spacetime, float(omega0), float(L))
                    err = abs(res.value - closed_form_integral(spacetime, omega0, L))
                    if not err <= res.error:
                        misses.append((spacetime, L, omega0, err, res.error))
        assert not misses

    @pytest.mark.parametrize("spacetime, omega0, L", PINNED_POINTS)
    def test_pinned_points_at_default_tolerance(self, spacetime, omega0, L):
        res = rcpi_integral(spacetime, omega0, L)
        assert abs(res.value - closed_form_integral(spacetime, omega0, L)) <= res.error <= 1e-9
