import math
from itertools import pairwise

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import resonance_tail

from rcpi import quadrature
from rcpi.geometry import DeSitterPatch, ThermalBath
from rcpi.quadrature import IntegralResult, QuadratureError, _panels, _piece, _resonance_kernel, _tail, rcpi_integral


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
    """The Cauchy-weighted (QAWC) rule that takes the pole window."""

    def test_odd_integrand_about_pole_vanishes(self):
        res = _piece(lambda w: 1.0, 0.0, 2.0, 1e-14, weight="cauchy", wvar=1.0)
        assert abs(res.value) < 1e-12

    def test_linear_over_pole(self):
        # w/(w - w0) = 1 + w0/(w - w0); the PV of the second term vanishes by
        # symmetry over [0, 2 w0].
        res = _piece(lambda w: w, 0.0, 2.0, 1e-14, weight="cauchy", wvar=1.0)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_smooth_integrand_matches_plain_quadrature(self):
        from scipy.integrate import quad

        res = _piece(lambda w: math.sin(w) * (w - 1.0), 0.0, 2.0, 1e-14, weight="cauchy", wvar=1.0)
        plain, _ = quad(math.sin, 0.0, 2.0, epsabs=1e-13)
        assert res.value == pytest.approx(plain, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.4, 0.2, 0.1, 0.05])
    def test_invariant_under_window_radius(self, delta):
        # A Cauchy window of radius delta around the pole plus plain quadrature
        # outside it, as the resonance kernel splits its integral.
        # Antiderivative: w^2/2 + w + ln|w-1| evaluated with the PV cancellation.
        from scipy.integrate import quad

        window = _piece(lambda w: w * w, 1.0 - delta, 1.0 + delta, 1e-14, weight="cauchy", wvar=1.0).value
        outside = sum(quad(lambda w: w * w / (w - 1.0), a, b, epsabs=1e-14)[0] for a, b in ((0.0, 1.0 - delta), (1.0 + delta, 3.0)))
        exact = 4.5 + 3.0 + math.log(2.0)
        assert window + outside == pytest.approx(exact, rel=1e-11)
        assert _piece(lambda w: w * w, 0.0, 3.0, 1e-14, weight="cauchy", wvar=1.0).value == pytest.approx(exact, rel=1e-11)


class TestOscillatoryTail:
    """The kernel I(a) of one variable a = sigma omega0, with its QAWO panels and its QAWF tail."""

    @pytest.mark.parametrize(
        "a",
        [1e-300, 1e-9, 1.0, math.pi, 1e6, 1.5 * math.pi],
        ids=["1e-300", "1e-9", "1", "pi", "1e6", "zero-of-cos"],
    )
    def test_kernel_matches_half_pi_cos(self, a):
        # I(a) = P int_0^inf y sin(y) / (y^2 - a^2) dy = (pi/2) cos(a), taken at the exact double a.
        # From a = pi on, the QAWO panels run from 0 up to the window as well as past it.
        exact = float(mpmath.pi / 2 * mpmath.cos(mpmath.mpf(a)))
        res = _resonance_kernel(a, 1e-9)
        assert abs(res.value - exact) <= res.error <= 1e-9
        assert res.evaluations > 0

    @pytest.mark.parametrize("a", [4352165.543776667, 9998549.346647047])
    def test_estimate_bounds_the_truth_at_large_a(self, a):
        # With the window taken in y, its nodes and Cauchy weight were rounded to u a near the pole, and the
        # kernel missed here by 1.4 and 4.6 times its estimate.
        res = _resonance_kernel(a, 1e-9)
        assert abs(res.value - float(mpmath.pi / 2 * mpmath.cos(mpmath.mpf(a)))) <= res.error

    @pytest.mark.parametrize("a", [1e-300, 1e-9])
    def test_tiny_a_takes_one_quadpack_call(self, monkeypatch, a):
        # For a <= pi the window reaches down to y = 0 and the sine and cosine integrals take the rest.
        calls = []
        monkeypatch.setattr(quadrature, "_piece", lambda *args, **kw: calls.append(kw["weight"]) or _piece(*args, **kw))
        _resonance_kernel(a, 1e-9)
        assert calls == ["cauchy"]


def _window_edge(a):
    """The distance from the pole to the double a + d at which the kernel's tail starts, d = min(a, pi)."""
    return (a + min(a, math.pi)) - a


class TestTail:
    """T(a, d), the integral from a + d to infinity in the sine and cosine integrals."""

    @pytest.mark.parametrize("a", [1e-300, 1e-100, 1e-9, 1e-3, 0.5, 1.0, math.pi, 1.5 * math.pi, 10.0, 1e2, 1e3])
    def test_matches_quadpack_tail(self, a):
        d = _window_edge(a)
        value, error = _tail(a, d)
        oracle, oracle_error = resonance_tail(a, d)
        assert abs(value - oracle) <= error + oracle_error

    @pytest.mark.parametrize("a", [1e-300, 1e-9, 0.5, math.pi, 1.5 * math.pi, 1e3, 1e5, 4352165.543776667, 1e7])
    def test_matches_mpmath(self, a):
        d = _window_edge(a)
        value, error = _tail(a, d)
        with mpmath.workdps(50):
            A, D = mpmath.mpf(a), mpmath.mpf(d)
            exact = (
                mpmath.cos(A) * (mpmath.pi - mpmath.si(D) - mpmath.si(2 * A + D))
                + mpmath.sin(A) * (mpmath.ci(2 * A + D) - mpmath.ci(D))
            ) / 2
        assert abs(value - float(exact)) <= error


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

    def test_no_half_period_around_the_pole(self):
        # sigma omega0 = 1e15: the half-period pi / sigma is below the resolution of doubles at omega0.
        with pytest.raises(QuadratureError, match="leaves no half-period around the pole"):
            rcpi_integral(ThermalBath(0.0), 1e7, 1e8)

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
