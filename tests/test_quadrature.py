import math

import numpy as np
import pytest
from scipy.special import sici

from rcpi.geometry import DeSitterPatch, ThermalBath
from rcpi.quadrature import IntegralResult, QuadratureError, _cauchy, _resonance_kernel, rcpi_integral


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
    """The Cauchy-weighted (QAWC) helper that takes the pole window."""

    def test_odd_integrand_about_pole_vanishes(self):
        res = _cauchy(lambda w: 1.0, 0.0, 2.0, 1.0, abs_tol=1e-14)
        assert abs(res.value) < 1e-12

    def test_linear_over_pole(self):
        # w/(w - w0) = 1 + w0/(w - w0); the PV of the second term vanishes by
        # symmetry over [0, 2 w0].
        res = _cauchy(lambda w: w, 0.0, 2.0, 1.0, abs_tol=1e-14)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_smooth_integrand_matches_plain_quadrature(self):
        from scipy.integrate import quad

        res = _cauchy(lambda w: math.sin(w) * (w - 1.0), 0.0, 2.0, 1.0, abs_tol=1e-14)
        plain, _ = quad(math.sin, 0.0, 2.0, epsabs=1e-13)
        assert res.value == pytest.approx(plain, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.4, 0.2, 0.1, 0.05])
    def test_invariant_under_window_radius(self, delta):
        # A Cauchy window of radius delta around the pole plus plain quadrature
        # outside it, as the resonance kernel splits its integral.
        # Antiderivative: w^2/2 + w + ln|w-1| evaluated with the PV cancellation.
        from scipy.integrate import quad

        window = _cauchy(lambda w: w * w, 1.0 - delta, 1.0 + delta, 1.0, abs_tol=1e-14).value
        outside = sum(quad(lambda w: w * w / (w - 1.0), a, b, epsabs=1e-14)[0] for a, b in ((0.0, 1.0 - delta), (1.0 + delta, 3.0)))
        exact = 4.5 + 3.0 + math.log(2.0)
        assert window + outside == pytest.approx(exact, rel=1e-11)
        assert _cauchy(lambda w: w * w, 0.0, 3.0, 1.0, abs_tol=1e-14).value == pytest.approx(exact, rel=1e-11)

    def test_pole_on_boundary_rejected(self):
        with pytest.raises(QuadratureError):
            _cauchy(lambda w: 1.0, 1.0, 2.0, 1.0, abs_tol=1e-12)
        with pytest.raises(QuadratureError):
            _cauchy(lambda w: 1.0, 0.0, 1.0, 1.0, abs_tol=1e-12)


class TestOscillatoryTail:
    """The resonance kernel, whose oscillatory pieces are the QAWO panels and the QAWF tail."""

    def test_sine_integral(self):
        # p(w) = w - 1 cancels the pole: int_0^inf sin(w)/w dw = pi/2.
        res = _resonance_kernel(lambda w: w - 1.0, 1.0, 1.0, 1e-11, 0.0)
        assert res.value == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert abs(res.value - math.pi / 2.0) <= res.error <= 1e-11

    def test_linear_numerator_at_contract_edge(self):
        # p(w) = w is the fastest growth the kernel accepts:
        # P int_0^inf sin(w)/(w - 1) dw = cos 1 (pi/2 + Si 1) - sin 1 Ci 1.
        si, ci = sici(1.0)
        exact = math.cos(1.0) * (math.pi / 2.0 + si) - math.sin(1.0) * ci
        res = _resonance_kernel(lambda w: w, 1.0, 1.0, 1e-11, 0.0)
        assert res.value == pytest.approx(exact, abs=1e-13)
        assert abs(res.value - exact) <= res.error <= 1e-11
        assert res.lobes > 0 and res.evaluations > 0


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
        assert res.lobes > 0
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
