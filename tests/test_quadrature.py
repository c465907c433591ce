import math
from itertools import pairwise

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import _panels, resonance_outside

from rcpi import quadrature
from rcpi.geometry import DeSitterPatch, ThermalBath, response_shape
from rcpi.quadrature import IntegralResult, QuadratureError, _outside, _piece, _resonance_kernel, rcpi_integral


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
    """The kernel I(a) of one variable a = sigma omega0: QAWC on the pole window, the sine and cosine integrals
    outside it."""

    @pytest.mark.parametrize(
        "a",
        [1e-300, 1e-9, 1.0, math.pi, 1e6, 1.5 * math.pi],
        ids=["1e-300", "1e-9", "1", "pi", "1e6", "zero-of-cos"],
    )
    def test_kernel_matches_half_pi_cos(self, a):
        # I(a) = P int_0^inf y sin(y) / (y^2 - a^2) dy = (pi/2) cos(a), taken at the exact double a.
        # From a = pi on, the window no longer reaches down to y = 0.
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

    @pytest.mark.parametrize("a", [1e-300, 1e-9, math.pi, 30.0, 1e6, 1e12, 1e15])
    def test_one_quadpack_call_at_every_a(self, monkeypatch, a):
        # QAWC takes the window, and the sine and cosine integrals take the rest on both sides of it.
        calls = []
        monkeypatch.setattr(quadrature, "_piece", lambda *args, **kw: calls.append(kw["weight"]) or _piece(*args, **kw))
        _resonance_kernel(a, 1e-9)
        assert calls == ["cauchy"]


def _window_edge(a):
    """A half-width d near min(a, pi) whose window edges a - d and a + d are both doubles, so that a QUADPACK
    oracle in y integrates over the same stretch as the sine and cosine integrals."""
    return (a + min(a, math.pi)) - a


class TestTail:
    """O(a, d), the integral over [0, a - d] and [a + d, inf) in the sine and cosine integrals."""

    @pytest.mark.parametrize("a", [1e-300, 1e-100, 1e-9, 1e-3, 0.5, 1.0, math.pi, 1.5 * math.pi, 10.0, 1e2, 1e3])
    def test_matches_quadpack(self, a):
        d = _window_edge(a)
        value, error, _ = _outside(a, d)
        oracle, oracle_error = resonance_outside(a, d)
        assert abs(value - oracle) <= error + oracle_error

    @pytest.mark.parametrize(
        "a", [1e-300, 1e-9, 0.5, math.pi, 1.5 * math.pi, 1e3, 1e5, 4352165.543776667, 1e7, 1e15, 1e308]
    )
    def test_matches_mpmath(self, a):
        # At a = 1e308, 2a - d and 2a + d overflow to inf, where Si is pi/2 and Ci is 0 to double precision;
        # the result is a double, with no RuntimeWarning (an error under the suite's warning filters).
        d = min(a, math.pi)
        value, error, _ = _outside(a, d)
        with mpmath.workdps(50):
            A, D = mpmath.mpf(a), mpmath.mpf(d)
            exact = (
                mpmath.cos(A) * (mpmath.pi - 2 * mpmath.si(D) + mpmath.si(2 * A - D) - mpmath.si(2 * A + D))
                + mpmath.sin(A) * (mpmath.ci(2 * A + D) - mpmath.ci(2 * A - D))
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


# Draws whose estimate leaves out the rounding of a = sigma omega0 itself, from the product and, in de Sitter,
# from sigma: the result is right at the double a and misses the exact phase by 1.2 to 2.2 times its estimate.
EXACT_PHASE_MISSES = {
    (ThermalBath(0.0), 68076356.86894828, 0.32807576218826084),
    (DeSitterPatch(0.18538875781431288, 0.07398528965808872), 458849.291998038, 0.1040581746468931),
    (DeSitterPatch(0.413654640820602, 0.21027436452803092), 15193026.349272283, 0.2011979767429741),
    (DeSitterPatch(3.8195809147503863, 3.7759357161776914), 83517.95566718122, 2.390370775026891),
    (DeSitterPatch(0.1572410285468111, 0.044381898834087836), 6306742820.391325, 592.1423779778388),
    (DeSitterPatch(0.6347589743762514, 0.51761942509627), 1808246.3859079527, 1.0613258306196154),
}
_ITEM_16 = pytest.mark.xfail(strict=True, reason="the estimate leaves out the rounding of sigma omega0 (ROADMAP item 16)")


@pytest.mark.parametrize(
    "spacetime, omega0, L",
    [
        pytest.param(*draw, id=f"draw-{i}", marks=[_ITEM_16] if draw in EXACT_PHASE_MISSES else [])
        for i, draw in enumerate(_exact_phase_draws())
    ],
)
def test_exact_phase_within_the_estimate_or_exit_3(spacetime, omega0, L):
    # Against the exact phase omega0 sigma at default tolerances: a value within its estimate, or QuadratureError.
    try:
        res = rcpi_integral(spacetime, omega0, L)
    except QuadratureError:
        return
    assert abs(res.value - _exact_phase_truth(spacetime, omega0, L)) <= res.error


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
