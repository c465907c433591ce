import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rcpi.geometry import (
    DeSitterPatch,
    ThermalBath,
    _require_envelope,
    field_temperature,
    kappa,
    local_temperature,
    response_shape,
)
from rcpi.liouvillian import build_coefficients, dissipator_coefficients
from rcpi.quadrature import rcpi_integral
from rcpi.shifts import rcpi_closed, rcpi_closed_desitter, rcpi_quadrature
from rcpi.spectral import geometric_factor_f, sinc

patches = st.builds(
    lambda alpha, frac: DeSitterPatch(alpha=alpha, r=frac * alpha),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=0.0, max_value=0.999),
)


class TestKappa:
    def test_origin(self):
        assert kappa(DeSitterPatch(1.0, 0.0)) == 1.0
        assert kappa(DeSitterPatch(2.0, 0.0)) == 2.0

    def test_three_four_five(self):
        assert kappa(DeSitterPatch(1.0, 0.6)) == pytest.approx(0.8, rel=1e-15)

    @pytest.mark.parametrize(
        "alpha, r",
        [(1.0, 1.0), (1.0, 1.5), (-1.0, 0.0), (1e200, 0.0), (1e-160, 0.0)],
        ids=["horizon", "outside", "negative-alpha", "kappa-overflows", "kappa-underflows"],
    )
    def test_horizon_rejected(self, alpha, r):
        # kappa = sqrt((alpha - r)(alpha + r)) must be finite and its square a normal double.
        with pytest.raises(ValueError, match="alpha"):
            DeSitterPatch(alpha, r)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, math.nan, math.inf])
    def test_alpha_that_is_no_positive_double_is_named(self, alpha):
        # The horizon and kappa^2 checks would reject each of these too, but with a message about r or kappa.
        with pytest.raises(ValueError, match=rf"^alpha must be positive and finite, got {re.escape(str(alpha))}$"):
            DeSitterPatch(alpha)

    @staticmethod
    def assert_decreasing_in_r(alpha, r1, r2):
        # kappa rounds alpha - r, alpha + r, their product and its square root, each within eps / 2 relative, so it is
        # within about 5 eps / 4 of sqrt(alpha^2 - r^2), and where r rises it can rise by about 5 eps / 2 relative: the
        # product of a falling and a rising factor is not monotone in floating point.
        k1, k2 = kappa(DeSitterPatch(alpha, r1)), kappa(DeSitterPatch(alpha, r2))
        assert k2 - k1 <= 2.5 * sys.float_info.epsilon * k1

    @given(st.floats(min_value=1e-2, max_value=10.0), st.data())
    def test_monotone_decreasing_in_r(self, alpha, data):
        r1 = data.draw(st.floats(min_value=0.0, max_value=0.998 * alpha))
        r2 = data.draw(st.floats(min_value=r1, max_value=0.999 * alpha))
        self.assert_decreasing_in_r(alpha, r1, r2)

    @pytest.mark.parametrize(
        "alpha, r1, r2, ulps",
        [
            (7.0, 1.9929007443090814, 1.9929007443090816, 1),
            (0.3771324136455721, 0.12383171723052432, 0.12383171723052434, 2),
        ],
        ids=["1-ulp-rise", "2-ulp-rise"],
    )
    def test_rises_by_rounding_only(self, alpha, r1, r2, ulps):
        # Random draws where kappa rises with r, by 1 and by 2 ulps: the first failed the exact form of the property,
        # kappa(r2) <= kappa(r1), and the second would fail a form that allowed 1 ulp.
        k1 = kappa(DeSitterPatch(alpha, r1))
        assert kappa(DeSitterPatch(alpha, r2)) == k1 + ulps * math.ulp(k1)
        self.assert_decreasing_in_r(alpha, r1, r2)


class TestLocalTemperature:
    def test_pole_has_no_acceleration(self):
        dec = local_temperature(DeSitterPatch(1.0, 0.0))
        assert dec.T_a == 0.0
        assert dec.a == 0.0
        assert dec.T == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
        assert dec.T == dec.T_f

    def test_decomposition_closed_forms(self):
        # Evaluate the three closed forms independently and compare.
        alpha, r = 1.0, 0.6
        dec = local_temperature(DeSitterPatch(alpha, r))
        assert dec.T == pytest.approx(1.0 / (2.0 * math.pi * 0.8), rel=1e-15)
        a = (r / alpha**2) / math.sqrt(1.0 - r**2 / alpha**2)
        assert dec.a == pytest.approx(a, rel=1e-14)
        assert dec.T**2 == pytest.approx(dec.T_f**2 + dec.T_a**2, rel=1e-14)

    @given(patches)
    def test_pythagorean_identity(self, patch):
        dec = local_temperature(patch)
        assert dec.T**2 == pytest.approx(dec.T_f**2 + dec.T_a**2, rel=1e-12)
        assert dec.T >= dec.T_f


class TestResponseShape:
    @pytest.mark.parametrize(
        "spacetime",
        [DeSitterPatch(1.0), DeSitterPatch(1.0, 0.6), DeSitterPatch(5.0, 2.0), DeSitterPatch(0.3, 0.29), ThermalBath(0.7)],
        ids=["desitter-origin", "desitter-r0.6", "desitter-alpha5", "desitter-near-horizon", "thermal"],
    )
    @pytest.mark.parametrize("L", (1e-6, 1e-3, 0.7, 1.3, 40.0, 1e3))
    def test_matches_spectral_oracle(self, spacetime, L):
        # The cross factor (sigma/c) sinc(sigma lambda) is f(lambda, L/2) in de Sitter, sinc(lambda L) in a bath.
        lam = np.array([0.0, 1e-3, 0.05, 0.4, 1.1, 2.5])
        sigma, c = response_shape(spacetime, L)
        assert type(sigma) is float and type(c) is float
        if isinstance(spacetime, DeSitterPatch):
            oracle = geometric_factor_f(lam, L / 2.0, kappa(spacetime))
        else:
            oracle = sinc(lam * L)
        assert sigma / c * sinc(sigma * lam) == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("spacetime", [DeSitterPatch(1.0, 0.6), ThermalBath(0.7)], ids=["desitter", "thermal"])
    def test_array_matches_scalars(self, spacetime):
        L = np.geomspace(1e-3, 1e4, 50)
        sigma, c = response_shape(spacetime, L)
        assert sigma.shape == c.shape == L.shape
        assert [response_shape(spacetime, x) for x in L.tolist()] == list(zip(sigma.tolist(), c.tolist()))

    def test_field_temperature(self):
        patch = DeSitterPatch(1.0, 0.6)
        assert field_temperature(patch) == local_temperature(patch).T
        assert field_temperature(ThermalBath(0.7)) == 0.7

    @pytest.mark.parametrize("call", [lambda st: response_shape(st, 1.0), field_temperature], ids=["shape", "temperature"])
    @pytest.mark.parametrize("spacetime", [None, 1.0, "desitter"], ids=["none", "float", "str"])
    def test_rejects_what_is_no_spacetime(self, call, spacetime):
        with pytest.raises(TypeError, match="unsupported spacetime configuration"):
            call(spacetime)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_c_keeps_its_bits_up_to_the_overflow_of_x_squared(self):
        # From x = L / 2 kappa = 2^27 on, sqrt(1 + x^2) is taken as x itself; up to where x * x
        # overflows, that is the same double as L sqrt(1 + x * x).
        # kappa = 1e-3 keeps c = 2 kappa x^2 a double as far as x = 1.3e154.
        patch = DeSitterPatch(1e-3)
        L = np.geomspace(1e-9, 2.6e151, 4001)
        x = L / (2.0 * kappa(patch))
        assert x[-1] > 1.3e154
        c = response_shape(patch, L)[1]
        np.testing.assert_array_equal(c, L * np.sqrt(1.0 + x * x))
        assert [response_shape(patch, v)[1] for v in L[::97].tolist()] == c[::97].tolist()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    def test_c_past_the_double_range_is_rejected(self, as_array):
        # At kappa = 1, c = L sqrt(1 + L^2 / 4) passes the largest double near L = 1.89e154.
        L = np.array([1.0, 1.8e154, 2.6e154, 3e154]) if as_array else 2.6e154
        with pytest.raises(ValueError, match=r"not finite at L=2\.6e\+154, kappa=1\.0"):
            response_shape(DeSitterPatch(1.0), L)


@pytest.mark.parametrize("c", [0.0, np.array([2.0, 0.0, 1.0])], ids=["scalar", "array"])
def test_envelope_at_a_c_that_underflowed_to_0_is_rejected(c):
    # mu^2 / (4 pi c) divides by 0 there: a ValueError naming the envelope, not a ZeroDivisionError.
    with pytest.raises(ValueError, match=r"envelope mu\^2 / \(4 pi c\) is not a double at mu=0\.1, c=0\.0"):
        _require_envelope(0.1, c)


_BATH = ThermalBath(0.5)
# Each route of the shift and the generator as a function of (L, omega0, mu); rcpi_integral takes no mu, and
# rcpi_closed_desitter's kappa = 1e200 puts its sigma at L.
_ROUTES = {
    "rcpi_closed": lambda L, omega0, mu: rcpi_closed(_BATH, L, omega0, mu),
    "rcpi_closed-array": lambda L, omega0, mu: rcpi_closed(_BATH, np.array([1.0, L]), omega0, mu),
    "rcpi_closed_desitter": lambda L, omega0, mu: rcpi_closed_desitter(L, 1e200, omega0, mu),
    "rcpi_quadrature": lambda L, omega0, mu: rcpi_quadrature(_BATH, L, omega0, mu),
    "rcpi_integral": lambda L, omega0, mu: rcpi_integral(_BATH, omega0, L),
    "dissipator_coefficients": lambda L, omega0, mu: dissipator_coefficients(_BATH, omega0, mu, L),
    "build_coefficients": lambda L, omega0, mu: build_coefficients(_BATH, omega0, mu, L),
}
_BAD_INPUTS = {
    "zero-L": ((0.0, 1.0, 0.1), "L must be positive and finite, got 0.0"),
    "nan-omega0": ((1.0, math.nan, 0.1), "omega0 must be positive and finite, got nan"),
    "inf-mu": ((1.0, 1.0, math.inf), "mu must be positive and finite, got inf"),
    "phase-overflows": ((1e10, 1e300, 0.1), "the phase omega0 sigma is not a double: inf"),
}


@pytest.mark.parametrize(
    "route, bad",
    [(r, b) for r in _ROUTES for b in _BAD_INPUTS if not (r == "rcpi_integral" and b == "inf-mu")],
    ids=lambda x: x,
)
def test_every_route_raises_one_message_for_one_bad_input(route, bad):
    # The routes share geometry._pair_response, so one bad input gives one message whichever of them is called.
    args, message = _BAD_INPUTS[bad]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _ROUTES[route](*args)


def test_thermal_bath_validation():
    assert ThermalBath(0.0).temperature == 0.0
    with pytest.raises(ValueError):
        ThermalBath(-0.1)
