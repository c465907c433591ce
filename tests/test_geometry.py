import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rcpi.geometry import (
    DeSitterPatch,
    ThermalBath,
    field_temperature,
    kappa,
    local_temperature,
    response_shape,
)
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

    @given(st.floats(min_value=1e-2, max_value=10.0), st.data())
    def test_monotone_decreasing_in_r(self, alpha, data):
        r1 = data.draw(st.floats(min_value=0.0, max_value=0.998 * alpha))
        r2 = data.draw(st.floats(min_value=r1, max_value=0.999 * alpha))
        assert kappa(DeSitterPatch(alpha, r2)) <= kappa(DeSitterPatch(alpha, r1))


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


def test_thermal_bath_validation():
    assert ThermalBath(0.0).temperature == 0.0
    with pytest.raises(ValueError):
        ThermalBath(-0.1)
