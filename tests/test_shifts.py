import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcpi.dicke import DickeState
from rcpi.geometry import DeSitterPatch, ThermalBath
from rcpi.shifts import (
    Regime,
    rcpi_asymptotic,
    rcpi_closed,
    rcpi_closed_desitter,
    rcpi_closed_minkowski,
    rcpi_quadrature,
)

PATCH = DeSitterPatch(1.0, 0.0)


class TestClosedForms:
    def test_zero_crossing(self):
        omega0, kap = 1.0, 1.0
        L_star = 2.0 * kap * math.sinh(math.pi / (4.0 * omega0 * kap))
        envelope = 0.1**2 / (4.0 * math.pi * L_star)
        assert abs(rcpi_closed_desitter(L_star, kap, omega0, 0.1)) <= 1e-12 * envelope

    def test_near_limit_matches_flat_form(self):
        # L/kappa = 1e-3: matches -(mu^2/4 pi)(1/L) cos(w0 L) to better than 1e-5.
        L = 1e-3
        ds = rcpi_closed_desitter(L, 1.0, 1.0, 0.1)
        flat = -(0.1**2 / (4.0 * math.pi)) * math.cos(L) / L
        assert ds == pytest.approx(flat, rel=1e-5)

    def test_minkowski_independent_of_everything_thermal(self):
        v1 = rcpi_closed(ThermalBath(0.0), 1.7, 1.0, 0.1)
        v2 = rcpi_closed(ThermalBath(10.0), 1.7, 1.0, 0.1)
        assert v1 == v2

    def test_minkowski_sign_flip_past_first_zero(self):
        # At L = pi/omega0 the cosine is -1 and the shift turns positive.
        val = rcpi_closed_minkowski(math.pi, 1.0, 0.1)
        assert val == pytest.approx(0.1**2 / (4.0 * math.pi**2), rel=1e-14)
        assert val > 0

    def test_flat_limit_of_desitter(self):
        for L in (0.5, 1.0, 2.0):
            ds = rcpi_closed_desitter(L, 1e6, 1.0, 0.1)
            mink = rcpi_closed_minkowski(L, 1.0, 0.1)
            assert ds == pytest.approx(mink, rel=1e-8)

    def test_envelope_strictly_decreasing(self):
        L = np.geomspace(0.01, 1000.0, 300)
        env = 1.0 / (L * np.sqrt(1.0 + (L / 2.0) ** 2))
        assert np.all(np.diff(env) < 0)

    @pytest.mark.parametrize("spacetime", [PATCH, ThermalBath(0.5)], ids=["desitter", "thermal"])
    def test_array_of_separations_matches_scalar_loop(self, spacetime):
        L = np.geomspace(0.01, 100.0, 37)
        values = rcpi_closed(spacetime, L, 3.0, 0.1, DickeState.A)
        assert isinstance(values, np.ndarray) and values.shape == L.shape
        assert all(type(rcpi_closed(spacetime, x, 3.0, 0.1, DickeState.A)) is float for x in L[:3].tolist())
        # Reference: the per-point math-module formula.  The phase (at most 30
        # here) is rounded to within an ulp either way, so the two may differ
        # by eps * phase of the envelope.
        for x, v in zip(L.tolist(), values.tolist()):
            if isinstance(spacetime, DeSitterPatch):
                envelope = 1.0 / (x * math.sqrt(1.0 + (x / 2.0) ** 2))
                phase = 6.0 * math.asinh(x / 2.0)
            else:
                envelope, phase = 1.0 / x, 3.0 * x
            amplitude = 0.1**2 / (4.0 * math.pi) * envelope
            assert abs(v - amplitude * math.cos(phase)) <= 1e-14 * amplitude
        with pytest.raises(ValueError, match="L must be positive and finite, got nan"):
            rcpi_closed(spacetime, np.append(L, math.nan), 3.0, 0.1)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: rcpi_closed(PATCH, math.nan, 1.0, 0.1), "L"),
            (lambda: rcpi_closed(PATCH, 1.0, math.nan, 0.1), "omega0"),
            (lambda: rcpi_asymptotic(math.nan, 1.0, 1.0, 0.1, Regime.FAR), "L"),
            (lambda: rcpi_closed_minkowski(math.inf, 1.0, 0.1), "L"),
            (lambda: rcpi_quadrature(PATCH, 1.0, 1.0, math.nan), "mu"),
            (lambda: rcpi_quadrature(PATCH, 1.0, 1.0, 0.0), "mu"),
            (lambda: rcpi_quadrature(ThermalBath(0.5), 1.0, 1.0, -1.0), "mu"),
        ],
        ids=["desitter-nan-L", "desitter-nan-omega0", "asymptotic-nan-L", "minkowski-inf-L",
             "quadrature-nan-mu", "quadrature-zero-mu", "quadrature-negative-mu"],
    )
    def test_rejects_non_finite_or_non_positive_input(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            call()

    def test_rejects_product_states(self):
        with pytest.raises(ValueError):
            rcpi_closed_desitter(1.0, 1.0, 1.0, 0.1, DickeState.G)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    def test_x_squared_past_the_double_range(self, as_array):
        # x = L / 2 kappa = 5e159, so x * x overflows, yet c = L x (1 + O(1/x^2)) = 5e69 is a double.
        L, kap = 1e-90, 1e-250
        sigma = 2.0 * kap * math.asinh(L / (2.0 * kap))
        expected = -(1.0 / (4.0 * math.pi)) * math.cos(sigma) / (L * (L / (2.0 * kap)))
        value = rcpi_closed_desitter(np.array([L]) if as_array else L, kap, 1.0, 1.0)
        assert np.ravel(value).tolist() == pytest.approx([expected], rel=1e-15, abs=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    def test_c_past_the_double_range_raises(self, as_array):
        # The shift is at most mu^2 / 4 pi c, about 2e-10 here, but c itself is no double: an error, not -0.0.
        L = np.array([1e3, 2.6e154]) if as_array else 2.6e154
        with pytest.raises(ValueError, match=r"not finite at L=2\.6e\+154, kappa=1\.0"):
            rcpi_closed_desitter(L, 1.0, 1.0, 1e150)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    @pytest.mark.parametrize("mu, L", [(1e200, 1.0), (1e150, 1e-20)], ids=["mu-squared", "over-c"])
    def test_envelope_past_the_double_range_raises(self, as_array, mu, L):
        # mu^2 / (4 pi c) overflows: an error, not -inf.
        with pytest.raises(ValueError, match=r"envelope mu\^2 / \(4 pi c\) is not a double"):
            rcpi_closed(ThermalBath(0.0), np.array([1.0, L]) if as_array else L, 1.0, mu)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "call",
        [
            lambda: rcpi_closed(ThermalBath(0.0), 1e200, 1e200, 0.1),
            lambda: rcpi_closed(ThermalBath(0.0), np.array([1.0, 1e200]), 1e200, 0.1),
            lambda: rcpi_asymptotic(10.0, 1.0, 1e308, 0.1, Regime.FAR),
            lambda: rcpi_quadrature(ThermalBath(0.0), 1e200, 1e200, 0.1),
        ],
        ids=["closed-scalar", "closed-array", "asymptotic-far", "quadrature"],
    )
    def test_phase_past_the_double_range_raises(self, call):
        # omega0 sigma overflows while the envelope is a double: an error naming the phase, not NaN or a warning.
        with pytest.raises(ValueError, match=r"^the phase omega0 sigma is not a double: inf$"):
            call()

    def test_huge_curvature_scale_gives_the_flat_value(self):
        # kappa = 1e200 is past the range DeSitterPatch accepts (kappa^2 overflows);
        # the closed form takes kappa itself and reaches the flat limit.
        flat = rcpi_closed_minkowski(1.3, 1.0, 0.1)
        assert rcpi_closed_desitter(1.3, 1e200, 1.0, 0.1) == pytest.approx(flat, rel=1e-15)


class TestAntisymmetry:
    @given(
        st.floats(min_value=1e-2, max_value=1e3),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_closed_desitter_exact(self, L, kap, omega0, mu):
        s = rcpi_closed_desitter(L, kap, omega0, mu, DickeState.S)
        a = rcpi_closed_desitter(L, kap, omega0, mu, DickeState.A)
        assert a == -s

    @given(
        st.floats(min_value=1e-2, max_value=1e3),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_closed_minkowski_exact(self, L, omega0, mu):
        s = rcpi_closed_minkowski(L, omega0, mu, DickeState.S)
        a = rcpi_closed_minkowski(L, omega0, mu, DickeState.A)
        assert a == -s

    def test_asymptotic_and_quadrature_exact(self):
        for regime in Regime:
            s = rcpi_asymptotic(5.0, 1.0, 1.0, 0.1, regime, DickeState.S)
            a = rcpi_asymptotic(5.0, 1.0, 1.0, 0.1, regime, DickeState.A)
            assert a == -s
        qs, _ = rcpi_quadrature(PATCH, 1.0, 1.0, 0.1, DickeState.S)
        qa, _ = rcpi_quadrature(PATCH, 1.0, 1.0, 0.1, DickeState.A)
        assert qa == -qs


class TestAsymptotics:
    def test_far_regime_ratio(self):
        ratio = rcpi_closed_desitter(100.0, 1.0, 1.0, 0.1) / rcpi_asymptotic(
            100.0, 1.0, 1.0, 0.1, Regime.FAR
        )
        assert 0.99 <= ratio <= 1.01

    def test_near_regime_ratio(self):
        ratio = rcpi_closed_desitter(0.01, 1.0, 1.0, 0.1) / rcpi_asymptotic(
            0.01, 1.0, 1.0, 0.1, Regime.NEAR
        )
        assert 0.9999 <= ratio <= 1.0001

    def test_far_envelope_value(self):
        # The far form's envelope is exactly (mu^2/2 pi) kappa / L^2.
        L, kap, mu = 50.0, 2.0, 0.1
        val = rcpi_asymptotic(L, kap, 1.0, mu, Regime.FAR)
        phase = 2.0 * kap * math.log(L / kap)
        assert val == pytest.approx(-(mu**2 / (2.0 * math.pi)) * kap / L**2 * math.cos(phase), rel=1e-14)

    def test_near_value(self):
        # The near form is the flat-space law (mu^2/4 pi) cos(omega0 L) / L, whatever kappa is.
        L, omega0, mu = 0.03, 7.0, 0.1
        val = rcpi_asymptotic(L, 5.0, omega0, mu, Regime.NEAR)
        assert val == pytest.approx(-(mu**2 / (4.0 * math.pi)) * math.cos(omega0 * L) / L, rel=1e-14)

    def test_unknown_regime_is_rejected(self):
        # The regime is a Regime member, not its value.
        with pytest.raises(ValueError, match="unknown regime near"):
            rcpi_asymptotic(1.0, 1.0, 1.0, 0.1, "near")


class TestQuadratureRoute:
    def test_matches_closed_form(self):
        for spacetime, L in ((PATCH, 1.0), (PATCH, 5.0), (ThermalBath(0.7), 2.0)):
            closed = rcpi_closed(spacetime, L, 1.0, 0.1)
            numeric, err = rcpi_quadrature(spacetime, L, 1.0, 0.1)
            assert numeric == pytest.approx(closed, rel=1e-6)
            assert err < 1e-6 * abs(closed) + 1e-12
