import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcpi.dicke import DickeState
from rcpi.geometry import DeSitterPatch, ThermalBath
from rcpi.liouvillian import build_coefficients
from rcpi.shifts import (
    Regime,
    force_closed,
    levelshift_general,
    rcpi_asymptotic,
    rcpi_closed,
    rcpi_closed_desitter,
    rcpi_closed_minkowski,
    rcpi_quadrature,
)

PATCH = DeSitterPatch(1.0, 0.0)


@pytest.fixture(scope="module")
def gen():
    return build_coefficients(PATCH, 1.0, 0.1, 1.0)


class TestLevelShiftGeneral:
    def test_product_states_have_no_interaction(self, gen):
        # h_ls holds only the cross-atom flip-flop term, which G and E do not see.
        assert levelshift_general(gen, DickeState.G) == 0.0
        assert levelshift_general(gen, DickeState.E) == 0.0

    @pytest.mark.parametrize(
        "spacetime", (PATCH, DeSitterPatch(3.0, 2.0), ThermalBath(0.0), ThermalBath(2.0)),
        ids=["desitter", "desitter-r2", "thermal-T0", "thermal-T2"],
    )
    @pytest.mark.parametrize("L", (0.01, 0.5, 1.0, 2.0, 30.0))
    def test_matches_closed_form(self, spacetime, L):
        # The product states get exactly nothing at every separation, and S/A get the
        # closed-form interaction energy -/+ 2 a2.
        gen = build_coefficients(spacetime, 1.0, 0.1, L)
        assert levelshift_general(gen, DickeState.G) == 0.0
        assert levelshift_general(gen, DickeState.E) == 0.0
        for state in (DickeState.S, DickeState.A):
            closed = rcpi_closed(spacetime, L, 1.0, 0.1, state)
            assert levelshift_general(gen, state) == pytest.approx(closed, rel=1e-14)

    def test_symmetric_antisymmetric_difference_is_cross_trace(self, gen):
        ds = levelshift_general(gen, DickeState.S)
        da = levelshift_general(gen, DickeState.A)
        # delta E_S - delta E_A carries the cross terms; each is -/+ 2 a2.
        assert ds == pytest.approx(-da, rel=1e-12)

    def test_agrees_with_closed_form(self, gen):
        closed = rcpi_closed_desitter(1.0, 1.0, 1.0, 0.1)
        assert levelshift_general(gen, DickeState.S) == pytest.approx(closed, rel=1e-6)


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
            (lambda: force_closed(ThermalBath(1.0), 0.0, 1.0, 0.1), "L"),
            (lambda: force_closed(ThermalBath(1.0), -1.0, 1.0, 0.1), "L"),
            (lambda: force_closed(ThermalBath(1.0), math.nan, 1.0, 0.1), "L"),
            (lambda: force_closed(PATCH, 1.0, math.nan, 0.1), "omega0"),
        ],
        ids=["desitter-nan-L", "desitter-nan-omega0", "asymptotic-nan-L", "minkowski-inf-L",
             "force-zero-L", "force-negative-L", "force-nan-L", "force-nan-omega0"],
    )
    def test_rejects_non_finite_or_non_positive_input(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            call()

    def test_rejects_product_states(self):
        with pytest.raises(ValueError):
            rcpi_closed_desitter(1.0, 1.0, 1.0, 0.1, DickeState.G)

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


class TestQuadratureRoute:
    def test_matches_closed_form(self):
        for spacetime, L in ((PATCH, 1.0), (PATCH, 5.0), (ThermalBath(0.7), 2.0)):
            closed = rcpi_closed(spacetime, L, 1.0, 0.1)
            numeric, err = rcpi_quadrature(spacetime, L, 1.0, 0.1)
            assert numeric == pytest.approx(closed, rel=1e-6)
            assert err < 1e-6 * abs(closed) + 1e-12


class TestForce:
    @pytest.mark.parametrize(
        "spacetime, L",
        [(ThermalBath(0.0), 2.2), (PATCH, 2.2), (PATCH, 40.0), (DeSitterPatch(2.0, 1.0), 5.0)],
    )
    def test_matches_finite_differences(self, spacetime, L):
        h = 1e-6 * L
        fd = -(rcpi_closed(spacetime, L + h, 1.0, 0.1) - rcpi_closed(spacetime, L - h, 1.0, 0.1)) / (2.0 * h)
        an = force_closed(spacetime, L, 1.0, 0.1)
        assert an == pytest.approx(fd, rel=1e-7)

    def test_antisymmetric_force_negates(self):
        s = force_closed(PATCH, 3.0, 1.0, 0.1, DickeState.S)
        a = force_closed(PATCH, 3.0, 1.0, 0.1, DickeState.A)
        assert a == -s

    def test_far_zone_force_decays_faster_in_desitter(self):
        # The force envelope falls as 1/L^3 in the curved far zone versus
        # 1/L^2-ish flat; compare magnitudes along the envelope.
        L = 300.0
        f_ds = abs(force_closed(PATCH, L, 1.0, 0.1))
        f_flat = abs(force_closed(ThermalBath(0.0), L, 1.0, 0.1))
        assert f_ds < f_flat
