import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import embed, wightman_desitter_cross, wightman_desitter_same, wightman_thermal_minkowski
from rcpi.geometry import DeSitterPatch

patches = st.builds(
    lambda alpha, frac: DeSitterPatch(alpha=alpha, r=frac * alpha),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=0.0, max_value=0.999),
)


class TestHermiticity:
    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=1e-4, max_value=0.1),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_desitter_same(self, dtau, eps, kap):
        g = wightman_desitter_same(dtau, eps, kap)
        assert g == np.conj(wightman_desitter_same(-dtau, eps, kap))

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=1e-4, max_value=0.1),
        st.floats(min_value=0.1, max_value=0.9),
    )
    def test_desitter_cross(self, dtau, eps, frac):
        g = wightman_desitter_cross(dtau, eps, 1.0, frac, 1.2)
        assert g == pytest.approx(np.conj(wightman_desitter_cross(-dtau, eps, 1.0, frac, 1.2)), rel=1e-14)

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=1e-4, max_value=0.05),
        st.floats(min_value=0.1, max_value=2.0),
    )
    @settings(max_examples=30)
    def test_thermal(self, dtau, eps, T):
        a = wightman_thermal_minkowski(dtau, eps, T, 1.3, n_max=64).value
        b = np.conj(wightman_thermal_minkowski(-dtau, eps, T, 1.3, n_max=64).value)
        assert a == pytest.approx(b, rel=1e-13)


class TestRegulator:
    def test_small_dtau_dominated_by_regulator(self):
        # dtau/kappa much smaller than epsilon: the value stays finite and is
        # controlled by the regulator alone.
        g = wightman_desitter_same(1e-12, 1e-3, 1.0)
        limit = -1.0 / (16.0 * math.pi**2 * np.sinh(-1e-3j) ** 2)
        assert g == pytest.approx(complex(limit), rel=1e-6)
        assert np.isfinite(g.real) and np.isfinite(g.imag)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            wightman_desitter_same(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            wightman_thermal_minkowski(1.0, -1e-3, 1.0)


class TestReductions:
    def test_flat_limit_matches_vacuum_image_term(self):
        # Large kappa at fixed dtau: matches the n = 0 vacuum term with the
        # regulator identified as eps' = 2 kappa eps.
        dtau, kap, eps = 1.0, 1e3, 1e-9
        g_ds = wightman_desitter_same(dtau, eps, kap)
        g_flat = wightman_thermal_minkowski(dtau, 2.0 * kap * eps, 0.0).value
        assert g_ds == pytest.approx(g_flat, rel=1e-5)

    def test_cross_reduces_to_same_at_zero_separation(self):
        g_c = wightman_desitter_cross(0.7, 1e-3, 1.0, 0.5, 1e-9)
        g_s = wightman_desitter_same(0.7, 1e-3, 1.0)
        assert g_c == pytest.approx(g_s, rel=1e-10)

    def test_thermal_cross_reduces_to_same(self):
        g_c = wightman_thermal_minkowski(0.7, 1e-3, 0.5, 1e-8, n_max=128).value
        g_s = wightman_thermal_minkowski(0.7, 1e-3, 0.5, n_max=128).value
        assert g_c == pytest.approx(g_s, rel=1e-10)

    def test_cross_denominator_from_embedding(self):
        # The spatial offset in the cross denominator is the embedding-chord
        # interval divided by 4 kappa^2; reconstruct the cross value from the
        # same-atom value plus that offset.
        patch = DeSitterPatch(2.0, 0.8)
        kap = math.sqrt(patch.alpha**2 - patch.r**2)
        dtheta = 0.9
        z1 = embed(patch, 0.0, 0.2, 0.5)
        z2 = embed(patch, 0.0, 0.2 + dtheta, 0.5)
        chord_sq = float(np.sum((z1[1:] - z2[1:]) ** 2))
        offset = chord_sq / (4.0 * kap**2)
        dtau, eps = 0.8, 1e-3
        g_s = wightman_desitter_same(dtau, eps, kap)
        sinh_sq = -1.0 / (16.0 * math.pi**2 * kap**2 * g_s)
        predicted = -1.0 / (16.0 * math.pi**2 * kap**2 * (sinh_sq - offset))
        actual = wightman_desitter_cross(dtau, eps, kap, patch.r, dtheta)
        assert actual == pytest.approx(predicted, rel=1e-12)


class TestImageSum:
    @pytest.mark.parametrize("L", [None, 3.0], ids=["same", "cross"])
    def test_vacuum_is_single_term(self, L):
        res = wightman_thermal_minkowski(1.3, 1e-3, 0.0, L)
        assert res.terms_used == 1
        assert res.tail_bound == 0.0
        z = 1.3 - 1e-3j
        assert res.value == pytest.approx(-1.0 / (4.0 * math.pi**2 * (z * z - (L or 0.0) ** 2)), rel=1e-15)

    @pytest.mark.parametrize("n_max", [50, 100, 400])
    def test_doubling_never_increases_tail_bound(self, n_max):
        a = wightman_thermal_minkowski(0.9, 1e-3, 0.5, 1.1, n_max)
        b = wightman_thermal_minkowski(0.9, 1e-3, 0.5, 1.1, 2 * n_max)
        assert b.tail_bound <= a.tail_bound

    @pytest.mark.parametrize("L", [None, 1.1, 3.0])
    def test_partial_sums_converge_within_bound(self, L):
        # Brute-force summation at several n_max: the step to the doubled sum
        # must stay inside the reported tail bound.
        for n_max in (64, 128, 256):
            a = wightman_thermal_minkowski(0.9, 1e-3, 0.5, L, n_max)
            b = wightman_thermal_minkowski(0.9, 1e-3, 0.5, L, 2 * n_max)
            assert abs(b.value - a.value) <= a.tail_bound

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            wightman_thermal_minkowski(1.0, 1e-3, -0.5)

    @pytest.mark.parametrize("L", [0.0, -1.0])
    def test_rejects_nonpositive_separation(self, L):
        with pytest.raises(ValueError, match="positive separation"):
            wightman_thermal_minkowski(1.0, 1e-3, 0.5, L)


class TestEmbed:
    def test_origin_point(self):
        z = embed(DeSitterPatch(1.0, 0.0), 0.0, 0.3, 0.7)
        assert np.allclose(z, [0.0, 1.0, 0.0, 0.0, 0.0])

    @given(
        patches,
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_hyperboloid_constraint(self, patch, t_over_alpha, theta, phi):
        # The identity is exact in real arithmetic; in floats the
        # sinh^2 - cosh^2 cancellation costs eps * cosh^2(t/alpha), which
        # bounds the window where the 1e-12 tolerance is meaningful.
        z = embed(patch, t_over_alpha * patch.alpha, theta, phi)
        interval = z[0] ** 2 - np.sum(z[1:] ** 2)
        assert interval == pytest.approx(-patch.alpha**2, rel=1e-12)

    def test_constraint_residual_scales_with_boost(self):
        patch = DeSitterPatch(1.0, 0.5)
        for t in (5.0, 10.0, 20.0):
            z = embed(patch, t, 1.0, 2.0)
            interval = z[0] ** 2 - np.sum(z[1:] ** 2)
            tol = max(1e-12, 8.0 * np.finfo(float).eps * math.cosh(t) ** 2)
            assert abs(interval + patch.alpha**2) <= tol * patch.alpha**2

    def test_equal_time_interval_is_chord_squared(self):
        patch = DeSitterPatch(2.0, 0.8)
        dtheta = 0.9
        z1 = embed(patch, 0.3, 0.4, 1.1)
        z2 = embed(patch, 0.3, 0.4 + dtheta, 1.1)
        spatial = np.sum((z1[1:] - z2[1:]) ** 2) - (z1[0] - z2[0]) ** 2
        assert spatial == pytest.approx(2.0 * patch.r**2 * (1.0 - math.cos(dtheta)), rel=1e-12)

