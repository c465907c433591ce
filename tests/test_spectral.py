import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from oracles import wightman_desitter_cross, wightman_desitter_same, wightman_thermal_minkowski
from rcpi.spectral import (
    fourier_desitter_cross,
    fourier_desitter_same,
    fourier_thermal_minkowski,
    geometric_factor_f,
    sinc,
)

# Frozen reference: (1/2pi) / (1 - e^{-2pi}) evaluated at 30 digits.
_G11_LAM1_KAP1 = 0.1594527118997837148


class TestSameAtomSpectrum:
    def test_reference_value(self):
        assert fourier_desitter_same(1.0, 1.0) == pytest.approx(_G11_LAM1_KAP1, rel=1e-15)

    def test_zero_frequency_limit(self):
        for kap in (0.5, 1.0, 3.0):
            assert fourier_desitter_same(0.0, kap) == pytest.approx(1.0 / (4.0 * math.pi**2 * kap), rel=1e-12)

    @given(
        st.floats(min_value=-10.0, max_value=10.0).filter(lambda x: abs(x) > 1e-9),
        st.floats(min_value=0.1, max_value=3.0),
    )
    def test_kms_ratio(self, lam, kap):
        ratio = fourier_desitter_same(lam, kap) / fourier_desitter_same(-lam, kap)
        assert ratio == pytest.approx(math.exp(2.0 * math.pi * kap * lam), rel=1e-12)

    def test_positive_for_positive_frequency(self):
        lam = np.linspace(1e-6, 20.0, 500)
        assert np.all(fourier_desitter_same(lam, 0.7) > 0)

    def test_branch_agreement_at_switch(self):
        # Series and direct branches meet at |2 pi kappa lam| = 1e-4.
        lam_switch = 1e-4 / (2.0 * math.pi)
        lo = fourier_desitter_same(lam_switch * (1 - 1e-9), 1.0)
        hi = fourier_desitter_same(lam_switch * (1 + 1e-9), 1.0)
        assert lo == pytest.approx(hi, rel=1e-10)


class TestGeometricFactor:
    def test_short_distance_limit(self):
        assert geometric_factor_f(1.0, 1e-8, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_frequency_limit(self):
        z, kap = 0.5, 1.0
        expected = kap * math.asinh(z / kap) / (z * math.sqrt(1.0 + z**2 / kap**2))
        assert geometric_factor_f(0.0, z, kap) == pytest.approx(expected, rel=1e-12)

    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=1e-6, max_value=50.0),
        st.floats(min_value=0.05, max_value=20.0),
    )
    def test_bounded_by_one(self, lam, z, kap):
        assert abs(geometric_factor_f(lam, z, kap)) <= 1.0 + 1e-12

    @given(
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    def test_even_in_frequency(self, lam, z, kap):
        assert geometric_factor_f(lam, z, kap) == geometric_factor_f(-lam, z, kap)

    def test_decays_with_separation(self):
        vals = [abs(geometric_factor_f(1.0, z, 1.0)) for z in (0.1, 1.0, 10.0, 100.0, 1000.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_branch_agreement_at_switch(self):
        lo = geometric_factor_f(1.0, 1e-4 * (1 - 1e-9), 1.0)
        hi = geometric_factor_f(1.0, 1e-4 * (1 + 1e-9), 1.0)
        assert lo == pytest.approx(hi, rel=1e-10)
        lo = sinc(1e-4 * (1 - 1e-9))
        hi = sinc(1e-4 * (1 + 1e-9))
        assert lo == pytest.approx(hi, rel=1e-10)

    def test_rejects_nonpositive_z(self):
        with pytest.raises(ValueError):
            geometric_factor_f(1.0, 0.0, 1.0)


class TestCrossSpectrum:
    def test_reduces_to_same(self):
        assert fourier_desitter_cross(0.8, 1.0, 1e-9) == pytest.approx(
            fourier_desitter_same(0.8, 1.0), rel=1e-12
        )

    @given(
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=20.0),
    )
    def test_magnitude_below_same(self, lam, kap, L):
        assert abs(fourier_desitter_cross(lam, kap, L)) <= fourier_desitter_same(lam, kap) * (1 + 1e-12)

    def test_same_kms_ratio_as_same_pair(self):
        lam, kap, L = 1.7, 0.8, 2.0
        ratio = fourier_desitter_cross(lam, kap, L) / fourier_desitter_cross(-lam, kap, L)
        assert ratio == pytest.approx(math.exp(2.0 * math.pi * kap * lam), rel=1e-12)


class TestThermalSpectrum:
    def test_vacuum_step(self):
        assert fourier_thermal_minkowski(2.0, 0.0) == pytest.approx(2.0 / (2.0 * math.pi), rel=1e-15)
        assert fourier_thermal_minkowski(-2.0, 0.0) == 0.0

    @given(
        st.floats(min_value=-10.0, max_value=10.0).filter(lambda x: abs(x) > 1e-9),
        st.floats(min_value=0.05, max_value=10.0),
    )
    def test_kms_ratio(self, lam, T):
        ratio = fourier_thermal_minkowski(lam, T) / fourier_thermal_minkowski(-lam, T)
        assert ratio == pytest.approx(math.exp(lam / T), rel=1e-12)

    @pytest.mark.parametrize("lam, T, L", [(1.3, 0.0, 2.4), (1.0, 0.5, 3.0)])
    def test_cross_to_same_ratio_is_sinc(self, lam, T, L):
        ratio = fourier_thermal_minkowski(lam, T, L) / fourier_thermal_minkowski(lam, T)
        assert ratio == pytest.approx(math.sin(lam * L) / (lam * L), rel=1e-13)

    def test_cross_matches_same_at_small_separation(self):
        # Series comparison: deviation is O((lam L)^2).
        lam, T = 1.0, 0.7
        for L in (1e-3, 3e-4):
            same = fourier_thermal_minkowski(lam, T)
            cross = fourier_thermal_minkowski(lam, T, L)
            assert abs(cross - same) <= 0.2 * (lam * L) ** 2 * same

    def test_occupation_fold_identity(self):
        # n(w) + n(-w) = 1 is what removes the temperature downstream.
        w = np.linspace(0.05, 20.0, 400)
        for T in (0.1, 1.0, 10.0):
            n_pos = fourier_thermal_minkowski(w, T) / (w / (2.0 * math.pi))
            n_neg = fourier_thermal_minkowski(-w, T) / (-w / (2.0 * math.pi))
            assert np.max(np.abs(n_pos + n_neg - 1.0)) < 1e-12

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            fourier_thermal_minkowski(1.0, -0.1)

    @pytest.mark.parametrize("L", [0.0, -1.0])
    def test_rejects_nonpositive_separation(self, L):
        with pytest.raises(ValueError, match="positive separation"):
            fourier_thermal_minkowski(1.0, 0.5, L)


# Valid keyword arguments of each spectral function, and the message that rejects each parameter.
_VALID_ARGS = {
    fourier_desitter_same: {"lam": 1.0, "kappa_val": 1.0},
    fourier_desitter_cross: {"lam": 1.0, "kappa_val": 1.0, "L": 1.0},
    fourier_thermal_minkowski: {"lam": 1.0, "temperature": 1.0, "L": 1.0},
    geometric_factor_f: {"lam": 1.0, "z": 1.0, "kappa_val": 1.0},
}
_REJECTION = {
    (fourier_desitter_cross, "L"): "separation L must be positive",
    (fourier_thermal_minkowski, "L"): "positive separation",
    (fourier_thermal_minkowski, "temperature"): "temperature must be >= 0",
    (geometric_factor_f, "z"): "z must be positive",
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "fn, arg",
    [pytest.param(fn, arg, id=f"{fn.__name__}-{arg}") for fn, args in _VALID_ARGS.items() for arg in args if arg != "lam"],
)
def test_rejects_non_finite_parameters(fn, arg, bad):
    # A NaN or infinite curvature scale, separation or temperature is an error, not a NaN or inf result.
    with pytest.raises(ValueError, match=_REJECTION.get((fn, arg), "kappa must be positive")):
        fn(**{**_VALID_ARGS[fn], arg: bad})


def _windowed_transform(corr, lam, window, points=None):
    """2 Re int_0^window corr(t) e^{i lam t} dt; hermiticity folds the negative axis."""

    def integrand(t):
        return 2.0 * (corr(t) * np.exp(1j * lam * t)).real

    val, _ = quad(integrand, 0.0, window, limit=800, epsabs=1e-12, epsrel=1e-11, points=points)
    return val


def _epsilon_extrapolated(f, eps):
    """Quadratic Richardson in the regulator: exact residual scales as e^{-c eps}."""
    g1, g2, g4 = f(eps), f(eps / 2.0), f(eps / 4.0)
    return (8.0 * g4 - 6.0 * g2 + g1) / 3.0


class TestFourierOracle:
    """Windowed quadrature of the time-domain correlators, extrapolated eps -> 0,
    against the closed-form spectra."""

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, -1.0])
    def test_desitter_same(self, lam):
        kap = 1.0
        est = _epsilon_extrapolated(
            lambda e: _windowed_transform(lambda t: wightman_desitter_same(t, e, kap), lam, 38.0),
            4e-3,
        )
        assert est == pytest.approx(fourier_desitter_same(lam, kap), rel=1e-4)

    @pytest.mark.parametrize("lam", [0.8, 1.7])
    def test_desitter_cross(self, lam):
        kap, L = 1.0, 1.4
        r = 1.0
        dtheta = 2.0 * math.asin(L / (2.0 * r))
        sigma = 2.0 * kap * math.asinh(L / (2.0 * kap))
        est = _epsilon_extrapolated(
            lambda e: _windowed_transform(
                lambda t: wightman_desitter_cross(t, e, kap, r, dtheta), lam, 38.0, points=[sigma]
            ),
            4e-3,
        )
        assert est == pytest.approx(fourier_desitter_cross(lam, kap, L), rel=1e-4)

    def test_thermal_cross(self):
        # Sanity check of the residue-summed family against the image sum;
        # the image-sum truncation dominates the tolerance here.
        T, L, lam = 0.25, 1.2, 0.7
        est = _epsilon_extrapolated(
            lambda e: _windowed_transform(
                lambda t: wightman_thermal_minkowski(t, e, T, L, 3000).value,
                lam,
                30.0,
                points=[L],
            ),
            4e-3,
        )
        assert est == pytest.approx(fourier_thermal_minkowski(lam, T, L), rel=1e-3)
