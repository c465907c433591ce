"""Frequency-domain correlation functions of the field along static trajectories.

The positive-frequency response of a static atom in the de Sitter-invariant
vacuum is a Planck-weighted spectrum at inverse temperature 2 pi kappa; the
cross-atom response picks up a bounded geometric factor f that encodes the
separation.  The thermal Minkowski family is obtained by residue summation
over the thermal images and factorizes the same way with sinc(lambda L).

All functions accept scalars or numpy arrays and evaluate the removable
singularities (lambda -> 0, z -> 0) through explicit series branches switched
at |argument| < 1e-4; the two branches agree to ~1e-12 at the switch point.

No route imports this module: the routes read the response shape and the
field temperature from ``geometry``, and this module is the independent
frequency-domain oracle that the tests and the ``validate`` checks compare
them against (those checks import it when they run).  The tests in turn
check it against the time-domain Wightman functions.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "fourier_desitter_same",
    "fourier_desitter_cross",
    "fourier_thermal_minkowski",
    "geometric_factor_f",
    "sinc",
]

_SERIES_SWITCH = 1e-4


def _planck_weight(lam, beta):
    """lambda / (1 - exp(-beta lambda)), evaluated stably for all real lambda.

    Series branch for |beta lambda| < 1e-4 avoids the 0/0 at lambda = 0;
    elsewhere the expm1 form is exact down to denormals and saturates
    gracefully for large |beta lambda| (-> lambda for lambda >> 0, -> 0 for
    lambda << 0).
    """
    lam = np.asarray(lam, dtype=float)
    u = beta * lam
    small = np.abs(u) < _SERIES_SWITCH
    u_safe = np.where(small, 1.0, u)
    with np.errstate(over="ignore"):
        direct = -lam / np.expm1(-u_safe)
    series = (1.0 + u / 2.0 + u * u / 12.0) / beta
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def sinc(x):
    """Unnormalized sinc: sin(x)/x with its series branch near x = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_SWITCH
    x_safe = np.where(small, 1.0, x)
    direct = np.sin(x_safe) / x_safe
    x2 = x * x
    series = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def fourier_desitter_same(lam, kappa_val: float):
    """Same-atom spectral function (1/2 pi) lambda / (1 - e^{-2 pi kappa lambda})."""
    if not (math.isfinite(kappa_val) and kappa_val > 0):
        raise ValueError(f"kappa must be positive, got {kappa_val}")
    out = _planck_weight(lam, 2.0 * math.pi * kappa_val) / (2.0 * math.pi)
    return out if np.ndim(out) else float(out)


def geometric_factor_f(lam, z, kappa_val: float):
    """Separation factor sin(2 kappa lambda asinh(z/kappa)) / (2 z lambda sqrt(1 + z^2/kappa^2)).

    Even in lambda, bounded by 1 in magnitude, and -> 1 as z -> 0.  Factorizes
    as sinc(2 kappa lambda asinh(z/kappa)) times a lambda-independent geometric
    ratio, which is how both removable singularities are handled.
    """
    if not (math.isfinite(kappa_val) and kappa_val > 0):
        raise ValueError(f"kappa must be positive, got {kappa_val}")
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z) & (z > 0)):
        raise ValueError("separation argument z must be positive")
    w = z / kappa_val
    asinh_w = np.arcsinh(w)
    small = w < _SERIES_SWITCH
    w_safe = np.where(small, 1.0, w)
    direct = np.arcsinh(w_safe) / (w_safe * np.sqrt(1.0 + w_safe * w_safe))
    w2 = w * w
    series = 1.0 - (2.0 / 3.0) * w2 + (8.0 / 15.0) * w2 * w2
    ratio = np.where(small, series, direct)
    out = sinc(2.0 * kappa_val * np.asarray(lam, dtype=float) * asinh_w) * ratio
    return out if np.ndim(out) else float(out)


def fourier_desitter_cross(lam, kappa_val: float, L: float):
    """Cross-atom spectral function: the same-atom weight times f(lambda, L/2)."""
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"separation L must be positive, got {L}")
    out = fourier_desitter_same(lam, kappa_val) * geometric_factor_f(lam, L / 2.0, kappa_val)
    return out if np.ndim(out) else float(out)


def fourier_thermal_minkowski(lam, temperature: float, L: float | None = None):
    """Spectral function of a thermal Minkowski bath at the given temperature.

    Obtained by residue summation over the thermal images of the correlator:
    the same-atom weight (``L=None``) is the Planck form
    (lambda/2 pi)/(1 - e^{-lambda/T}), and the cross weight at a positive
    separation ``L`` carries the extra factor sinc(lambda L).  At T = 0 only
    positive frequencies respond (vacuum step).
    """
    if not (math.isfinite(temperature) and temperature >= 0):
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if L is not None and not (math.isfinite(L) and L > 0):
        raise ValueError(f"cross spectral function needs a positive separation L, got {L}")
    lam_arr = np.asarray(lam, dtype=float)
    if temperature == 0.0:
        same = np.where(lam_arr > 0, lam_arr, 0.0) / (2.0 * math.pi)
    else:
        same = _planck_weight(lam_arr, 1.0 / temperature) / (2.0 * math.pi)
    out = same if L is None else same * sinc(lam_arr * L)
    return out if np.ndim(out) else float(out)

