"""Time-domain oracles: positive-frequency Wightman functions along static two-atom trajectories.

These correlators are the ground truth that the closed-form spectral
functions of ``rcpi.spectral`` are checked against; no ``rcpi`` route runs
them.  The i-epsilon regulator is an explicit argument everywhere so that
epsilon -> 0 extrapolations stay testable.  ``embed`` places a static event
on the 5D hyperboloid, from which the cross-atom denominator is rebuilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rcpi import geometry

_FOUR_PI_SQ = 4.0 * math.pi**2


@dataclass(frozen=True)
class TruncatedSum:
    """Partial image sum with a rigorous bound on the dropped tail."""

    value: complex
    terms_used: int
    tail_bound: float


def wightman_desitter_same(delta_tau: float, epsilon: float, kappa: float) -> complex:
    """Same-atom Wightman function -1 / (16 pi^2 kappa^2 sinh^2(dtau/2kappa - i eps))."""
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if epsilon <= 0:
        raise ValueError(f"regulator epsilon must be positive, got {epsilon}")
    s = np.sinh(delta_tau / (2.0 * kappa) - 1j * epsilon)
    return complex(-1.0 / (16.0 * math.pi**2 * kappa**2 * s * s))


def wightman_desitter_cross(
    delta_tau: float, epsilon: float, kappa: float, r: float, delta_theta: float
) -> complex:
    """Cross-atom Wightman function; the denominator acquires the spatial offset
    (r/kappa)^2 sin^2(delta_theta/2) relative to the same-atom form."""
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if epsilon <= 0:
        raise ValueError(f"regulator epsilon must be positive, got {epsilon}")
    s = np.sinh(delta_tau / (2.0 * kappa) - 1j * epsilon)
    offset = (r / kappa) ** 2 * math.sin(0.5 * delta_theta) ** 2
    return complex(-1.0 / (16.0 * math.pi**2 * kappa**2 * (s * s - offset)))


def wightman_thermal_minkowski(
    delta_tau: float,
    epsilon: float,
    temperature: float,
    L: float | None = None,
    n_max: int = 256,
) -> TruncatedSum:
    """Thermal Minkowski correlator as a symmetric partial image sum.

    ``L=None`` gives the same-atom correlator and a positive ``L`` the cross
    one.  Sums the images n in [-n_max, n_max] of
    -1 / (4 pi^2 [(dtau - i n/T - i eps)^2 - L^2]) and returns a rigorous
    bound on the dropped |n| > n_max tail from the integral comparison test
    (the term magnitudes decay like 1/n^2).  At T = 0 only the n = 0 vacuum
    term exists and the tail bound is zero.
    """
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if epsilon <= 0:
        raise ValueError(f"regulator epsilon must be positive, got {epsilon}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if L is not None and not L > 0:
        raise ValueError(f"cross correlator needs a positive separation L, got {L}")
    L_sq = 0.0 if L is None else L * L

    if temperature == 0.0:
        z0 = delta_tau - 1j * epsilon
        return TruncatedSum(value=complex(-1.0 / (_FOUR_PI_SQ * (z0 * z0 - L_sq))), terms_used=1, tail_bound=0.0)

    n = np.arange(-n_max, n_max + 1, dtype=float)
    z = delta_tau - 1j * n / temperature - 1j * epsilon
    value = complex(np.sum(-1.0 / (_FOUR_PI_SQ * (z * z - L_sq))))

    # Integral comparison bound for the |n| > n_max tail: each term magnitude
    # is at most 1/(4 pi^2 [(|n|/T - eps)^2 - L^2]) once |n|/T - eps > L.
    y0 = n_max / temperature - epsilon
    if y0 <= (L or 0.0):
        tail = math.inf
    elif L is not None:
        tail = (temperature / (2.0 * math.pi**2)) * (0.5 / L) * math.log((y0 + L) / (y0 - L))
    else:
        tail = (temperature / (2.0 * math.pi**2)) / y0
    return TruncatedSum(value=value, terms_used=2 * n_max + 1, tail_bound=tail)


def embed(patch: geometry.DeSitterPatch, t: float, theta: float, phi: float) -> np.ndarray:
    """Embed a static-coordinate event into the 5D hyperboloid.

    Returns the flat 5-vector (z0, ..., z4); the result satisfies
    z0^2 - z1^2 - z2^2 - z3^2 - z4^2 = -alpha^2 identically.
    """
    k = geometry.kappa(patch)
    r = patch.r
    return np.array(
        [
            k * math.sinh(t / patch.alpha),
            k * math.cosh(t / patch.alpha),
            r * math.cos(theta),
            r * math.sin(theta) * math.cos(phi),
            r * math.sin(theta) * math.sin(phi),
        ]
    )
