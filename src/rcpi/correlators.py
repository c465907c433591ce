"""Positive-frequency Wightman functions along static two-atom trajectories.

These time-domain correlators are the ground truth that the closed-form
spectral functions are checked against; the production path goes through the
frequency domain, so the functions here serve as oracles and for plots.  The
i-epsilon regulator is an explicit argument everywhere so that epsilon -> 0
extrapolations stay testable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Pair",
    "TruncatedSum",
    "wightman_desitter_same",
    "wightman_desitter_cross",
    "wightman_thermal_minkowski",
]

_FOUR_PI_SQ = 4.0 * math.pi**2


class Pair(enum.Enum):
    """Which two-point function: a single atom with itself, or the two distinct atoms."""

    SAME = "same"
    CROSS = "cross"


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
    pair: Pair = Pair.SAME,
    n_max: int = 256,
) -> TruncatedSum:
    """Thermal Minkowski correlator as a symmetric partial image sum.

    Sums the images n in [-n_max, n_max] of
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
    if pair is Pair.CROSS:
        if L is None or L <= 0:
            raise ValueError("cross-pair correlator needs a positive separation L")
        L_sq = L * L
    else:
        L_sq = 0.0

    if temperature == 0.0:
        z0 = delta_tau - 1j * epsilon
        return TruncatedSum(value=complex(-1.0 / (_FOUR_PI_SQ * (z0 * z0 - L_sq))), terms_used=1, tail_bound=0.0)

    n = np.arange(-n_max, n_max + 1, dtype=float)
    z = delta_tau - 1j * n / temperature - 1j * epsilon
    value = complex(np.sum(-1.0 / (_FOUR_PI_SQ * (z * z - L_sq))))

    # Integral comparison bound for the |n| > n_max tail: each term magnitude
    # is at most 1/(4 pi^2 [(|n|/T - eps)^2 - L^2]) once |n|/T - eps > L.
    y0 = n_max / temperature - epsilon
    if y0 <= (math.sqrt(L_sq) if L_sq else 0.0):
        tail = math.inf
    elif L_sq > 0.0:
        Lv = math.sqrt(L_sq)
        tail = (temperature / (2.0 * math.pi**2)) * (0.5 / Lv) * math.log((y0 + Lv) / (y0 - Lv))
    else:
        tail = (temperature / (2.0 * math.pi**2)) / y0
    return TruncatedSum(value=value, terms_used=2 * n_max + 1, tail_bound=tail)

