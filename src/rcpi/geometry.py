"""Static-patch geometry of de Sitter spacetime and thermal flat-space parameters.

Natural units throughout (hbar = c = k_B = 1).  Every length is a multiple of
one caller-chosen reference length; temperatures and frequencies are inverse
lengths.  Only the dimensionless combinations L/kappa, omega0*kappa, T*kappa
enter the physics downstream.
"""

from __future__ import annotations

import math
import sys

from ._record import Record

__all__ = [
    "DeSitterPatch",
    "ThermalBath",
    "SpacetimeConfig",
    "TemperatureDecomposition",
    "kappa",
    "local_temperature",
    "field_temperature",
    "response_shape",
]


def _require_positive(**values) -> None:
    """Raise ValueError naming the first argument that is not positive and finite.

    A value may be a scalar or a numpy array; for an array the message quotes its first bad element.
    """
    for name, x in values.items():
        if getattr(x, "ndim", 0) == 0:
            bad = () if math.isfinite(x) and x > 0 else (x,)
        else:
            import numpy as np  # an array argument: numpy is loaded already

            x = np.asarray(x, dtype=float)
            bad = x[~(np.isfinite(x) & (x > 0))]
        if len(bad):
            raise ValueError(f"{name} must be positive and finite, got {bad[0]}")


class DeSitterPatch(Record):
    """Static de Sitter patch of curvature radius ``alpha``, atoms at radius ``r``.

    The horizon r = alpha is rejected rather than clamped: the redshift factor
    vanishes there, the local temperature diverges, and every derived quantity
    downstream blows up.  Failing fast beats returning infinities.  So is a
    radius whose kappa^2 = (alpha - r)(alpha + r) overflows or falls below the
    smallest normal double, where kappa comes out infinite or imprecise.
    """

    alpha: float
    r: float = 0.0

    def __post_init__(self) -> None:
        _require_positive(alpha=self.alpha)
        if not (0.0 <= self.r < self.alpha):
            raise ValueError(
                f"atoms must sit strictly inside the horizon (0 <= r < alpha), got r={self.r}, alpha={self.alpha}"
            )
        kappa_sq = (self.alpha - self.r) * (self.alpha + self.r)
        if not (math.isfinite(kappa_sq) and kappa_sq >= sys.float_info.min):
            raise ValueError(
                f"kappa^2 = (alpha - r)(alpha + r) = {kappa_sq} is outside the normal double range, "
                f"got alpha={self.alpha}, r={self.r}"
            )


class ThermalBath(Record):
    """Minkowski spacetime with the field in a thermal state; T = 0 is the vacuum."""

    temperature: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"bath temperature must be >= 0, got {self.temperature}")


SpacetimeConfig = DeSitterPatch | ThermalBath


class TemperatureDecomposition(Record):
    """Local temperature split into its Gibbons-Hawking and Unruh contributions.

    Satisfies T^2 = T_f^2 + T_a^2 with T_f set by the curvature radius and
    T_a = a / 2 pi by the proper acceleration of the static trajectory.
    """

    T: float
    T_f: float
    T_a: float
    a: float


def kappa(patch: DeSitterPatch) -> float:
    """Redshifted curvature scale sqrt(alpha^2 - r^2) of a static trajectory."""
    return math.sqrt((patch.alpha - patch.r) * (patch.alpha + patch.r))


def local_temperature(patch: DeSitterPatch) -> TemperatureDecomposition:
    """Temperature felt by a static atom, with its curvature/acceleration split."""
    k = kappa(patch)
    T = 1.0 / (2.0 * math.pi * k)
    T_f = 1.0 / (2.0 * math.pi * patch.alpha)
    a = patch.r / (patch.alpha * k)
    return TemperatureDecomposition(T=T, T_f=T_f, T_a=a / (2.0 * math.pi), a=a)


def field_temperature(spacetime: SpacetimeConfig) -> float:
    """Temperature of the field's occupation factor: the local 1/(2 pi kappa) in de Sitter, T in a bath."""
    if isinstance(spacetime, DeSitterPatch):
        return local_temperature(spacetime).T
    if isinstance(spacetime, ThermalBath):
        return spacetime.temperature
    raise TypeError(f"unsupported spacetime configuration: {spacetime!r}")


def _desitter_shape(L, kappa_val: float):
    """(sigma, c) = (2 kappa asinh(L / 2 kappa), L sqrt(1 + L^2 / 4 kappa^2)) for a scalar or an array ``L``.

    An array takes the same operations element by element, ``math.asinh`` included, so that each of its
    elements has the bits of the scalar result."""
    # sqrt(1 + x^2) rounds to x itself from x = 2^27 on, so x is squared only below there: the
    # bits of sqrt(1 + x * x) wherever x * x is finite, and no overflow past it.  An x or a c
    # past the double range is inf, with no warning; a c that is no double raises.
    if getattr(L, "ndim", 0) == 0:
        L = float(L)
        x = L / (2.0 * kappa_val)
        sigma, c = 2.0 * kappa_val * math.asinh(x), L * (math.sqrt(1.0 + x * x) if x < 2.0**27 else x)
        bad = () if math.isfinite(c) else (L,)
    else:
        import numpy as np  # an array argument: numpy is loaded already

        with np.errstate(over="ignore"):
            x = L / (2.0 * kappa_val)
            sigma = 2.0 * kappa_val * np.fromiter(map(math.asinh, x.ravel().tolist()), float, x.size).reshape(x.shape)
            c = L * np.where(x < 2.0**27, np.sqrt(1.0 + x * x), x)
        bad = L[~np.isfinite(c)]
    if len(bad):
        raise ValueError(f"c = L sqrt(1 + L^2 / 4 kappa^2) is not finite at L={bad[0]}, kappa={kappa_val}")
    return sigma, c


def response_shape(spacetime: SpacetimeConfig, L):
    """Oscillation scale sigma and envelope denominator c of the cross response at separation ``L``.

    The cross spectrum is the same-atom one times (sigma / c) sinc(sigma lambda),
    and the interaction energy goes as cos(omega0 sigma) / c.  In de Sitter
    sigma = 2 kappa asinh(L / 2 kappa) and c = L sqrt(1 + L^2 / 4 kappa^2), so
    c grows as L^2 beyond kappa; in a thermal bath sigma = c = L.  This is the
    whole difference between the 1/L^2 and the 1/L laws.  ``L`` is a positive
    scalar (floats come back) or a numpy array; callers check it.
    """
    if isinstance(spacetime, DeSitterPatch):
        return _desitter_shape(L, kappa(spacetime))
    if isinstance(spacetime, ThermalBath):
        return L, L
    raise TypeError(f"unsupported spacetime configuration: {spacetime!r}")


def _require_envelope(mu: float, c, at: str = "") -> None:
    """Raise ValueError where the envelope mu^2 / (4 pi c) is not a double at the smallest ``c``, one that underflowed
    to 0 included.  ``c`` is a scalar or an array; ``at`` names it in the message in place of its value."""
    mu, c_min = float(mu), float(c if getattr(c, "ndim", 0) == 0 else c.min())
    if not (c_min > 0 and math.isfinite(mu * mu / (4.0 * math.pi * c_min))):
        raise ValueError(f"the envelope mu^2 / (4 pi c) is not a double at mu={mu}, {at or f'c={c_min}'}")


def _require_phase(omega0: float, sigma) -> None:
    """Raise ValueError where the phase omega0 sigma is not a double at the largest ``sigma``, a scalar or an array.
    The product is taken in Python floats, which overflow without a warning; call this before any cos or sin of it."""
    phase = float(omega0) * float(sigma if getattr(sigma, "ndim", 0) == 0 else sigma.max())
    if not math.isfinite(phase):
        raise ValueError(f"the phase omega0 sigma is not a double: {phase}")
