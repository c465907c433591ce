"""Energy-level shifts of the collective states and the interaction closed forms.

Only the symmetric and antisymmetric entangled states acquire a
separation-dependent shift at second order; the product states see nothing
but separation-independent self-energies.  The closed forms implemented here
carry the whole curved-versus-flat story: in de Sitter the shift envelope
crosses over from 1/L below the redshifted curvature scale kappa to
2 kappa / L^2 above it, while a thermal flat-space bath gives a
temperature-independent 1/L law at every separation.  The closed forms and
the quadrature take their checked inputs, (sigma, c) and the phase
omega0 sigma, from ``geometry._pair_response``.
"""

from __future__ import annotations

import enum
import math

from .dicke import DickeState
from .geometry import SpacetimeConfig, ThermalBath, _pair_response, _require_envelope, _require_phase, _require_positive
from .quadrature import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, rcpi_integral

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, which type checkers read as True
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Regime",
    "rcpi_closed_desitter",
    "rcpi_closed_minkowski",
    "rcpi_closed",
    "rcpi_asymptotic",
    "rcpi_quadrature",
]


class Regime(enum.Enum):
    FAR = "far"
    NEAR = "near"


def _entangled_sign(state: DickeState) -> float:
    """-1 for the symmetric state, +1 for the antisymmetric one (exact negation)."""
    if state is DickeState.S:
        return -1.0
    if state is DickeState.A:
        return 1.0
    raise ValueError(f"interaction shift exists only for the S and A states, got {state}")


def _a2_closed_form(a, c, mu: float):
    """a2 = mu^2 cos(a) / (8 pi c) at the phase a = omega0 sigma, a float at scalar (a, c) and an array at array ones;
    the S and A shifts are -/+ 2 a2."""
    if getattr(a, "ndim", 0) == 0:
        return float((mu * mu / (8.0 * math.pi)) * math.cos(a) / c)
    import numpy as np  # an array argument: numpy is loaded already

    return (mu * mu / (8.0 * math.pi)) * np.cos(a) / c


def rcpi_closed_desitter(
    L: float | np.ndarray, kappa_val: float, omega0: float, mu: float, state: DickeState = DickeState.S
) -> float | np.ndarray:
    """Closed-form interaction energy of a static pair in the de Sitter vacuum of redshifted scale ``kappa_val``."""
    _, c, a = _pair_response(None, L, omega0, mu, kappa=kappa_val)
    return _entangled_sign(state) * 2.0 * _a2_closed_form(a, c, mu)


def rcpi_closed_minkowski(
    L: float | np.ndarray, omega0: float, mu: float, state: DickeState = DickeState.S
) -> float | np.ndarray:
    """Closed-form interaction energy in flat spacetime; no temperature enters,
    because the thermal occupation factors at opposite frequencies cancel."""
    return rcpi_closed(ThermalBath(0.0), L, omega0, mu, state)


def rcpi_closed(
    spacetime: SpacetimeConfig, L: float | np.ndarray, omega0: float, mu: float, state: DickeState = DickeState.S
) -> float | np.ndarray:
    """Closed-form interaction energy for either spacetime, with (sigma, c) from ``geometry.response_shape``.

    ``L`` may be a scalar (the result is a float) or a numpy array of separations.  Raises as
    ``geometry._pair_response``.
    """
    _, c, a = _pair_response(spacetime, L, omega0, mu)
    return _entangled_sign(state) * 2.0 * _a2_closed_form(a, c, mu)


def rcpi_asymptotic(
    L: float,
    kappa_val: float,
    omega0: float,
    mu: float,
    regime: Regime,
    state: DickeState = DickeState.S,
) -> float:
    """Limiting forms of the de Sitter interaction.

    FAR (L >> kappa): envelope 2 kappa / L^2, i.e. c = L^2 / 2 kappa, with a
    log-periodic phase; the displayed phase uses log(L/kappa), which differs
    from the exact asinh-based phase by O(kappa^2/L^2).  NEAR (L << kappa):
    the flat-space 1/L law of ``rcpi_closed_minkowski``.  Either raises
    ValueError where its envelope or phase is not a double.
    """
    _require_positive(L=L, kappa=kappa_val, omega0=omega0, mu=mu)
    sign = _entangled_sign(state)
    if regime is Regime.FAR:
        # c first: L / kappa underflows to 0 only where c does.
        c = L * L / (2.0 * kappa_val)
        _require_envelope(mu, c)
        _require_phase(2.0 * omega0 * kappa_val, math.log(L / kappa_val))
        return sign * (mu * mu / (4.0 * math.pi * c)) * math.cos(2.0 * omega0 * kappa_val * math.log(L / kappa_val))
    if regime is Regime.NEAR:
        return rcpi_closed_minkowski(L, omega0, mu, state)
    raise ValueError(f"unknown regime {regime}")


def rcpi_quadrature(
    spacetime: SpacetimeConfig,
    L: float,
    omega0: float,
    mu: float,
    state: DickeState = DickeState.S,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> tuple[float, float]:
    """Interaction energy by direct numerical quadrature; returns (value, error estimate).  Raises as ``rcpi_closed``,
    and as ``rcpi_integral`` where the quadrature fails."""
    _pair_response(spacetime, L, omega0, mu)
    res = rcpi_integral(spacetime, omega0, L, abs_tol=abs_tol, rel_tol=rel_tol)
    scale = mu * mu / (4.0 * math.pi**2)
    return _entangled_sign(state) * scale * res.value, scale * res.error
