"""Energy-level shifts of the collective states and the interaction closed forms.

Only the symmetric and antisymmetric entangled states acquire a
separation-dependent shift at second order; the product states see nothing
but separation-independent self-energies.  The closed forms implemented here
carry the whole curved-versus-flat story: in de Sitter the shift envelope
crosses over from 1/L below the redshifted curvature scale kappa to
2 kappa / L^2 above it, while a thermal flat-space bath gives a
temperature-independent 1/L law at every separation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dicke import DickeState, ket
from .geometry import DeSitterPatch, SpacetimeConfig, ThermalBath, kappa
from .liouvillian import GeneratorMatrices, h_ls_matrix
from .quadrature import _require_positive, rcpi_integral

__all__ = [
    "Method",
    "Regime",
    "ShiftResult",
    "levelshift_general",
    "rcpi_closed_desitter",
    "rcpi_closed_minkowski",
    "rcpi_closed",
    "rcpi_asymptotic",
    "rcpi_quadrature",
    "force_closed",
]


class Method(enum.Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"
    ASYMPTOTIC_FAR = "asymptotic_far"
    ASYMPTOTIC_NEAR = "asymptotic_near"


class Regime(enum.Enum):
    FAR = "far"
    NEAR = "near"


@dataclass(frozen=True)
class ShiftResult:
    state: DickeState
    delta_E: float
    method: Method
    spacetime: SpacetimeConfig


def _entangled_sign(state: DickeState) -> float:
    """-1 for the symmetric state, +1 for the antisymmetric one (exact negation)."""
    if state is DickeState.S:
        return -1.0
    if state is DickeState.A:
        return 1.0
    raise ValueError(f"interaction shift exists only for the S and A states, got {state}")


def levelshift_general(gen: GeneratorMatrices, state: DickeState, cross_only: bool = False) -> float:
    """Expectation <psi|h_ls|psi> of the field-induced Hamiltonian correction in a Dicke state.

    With ``cross_only`` the separation-independent same-atom terms are
    dropped, making the S/A output directly comparable to the closed-form
    interaction energy.
    """
    v = ket(state)
    val = v.conj() @ h_ls_matrix(gen, cross_only) @ v
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise ValueError(f"level shift came out non-real ({val}); generator matrices are inconsistent")
    return float(val.real)


def _float_or_array(value: np.floating | np.ndarray) -> float | np.ndarray:
    """A scalar result as a Python float, an array result as the array itself."""
    return float(value) if value.ndim == 0 else value


def rcpi_closed_desitter(
    L: float | np.ndarray, kappa_val: float, omega0: float, mu: float, state: DickeState = DickeState.S
) -> float | np.ndarray:
    """Closed-form interaction energy of a static pair in the de Sitter vacuum.

    ``L`` may be a scalar (the result is a float) or a numpy array of separations.
    """
    _require_positive(L=L, kappa=kappa_val, omega0=omega0, mu=mu)
    x = L / (2.0 * kappa_val)
    envelope = 1.0 / (L * np.sqrt(1.0 + x * x))
    phase = 2.0 * omega0 * kappa_val * np.arcsinh(x)
    return _float_or_array(_entangled_sign(state) * (mu * mu / (4.0 * math.pi)) * envelope * np.cos(phase))


def rcpi_closed_minkowski(
    L: float | np.ndarray, omega0: float, mu: float, state: DickeState = DickeState.S
) -> float | np.ndarray:
    """Closed-form interaction energy in flat spacetime; no temperature enters,
    because the thermal occupation factors at opposite frequencies cancel.

    ``L`` may be a scalar (the result is a float) or a numpy array of separations.
    """
    _require_positive(L=L, omega0=omega0, mu=mu)
    return _float_or_array(_entangled_sign(state) * (mu * mu / (4.0 * math.pi)) * np.cos(omega0 * L) / L)


def rcpi_closed(
    spacetime: SpacetimeConfig, L: float | np.ndarray, omega0: float, mu: float, state: DickeState = DickeState.S
) -> float | np.ndarray:
    """Closed-form interaction energy for either spacetime configuration, at a scalar or a numpy array of ``L``."""
    if isinstance(spacetime, DeSitterPatch):
        return rcpi_closed_desitter(L, kappa(spacetime), omega0, mu, state)
    if isinstance(spacetime, ThermalBath):
        return rcpi_closed_minkowski(L, omega0, mu, state)
    raise TypeError(f"unsupported spacetime configuration: {spacetime!r}")


def rcpi_asymptotic(
    L: float,
    kappa_val: float,
    omega0: float,
    mu: float,
    regime: Regime,
    state: DickeState = DickeState.S,
) -> float:
    """Limiting forms of the de Sitter interaction.

    FAR (L >> kappa): envelope 2 kappa / L^2 with a log-periodic phase; the
    displayed phase uses log(L/kappa), which differs from the exact
    asinh-based phase by O(kappa^2/L^2).  NEAR (L << kappa): the flat-space
    1/L law.
    """
    _require_positive(L=L, kappa=kappa_val, omega0=omega0, mu=mu)
    sign = _entangled_sign(state)
    if regime is Regime.FAR:
        return sign * (mu * mu / (2.0 * math.pi)) * (kappa_val / (L * L)) * math.cos(
            2.0 * omega0 * kappa_val * math.log(L / kappa_val)
        )
    if regime is Regime.NEAR:
        return sign * (mu * mu / (4.0 * math.pi)) * math.cos(omega0 * L) / L
    raise ValueError(f"unknown regime {regime}")


def rcpi_quadrature(
    spacetime: SpacetimeConfig,
    L: float,
    omega0: float,
    mu: float,
    state: DickeState = DickeState.S,
    abs_tol: float = 1e-9,
    rel_tol: float = 1e-7,
) -> tuple[float, float]:
    """Interaction energy by direct numerical quadrature; returns (value, error estimate)."""
    res = rcpi_integral(spacetime, omega0, L, abs_tol=abs_tol, rel_tol=rel_tol)
    scale = mu * mu / (4.0 * math.pi**2)
    return _entangled_sign(state) * scale * res.value, scale * res.error


def force_closed(spacetime: SpacetimeConfig, L: float, omega0: float, mu: float, state: DickeState = DickeState.S) -> float:
    """Interaction force -d(delta E)/dL from analytic differentiation of the closed form."""
    _require_positive(L=L, omega0=omega0, mu=mu)
    if isinstance(spacetime, DeSitterPatch):
        k = kappa(spacetime)
        x = L / (2.0 * k)
        root = math.sqrt(1.0 + x * x)
        env = L * root
        env_prime = (1.0 + 2.0 * x * x) / root
        phase = 2.0 * omega0 * k * math.asinh(x)
        phase_prime = omega0 / root
    elif isinstance(spacetime, ThermalBath):
        env = L
        env_prime = 1.0
        phase = omega0 * L
        phase_prime = omega0
    else:
        raise TypeError(f"unsupported spacetime configuration: {spacetime!r}")
    # delta E = sign (mu^2/4 pi) cos(phase)/env, so
    # F = -d(delta E)/dL = sign (mu^2/4 pi) [sin(phase) phase'/env + cos(phase) env'/env^2]
    return _entangled_sign(state) * (mu * mu / (4.0 * math.pi)) * (
        math.sin(phase) * phase_prime / env + math.cos(phase) * env_prime / (env * env)
    )
