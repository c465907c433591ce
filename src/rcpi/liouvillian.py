"""Markovian generator of the two-atom reduced dynamics and its exact propagator.

The weak-coupling master equation is
    d rho / d tau = -i [H_eff, rho] + L[rho],
with H_eff the free two-atom Hamiltonian plus a field-induced correction
bilinear in Pauli operators, and L[rho] the dissipator built from the 3x3
coefficient matrices of the same tensor structure.  Every coefficient is
set by three numbers that ``geometry`` reads off the spacetime: the
oscillation scale sigma and envelope denominator c of the cross response
(``response_shape``) and the field temperature T (``field_temperature``).
The dissipator side is the spectral functions at +/- omega0, taken in
closed form; the Hamiltonian side is their principal-value frequency
transforms, taken by the resonance quadrature kernel.

Convention: the Hamiltonian-side matrices carry an overall factor -i times
a real coefficient, which is what makes the correction Hermitian; the stored
scalars a1, b1, a2, b2 are those real coefficients.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import csvio
from .dicke import DickeState, ket, projector
from .geometry import SpacetimeConfig, field_temperature, response_shape
from .quadrature import _cauchy, _require_positive, _require_tolerance, _resonance_kernel, rcpi_integral

__all__ = [
    "CoefficientSet",
    "TwoQubitState",
    "GeneratorMatrices",
    "EvolutionError",
    "Trajectory",
    "dissipator_coefficients",
    "hamiltonian_cross_coefficients",
    "hamiltonian_same_coefficients",
    "build_coefficients",
    "assemble_generator",
    "h_ls_matrix",
    "h_eff_matrix",
    "superoperator",
    "dicke_population_rate",
    "evolve",
]

# Pauli matrices in single-atom basis order (|g>, |e>), so that the product
# basis comes out as (gg, ge, eg, ee) and sigma_3 |e> = +|e>.
_S1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_S2 = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
_S3 = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_PAULI = (_S1, _S2, _S3)

# _SIG[atom][i] = sigma_{i+1} acting on the given atom of the pair.
_SIG = (
    tuple(np.kron(p, _I2) for p in _PAULI),
    tuple(np.kron(_I2, p) for p in _PAULI),
)


class EvolutionError(RuntimeError):
    """The master-equation propagation produced a non-finite state."""


@dataclass(frozen=True)
class CoefficientSet:
    """The eight scalars feeding the generator.

    a*/b* are the (real) Hamiltonian-side coefficients, at*/bt* the
    dissipator-side ones; subscript 1 is same-atom, 2 is cross-atom.  The
    cross dissipator coefficients are bounded by the same-atom ones because
    the separation factor has magnitude at most one.
    """

    a1: float
    b1: float
    a2: float
    b2: float
    at1: float
    bt1: float
    at2: float
    bt2: float

    def __post_init__(self) -> None:
        slack = 1e-12 * max(abs(self.at1), 1.0)
        if self.at1 <= 0:
            raise ValueError(f"same-atom dissipator coefficient must be positive, got at1={self.at1}")
        if abs(self.at2) > abs(self.at1) + slack or abs(self.bt2) > abs(self.bt1) + slack:
            raise ValueError("cross dissipator coefficients must not exceed the same-atom ones")


@dataclass(frozen=True)
class TwoQubitState:
    """4x4 density matrix over the product basis (gg, ge, eg, ee)."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
        object.__setattr__(self, "rho", rho)
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
            raise ValueError("density matrix trace must equal 1 within 1e-12")
        if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -1e-10:
            raise ValueError("density matrix has an eigenvalue below -1e-10")

    @classmethod
    def from_dicke(cls, state: DickeState) -> "TwoQubitState":
        return cls(projector(state))

    def dicke_populations(self) -> np.ndarray:
        """Populations (pG, pE, pS, pA)."""
        return np.array(
            [np.real(ket(s).conj() @ self.rho @ ket(s)) for s in (DickeState.G, DickeState.E, DickeState.S, DickeState.A)]
        )


@dataclass(frozen=True)
class GeneratorMatrices:
    """3x3 coefficient matrices of the generator plus the transition frequency."""

    H_same: np.ndarray
    H_cross: np.ndarray
    C_same: np.ndarray
    C_cross: np.ndarray
    omega0: float


def _w_coth(w: float, temperature: float) -> float:
    """w (n(w) - n(-w)) = w coth(w / 2T): 2T at w = 0, and w itself in the vacuum."""
    if temperature == 0.0:
        return w
    x = 0.5 * w / temperature
    return w / math.tanh(x) if x else 2.0 * temperature


def dissipator_coefficients(
    spacetime: SpacetimeConfig, omega0: float, mu: float, L: float
) -> tuple[float, float, float, float]:
    """Dissipator scalars (at1, bt1, at2, bt2): the spectral functions at +/- omega0 in closed form.

    The same-atom weights G(+/- w0) = (1/2 pi) (+/- w0) / (1 - e^{-/+ w0/T})
    sum to (w0/2 pi) coth(w0/2T) and differ by w0/2 pi, whatever T is; the
    cross weights carry the even factor (sigma/c) sinc(sigma w0) on top.
    """
    _require_positive(omega0=omega0, mu=mu, L=L)
    sigma, c = response_shape(spacetime, L)
    pref = mu * mu / (8.0 * math.pi)
    at1 = pref * _w_coth(omega0, field_temperature(spacetime))
    bt1 = pref * omega0
    cross = math.sin(sigma * omega0) / (c * omega0)
    return at1, bt1, at1 * cross, bt1 * cross


def hamiltonian_cross_coefficients(
    spacetime: SpacetimeConfig,
    omega0: float,
    mu: float,
    L: float,
    abs_tol: float = 1e-9,
    rel_tol: float = 1e-7,
) -> tuple[float, float]:
    """Cross-atom Hamiltonian coefficients (a2, b2) by the resonance quadrature kernel.

    The occupation factors at +/- w fold onto the half line exactly: the a2
    integrand carries no occupation weight at all and is the resonance
    integral itself; the b2 integrand carries coth(w / 2T).  Both are
    cutoff-free.
    """
    _require_positive(omega0=omega0, mu=mu, L=L)
    pref = mu * mu / (8.0 * math.pi**2)
    T = field_temperature(spacetime)
    sigma, c = response_shape(spacetime, L)
    amplitude = sigma / c

    def p_b(w: float) -> float:
        # (w/(w - w0) - w/(w + w0)) coth(w/2T) = 2 w0 w coth(w/2T) / ((w + w0)(w - w0))
        return amplitude * 2.0 * omega0 * _w_coth(w, T) / (w + omega0)

    a2 = pref * rcpi_integral(spacetime, omega0, L, abs_tol, rel_tol).value
    b2 = pref * _resonance_kernel(p_b, omega0, sigma, abs_tol, rel_tol).value
    return a2, b2


def hamiltonian_same_coefficients(
    spacetime: SpacetimeConfig,
    omega0: float,
    mu: float,
    cutoff: float,
    abs_tol: float = 1e-9,
    rel_tol: float = 1e-7,
) -> tuple[float, float]:
    """Same-atom Hamiltonian coefficients (a1, b1) with an explicit frequency cutoff.

    Both integrals diverge as the cutoff grows (linearly and logarithmically);
    the cutoff regularizes the separation-independent self-energy in the
    spirit of Bethe's treatment, and the result is only meaningful together
    with the cutoff used.  Each is one Cauchy-weighted quadrature on [0, cutoff].
    """
    if cutoff is None:
        raise ValueError("a frequency cutoff is required for the same-atom coefficients")
    _require_positive(omega0=omega0, mu=mu, cutoff=cutoff)
    if cutoff <= omega0:
        raise ValueError(f"cutoff must exceed the pole frequency, got cutoff={cutoff}, omega0={omega0}")
    pref = mu * mu / (8.0 * math.pi**2)
    T = field_temperature(spacetime)

    def p_a(w: float) -> float:
        return 2.0 * w * w / (w + omega0)

    def p_b(w: float) -> float:
        return 2.0 * omega0 * _w_coth(w, T) / (w + omega0)

    a1, b1 = (
        _require_tolerance(_cauchy(p, 0.0, cutoff, omega0, abs_tol, rel_tol), abs_tol, rel_tol, "same-atom coefficient")
        for p in (p_a, p_b)
    )
    return pref * a1.value, pref * b1.value


def build_coefficients(
    spacetime: SpacetimeConfig,
    omega0: float,
    mu: float,
    L: float,
    cutoff: float | None = None,
    abs_tol: float = 1e-9,
    rel_tol: float = 1e-7,
) -> CoefficientSet:
    """Assemble the full coefficient set for one configuration.

    Without a cutoff the separation-independent Hamiltonian terms are set to
    zero: they shift all four collective levels but never contribute to the
    interatomic interaction, so dropping them is the default for interaction
    studies; pass a cutoff to re-include them for exploratory dynamics.
    """
    at1, bt1, at2, bt2 = dissipator_coefficients(spacetime, omega0, mu, L)
    a2, b2 = hamiltonian_cross_coefficients(spacetime, omega0, mu, L, abs_tol, rel_tol)
    if cutoff is not None:
        a1, b1 = hamiltonian_same_coefficients(spacetime, omega0, mu, cutoff, abs_tol, rel_tol)
    else:
        a1, b1 = 0.0, 0.0
    return CoefficientSet(a1=a1, b1=b1, a2=a2, b2=b2, at1=at1, bt1=bt1, at2=at2, bt2=bt2)


def _h_block(a: float, b: float) -> np.ndarray:
    # (-i a) delta_ij - i (-i b) eps_ij3 - (-i a) delta_3i delta_3j
    return np.array(
        [[-1j * a, -b, 0.0], [b, -1j * a, 0.0], [0.0, 0.0, 0.0]],
        dtype=complex,
    )


def _c_block(at: float, bt: float) -> np.ndarray:
    # at delta_ij - i bt eps_ij3 - at delta_3i delta_3j
    return np.array(
        [[at, -1j * bt, 0.0], [1j * bt, at, 0.0], [0.0, 0.0, 0.0]],
        dtype=complex,
    )


def assemble_generator(coeffs: CoefficientSet, omega0: float) -> GeneratorMatrices:
    """Materialize the 3x3 coefficient matrices of the master equation."""
    if omega0 <= 0:
        raise ValueError(f"transition frequency must be positive, got {omega0}")
    return GeneratorMatrices(
        H_same=_h_block(coeffs.a1, coeffs.b1),
        H_cross=_h_block(coeffs.a2, coeffs.b2),
        C_same=_c_block(coeffs.at1, coeffs.bt1),
        C_cross=_c_block(coeffs.at2, coeffs.bt2),
        omega0=omega0,
    )


def _blocks(gen: GeneratorMatrices, cross_only: bool):
    zero = np.zeros((3, 3), dtype=complex)
    same = zero if cross_only else gen.H_same
    return {(0, 0): same, (1, 1): same, (0, 1): gen.H_cross, (1, 0): gen.H_cross}


def h_ls_matrix(gen: GeneratorMatrices, cross_only: bool = False) -> np.ndarray:
    """Field-induced Hamiltonian correction as a 4x4 matrix,
    -(i/2) sum_{ab,ij} H^{(ab)}_{ij} sigma_i^{(a)} sigma_j^{(b)}."""
    out = np.zeros((4, 4), dtype=complex)
    for (a, b), block in _blocks(gen, cross_only).items():
        for i in range(3):
            for j in range(3):
                coeff = block[i, j]
                if coeff != 0.0:
                    out += coeff * (_SIG[a][i] @ _SIG[b][j])
    return -0.5j * out


def h_eff_matrix(gen: GeneratorMatrices, cross_only: bool = False) -> np.ndarray:
    """Effective Hamiltonian: free splitting plus the field-induced correction."""
    free = 0.5 * gen.omega0 * (_SIG[0][2] + _SIG[1][2])
    return free + h_ls_matrix(gen, cross_only)


def superoperator(gen: GeneratorMatrices, cross_only_hamiltonian: bool = False) -> np.ndarray:
    """16x16 matrix generating d vec(rho)/d tau in row-major vectorization."""
    eye4 = np.eye(4, dtype=complex)
    h = h_eff_matrix(gen, cross_only_hamiltonian)
    m = -1j * (np.kron(h, eye4) - np.kron(eye4, h.T))
    c_blocks = {(0, 0): gen.C_same, (1, 1): gen.C_same, (0, 1): gen.C_cross, (1, 0): gen.C_cross}
    for (a, b), block in c_blocks.items():
        for i in range(3):
            for j in range(3):
                c = block[i, j]
                if c == 0.0:
                    continue
                si = _SIG[a][i]
                sj = _SIG[b][j]
                sisj = si @ sj
                m += 0.5 * c * (
                    2.0 * np.kron(sj, si.T) - np.kron(sisj, eye4) - np.kron(eye4, sisj.T)
                )
    return m


def dicke_population_rate(gen: GeneratorMatrices, state: DickeState) -> float:
    """Instantaneous d p_state / d tau with the system prepared in that Dicke state."""
    m = superoperator(gen)
    drho = (m @ projector(state).reshape(16)).reshape(4, 4)
    v = ket(state)
    return float(np.real(v.conj() @ drho @ v))


@dataclass(frozen=True)
class Trajectory:
    """Solution of the master equation on a fixed output grid, with diagnostics.

    The trace and hermiticity defects and the minimum eigenvalue are recorded
    per point rather than silently repaired; drift in them is the cheapest
    global error meter for the propagation.
    """

    tau: np.ndarray
    rho: np.ndarray  # (n, 4, 4) complex
    populations: np.ndarray  # (n, 4) order G, E, S, A
    trace: np.ndarray
    hermiticity_defect: np.ndarray
    min_eigenvalue: np.ndarray

    def to_csv(self, path_or_buf) -> None:
        """Write tau, Dicke populations, trace and minimum eigenvalue as CSV."""
        csvio.write_columns(
            path_or_buf,
            ("tau", "pG", "pE", "pS", "pA", "trace", "min_eig"),
            (self.tau, *self.populations.T, self.trace, self.min_eigenvalue),
        )


def evolve(rho0, gen: GeneratorMatrices, tau_grid) -> Trajectory:
    """Propagate the master equation exactly over the given output grid.

    The generator M is constant, so rho(tau + h) = exp(M h) rho(tau) on the
    vectorized density matrix.  One matrix exponential (scipy's scaling and
    squaring, Al-Mohy & Higham 2009) is taken per distinct step of the grid
    and applied from point to point.  No renormalization is applied; trace
    drift is reported, not hidden.  A positivity violation beyond -1e-8 in the
    minimum eigenvalue triggers a warning, and a non-finite propagated state
    (an overflowing M h) raises EvolutionError.
    """
    rho_init = rho0.rho if isinstance(rho0, TwoQubitState) else np.asarray(rho0, dtype=complex)
    if rho_init.shape != (4, 4):
        raise ValueError(f"initial state must be 4x4, got shape {rho_init.shape}")
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or tau.size < 2 or np.any(np.diff(tau) <= 0):
        raise ValueError("tau_grid must be a strictly increasing 1D grid with at least two points")

    m = superoperator(gen)
    steps = np.diff(tau).tolist()
    propagators = {h: expm(m * h) for h in set(steps)}
    y = np.empty((tau.size, 16), dtype=complex)
    y[0] = rho_init.reshape(16)
    for i, h in enumerate(steps):
        y[i + 1] = propagators[h] @ y[i]
    if not np.all(np.isfinite(y)):
        raise EvolutionError(
            f"master-equation propagation gave a non-finite state (largest |M| entry {np.max(np.abs(m)):.3e})"
        )

    rhos = y.reshape(-1, 4, 4)
    adj = rhos.conj().transpose(0, 2, 1)
    kets = np.array([ket(s) for s in (DickeState.G, DickeState.E, DickeState.S, DickeState.A)])
    pops = np.einsum("ki,nij,kj->nk", kets.conj(), rhos, kets).real
    trace = np.trace(rhos, axis1=1, axis2=2).real
    herm = np.max(np.abs(rhos - adj), axis=(1, 2))
    min_eig = np.linalg.eigvalsh(0.5 * (rhos + adj))[:, 0]
    if np.min(min_eig) < -1e-8:
        warnings.warn(
            f"trajectory leaves the positive cone: min eigenvalue {np.min(min_eig):.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return Trajectory(
        tau=tau, rho=rhos, populations=pops, trace=trace,
        hermiticity_defect=herm, min_eigenvalue=min_eig,
    )
