"""Markovian generator of the two-atom reduced dynamics and its exact propagator.

The weak-coupling master equation is
    d rho / d tau = -i [H_eff, rho] + L[rho],
with H_eff the free two-atom Hamiltonian plus a field-induced correction
bilinear in Pauli operators, and L[rho] the dissipator: the two-atom
Lamb-shift Hamiltonian and Kossakowski matrix of Benatti and Floreanini (PRA
70, 012112, 2004), built as one contraction with constant Pauli tensors.
Every separation-dependent coefficient is a closed form in the (sigma, c) of
``geometry.response_shape`` and the T of ``field_temperature``: the
dissipator is the spectral functions at +/- omega0, and the Hamiltonian side
is a2 = mu^2 cos(omega0 sigma) / (8 pi c).  The antisymmetric cross term of
the Hamiltonian side cancels from the generator, since H_cross enters for
both atom orderings and sum eps_ij3 (s_i x s_j + s_j x s_i) = 0; it is not
computed.  Quadrature runs only for the same-atom a1, b1 under a cutoff.

Convention: the Hamiltonian-side matrices carry an overall factor -i times
a real coefficient, which is what makes the correction Hermitian; the stored
scalars a1, b1, a2 are those real coefficients.
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
from .quadrature import _cauchy, _require_positive, _require_tolerance

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
_I4 = np.eye(4, dtype=complex)
_DICKE_KETS = np.array([ket(s) for s in (DickeState.G, DickeState.E, DickeState.S, DickeState.A)])

# Constant tensors whose rows are the operators that single coefficients
# multiply.  _PRODUCTS, over the pair index (3 atom + i, 3 atom' + j): the
# product s_i s_j of the Hamiltonian correction.  _GENERATOR, acting on the
# row-major vec(rho): first, over the 16 entries E of H_eff, the commutator
# -i (E (x) 1 - 1 (x) E^T); then, over the pair index, the dissipator term
# (1/2)(2 s_j (x) s_i^T - s_i s_j (x) 1 - 1 (x) (s_i s_j)^T).
_FLAT_SIG = _SIG[0] + _SIG[1]
_PRODUCTS = np.array([si @ sj for si in _FLAT_SIG for sj in _FLAT_SIG])
_GENERATOR = np.array(
    [-1j * (np.kron(e, _I4) - np.kron(_I4, e.T)).ravel() for e in np.eye(16, dtype=complex).reshape(16, 4, 4)]
    + [0.5 * (2.0 * np.kron(sj, si.T) - np.kron(si @ sj, _I4) - np.kron(_I4, (si @ sj).T)).ravel()
       for si in _FLAT_SIG for sj in _FLAT_SIG]
)
_CHUNK = 32  # output points filled per batched product of exact propagation


class EvolutionError(RuntimeError):
    """The master-equation propagation produced a non-finite state."""


@dataclass(frozen=True)
class CoefficientSet:
    """The seven scalars feeding the generator.

    a*/b* are the (real) Hamiltonian-side coefficients, at*/bt* the
    dissipator-side ones; subscript 1 is same-atom, 2 is cross-atom.  The
    cross dissipator coefficients are bounded by the same-atom ones because
    the separation factor has magnitude at most one.
    """

    a1: float
    b1: float
    a2: float
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
        return np.einsum("ki,ij,kj->k", _DICKE_KETS.conj(), self.rho, _DICKE_KETS).real


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


def _a2_closed_form(sigma, c, omega0: float, mu: float):
    """a2 = mu^2 cos(omega0 sigma) / (8 pi c) at scalar or array (sigma, c); the S and A shifts are -/+ 2 a2."""
    return (mu * mu / (8.0 * math.pi)) * np.cos(omega0 * sigma) / c


def hamiltonian_cross_coefficients(spacetime: SpacetimeConfig, omega0: float, mu: float, L: float) -> float:
    """Cross-atom Hamiltonian coefficient a2: mu^2 / 8 pi^2 times the resonance integral
    (``quadrature.rcpi_integral``, its numerical oracle), which is pi cos(omega0 sigma) / c."""
    _require_positive(omega0=omega0, mu=mu, L=L)
    return float(_a2_closed_form(*response_shape(spacetime, L), omega0, mu))


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
    studies; pass a cutoff to re-include them for exploratory dynamics.  Only
    then does any quadrature run, and only then do the tolerances apply.
    """
    at1, bt1, at2, bt2 = dissipator_coefficients(spacetime, omega0, mu, L)
    a2 = hamiltonian_cross_coefficients(spacetime, omega0, mu, L)
    a1, b1 = (0.0, 0.0) if cutoff is None else hamiltonian_same_coefficients(spacetime, omega0, mu, cutoff, abs_tol, rel_tol)
    return CoefficientSet(a1=a1, b1=b1, a2=a2, at1=at1, bt1=bt1, at2=at2, bt2=bt2)


def _h_block(a: float, b: float) -> np.ndarray:
    # (-i a) delta_ij - i (-i b) eps_ij3 - (-i a) delta_3i delta_3j
    return np.array([[-1j * a, -b, 0.0], [b, -1j * a, 0.0], [0.0, 0.0, 0.0]], dtype=complex)


def _c_block(at: float, bt: float) -> np.ndarray:
    # at delta_ij - i bt eps_ij3 - at delta_3i delta_3j
    return np.array([[at, -1j * bt, 0.0], [1j * bt, at, 0.0], [0.0, 0.0, 0.0]], dtype=complex)


def assemble_generator(coeffs: CoefficientSet, omega0: float) -> GeneratorMatrices:
    """Materialize the 3x3 coefficient matrices of the master equation."""
    if omega0 <= 0:
        raise ValueError(f"transition frequency must be positive, got {omega0}")
    return GeneratorMatrices(
        H_same=_h_block(coeffs.a1, coeffs.b1),
        H_cross=_h_block(coeffs.a2, 0.0),
        C_same=_c_block(coeffs.at1, coeffs.bt1),
        C_cross=_c_block(coeffs.at2, coeffs.bt2),
        omega0=omega0,
    )


def _pair_matrix(same: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """The 6x6 block matrix [[same, cross], [cross, same]] over the pair index, flattened to 36 weights."""
    out = np.empty((2, 3, 2, 3), dtype=complex)
    out[0, :, 0] = out[1, :, 1] = same
    out[0, :, 1] = out[1, :, 0] = cross
    return out.ravel()


def h_ls_matrix(gen: GeneratorMatrices, cross_only: bool = False) -> np.ndarray:
    """Field-induced Hamiltonian correction as a 4x4 matrix,
    -(i/2) sum_{ab,ij} H^{(ab)}_{ij} sigma_i^{(a)} sigma_j^{(b)}."""
    same = np.zeros((3, 3), dtype=complex) if cross_only else gen.H_same
    # sigma^(1) and sigma^(2) commute, so only the symmetric part of H_cross
    # enters; taking it first cancels the antisymmetric part exactly.
    cross = 0.5 * (gen.H_cross + gen.H_cross.T)
    return -0.5j * np.einsum("k,kij->ij", _pair_matrix(same, cross), _PRODUCTS)


def h_eff_matrix(gen: GeneratorMatrices) -> np.ndarray:
    """Effective Hamiltonian: free splitting plus the field-induced correction."""
    free = 0.5 * gen.omega0 * (_SIG[0][2] + _SIG[1][2])
    return free + h_ls_matrix(gen)


def superoperator(gen: GeneratorMatrices) -> np.ndarray:
    """16x16 matrix generating d vec(rho)/d tau in row-major vectorization, as one contraction with _GENERATOR."""
    h = h_eff_matrix(gen)
    weights = np.concatenate((h.ravel(), _pair_matrix(gen.C_same, gen.C_cross)))
    # A vector-matrix einsum, not @: a BLAS product of this size wakes the BLAS worker threads.
    return np.einsum("k,kn->n", weights, _GENERATOR).reshape(16, 16)


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


def _powers(p: np.ndarray, count: int) -> np.ndarray:
    """P, P^2, ..., P^count stacked, by doubling: count - 1 products in about log2(count) calls."""
    out = p[None]
    while len(out) < count:
        out = np.concatenate((out, out[: count - len(out)] @ out[-1]))
    return out


def evolve(rho0, gen: GeneratorMatrices, tau_grid) -> Trajectory:
    """Propagate the master equation exactly over the given output grid.

    The generator M is constant, so rho(tau + h) = exp(M h) rho(tau) on the
    vectorized density matrix.  The grid splits into runs of steps that are
    equal up to the rounding of tau.  Per distinct step h of the runs, one
    matrix exponential P_h (scipy's scaling and squaring, Al-Mohy & Higham
    2009) and its powers up to P_h^32 are taken once; each run is then filled
    up to 32 points at a time by one batched product.  No
    renormalization is applied; trace drift is reported, not hidden.  A
    positivity violation beyond -1e-8 in the minimum eigenvalue triggers a
    warning, and a non-finite propagated state (an overflowing M h) raises
    EvolutionError.
    """
    rho_init = rho0.rho if isinstance(rho0, TwoQubitState) else np.asarray(rho0, dtype=complex)
    if rho_init.shape != (4, 4):
        raise ValueError(f"initial state must be 4x4, got shape {rho_init.shape}")
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or tau.size < 2 or np.any(np.diff(tau) <= 0):
        raise ValueError("tau_grid must be a strictly increasing 1D grid with at least two points")

    m = superoperator(gen)
    # Runs of steps equal up to the rounding of tau (a stride such as 0.3 is no binary
    # fraction), each taken at its mean step; run_end[i] is one past the run of step i.
    steps = np.diff(tau)
    starts = np.flatnonzero(np.abs(np.diff(steps, prepend=np.inf)) > 4.0 * np.finfo(float).eps * np.max(np.abs(tau)))
    ends = np.append(starts[1:], steps.size)
    run_end = np.repeat(ends, ends - starts).tolist()
    run_step = np.repeat((tau[ends] - tau[starts]) / (ends - starts), ends - starts).tolist()
    powers: dict[float, np.ndarray] = {}
    y = np.empty((tau.size, 16), dtype=complex)
    y[0] = rho_init.reshape(16)
    i = 0
    while i < steps.size:
        h = run_step[i]
        n = min(_CHUNK, run_end[i] - i)
        if len(powers.get(h, ())) < n:
            powers[h] = _powers(expm(m * h), n)
        y[i + 1 : i + 1 + n] = powers[h][:n] @ y[i]
        i += n
    if not np.all(np.isfinite(y)):
        raise EvolutionError(
            f"master-equation propagation gave a non-finite state (largest |M| entry {np.max(np.abs(m)):.3e})"
        )

    rhos = y.reshape(-1, 4, 4)
    adj = rhos.conj().transpose(0, 2, 1)
    pops = np.einsum("ki,nij,kj->nk", _DICKE_KETS.conj(), rhos, _DICKE_KETS).real
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
