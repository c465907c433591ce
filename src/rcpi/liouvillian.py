"""Markovian generator of the two-atom reduced dynamics and its exact propagator.

The weak-coupling master equation is
    d rho / d tau = -i [H_eff, rho] + L[rho],
with H_eff the free two-atom Hamiltonian plus a field-induced correction
bilinear in Pauli operators, and L[rho] the dissipator of Benatti and
Floreanini (PRA 70, 012112, 2004).  For a static pair the generator is
linear in six real numbers (omega0, a2 and the dissipator's at1, bt1, at2,
bt2) and is built as one contraction of them with a constant tensor holding
the operator each one multiplies.  Every coefficient is a
closed form in the (sigma, c) of ``geometry.response_shape`` and the T of
``field_temperature``: the dissipator is the spectral functions at
+/- omega0, and the Hamiltonian side is the single cross-atom coefficient
a2 = mu^2 cos(omega0 sigma) / (8 pi c), which gives the correction
h_ls = -a2 (s1 x s1 + s2 x s2).

Two terms of the general correction are left out.  The antisymmetric cross
term cancels from the generator, since it enters for both atom orderings and
sum eps_ij3 (s_i x s_j + s_j x s_i) = 0.  The same-atom Lamb shift diverges
without a frequency cutoff and does not depend on the separation: its a1
shifts all four levels by one constant, which drops out of the commutator,
and its b1 only renormalises omega0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from . import csvio
from .dicke import DickeState, ket, projector
from .geometry import SpacetimeConfig, _require_positive, field_temperature, response_shape

__all__ = [
    "TwoQubitState",
    "GeneratorMatrices",
    "EvolutionError",
    "Trajectory",
    "dissipator_coefficients",
    "hamiltonian_cross_coefficients",
    "build_coefficients",
    "assemble_generator",
    "h_ls_matrix",
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

# s1 x s1 + s2 x s2 over the pair, the operator that -a2 multiplies in h_ls.
_FLIP_FLOP = _SIG[0][0] @ _SIG[1][0] + _SIG[0][1] @ _SIG[1][1]


def _commutator(h: np.ndarray) -> np.ndarray:
    """-i [h, .] on the row-major vec(rho): -i (h (x) 1 - 1 (x) h^T)."""
    return -1j * (np.kron(h, _I4) - np.kron(_I4, h.T))


def _dissipator_term(si: np.ndarray, sj: np.ndarray) -> np.ndarray:
    """s_j rho s_i - (1/2){s_i s_j, rho} on the row-major vec(rho)."""
    return 0.5 * (2.0 * np.kron(sj, si.T) - np.kron(si @ sj, _I4) - np.kron(_I4, (si @ sj).T))


# Nonzero entries (i, j, C_ij) of the 3x3 block C_ij = at delta_ij - i bt eps_ij3
# (i, j < 3) per unit at and per unit bt; C_ij weights s_i of atom a with s_j of atom b.
_UNIT_BLOCKS = (((0, 0, 1.0), (1, 1, 1.0)), ((0, 1, -1j), (1, 0, 1j)))

# Constant tensor with one row per scalar of GeneratorMatrices, in the order
# (omega0, a2, at1, bt1, at2, bt2): the operator that scalar multiplies on the
# row-major vec(rho).  omega0 and a2 give the commutators with the free
# splitting (1/2)(s3 x 1 + 1 x s3) and with -(s1 x s1 + s2 x s2); at1, bt1 sum
# the dissipator over the same-atom pairs (a, b), at2, bt2 over the cross ones.
_GENERATOR = np.array(
    [_commutator(0.5 * (_SIG[0][2] + _SIG[1][2])), _commutator(-_FLIP_FLOP)]
    + [sum(c * _dissipator_term(_SIG[a][i], _SIG[b][j]) for a, b in pairs for i, j, c in block)
       for pairs in (((0, 0), (1, 1)), ((0, 1), (1, 0))) for block in _UNIT_BLOCKS]
).reshape(6, 256)


class EvolutionError(RuntimeError):
    """The master-equation propagation produced a non-finite state."""


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
    """The six scalars the generator is linear in.

    omega0 is the transition frequency, a2 the (real) cross-atom Hamiltonian
    coefficient and at*/bt* the dissipator ones; subscript 1 is same-atom, 2
    is cross-atom.  The cross dissipator coefficients are bounded by the
    same-atom ones because the separation factor has magnitude at most one.
    """

    omega0: float
    a2: float
    at1: float
    bt1: float
    at2: float
    bt2: float

    def __post_init__(self) -> None:
        _require_positive(omega0=self.omega0)
        for name in ("a2", "at1", "bt1", "at2", "bt2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"generator coefficient {name} must be finite, got {getattr(self, name)}")
        if self.at1 <= 0:
            raise ValueError(f"same-atom dissipator coefficient must be positive, got at1={self.at1}")
        slack = 1e-12 * max(abs(self.at1), 1.0)
        if abs(self.at2) > abs(self.at1) + slack or abs(self.bt2) > abs(self.bt1) + slack:
            raise ValueError("cross dissipator coefficients must not exceed the same-atom ones")


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


def build_coefficients(spacetime: SpacetimeConfig, omega0: float, mu: float, L: float) -> GeneratorMatrices:
    """The generator's six scalars for one configuration, all in closed form."""
    at1, bt1, at2, bt2 = dissipator_coefficients(spacetime, omega0, mu, L)
    a2 = hamiltonian_cross_coefficients(spacetime, omega0, mu, L)
    return GeneratorMatrices(omega0=omega0, a2=a2, at1=at1, bt1=bt1, at2=at2, bt2=bt2)


def assemble_generator(coeffs: GeneratorMatrices, omega0: float) -> GeneratorMatrices:
    """The same scalars at another transition frequency."""
    return replace(coeffs, omega0=omega0)


def h_ls_matrix(gen: GeneratorMatrices) -> np.ndarray:
    """Field-induced Hamiltonian correction as a 4x4 matrix, -a2 (s1 x s1 + s2 x s2)."""
    return -gen.a2 * _FLIP_FLOP


def superoperator(gen: GeneratorMatrices) -> np.ndarray:
    """16x16 matrix generating d vec(rho)/d tau in row-major vectorization, as one contraction with _GENERATOR."""
    weights = np.array((gen.omega0, gen.a2, gen.at1, gen.bt1, gen.at2, gen.bt2))
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


def _fill_run(y: np.ndarray, p: np.ndarray) -> None:
    """y[k] = P^k y[0] along the run, by doubling: y[k:2k] = P^k y[0:k], then P^k <- P^k P^k."""
    k = 1
    while True:
        # One 16x16 matrix-vector product per row: a single (k, 16) x (16, 16) BLAS product
        # wakes the BLAS worker threads, and an einsum's complex loop is three times slower.
        y[k : 2 * k] = (p @ y[: min(k, len(y) - k), :, None])[:, :, 0]
        k *= 2
        if k >= len(y):
            return
        p = p @ p


def evolve(rho0, gen: GeneratorMatrices, tau_grid) -> Trajectory:
    """Propagate the master equation exactly over the given output grid.

    The generator M is constant, so rho(tau + h) = exp(M h) rho(tau) on the
    vectorized density matrix.  The grid splits into runs of steps that are
    equal up to the rounding of tau.  There is one ``expm`` per run, at its
    mean step h (scipy's scaling and squaring, Al-Mohy & Higham 2009), and
    the run is filled by doubling, about 2 log2(n) small products for n
    steps.  No renormalization is applied; trace drift is
    reported, not hidden.  A positivity violation beyond -1e-8 in the minimum
    eigenvalue triggers a warning, and a non-finite propagated state (an
    overflowing M h) raises EvolutionError.
    """
    rho_init = rho0.rho if isinstance(rho0, TwoQubitState) else np.asarray(rho0, dtype=complex)
    if rho_init.shape != (4, 4):
        raise ValueError(f"initial state must be 4x4, got shape {rho_init.shape}")
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or tau.size < 2 or not np.all(np.isfinite(tau)) or np.any(np.diff(tau) <= 0):
        raise ValueError("tau_grid must be a finite, strictly increasing 1D grid with at least two points")

    m = superoperator(gen)
    # Runs of steps equal up to the rounding of tau (a stride such as 0.3 is no binary
    # fraction), each taken at its mean step.
    steps = np.diff(tau)
    starts = np.flatnonzero(np.abs(np.diff(steps, prepend=np.inf)) > 4.0 * np.finfo(float).eps * np.max(np.abs(tau)))
    ends = np.append(starts[1:], steps.size)
    y = np.empty((tau.size, 16), dtype=complex)
    y[0] = rho_init.reshape(16)
    for s, e in zip(starts.tolist(), ends.tolist()):
        _fill_run(y[s : e + 1], expm(m * ((tau[e] - tau[s]) / (e - s))))
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
