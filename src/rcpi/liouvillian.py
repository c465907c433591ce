"""Markovian generator of the two-atom reduced dynamics and the exact propagator of its populations.

The weak-coupling master equation is
    d rho / d tau = -i [H_eff, rho] + L[rho],
with H_eff the free two-atom Hamiltonian plus a field-induced correction
bilinear in Pauli operators, and L[rho] the dissipator of Benatti and
Floreanini (PRA 70, 012112, 2004).  For a static pair the generator is
linear in six real numbers: omega0, a2 and the dissipator's at1, bt1, at2,
bt2 (subscript 1 same-atom, 2 cross-atom).  Every one is a closed form in
the (sigma, c) of ``geometry.response_shape`` and the T of
``field_temperature``: the dissipator is the spectral functions at
+/- omega0, and the Hamiltonian side is the single cross-atom coefficient
a2 = mu^2 cos(omega0 sigma) / (8 pi c), which gives the correction
h_ls = -a2 (s1 x s1 + s2 x s2).

In the collective basis (G, E, S, A) of ``dicke`` H_eff is diagonal, so
omega0 and a2 only rotate coherences.  A Dicke-diagonal state stays
Dicke-diagonal, and its populations p obey the collective rate equations
(Ficek and Tanas, Phys. Rep. 372, 369, 2002) d p / d tau = R p, with the
real 4x4 ``rate_matrix`` R built from the dissipator alone.  Every command
starts from a Dicke projector, so ``evolve`` takes Dicke-diagonal starts
and propagates p.  The full 16x16 generator on vec(rho) is the independent
reference that R is tested against; it lives with the other oracles in
tests/oracles.py.

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

import numpy as np

from . import csvio
from ._record import Record
from .dicke import KETS, DickeState
from .geometry import SpacetimeConfig, _require_envelope, _require_phase, _require_positive, field_temperature, response_shape
from .quadrature import EvolutionError
from .shifts import _a2_closed_form

__all__ = [
    "GeneratorMatrices",
    "EvolutionError",
    "Trajectory",
    "dissipator_coefficients",
    "build_coefficients",
    "assemble_generator",
    "rate_matrix",
    "dicke_population_rate",
    "evolve",
]


class GeneratorMatrices(Record):
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
    cross weights carry the even factor (sigma/c) sinc(sigma w0) on top,
    which is sigma/c where c w0 underflows to 0.  Raises ValueError where the
    phase omega0 sigma is not a double.
    """
    _require_positive(omega0=omega0, mu=mu, L=L)
    sigma, c = response_shape(spacetime, L)
    _require_phase(omega0, sigma)
    return _dissipator(spacetime, sigma, c, omega0, mu)


def _dissipator(
    spacetime: SpacetimeConfig, sigma: float, c: float, omega0: float, mu: float
) -> tuple[float, float, float, float]:
    """``dissipator_coefficients`` at a checked response shape (sigma, c)."""
    pref = mu * mu / (8.0 * math.pi)
    at1 = pref * _w_coth(omega0, field_temperature(spacetime))
    bt1 = pref * omega0
    cross = math.sin(sigma * omega0) / (c * omega0) if c * omega0 else sigma / c
    return at1, bt1, at1 * cross, bt1 * cross


def build_coefficients(spacetime: SpacetimeConfig, omega0: float, mu: float, L: float) -> GeneratorMatrices:
    """The generator's six scalars for one configuration, all in closed form; ValueError where the envelope
    mu^2 / (4 pi c) or the phase omega0 sigma is not a double."""
    _require_positive(omega0=omega0, mu=mu, L=L)
    sigma, c = response_shape(spacetime, L)
    _require_phase(omega0, sigma)
    _require_envelope(mu, c)
    at1, bt1, at2, bt2 = _dissipator(spacetime, sigma, c, omega0, mu)
    a2 = _a2_closed_form(sigma, c, omega0, mu)
    return GeneratorMatrices(omega0=omega0, a2=a2, at1=at1, bt1=bt1, at2=at2, bt2=bt2)


def assemble_generator(coeffs: GeneratorMatrices, omega0: float) -> GeneratorMatrices:
    """The same scalars at another transition frequency."""
    return coeffs.replace(omega0=omega0)


def rate_matrix(gen: GeneratorMatrices) -> np.ndarray:
    """Real 4x4 R with d p / d tau = R p for the Dicke populations p = (pG, pE, pS, pA).

    Decay E -> S -> G and E -> A -> G runs at the downward rates
    2 [(at1 + bt1) +/- (at2 + bt2)] through S (+) and A (-), excitation at the
    upward rates 2 [(at1 - bt1) +/- (at2 - bt2)].  Each column sums to zero.
    """
    down_s, down_a = 2.0 * (gen.at1 + gen.bt1 + gen.at2 + gen.bt2), 2.0 * (gen.at1 + gen.bt1 - gen.at2 - gen.bt2)
    up_s, up_a = 2.0 * (gen.at1 - gen.bt1 + gen.at2 - gen.bt2), 2.0 * (gen.at1 - gen.bt1 - gen.at2 + gen.bt2)
    return np.array([
        [-up_s - up_a, 0.0, down_s, down_a],
        [0.0, -down_s - down_a, up_s, up_a],
        [up_s, down_s, -down_s - up_s, 0.0],
        [up_a, down_a, 0.0, -down_a - up_a],
    ])


def dicke_population_rate(gen: GeneratorMatrices, state: DickeState) -> float:
    """Instantaneous d p_state / d tau with the system prepared in that Dicke state: a diagonal entry of R."""
    return float(rate_matrix(gen)[state.index, state.index])


class Trajectory(Record):
    """Solution of the master equation on a fixed output grid, with diagnostics.

    The state is Dicke-diagonal, so ``populations`` holds all of it; ``rho``,
    the state sum_k p_k |k><k| in the product basis, is built from them on
    each access.  Its eigenvalues are the populations: the minimum eigenvalue
    is the smallest population and the hermiticity defect is zero.  The
    trace, the sum of the populations, is recorded per point rather than
    silently repaired; drift in it is the cheapest global error meter for
    the propagation.
    """

    tau: np.ndarray
    populations: np.ndarray  # (n, 4) order G, E, S, A
    trace: np.ndarray
    min_eigenvalue: np.ndarray

    @property
    def rho(self) -> np.ndarray:
        """(n, 4, 4) real density matrices in the product basis."""
        return np.einsum("nk,ki,kj->nij", self.populations, KETS, KETS)

    @property
    def hermiticity_defect(self) -> np.ndarray:
        """max |rho - rho^H| per point: zero, since each ``rho`` is real and symmetric by construction."""
        return np.zeros(len(self.populations))

    def to_csv(self, path_or_buf) -> None:
        """Write tau, Dicke populations, trace and minimum eigenvalue as CSV, each as ``%.17g``."""
        cols = (self.tau, *self.populations.T, self.trace, self.min_eigenvalue)

        def rows(start: int, stop: int) -> str:
            fields = zip(*(c[start:stop].tolist() for c in cols))
            return "".join(map("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\r\n".__mod__, fields))

        csvio.write_rows(path_or_buf, ("tau", "pG", "pE", "pS", "pA", "trace", "min_eig"), self.tau.size, rows)


def _fill_run(y: np.ndarray, p: np.ndarray) -> None:
    """y[k] = P^k y[0] along the run, by doubling: y[k:2k] = P^k y[0:k], then P^k <- P^k P^k."""
    k = 1
    while True:
        y[k : 2 * k] = y[: min(k, len(y) - k)] @ p.T
        k *= 2
        if k >= len(y):
            return
        p = p @ p


def evolve(rho0, gen: GeneratorMatrices, tau_grid) -> Trajectory:
    """Propagate the master equation exactly from a Dicke-diagonal start over the given output grid.

    ``rho0`` is a 4x4 density matrix in the product basis whose entries off
    the real diagonal in the (G, E, S, A) basis are at most 1e-12; any other
    start raises ValueError.  Its populations then follow p(tau + h) =
    exp(R h) p(tau) with the constant ``rate_matrix`` R.  The grid splits
    into runs of steps that are equal up to the rounding of tau.  There is
    one ``expm`` per run, at its mean step h (scipy's scaling and squaring,
    Al-Mohy & Higham 2009), and the run is filled by doubling, about
    2 log2(n) small products for n steps.  No renormalization is applied;
    trace drift is reported, not hidden.  A population below -1e-8 triggers
    a warning, and a non-finite propagated state (an overflowing R h) raises
    EvolutionError.
    """
    from scipy.linalg import expm  # deferred: slow to import, and only `evolve` uses it

    rho_init = np.asarray(rho0, dtype=complex)
    if rho_init.shape != (4, 4):
        raise ValueError(f"initial state must be 4x4, got shape {rho_init.shape}")
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or tau.size < 2 or not np.all(np.isfinite(tau)) or np.any(np.diff(tau) <= 0):
        raise ValueError("tau_grid must be a finite, strictly increasing 1D grid with at least two points")
    dicke = KETS @ rho_init @ KETS.T
    p0 = dicke.diagonal().real
    coherence = np.max(np.abs(dicke - np.diag(p0)))
    if not coherence <= 1e-12:
        raise ValueError(
            "initial state must be Dicke-diagonal: its largest entry off the real diagonal "
            f"in the (G, E, S, A) basis is {coherence:.3e}, above 1e-12"
        )

    r = rate_matrix(gen)
    # Runs of steps equal up to the rounding of tau (a stride such as 0.3 is no binary
    # fraction), each taken at its mean step.
    steps = np.diff(tau)
    starts = np.flatnonzero(np.abs(np.diff(steps, prepend=np.inf)) > 4.0 * np.finfo(float).eps * np.max(np.abs(tau)))
    ends = np.append(starts[1:], steps.size)
    pops = np.empty((tau.size, 4))
    pops[0] = p0
    for s, e in zip(starts.tolist(), ends.tolist()):
        _fill_run(pops[s : e + 1], expm(r * ((tau[e] - tau[s]) / (e - s))))
    if not np.all(np.isfinite(pops)):
        raise EvolutionError(
            f"master-equation propagation gave a non-finite state (largest |R| entry {np.max(np.abs(r)):.3e})"
        )

    min_eig = pops.min(axis=1)
    if np.min(min_eig) < -1e-8:
        warnings.warn(
            f"trajectory leaves the positive cone: min eigenvalue {np.min(min_eig):.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return Trajectory(tau=tau, populations=pops, trace=pops.sum(axis=1), min_eigenvalue=min_eig)
