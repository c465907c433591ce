import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from oracles import h_ls_matrix, superoperator
from rcpi.dicke import KETS, DickeState, ket, projector
from rcpi.geometry import DeSitterPatch, ThermalBath, kappa
from rcpi.liouvillian import (
    EvolutionError,
    GeneratorMatrices,
    assemble_generator,
    build_coefficients,
    dicke_population_rate,
    dissipator_coefficients,
    evolve,
    rate_matrix,
)
from rcpi.quadrature import rcpi_integral
from rcpi.spectral import fourier_desitter_cross, fourier_desitter_same, fourier_thermal_minkowski

PATCH = DeSitterPatch(1.0, 0.0)

# _PAIR_SIG[a][i] = sigma_{i+1} on atom a, written out independently of the module's own tensors.
_S = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
    np.diag([-1.0, 1.0]).astype(complex),
)
_PAIR_SIG = ([np.kron(s, np.eye(2)) for s in _S], [np.kron(np.eye(2), s) for s in _S])


def _commutator(h):
    return -1j * (np.kron(h, np.eye(4)) - np.kron(np.eye(4), h.T))


# Rows are the Dicke kets (G, E, S, A) in the product basis.
_KETS = np.array([ket(s) for s in (DickeState.G, DickeState.E, DickeState.S, DickeState.A)])


def test_dicke_basis_table():
    # Product order (gg, ge, eg, ee): G = gg, E = ee, S = (eg + ge)/sqrt2, A = (eg - ge)/sqrt2.
    h = math.sqrt(0.5)
    expected = {"G": [1, 0, 0, 0], "E": [0, 0, 0, 1], "S": [0, h, h, 0], "A": [0, -h, h, 0]}
    assert [s.value for s in DickeState] == ["G", "E", "S", "A"]
    for k, state in enumerate(DickeState):
        assert state.index == k
        np.testing.assert_allclose(KETS[k], expected[state.value], rtol=0, atol=1e-15)
        assert ket(state).dtype == complex and np.array_equal(ket(state), KETS[k])
        assert projector(state).dtype == complex and np.array_equal(projector(state), np.outer(KETS[k], KETS[k]))
    np.testing.assert_allclose(KETS @ KETS.T, np.eye(4), atol=1e-15)


def _dicke_matrix(rho):
    """<k|rho|l> over the Dicke basis, for one 4x4 rho or a stack of them."""
    return np.einsum("ki,...ij,lj->...kl", _KETS.conj(), rho, _KETS)


def _dicke_mixture(p):
    """sum_k p_k |k><k| in the product basis."""
    return np.einsum("k,ki,kj->ij", np.asarray(p, dtype=float), _KETS, _KETS.conj())


def _oracle_states(gen, rho0, tau):
    """rho(tau) = exp(M (tau - tau[0])) rho0 with the 16x16 oracle generator, one exponential per point."""
    m = superoperator(gen)
    return np.array([(expm(m * (t - tau[0])) @ rho0.reshape(16)).reshape(4, 4) for t in tau])


@pytest.fixture(scope="module")
def gen_unit():
    return build_coefficients(PATCH, 1.0, 0.5, 1.0)


class TestDissipatorCoefficients:
    def test_bt1_is_kappa_free(self):
        # G(w0) - G(-w0) = w0 / 2 pi regardless of the curvature scale.
        for patch in (DeSitterPatch(1.0, 0.0), DeSitterPatch(1.0, 0.8), DeSitterPatch(5.0, 2.0)):
            _, bt1, _, _ = dissipator_coefficients(patch, 2.0, 0.3, 1.0)
            assert bt1 == pytest.approx(0.3**2 * 2.0 / (8.0 * math.pi), rel=1e-14)

    def test_at1_coth_form(self):
        omega0, mu = 1.3, 0.2
        for kap in (0.5, 1.0, 2.0):
            patch = DeSitterPatch(kap, 0.0)
            at1, _, _, _ = dissipator_coefficients(patch, omega0, mu, 1.0)
            expected = mu**2 * omega0 / (8.0 * math.pi) / math.tanh(math.pi * kap * omega0)
            assert at1 == pytest.approx(expected, rel=1e-13)

    def test_cross_approaches_same_at_small_separation(self):
        at1, bt1, at2, bt2 = dissipator_coefficients(PATCH, 1.0, 0.1, 1e-6)
        assert at2 == pytest.approx(at1, rel=1e-10)
        assert bt2 == pytest.approx(bt1, rel=1e-10)

    @pytest.mark.parametrize(
        "spacetime",
        [DeSitterPatch(1.0, 0.0), DeSitterPatch(1.0, 0.8), DeSitterPatch(5.0, 2.0), ThermalBath(0.0), ThermalBath(0.7)],
        ids=["desitter-origin", "desitter-r0.8", "desitter-alpha5", "thermal-T0", "thermal-T0.7"],
    )
    @pytest.mark.parametrize("omega0", (0.05, 1.3, 20.0))
    @pytest.mark.parametrize("L", (1e-3, 0.7, 40.0))
    def test_matches_spectral_functions(self, spacetime, omega0, L):
        # Oracle: mu^2/4 times the sum and difference of the spectral functions at +/- omega0.
        mu = 0.3
        if isinstance(spacetime, DeSitterPatch):
            k = kappa(spacetime)
            same = [fourier_desitter_same(w, k) for w in (omega0, -omega0)]
            cross = [fourier_desitter_cross(w, k, L) for w in (omega0, -omega0)]
        else:
            T = spacetime.temperature
            same = [fourier_thermal_minkowski(w, T) for w in (omega0, -omega0)]
            cross = [fourier_thermal_minkowski(w, T, L) for w in (omega0, -omega0)]
        q = 0.25 * mu * mu
        expected = (
            q * (same[0] + same[1]), q * (same[0] - same[1]), q * (cross[0] + cross[1]), q * (cross[0] - cross[1])
        )
        got = dissipator_coefficients(spacetime, omega0, mu, L)
        assert got == pytest.approx(expected, rel=1e-11)

    def test_kossakowski_blocks_positive(self):
        # The 6x6 dissipator coefficient matrix is positive semidefinite.
        at1, bt1, at2, bt2 = dissipator_coefficients(PATCH, 1.0, 0.1, 0.7)
        cs = np.array([[at1, -1j * bt1], [1j * bt1, at1]])
        cc = np.array([[at2, -1j * bt2], [1j * bt2, at2]])
        full = np.block([[cs, cc], [cc, cs]])
        assert np.min(np.linalg.eigvalsh(full)) >= -1e-12 * at1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_phase_past_the_double_range_raises(self):
        # omega0 sigma overflows while the envelope is a double: the phase error, not math's "math domain error".
        with pytest.raises(ValueError, match=r"^the phase omega0 sigma is not a double: inf$"):
            dissipator_coefficients(ThermalBath(0.0), 1e200, 0.1, 1e200)


class TestHamiltonianCoefficients:
    @pytest.mark.parametrize("L", (0.1, 0.3, 1.0, 3.0, 10.0))
    @pytest.mark.parametrize("omega0", (0.5, 1.0, 2.0))
    @pytest.mark.parametrize("spacetime", (PATCH, ThermalBath(0.7)), ids=["desitter", "thermal"])
    def test_cross_a2_matches_quadrature(self, spacetime, omega0, L):
        # a2 is mu^2 / 8 pi^2 times the resonance integral, here taken by quadrature.
        mu = 0.1
        a2 = build_coefficients(spacetime, omega0, mu, L).a2
        assert a2 == pytest.approx(mu * mu / (8.0 * math.pi**2) * rcpi_integral(spacetime, omega0, L).value, rel=1e-9)

    @pytest.mark.parametrize(
        "spacetime", (PATCH, ThermalBath(0.0), ThermalBath(2.0)), ids=["desitter", "thermal-T0", "thermal-T2"]
    )
    @pytest.mark.parametrize("L", (0.01, 1.0, 30.0))
    @pytest.mark.parametrize("b2", (0.0, 1e-3, 0.3))
    def test_h_ls_is_the_double_sum(self, spacetime, L, b2):
        # Benatti-Floreanini: h_ls = -(i/2) sum_{ab,ij} H^(ab)_ij s_i^(a) s_j^(b), with no
        # same-atom block and H^(12) = H^(21) = -i a2 delta_ij + b2 eps_ij3 (i, j < 3).  The
        # antisymmetric b2 enters for both atom orderings, and s^(1), s^(2) commute, so it cancels.
        gen = build_coefficients(spacetime, 1.0, 0.5, L)
        cross = np.array([[-1j * gen.a2, b2, 0.0], [-b2, -1j * gen.a2, 0.0], [0.0, 0.0, 0.0]])
        h = -0.5j * sum(
            cross[i, j] * _PAIR_SIG[a][i] @ _PAIR_SIG[1 - a][j] for a in (0, 1) for i in range(3) for j in range(3)
        )
        tol = 1e-15 * max(abs(gen.a2), b2)
        assert np.max(np.abs(h_ls_matrix(gen) - h)) <= tol
        # Without the dissipator the generator is the commutator with the free part plus h.
        h_eff = 0.5 * gen.omega0 * (_PAIR_SIG[0][2] + _PAIR_SIG[1][2]) + h
        closed = gen.replace(at1=1e-300, bt1=0.0, at2=0.0, bt2=0.0)
        assert np.max(np.abs(superoperator(closed) - _commutator(h_eff))) <= tol

    @pytest.mark.parametrize("seed", range(8))
    def test_dissipator_is_the_double_sum(self, seed):
        # Benatti-Floreanini: L[rho] = sum_{ab,ij} C^(ab)_ij (s_j^(b) rho s_i^(a) - (1/2){s_i^(a) s_j^(b), rho})
        # with C^(11) = C^(22) = C(at1, bt1), C^(12) = C^(21) = C(at2, bt2) and
        # C(at, bt)_ij = at delta_ij - i bt eps_ij3 (i, j < 3), summed from explicit 3x3 blocks.
        rng = np.random.default_rng(seed)
        at1, bt1 = rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0)
        at2, bt2 = at1 * rng.uniform(-1.0, 1.0), bt1 * rng.uniform(-1.0, 1.0)
        gen = GeneratorMatrices(rng.uniform(0.1, 3.0), 0.0, at1=at1, bt1=bt1, at2=at2, bt2=bt2)

        def block(at, bt):
            return np.array([[at, -1j * bt, 0.0], [1j * bt, at, 0.0], [0.0, 0.0, 0.0]])

        blocks = ((block(at1, bt1), block(at2, bt2)), (block(at2, bt2), block(at1, bt1)))
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = x + x.conj().T
        expected = 0.0
        for a, b, i, j in np.ndindex(2, 2, 3, 3):
            si, sj = _PAIR_SIG[a][i], _PAIR_SIG[b][j]
            expected = expected + blocks[a][b][i, j] * (sj @ rho @ si - 0.5 * (si @ sj @ rho + rho @ si @ sj))
        dissipator = superoperator(gen) - _commutator(0.5 * gen.omega0 * (_PAIR_SIG[0][2] + _PAIR_SIG[1][2]))
        got = (dissipator @ rho.reshape(16)).reshape(4, 4)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize(
        "fn, arg, bad",
        [
            pytest.param(fn, arg, bad, id=f"{prefix}{bad}-{arg}")
            for fn, prefix in (
                (lambda spacetime, **kw: build_coefficients(spacetime, **kw).a2, ""),
                (dissipator_coefficients, "dissipator-"),
            )
            for arg in ("omega0", "mu", "L")
            for bad in (math.nan, math.inf)
        ],
    )
    def test_cross_rejects_non_finite_arguments(self, fn, arg, bad):
        kwargs = {"omega0": 1.0, "mu": 0.1, "L": 1.0, arg: bad}
        with pytest.raises(ValueError, match=arg):
            fn(PATCH, **kwargs)

    def test_envelope_past_the_double_range_raises(self):
        # mu^2 / (4 pi c) = 2.4e308 is no double, though a2 = mu^2 cos(omega0 L) / (8 pi c) would be one.
        with pytest.raises(ValueError, match=r"envelope mu\^2 / \(4 pi c\) is not a double at mu=5\.5e\+149"):
            build_coefficients(ThermalBath(0.0), 1.0, 5.5e149, 1e-10)

    def test_cross_vanishes_at_large_separation(self):
        a2 = build_coefficients(PATCH, 1.0, 0.1, 1.0).a2
        a2_far = build_coefficients(PATCH, 1.0, 0.1, 300.0).a2
        assert abs(a2_far) < 1e-2 * abs(a2)


class TestGeneratorMatrices:
    @pytest.mark.parametrize(
        "name, value",
        [("at1", -1.0), ("at2", 1.5)]
        + [(name, bad) for name in ("a2", "at1", "bt1", "at2", "bt2") for bad in (math.nan, math.inf)],
    )
    def test_invariants_enforced(self, name, value):
        with pytest.raises(ValueError):
            GeneratorMatrices(**{"omega0": 1.0, "a2": 0.0, "at1": 1.0, "bt1": 0.1, "at2": 0.0, "bt2": 0.0, name: value})


class TestGeneratorStructure:
    @pytest.mark.parametrize("omega0", (0.0, -1.0, math.nan, math.inf))
    def test_assemble_rejects_bad_omega0(self, omega0):
        gen = GeneratorMatrices(1.0, 0.0, at1=1.0, bt1=0.5, at2=0.0, bt2=0.0)
        with pytest.raises(ValueError, match="omega0"):
            assemble_generator(gen, omega0)

    def test_h_ls_hermitian(self, gen_unit):
        h = h_ls_matrix(gen_unit)
        assert np.max(np.abs(h - h.conj().T)) < 1e-15

    def test_generator_preserves_trace_on_random_states(self, gen_unit):
        m = superoperator(gen_unit)
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = x + x.conj().T
            drho = (m @ rho.reshape(16)).reshape(4, 4)
            assert abs(np.trace(drho)) <= 1e-14 * np.linalg.norm(rho)

    def test_gibbs_state_is_stationary(self, gen_unit):
        # Product-basis populations (1, x, x, x^2) are (1, x^2, x, x) in the Dicke order (G, E, S, A).
        x = math.exp(-2.0 * math.pi)
        gibbs = np.diag([1.0, x, x, x * x]).astype(complex)
        gibbs /= np.trace(gibbs).real
        m = superoperator(gen_unit)
        assert np.max(np.abs((m @ gibbs.reshape(16)).reshape(4, 4))) < 1e-15
        assert np.max(np.abs(rate_matrix(gen_unit) @ np.array([1.0, x * x, x, x]))) < 1e-15

    @pytest.mark.parametrize("seed", range(8))
    def test_rate_matrix_is_the_population_block(self, seed):
        # In the Dicke basis the oracle generator maps populations to populations and
        # coherences to coherences, and its population block is the rate matrix.
        rng = np.random.default_rng(seed)
        at1, bt1 = rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0)
        at2, bt2 = at1 * rng.uniform(-1.0, 1.0), bt1 * rng.uniform(-1.0, 1.0)
        gen = GeneratorMatrices(rng.uniform(0.1, 3.0), rng.uniform(-1.0, 1.0), at1=at1, bt1=bt1, at2=at2, bt2=bt2)
        m = superoperator(gen)
        # images[k, l] = the Dicke matrix of M applied to |k><l|.
        images = np.array([[_dicke_matrix((m @ np.outer(u, v.conj()).reshape(16)).reshape(4, 4))
                            for v in _KETS] for u in _KETS])
        diagonal = np.eye(4, dtype=bool)
        scale = np.max(np.abs(m))
        assert np.max(np.abs(images[diagonal][:, ~diagonal])) <= 1e-15 * scale
        assert np.max(np.abs(images[~diagonal][:, diagonal])) <= 1e-15 * scale
        block = np.array([[images[l, l, k, k] for l in range(4)] for k in range(4)])
        r = rate_matrix(gen)
        assert np.max(np.abs(block - r)) <= 1e-15 * scale
        assert np.max(np.abs(r.sum(axis=0))) <= 1e-15 * scale


class TestRates:
    def test_subradiance_at_tiny_separation(self):
        gen = build_coefficients(PATCH, 1.0, 0.1, 1e-3)
        rate_a = abs(dicke_population_rate(gen, DickeState.A))
        rate_s = abs(dicke_population_rate(gen, DickeState.S))
        assert rate_a < 1e-4 * rate_s

    def test_rate_scales_with_coefficient_difference(self):
        gen = build_coefficients(PATCH, 1.0, 0.1, 1.0)
        rate_a = abs(dicke_population_rate(gen, DickeState.A))
        rate_s = abs(dicke_population_rate(gen, DickeState.S))
        assert rate_a / rate_s == pytest.approx(
            (gen.at1 - gen.at2) / (gen.at1 + gen.at2), rel=1e-10
        )


class TestEvolve:
    @pytest.mark.parametrize("n", (51, 1001))
    @pytest.mark.parametrize("L", (0.1, 1.0, 30.0))
    @pytest.mark.parametrize(
        "spacetime", (DeSitterPatch(1.0, 0.4), ThermalBath(0.7), ThermalBath(0.0)),
        ids=["desitter-r0.4", "thermal-T0.7", "thermal-T0"],
    )
    def test_matches_oracle_on_regime_grid(self, spacetime, L, n):
        # From each Dicke start, the populations and the minimum eigenvalue agree with the
        # exact exponential of the 16x16 oracle generator taken at every point.
        gen = build_coefficients(spacetime, 1.0, 0.5, L)
        tau = np.linspace(0.0, 200.0, n)
        for s in DickeState:
            traj = evolve(projector(s), gen, tau)
            exact = _oracle_states(gen, projector(s), tau)
            pops = np.einsum("nkk->nk", _dicke_matrix(exact)).real
            min_eig = np.linalg.eigvalsh(0.5 * (exact + exact.conj().transpose(0, 2, 1)))[:, 0]
            assert np.max(np.abs(traj.populations - pops)) <= 1e-12
            assert np.max(np.abs(traj.min_eigenvalue - min_eig)) <= 1e-12

    @pytest.mark.parametrize(
        "spacetime, L, stiff",
        [
            (PATCH, 1.0, True),
            (ThermalBath(1e-3), 1.0, False),
            (ThermalBath(0.0), 1.0, False),
            (PATCH, 1e-6, False),
            (ThermalBath(0.0), 1e-6, False),
        ],
        ids=["stiff-step", "omega0-over-T-1e3", "T0", "desitter-L-over-kappa-1e-6", "thermal-L1e-6-T0"],
    )
    def test_corner_matches_mpmath(self, spacetime, L, stiff):
        # The corners of the evolve domain against a 40-digit matrix exponential of the same
        # rate matrix R, one per point.  The stiff step has max |R| h = 7.7e2; at L = 1e-6 with
        # T = 0 the A state decouples and R has a near-double zero eigenvalue.
        gen = build_coefficients(spacetime, 1.0, 0.5, L)
        r = rate_matrix(gen)
        tau = np.arange(51) * (770.0 / np.max(np.abs(r)) if stiff else 4.0)
        with mpmath.workdps(40):
            m = mpmath.matrix(r.tolist())
            exact = [mpmath.expm(m * float(t)) for t in tau]
        for s, k in ((DickeState.E, 1), (DickeState.A, 3)):
            traj = evolve(projector(s), gen, tau)
            pops = np.array([[float(e[i, k]) for i in range(4)] for e in exact])
            assert np.max(np.abs(traj.populations - pops)) <= 1e-12
            assert np.max(np.abs(traj.trace - 1.0)) <= 1e-12

    @pytest.mark.parametrize(
        "rho0",
        [
            # A superposition of G and S, a product state |ge><ge| (an S-A coherence of 1/2),
            # and E with a coherence to A just above the limit.
            _dicke_mixture([0.5, 0.0, 0.5, 0.0]) + 0.5 * (np.outer(_KETS[0], _KETS[2]) + np.outer(_KETS[2], _KETS[0])),
            np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex),
            projector(DickeState.E) + 2e-12 * np.outer(_KETS[1], _KETS[3]),
            np.full((4, 4), math.nan),
        ],
        ids=["G+S", "ge", "E-coherence-2e-12", "nan"],
    )
    def test_rejects_a_start_with_dicke_coherence(self, gen_unit, rho0):
        with pytest.raises(ValueError, match="Dicke-diagonal"):
            evolve(rho0, gen_unit, [0.0, 1.0])

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (16,), (2, 4, 4)])
    def test_rejects_a_start_that_is_not_4x4(self, gen_unit, shape):
        with pytest.raises(ValueError, match=rf"must be 4x4, got shape \({shape[0]},"):
            evolve(np.zeros(shape), gen_unit, [0.0, 1.0])

    def test_accepts_a_dicke_coherence_within_the_limit(self, gen_unit):
        rho0 = projector(DickeState.E) + 5e-13 * np.outer(_KETS[1], _KETS[3])
        traj = evolve(rho0, gen_unit, [0.0, 1.0])
        assert traj.populations[0] == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-15)

    def test_contracts_along_trajectories(self, gen_unit):
        for s in DickeState:
            traj = evolve(projector(s), gen_unit, np.linspace(0.0, 50.0, 26))
            assert np.max(np.abs(traj.trace - 1.0)) <= 1e-9
            assert np.max(traj.hermiticity_defect) <= 1e-10
            assert np.min(traj.min_eigenvalue) >= -1e-8

    def test_batched_diagnostics_match_per_point_loop(self, gen_unit):
        traj = evolve(_dicke_mixture([0.1, 0.2, 0.3, 0.4]), gen_unit, np.linspace(0.0, 20.0, 11))
        for i, r in enumerate(traj.rho):
            assert traj.trace[i] == pytest.approx(np.trace(r).real, abs=1e-15)
            assert traj.hermiticity_defect[i] == np.max(np.abs(r - r.conj().T))
            assert traj.min_eigenvalue[i] == pytest.approx(np.min(np.linalg.eigvalsh(0.5 * (r + r.conj().T))), abs=1e-15)
            pops = [np.real(ket(s).conj() @ r @ ket(s)) for s in (DickeState.G, DickeState.E, DickeState.S, DickeState.A)]
            assert traj.populations[i] == pytest.approx(pops, abs=1e-15)

    def test_closed_system_limit(self):
        # Zero dissipator: populations frozen, coherences rotate.  evolve keeps a Dicke
        # mixture; the oracle generator matches the exact unitary propagator.
        gen = GeneratorMatrices(1.0, 0.0, at1=1e-300, bt1=0.0, at2=0.0, bt2=0.0)
        tau = np.linspace(0.0, 10.0, 21)
        traj = evolve(_dicke_mixture([0.4, 0.3, 0.2, 0.1]), gen, tau)
        assert np.max(np.abs(traj.populations - traj.populations[0])) < 1e-9
        psi = (ket(DickeState.G) + ket(DickeState.S) + ket(DickeState.E)) / math.sqrt(3.0)
        rho0 = np.outer(psi, psi.conj())
        rhos = _oracle_states(gen, rho0, tau)
        h = 0.5 * gen.omega0 * (_PAIR_SIG[0][2] + _PAIR_SIG[1][2]) + h_ls_matrix(gen)
        worst = 0.0
        for i, t in enumerate(tau):
            u = expm(-1j * h * t)
            worst = max(worst, np.max(np.abs(rhos[i] - u @ rho0 @ u.conj().T)))
        assert worst < 1e-8
        # The two-atom splitting shows up as coherences at omega0 and 2 omega0.
        coh_ge = rhos[:, 0, 1]  # |gg><ge|-type element rotates at omega0
        coh_gg_ee = rhos[:, 0, 3]  # |gg><ee| element rotates at 2 omega0
        phase1 = np.angle(coh_ge[1] / coh_ge[0])
        phase2 = np.angle(coh_gg_ee[1] / coh_gg_ee[0])
        dt = tau[1] - tau[0]
        assert abs(phase1) == pytest.approx(1.0 * dt, rel=1e-6)
        assert abs(phase2) == pytest.approx(2.0 * dt, rel=1e-6)

    def test_matches_matrix_exponential(self, gen_unit):
        # evolve is the matrix exponential; the independent route is tightly
        # toleranced adaptive DOP853 integration of the 16x16 oracle generator.
        rho0 = _dicke_mixture([0.4, 0.3, 0.2, 0.1])
        tau = np.linspace(0.0, 30.0, 7)
        traj = evolve(rho0, gen_unit, tau)
        m = superoperator(gen_unit)
        sol = solve_ivp(lambda _t, y: m @ y, (tau[0], tau[-1]), rho0.reshape(16), method="DOP853",
                        t_eval=tau, rtol=1e-12, atol=1e-14)
        assert sol.success
        assert np.max(np.abs(traj.rho - sol.y.T.reshape(-1, 4, 4))) <= 1e-9

    @pytest.mark.parametrize(
        "tau, exponentials",
        [
            # The grids the evolve command builds for stride 0.3 up to 1.0 and up to 100:
            # 0.3 is no binary fraction, so the steps differ in their last bits, and the
            # last step is 0.1.  Each run of equal steps takes one matrix exponential.
            (np.append(np.arange(4) * 0.3, 1.0), 2),
            (np.append(np.arange(334) * 0.3, 100.0), 2),
            (np.geomspace(1e-3, 30.0, 40), 39),
            # A run of 1024 steps, ten doubling passes, then a tail.
            (np.append(np.arange(1025) * 0.25, 256.1), 2),
        ],
        ids=["stride0.3-to-1", "stride0.3-to-100", "geometric", "doubling-1024"],
    )
    def test_non_uniform_grid_matches_matrix_exponential(self, gen_unit, monkeypatch, tau, exponentials):
        calls = []
        monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a) or expm(a))
        rho0 = projector(DickeState.E)
        traj = evolve(rho0, gen_unit, tau)
        assert len(calls) == exponentials
        m = superoperator(gen_unit)
        for i, t in enumerate(tau):
            exact = (expm(m * (t - tau[0])) @ rho0.reshape(16)).reshape(4, 4)
            assert np.max(np.abs(traj.rho[i] - exact)) <= 1e-12

    def test_overflowing_generator_raises(self):
        gen = GeneratorMatrices(1.0, 0.0, at1=1e300, bt1=5e299, at2=0.0, bt2=0.0)
        with pytest.raises(EvolutionError, match="non-finite"):
            evolve(projector(DickeState.E), gen, [0.0, 1.0])

    def test_single_atom_steady_state_ratio(self, gen_unit):
        traj = evolve(projector(DickeState.G), gen_unit, np.linspace(0.0, 2000.0, 21))
        rho1 = np.einsum("ikjk->ij", traj.rho[-1].reshape(2, 2, 2, 2))
        ratio = float(np.real(rho1[1, 1] / rho1[0, 0]))
        assert ratio == pytest.approx(math.exp(-2.0 * math.pi), abs=1e-4)

    def test_thermal_bath_steady_state_ratio(self):
        # Same contract against a flat-space bath: the reduced single-atom
        # populations settle at the Boltzmann ratio e^{-omega0/T}.
        bath = ThermalBath(0.5)
        gen = build_coefficients(bath, 1.0, 0.5, 1.0)
        traj = evolve(projector(DickeState.G), gen, np.linspace(0.0, 3000.0, 16))
        rho1 = np.einsum("ikjk->ij", traj.rho[-1].reshape(2, 2, 2, 2))
        ratio = float(np.real(rho1[1, 1] / rho1[0, 0]))
        assert ratio == pytest.approx(math.exp(-2.0), abs=1e-4)

    def test_antisymmetric_state_is_trapped_at_tiny_separation(self):
        gen = build_coefficients(PATCH, 1.0, 0.5, 1e-3)
        # One natural decay time of the superradiant state.
        tau_s = 1.0 / abs(dicke_population_rate(gen, DickeState.S))
        traj = evolve(projector(DickeState.A), gen, np.linspace(0.0, tau_s, 11))
        assert traj.populations[-1, 3] >= 0.999

    def test_excited_state_decays_monotonically_at_early_times(self, gen_unit):
        traj = evolve(projector(DickeState.E), gen_unit, np.linspace(0.0, 20.0, 41))
        assert np.all(np.diff(traj.populations[:, 1]) < 0)

    @pytest.mark.parametrize("tau", ([0.0, math.nan], [math.nan, 1.0], [0.0, 1.0, math.nan], [0.0, math.inf]))
    def test_non_finite_grid_rejected(self, gen_unit, tau):
        with pytest.raises(ValueError, match="tau_grid"):
            evolve(projector(DickeState.G), gen_unit, tau)

    def test_grid_validation(self, gen_unit):
        with pytest.raises(ValueError):
            evolve(projector(DickeState.G), gen_unit, np.array([0.0]))
        with pytest.raises(ValueError):
            evolve(projector(DickeState.G), gen_unit, np.array([0.0, 1.0, 0.5]))

    def test_csv_export(self, gen_unit, tmp_path):
        traj = evolve(projector(DickeState.E), gen_unit, np.linspace(0.0, 5.0, 6))
        path = tmp_path / "traj.csv"
        traj.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tau,pG,pE,pS,pA,trace,min_eig"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == pytest.approx(1.0, abs=1e-12)
