import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from rcpi import liouvillian
from rcpi.dicke import DickeState, ket, projector
from rcpi.geometry import DeSitterPatch, ThermalBath, kappa
from rcpi.liouvillian import (
    CoefficientSet,
    EvolutionError,
    TwoQubitState,
    assemble_generator,
    build_coefficients,
    dicke_population_rate,
    dissipator_coefficients,
    evolve,
    h_eff_matrix,
    h_ls_matrix,
    hamiltonian_cross_coefficients,
    hamiltonian_same_coefficients,
    superoperator,
)
from rcpi.quadrature import rcpi_integral
from rcpi.spectral import fourier_desitter_cross, fourier_desitter_same, fourier_thermal_minkowski

PATCH = DeSitterPatch(1.0, 0.0)


@pytest.fixture(scope="module")
def gen_unit():
    coeffs = build_coefficients(PATCH, 1.0, 0.5, 1.0)
    return assemble_generator(coeffs, 1.0)


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


class TestHamiltonianCoefficients:
    @pytest.mark.parametrize("L", (0.1, 0.3, 1.0, 3.0, 10.0))
    @pytest.mark.parametrize("omega0", (0.5, 1.0, 2.0))
    @pytest.mark.parametrize("spacetime", (PATCH, ThermalBath(0.7)), ids=["desitter", "thermal"])
    def test_cross_a2_matches_quadrature(self, spacetime, omega0, L):
        # a2 is mu^2 / 8 pi^2 times the resonance integral, here taken by quadrature.
        mu = 0.1
        a2 = hamiltonian_cross_coefficients(spacetime, omega0, mu, L)
        assert a2 == pytest.approx(mu * mu / (8.0 * math.pi**2) * rcpi_integral(spacetime, omega0, L).value, rel=1e-9)

    @pytest.mark.parametrize(
        "spacetime", (PATCH, ThermalBath(0.0), ThermalBath(2.0)), ids=["desitter", "thermal-T0", "thermal-T2"]
    )
    @pytest.mark.parametrize("L", (0.01, 1.0, 30.0))
    @pytest.mark.parametrize("b2", (1e-6, 1e-3, 0.3))
    def test_antisymmetric_cross_term_leaves_generator_unchanged(self, spacetime, L, b2):
        # H_cross enters for both atom orderings and sum eps_ij3 (s_i x s_j + s_j x s_i) = 0,
        # so the antisymmetric cross coefficient b2 cannot reach the generator.
        gen = assemble_generator(build_coefficients(spacetime, 1.0, 0.5, L), 1.0)
        eps = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        moved = dataclasses.replace(gen, H_cross=gen.H_cross + b2 * eps)
        assert np.max(np.abs(superoperator(moved) - superoperator(gen))) <= 1e-15 * b2
        assert np.max(np.abs(h_ls_matrix(moved) - h_ls_matrix(gen))) <= 1e-15 * b2

    @pytest.mark.parametrize(
        "fn, arg, bad",
        [
            pytest.param(fn, arg, bad, id=f"{prefix}{bad}-{arg}")
            for fn, prefix in ((hamiltonian_cross_coefficients, ""), (dissipator_coefficients, "dissipator-"))
            for arg in ("omega0", "mu", "L")
            for bad in (math.nan, math.inf)
        ],
    )
    def test_cross_rejects_non_finite_arguments(self, fn, arg, bad):
        kwargs = {"omega0": 1.0, "mu": 0.1, "L": 1.0, arg: bad}
        with pytest.raises(ValueError, match=arg):
            fn(PATCH, **kwargs)

    @pytest.mark.parametrize("arg", ["omega0", "mu", "cutoff"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_same_rejects_non_finite_arguments(self, arg, bad):
        kwargs = {"omega0": 1.0, "mu": 0.1, "cutoff": 10.0, arg: bad}
        with pytest.raises(ValueError, match=arg):
            hamiltonian_same_coefficients(PATCH, **kwargs)

    def test_same_requires_cutoff(self):
        with pytest.raises(ValueError):
            hamiltonian_same_coefficients(PATCH, 1.0, 0.1, None)

    def test_same_grows_with_cutoff(self):
        a1_small, b1_small = hamiltonian_same_coefficients(PATCH, 1.0, 0.1, cutoff=1e2)
        a1_large, b1_large = hamiltonian_same_coefficients(PATCH, 1.0, 0.1, cutoff=1e4)
        assert a1_large > 50.0 * a1_small  # dominated by the linear divergence
        assert b1_large > b1_small  # logarithmic growth

    def test_a1_linear_divergence_analytic(self):
        # P int_0^W (w/(w-w0) + w/(w+w0)) dw = 2W + w0 ln((W-w0)/(W+w0)).
        omega0, mu, W = 1.0, 0.1, 50.0
        a1, _ = hamiltonian_same_coefficients(PATCH, omega0, mu, cutoff=W)
        exact = mu**2 / (8.0 * math.pi**2) * (2.0 * W + omega0 * math.log((W - omega0) / (W + omega0)))
        assert a1 == pytest.approx(exact, rel=1e-9)

    def test_cross_vanishes_at_large_separation(self):
        a2 = hamiltonian_cross_coefficients(PATCH, 1.0, 0.1, 1.0)
        a2_far = hamiltonian_cross_coefficients(PATCH, 1.0, 0.1, 300.0)
        assert abs(a2_far) < 1e-2 * abs(a2)


class TestCoefficientSet:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            CoefficientSet(0, 0, 0, at1=-1.0, bt1=0.1, at2=0.0, bt2=0.0)
        with pytest.raises(ValueError):
            CoefficientSet(0, 0, 0, at1=1.0, bt1=0.1, at2=1.5, bt2=0.0)

    def test_build_with_cutoff_populates_same_atom(self):
        coeffs = build_coefficients(PATCH, 1.0, 0.1, 1.0, cutoff=100.0)
        assert coeffs.a1 != 0.0 and coeffs.b1 != 0.0


class TestGeneratorStructure:
    def test_c_same_block(self, gen_unit):
        at1, bt1 = gen_unit.C_same[0, 0].real, gen_unit.C_same[1, 0].imag
        expected = np.array(
            [[at1, -1j * bt1, 0.0], [1j * bt1, at1, 0.0], [0.0, 0.0, 0.0]], dtype=complex
        )
        assert np.array_equal(gen_unit.C_same, expected)
        assert gen_unit.C_same[2, 2] == 0.0
        assert gen_unit.H_cross[2, 2] == 0.0

    def test_h_ls_hermitian(self, gen_unit):
        h = h_ls_matrix(gen_unit)
        assert np.max(np.abs(h - h.conj().T)) < 1e-15

    def test_h_ls_hermitian_with_same_atom_terms(self):
        coeffs = build_coefficients(PATCH, 1.0, 0.1, 1.0, cutoff=100.0)
        h = h_ls_matrix(assemble_generator(coeffs, 1.0))
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
        x = math.exp(-2.0 * math.pi)
        gibbs = np.diag([1.0, x, x, x * x]).astype(complex)
        gibbs /= np.trace(gibbs).real
        m = superoperator(gen_unit)
        assert np.max(np.abs((m @ gibbs.reshape(16)).reshape(4, 4))) < 1e-15


class TestTwoQubitState:
    def test_accepts_dicke_projectors(self):
        for s in DickeState:
            st = TwoQubitState.from_dicke(s)
            pops = st.dicke_populations()
            assert pops[list(DickeState).index(s)] == pytest.approx(1.0, abs=1e-14)

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.eye(4))  # trace 4
        bad = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        bad[0, 1] = 1e-6  # not hermitian
        with pytest.raises(ValueError):
            TwoQubitState(bad)
        with pytest.raises(ValueError):
            TwoQubitState(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))


class TestRates:
    def test_subradiance_at_tiny_separation(self):
        coeffs = build_coefficients(PATCH, 1.0, 0.1, 1e-3)
        gen = assemble_generator(coeffs, 1.0)
        rate_a = abs(dicke_population_rate(gen, DickeState.A))
        rate_s = abs(dicke_population_rate(gen, DickeState.S))
        assert rate_a < 1e-4 * rate_s

    def test_rate_scales_with_coefficient_difference(self):
        coeffs = build_coefficients(PATCH, 1.0, 0.1, 1.0)
        gen = assemble_generator(coeffs, 1.0)
        rate_a = abs(dicke_population_rate(gen, DickeState.A))
        rate_s = abs(dicke_population_rate(gen, DickeState.S))
        assert rate_a / rate_s == pytest.approx(
            (coeffs.at1 - coeffs.at2) / (coeffs.at1 + coeffs.at2), rel=1e-10
        )


class TestEvolve:
    def test_contracts_along_trajectories(self, gen_unit):
        for s in DickeState:
            traj = evolve(projector(s), gen_unit, np.linspace(0.0, 50.0, 26))
            assert np.max(np.abs(traj.trace - 1.0)) <= 1e-9
            assert np.max(traj.hermiticity_defect) <= 1e-10
            assert np.min(traj.min_eigenvalue) >= -1e-8

    def test_unexcited_modes_stay_bounded(self):
        # With these cross coefficients DOP853 once let its step grow past the
        # stability limit on modes the initial states do not excite, and the
        # hermiticity defect reached 6.7e-9.
        coeffs = build_coefficients(PATCH, 1.0, 0.5, 1.0)
        coeffs = dataclasses.replace(coeffs, a2=0.005084946113404615)
        gen = assemble_generator(coeffs, 1.0)
        for s in DickeState:
            traj = evolve(projector(s), gen, np.linspace(0.0, 50.0, 26))
            assert np.max(traj.hermiticity_defect) <= 1e-10

    def test_batched_diagnostics_match_per_point_loop(self, gen_unit):
        psi = (ket(DickeState.G) + ket(DickeState.S) + 1j * ket(DickeState.E)) / math.sqrt(3.0)
        traj = evolve(np.outer(psi, psi.conj()), gen_unit, np.linspace(0.0, 20.0, 11))
        for i, r in enumerate(traj.rho):
            assert traj.trace[i] == pytest.approx(np.trace(r).real, abs=1e-15)
            assert traj.hermiticity_defect[i] == np.max(np.abs(r - r.conj().T))
            assert traj.min_eigenvalue[i] == pytest.approx(np.min(np.linalg.eigvalsh(0.5 * (r + r.conj().T))), abs=1e-15)
            pops = [np.real(ket(s).conj() @ r @ ket(s)) for s in (DickeState.G, DickeState.E, DickeState.S, DickeState.A)]
            assert traj.populations[i] == pytest.approx(pops, abs=1e-15)

    def test_closed_system_limit(self):
        # Zero dissipator: populations frozen, coherences rotate; compare with
        # the exact unitary propagator.
        coeffs = CoefficientSet(0.0, 0.0, 0.0, at1=1e-300, bt1=0.0, at2=0.0, bt2=0.0)
        gen = assemble_generator(coeffs, 1.0)
        psi = (ket(DickeState.G) + ket(DickeState.S) + ket(DickeState.E)) / math.sqrt(3.0)
        rho0 = np.outer(psi, psi.conj())
        tau = np.linspace(0.0, 10.0, 21)
        traj = evolve(rho0, gen, tau)
        assert np.max(np.abs(traj.populations - traj.populations[0])) < 1e-9
        h = h_eff_matrix(gen)
        worst = 0.0
        for i, t in enumerate(tau):
            u = expm(-1j * h * t)
            worst = max(worst, np.max(np.abs(traj.rho[i] - u @ rho0 @ u.conj().T)))
        assert worst < 1e-8
        # The two-atom splitting shows up as coherences at omega0 and 2 omega0.
        coh_ge = traj.rho[:, 0, 1]  # |gg><ge|-type element rotates at omega0
        coh_gg_ee = traj.rho[:, 0, 3]  # |gg><ee| element rotates at 2 omega0
        phase1 = np.angle(coh_ge[1] / coh_ge[0])
        phase2 = np.angle(coh_gg_ee[1] / coh_gg_ee[0])
        dt = tau[1] - tau[0]
        assert abs(phase1) == pytest.approx(1.0 * dt, rel=1e-6)
        assert abs(phase2) == pytest.approx(2.0 * dt, rel=1e-6)

    def test_matches_matrix_exponential(self, gen_unit):
        # evolve is the matrix exponential; the independent route is tightly
        # toleranced adaptive DOP853 integration.
        psi = (ket(DickeState.G) + ket(DickeState.S) + ket(DickeState.E)) / math.sqrt(3.0)
        rho0 = np.outer(psi, psi.conj())
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
        ],
        ids=["stride0.3-to-1", "stride0.3-to-100", "geometric"],
    )
    def test_non_uniform_grid_matches_matrix_exponential(self, gen_unit, monkeypatch, tau, exponentials):
        calls = []
        monkeypatch.setattr(liouvillian, "expm", lambda a: calls.append(a) or expm(a))
        rho0 = projector(DickeState.E)
        traj = evolve(rho0, gen_unit, tau)
        assert len(calls) == exponentials
        m = superoperator(gen_unit)
        for i, t in enumerate(tau):
            exact = (expm(m * (t - tau[0])) @ rho0.reshape(16)).reshape(4, 4)
            assert np.max(np.abs(traj.rho[i] - exact)) <= 1e-12

    def test_overflowing_generator_raises(self):
        coeffs = CoefficientSet(0.0, 0.0, 0.0, at1=1.0, bt1=0.5, at2=0.0, bt2=0.0)
        with pytest.raises(EvolutionError, match="non-finite"):
            evolve(projector(DickeState.E), assemble_generator(coeffs, 1e200), [0.0, 1.0])

    def test_single_atom_steady_state_ratio(self, gen_unit):
        traj = evolve(projector(DickeState.G), gen_unit, np.linspace(0.0, 2000.0, 21))
        rho1 = np.einsum("ikjk->ij", traj.rho[-1].reshape(2, 2, 2, 2))
        ratio = float(np.real(rho1[1, 1] / rho1[0, 0]))
        assert ratio == pytest.approx(math.exp(-2.0 * math.pi), abs=1e-4)

    def test_thermal_bath_steady_state_ratio(self):
        # Same contract against a flat-space bath: the reduced single-atom
        # populations settle at the Boltzmann ratio e^{-omega0/T}.
        bath = ThermalBath(0.5)
        coeffs = build_coefficients(bath, 1.0, 0.5, 1.0)
        gen = assemble_generator(coeffs, 1.0)
        traj = evolve(projector(DickeState.G), gen, np.linspace(0.0, 3000.0, 16))
        rho1 = np.einsum("ikjk->ij", traj.rho[-1].reshape(2, 2, 2, 2))
        ratio = float(np.real(rho1[1, 1] / rho1[0, 0]))
        assert ratio == pytest.approx(math.exp(-2.0), abs=1e-4)

    def test_antisymmetric_state_is_trapped_at_tiny_separation(self):
        coeffs = build_coefficients(PATCH, 1.0, 0.5, 1e-3)
        gen = assemble_generator(coeffs, 1.0)
        # One natural decay time of the superradiant state.
        tau_s = 1.0 / abs(dicke_population_rate(gen, DickeState.S))
        traj = evolve(projector(DickeState.A), gen, np.linspace(0.0, tau_s, 11))
        assert traj.populations[-1, 3] >= 0.999

    def test_excited_state_decays_monotonically_at_early_times(self, gen_unit):
        traj = evolve(projector(DickeState.E), gen_unit, np.linspace(0.0, 20.0, 41))
        assert np.all(np.diff(traj.populations[:, 1]) < 0)

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
