"""Self-check battery behind the `validate` CLI subcommand.

Each check compares two independent routes to the same quantity (closed form
versus quadrature, the detailed balance of the dissipator that ``evolve``
uses, generator contracts) and reports the worst deviation it saw and its own
run time.  The quick level is a subset chosen to finish in
seconds; full runs the complete grids.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import discriminator, liouvillian, shifts
from .dicke import DickeState, projector
from .geometry import DeSitterPatch, ThermalBath, local_temperature

__all__ = ["CheckResult", "run_validation"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _detailed_balance_defect(spacetime, T: float) -> float:
    """Worst |(at1 - bt1) e^{omega0/T} / (at1 + bt1) - 1| of ``dissipator_coefficients`` over omega0/T in [0.25, 10]."""
    worst = 0.0
    for x in np.linspace(0.25, 10.0, 40):
        at1, bt1, _, _ = liouvillian.dissipator_coefficients(spacetime, x * T, 0.1, 1.0)
        worst = max(worst, abs((at1 - bt1) * math.exp(x) / (at1 + bt1) - 1.0))
    return worst


def _check_kms_desitter() -> CheckResult:
    patches = [DeSitterPatch(alpha=a, r=r) for a, r in ((0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.6))]
    worst = max(_detailed_balance_defect(p, local_temperature(p).T) for p in patches)
    return CheckResult("kms_desitter", worst < 1e-11, f"max relative detailed-balance defect {worst:.3e} (tol 1e-11)")


def _check_kms_thermal() -> CheckResult:
    worst = max(_detailed_balance_defect(ThermalBath(temperature=T), T) for T in (0.25, 1.0, 4.0))
    return CheckResult("kms_thermal", worst < 1e-11, f"max relative detailed-balance defect {worst:.3e} (tol 1e-11)")


def _check_temperature_decomposition() -> CheckResult:
    worst = 0.0
    for alpha in np.linspace(0.2, 5.0, 20):
        for frac in np.linspace(0.0, 0.99, 20):
            dec = local_temperature(DeSitterPatch(alpha=alpha, r=frac * alpha))
            lhs = dec.T**2
            rhs = dec.T_f**2 + dec.T_a**2
            worst = max(worst, abs(lhs - rhs) / lhs)
    return CheckResult("temperature_decomposition", worst < 1e-12, f"max relative defect {worst:.3e} (tol 1e-12)")


def _check_oracle_grid(full: bool) -> CheckResult:
    ratios = [0.3, 1.0, 10.0] if not full else [0.1, 0.3, 1.0, 3.0, 10.0]
    freqs = [1.0] if not full else [0.5, 1.0, 2.0]
    patch = DeSitterPatch(alpha=1.0, r=0.0)
    worst = 0.0
    for lk in ratios:
        for wk in freqs:
            closed = shifts.rcpi_closed_desitter(lk, 1.0, wk, 0.1)
            numeric, _ = shifts.rcpi_quadrature(patch, lk, wk, 0.1)
            worst = max(worst, abs(numeric - closed) / abs(closed))
    return CheckResult("oracle_equivalence", worst < 1e-6, f"max relative deviation {worst:.3e} (tol 1e-6)")


def _check_thermal_independence() -> CheckResult:
    vals = []
    for T in (0.0, 0.1, 1.0, 10.0):
        numeric, _ = shifts.rcpi_quadrature(ThermalBath(temperature=T), 1.3, 1.0, 0.1)
        vals.append(numeric)
    closed = shifts.rcpi_closed_minkowski(1.3, 1.0, 0.1)
    spread = max(vals) - min(vals)
    dev = abs(vals[0] - closed) / abs(closed)
    ok = spread == 0.0 and dev < 1e-6
    return CheckResult(
        "thermal_temperature_independence",
        ok,
        f"spread across T {spread:.3e} (must be 0), deviation from closed form {dev:.3e} (tol 1e-6)",
    )


def _check_asymptotics() -> CheckResult:
    far = shifts.rcpi_closed_desitter(100.0, 1.0, 1.0, 0.1) / shifts.rcpi_asymptotic(
        100.0, 1.0, 1.0, 0.1, shifts.Regime.FAR
    )
    near = shifts.rcpi_closed_desitter(0.01, 1.0, 1.0, 0.1) / shifts.rcpi_asymptotic(
        0.01, 1.0, 1.0, 0.1, shifts.Regime.NEAR
    )
    ok = 0.99 <= far <= 1.01 and 0.9999 <= near <= 1.0001
    return CheckResult("asymptotic_regimes", ok, f"far ratio {far:.6f} (band [0.99, 1.01]), near ratio {near:.8f} (band [0.9999, 1.0001])")


def _check_flat_limit() -> CheckResult:
    ds = shifts.rcpi_closed_desitter(1.0, 1e6, 1.0, 0.1)
    mink = shifts.rcpi_closed_minkowski(1.0, 1.0, 0.1)
    dev = abs(ds - mink) / abs(mink)
    return CheckResult("flat_limit", dev < 1e-8, f"relative deviation {dev:.3e} (tol 1e-8)")


def _check_antisymmetry() -> CheckResult:
    patch = DeSitterPatch(alpha=1.0, r=0.3)
    cases = []
    for L in (0.2, 1.0, 7.0):
        cases.append(
            shifts.rcpi_closed(patch, L, 1.0, 0.1, DickeState.S) + shifts.rcpi_closed(patch, L, 1.0, 0.1, DickeState.A)
        )
        cases.append(
            shifts.rcpi_closed_minkowski(L, 1.0, 0.1, DickeState.S)
            + shifts.rcpi_closed_minkowski(L, 1.0, 0.1, DickeState.A)
        )
    worst = max(abs(c) for c in cases)
    return CheckResult("antisymmetry", worst == 0.0, f"max |dE_S + dE_A| = {worst:.3e} (must be exactly 0)")


def _unit_generator(L: float) -> liouvillian.GeneratorMatrices:
    """Generator of the pair in the de Sitter patch alpha = 1 at the origin, omega0 = 1, mu = 0.5."""
    return liouvillian.build_coefficients(DeSitterPatch(alpha=1.0, r=0.0), 1.0, 0.5, L)


def _check_lindblad_quick() -> CheckResult:
    gen = _unit_generator(1.0)
    m = liouvillian.superoperator(gen)
    rng = np.random.default_rng(7)
    worst_trace = 0.0
    for _ in range(5):
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = x + x.conj().T
        drho = (m @ rho.reshape(16)).reshape(4, 4)
        worst_trace = max(worst_trace, abs(np.trace(drho)))
    # Gibbs state at the local temperature 1 / 2 pi is stationary.
    x = math.exp(-2.0 * math.pi)
    gibbs = np.diag([1.0, x, x, x * x]).astype(complex)
    gibbs /= np.trace(gibbs).real
    resid = np.max(np.abs((m @ gibbs.reshape(16)).reshape(4, 4)))
    rate_a = abs(liouvillian.dicke_population_rate(gen, DickeState.A))
    rate_s = abs(liouvillian.dicke_population_rate(gen, DickeState.S))
    gen_close = _unit_generator(1e-3)
    ratio = abs(liouvillian.dicke_population_rate(gen_close, DickeState.A)) / abs(
        liouvillian.dicke_population_rate(gen_close, DickeState.S)
    )
    ok = worst_trace < 1e-14 and resid < 1e-12 and rate_a < rate_s and ratio < 1e-4
    return CheckResult(
        "lindblad_generator",
        ok,
        f"trace defect {worst_trace:.2e} (tol 1e-14), Gibbs residual {resid:.2e} (tol 1e-12), "
        f"subradiant/superradiant rate ratio {ratio:.2e} at L/kappa=1e-3 (tol 1e-4)",
    )


def _check_lindblad_evolve() -> CheckResult:
    gen = _unit_generator(1.0)
    worst_trace = 0.0
    worst_herm = 0.0
    worst_eig = 0.0
    for s in (DickeState.G, DickeState.E, DickeState.S, DickeState.A):
        traj = liouvillian.evolve(projector(s), gen, np.linspace(0.0, 50.0, 51))
        worst_trace = max(worst_trace, float(np.max(np.abs(traj.trace - 1.0))))
        worst_herm = max(worst_herm, float(np.max(traj.hermiticity_defect)))
        worst_eig = min(worst_eig, float(np.min(traj.min_eigenvalue)))
    long_traj = liouvillian.evolve(projector(DickeState.G), gen, np.linspace(0.0, 2000.0, 41))
    rho1 = np.einsum("ikjk->ij", long_traj.rho[-1].reshape(2, 2, 2, 2))
    ratio = float(np.real(rho1[1, 1] / rho1[0, 0]))
    target = math.exp(-2.0 * math.pi)
    ok = worst_trace <= 1e-9 and worst_herm <= 1e-10 and worst_eig >= -1e-8 and abs(ratio - target) <= 1e-4
    return CheckResult(
        "lindblad_trajectories",
        ok,
        f"trace defect {worst_trace:.2e} (tol 1e-9), hermiticity {worst_herm:.2e} (tol 1e-10), "
        f"min eigenvalue {worst_eig:.2e} (floor -1e-8), steady ratio {ratio:.6f} vs {target:.6f} (tol 1e-4)",
    )


def _check_discriminator(full: bool) -> CheckResult:
    n = 2000 if full else 800
    patch = DeSitterPatch(alpha=1.0, r=0.0)
    L = np.geomspace(30.0, 1000.0, n)
    env_L, env_v = discriminator.envelope_points(L, shifts.rcpi_closed(patch, L, 10.0, 0.1, DickeState.S))
    fit_ds = discriminator.fit_power_law(env_L, env_v)
    verdict_ds = discriminator.classify(fit_ds).verdict

    L = np.geomspace(10.0, 100.0, n)
    env_L, env_v = discriminator.envelope_points(L, shifts.rcpi_closed_minkowski(L, 1.0, 0.1, DickeState.S))
    fit_m = discriminator.fit_power_law(env_L, env_v)
    verdict_m = discriminator.classify(fit_m).verdict
    ok = (
        verdict_ds is discriminator.Verdict.DESITTER_FAR
        and verdict_m is discriminator.Verdict.FLAT_OR_THERMAL
        and abs(fit_ds.exponent - 2.0) < 0.05
        and abs(fit_m.exponent - 1.0) < 0.02
    )
    return CheckResult(
        "discriminator",
        ok,
        f"de Sitter exponent {fit_ds.exponent:.4f} -> {verdict_ds.value}, "
        f"Minkowski exponent {fit_m.exponent:.4f} -> {verdict_m.value}",
    )


def run_validation(level: str = "quick") -> dict:
    """Run the check battery; returns a deterministic machine-readable report."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    full = level == "full"
    t0 = time.perf_counter()
    checks = [
        _check_kms_desitter, _check_kms_thermal, _check_temperature_decomposition, partial(_check_oracle_grid, full),
        _check_thermal_independence, _check_asymptotics, _check_flat_limit, _check_antisymmetry,
        _check_lindblad_quick, partial(_check_discriminator, full),
    ] + ([_check_lindblad_evolve] if full else [])
    report = []
    for check in checks:
        start = time.perf_counter()
        c = check()
        elapsed = round(time.perf_counter() - start, 6)
        report.append({"name": c.name, "passed": bool(c.passed), "detail": c.detail, "elapsed_seconds": elapsed})
    return {
        "level": level,
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
        "checks": report,
        "passed": all(c["passed"] for c in report),
    }
