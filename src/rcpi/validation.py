"""Self-check battery behind the `validate` CLI subcommand.

Every check is a list of clauses.  A clause compares two independent routes
to the same quantity (closed form versus quadrature, the dissipator versus
the spectral functions of ``rcpi.spectral``, the rate matrix versus the Gibbs
state) and holds the deviation it saw and its tolerance.  A check passes when
every deviation is within its tolerance; the report gives each check's
clauses and its own run time.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np

from . import discriminator, liouvillian, shifts
from .dicke import DickeState, projector
from .geometry import DeSitterPatch, ThermalBath, field_temperature, kappa, local_temperature

__all__ = ["run_validation"]

# (the two routes compared, deviation, tolerance)
Clause = tuple[str, float, float]


def _check(name: str, clauses: list[Clause]) -> dict:
    """Passed when every deviation is within its tolerance (a NaN fails); the detail lists every clause."""
    return {
        "name": name,
        "passed": all(dev <= tol for _, dev, tol in clauses),
        "detail": "; ".join(f"{routes}: {dev:.3e} (tol {tol:g})" for routes, dev, tol in clauses),
    }


def _kms(spacetimes) -> list[Clause]:
    """``dissipator_coefficients`` against (mu^2/4)(G(w0) +/- G(-w0)) of ``rcpi.spectral``, over w0/T in [0.25, 10].

    The four coefficients, cross terms included, are compared at mu = 0.1 and
    L = 1, relative to the same-atom sum at1.
    """
    from . import spectral  # the oracle: no route loads it

    devs = []
    for st in spacetimes:
        T = field_temperature(st)
        w0 = np.linspace(0.25, 10.0, 40) * T
        w = np.array([w0, -w0])
        if isinstance(st, DeSitterPatch):
            g, gx = spectral.fourier_desitter_same(w, kappa(st)), spectral.fourier_desitter_cross(w, kappa(st), 1.0)
        else:
            g, gx = spectral.fourier_thermal_minkowski(w, T), spectral.fourier_thermal_minkowski(w, T, 1.0)
        oracle = 0.25 * 0.1**2 * np.array([g[0] + g[1], g[0] - g[1], gx[0] + gx[1], gx[0] - gx[1]])
        route = np.array([liouvillian.dissipator_coefficients(st, x, 0.1, 1.0) for x in w0]).T
        devs.append(np.max(np.abs(route - oracle) / oracle[0]))
    return [("dissipator_coefficients vs (mu^2/4)(G(w0) +/- G(-w0)) of rcpi.spectral, relative", np.max(devs), 1e-12)]


def _temperature_decomposition() -> list[Clause]:
    devs = []
    for alpha in np.linspace(0.2, 5.0, 20):
        for frac in np.linspace(0.0, 0.99, 20):
            dec = local_temperature(DeSitterPatch(alpha=alpha, r=frac * alpha))
            devs.append(abs(dec.T**2 - dec.T_f**2 - dec.T_a**2) / dec.T**2)
    return [("T^2 vs T_f^2 + T_a^2 of local_temperature, relative", np.max(devs), 1e-12)]


def _oracle_equivalence() -> list[Clause]:
    patch = DeSitterPatch(alpha=1.0, r=0.0)
    devs = [
        abs(shifts.rcpi_quadrature(patch, lk, wk, 0.1)[0] / shifts.rcpi_closed_desitter(lk, 1.0, wk, 0.1) - 1.0)
        for lk in (0.1, 0.3, 1.0, 3.0, 10.0)
        for wk in (0.5, 1.0, 2.0)
    ]
    return [("rcpi_quadrature vs rcpi_closed_desitter, relative", np.max(devs), 1e-6)]


def _thermal_independence() -> list[Clause]:
    """Only G(l) - G(-l) enters the shift, and in a bath it is the vacuum value whatever T is.

    The deviations are relative to G(l) + G(-l), the size of the two terms.
    """
    from . import spectral  # the oracle: no route loads it

    g = spectral.fourier_thermal_minkowski
    lam, L = np.geomspace(1e-3, 1e2, 26), 1.3
    vacuum = lam / (2.0 * math.pi)
    same, cross = [], []
    for T in (0.0, 0.1, 1.0, 10.0):
        scale = g(lam, T) + g(-lam, T)
        same.append(np.abs(g(lam, T) - g(-lam, T) - vacuum) / scale)
        cross.append(np.abs(g(lam, T, L) - g(-lam, T, L) - vacuum * np.sin(lam * L) / (lam * L)) / scale)
    numeric, _ = shifts.rcpi_quadrature(ThermalBath(1.0), L, 1.0, 0.1)
    return [
        ("G(l) - G(-l) of fourier_thermal_minkowski at T = 0, 0.1, 1, 10 vs the vacuum l/2pi", np.max(same), 1e-12),
        ("cross G(l) - G(-l) at L = 1.3 vs (l/2pi) sinc(l L)", np.max(cross), 1e-12),
        (
            "rcpi_quadrature at T = 1 vs rcpi_closed_minkowski, relative",
            abs(numeric / shifts.rcpi_closed_minkowski(L, 1.0, 0.1) - 1.0),
            1e-6,
        ),
    ]


def _asymptotic_regimes() -> list[Clause]:
    clauses = []
    for regime, lk, tol in ((shifts.Regime.FAR, 100.0, 1e-2), (shifts.Regime.NEAR, 0.01, 1e-4)):
        ratio = shifts.rcpi_closed_desitter(lk, 1.0, 1.0, 0.1) / shifts.rcpi_asymptotic(lk, 1.0, 1.0, 0.1, regime)
        routes = f"rcpi_closed_desitter vs rcpi_asymptotic {regime.value} at L/kappa = {lk:g}"
        clauses.append((routes, abs(ratio - 1.0), tol))
    return clauses


def _flat_limit() -> list[Clause]:
    ratio = shifts.rcpi_closed_desitter(1.0, 1e6, 1.0, 0.1) / shifts.rcpi_closed_minkowski(1.0, 1.0, 0.1)
    return [("rcpi_closed_desitter at kappa = 1e6 vs rcpi_closed_minkowski, relative", abs(ratio - 1.0), 1e-8)]


def _antisymmetry() -> list[Clause]:
    patch = DeSitterPatch(alpha=1.0, r=0.3)
    devs = []
    for L in (0.2, 1.0, 7.0):
        a2 = liouvillian.build_coefficients(patch, 1.0, 0.1, L).a2
        for state, target in ((DickeState.S, -2.0 * a2), (DickeState.A, 2.0 * a2)):
            value, error = shifts.rcpi_quadrature(patch, L, 1.0, 0.1, state)
            devs.append(abs(value - target) / error)
    routes = "S and A shifts of rcpi_quadrature vs -/+ 2 a2 of build_coefficients, in error estimates"
    return [(routes, np.max(devs), 1.0)]


def _unit_generator(L: float) -> liouvillian.GeneratorMatrices:
    """Generator of the pair in the de Sitter patch alpha = 1 at the origin, omega0 = 1, mu = 0.5."""
    return liouvillian.build_coefficients(DeSitterPatch(alpha=1.0, r=0.0), 1.0, 0.5, L)


def _lindblad_generator() -> list[Clause]:
    r = liouvillian.rate_matrix(_unit_generator(1.0))
    # The Gibbs state at the local temperature 1 / 2 pi, populations (1, x^2, x, x) / Z in the
    # order (G, E, S, A) with x = e^{-2 pi}, is stationary.
    x = math.exp(-2.0 * math.pi)
    gibbs = np.array([1.0, x * x, x, x]) / (1.0 + x) ** 2
    r_close = liouvillian.rate_matrix(_unit_generator(1e-3))
    return [
        ("column sums of rate_matrix vs trace conservation", np.max(np.abs(r.sum(axis=0))), 1e-14),
        ("rate_matrix vs the stationary Gibbs state", np.max(np.abs(r @ gibbs)), 1e-12),
        ("subradiant vs superradiant rate of rate_matrix at L/kappa = 1e-3", r_close[3, 3] / r_close[2, 2], 1e-4),
    ]


def _discriminator() -> list[Clause]:
    """Fits of closed-form sweeps against the laws they were built from; the last clause counts wrong verdicts."""
    sweeps = (
        (DeSitterPatch(alpha=1.0, r=0.0), (30.0, 1000.0), 10.0, 2.0, 0.05, discriminator.Verdict.DESITTER_FAR),
        (ThermalBath(0.0), (10.0, 100.0), 1.0, 1.0, 0.02, discriminator.Verdict.FLAT_OR_THERMAL),
    )
    clauses, wrong = [], 0
    for spacetime, (lo, hi), omega0, law, tol, verdict in sweeps:
        L = np.geomspace(lo, hi, 2000)
        env_L, env_v = discriminator.envelope_points(L, shifts.rcpi_closed(spacetime, L, omega0, 0.1))
        fit = discriminator.fit_power_law(env_L, env_v)
        routes = f"exponent of fit_power_law over L in [{lo:g}, {hi:g}] vs the 1/L^{law:g} law of rcpi_closed"
        clauses.append((routes, abs(fit.exponent - law), tol))
        wrong += discriminator.classify(fit).verdict is not verdict
    return clauses + [("verdicts of classify vs DeSitterFar and FlatOrThermal: mismatches", wrong, 0)]


def _lindblad_trajectories() -> list[Clause]:
    gen = _unit_generator(1.0)
    with warnings.catch_warnings():
        # A population below -1e-8 fails the positivity clause below; the warning would only repeat it.
        warnings.simplefilter("ignore", RuntimeWarning)
        tau = np.linspace(0.0, 50.0, 51)
        pops = np.concatenate([liouvillian.evolve(projector(s), gen, tau).populations for s in DickeState])
        rho = liouvillian.evolve(projector(DickeState.G), gen, np.linspace(0.0, 2000.0, 41)).rho[-1]
    rho1 = np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))
    ratio = float(rho1[1, 1] / rho1[0, 0])
    return [
        ("trace of evolve vs 1", np.max(np.abs(pops.sum(axis=1) - 1.0)), 1e-9),
        ("populations of evolve vs the floor 0", max(0.0, -pops.min()), 1e-8),
        ("steady single-atom ratio of evolve vs e^{-omega0/T}", abs(ratio - math.exp(-2.0 * math.pi)), 1e-4),
    ]


_CHECKS = (
    ("kms_desitter", lambda: _kms([DeSitterPatch(a, r) for a, r in ((0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.6))])),
    ("kms_thermal", lambda: _kms([ThermalBath(temperature=T) for T in (0.25, 1.0, 4.0)])),
    ("temperature_decomposition", _temperature_decomposition),
    ("oracle_equivalence", _oracle_equivalence),
    ("thermal_temperature_independence", _thermal_independence),
    ("asymptotic_regimes", _asymptotic_regimes),
    ("flat_limit", _flat_limit),
    ("antisymmetry", _antisymmetry),
    ("lindblad_generator", _lindblad_generator),
    ("discriminator", _discriminator),
    ("lindblad_trajectories", _lindblad_trajectories),
)


def run_validation() -> dict:
    """Run the check battery; returns a deterministic machine-readable report."""
    t0 = time.perf_counter()
    report = []
    for name, clauses in _CHECKS:
        start = time.perf_counter()
        check = _check(name, clauses())
        report.append({**check, "elapsed_seconds": round(time.perf_counter() - start, 6)})
    return {
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
        "checks": report,
        "passed": all(c["passed"] for c in report),
    }
