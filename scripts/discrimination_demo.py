"""End-to-end demonstration: can a sweep of interaction energies tell the
two universes apart?

Generates symmetric-state shifts versus separation for (a) a static pair in
the de Sitter vacuum and (b) the same pair in a thermal Minkowski bath at the
matched temperature 1/(2 pi kappa), runs both sweeps through the blind
discriminator, and prints the verdicts.  The thermal sweep is repeated at
several temperatures to show the flat law never budges.
"""

import numpy as np

from rcpi.dicke import DickeState
from rcpi.discriminator import classify, envelope_points, fit_power_law
from rcpi.geometry import DeSitterPatch, ThermalBath, kappa, local_temperature
from rcpi.shifts import rcpi_closed

MU = 0.1


def run(label, spacetime, L_grid, omega0):
    env_L, env_v = envelope_points(L_grid, rcpi_closed(spacetime, L_grid, omega0, MU, DickeState.S))
    result = classify(fit_power_law(env_L, env_v))
    print(f"{label:>40}: exponent {result.fit.exponent:6.3f} -> {result.verdict.value}")
    return result


def main():
    patch = DeSitterPatch(alpha=1.0, r=0.0)
    k = kappa(patch)
    T_local = local_temperature(patch).T
    print(f"de Sitter patch: kappa = {k}, local temperature = {T_local:.5f}")
    print(f"coupling mu = {MU}; omega0 chosen per window so the envelope carries enough maxima\n")

    run("de Sitter, far zone", patch, np.geomspace(30.0 * k, 1000.0 * k, 3000), omega0=10.0)

    # A single static atom cannot tell the de Sitter vacuum from a thermal
    # bath at the matched temperature; the pair's decay law can.
    for T in (T_local, 0.1, 1.0, 10.0):
        run(f"thermal Minkowski, T = {T:.4f}", ThermalBath(T), np.geomspace(10.0, 100.0, 3000), omega0=1.0)

    result = run(
        "de Sitter, near zone (control)", patch, np.geomspace(1e-3 * k, 0.1 * k, 3000), omega0=200.0
    )
    print(
        "\nBelow the curvature scale the curved sweep correctly reads as flat"
        f" (exponent {result.fit.exponent:.3f}): the 1/L^2 law only emerges beyond kappa."
    )


if __name__ == "__main__":
    main()
