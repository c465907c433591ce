"""Command-line front end.

Subcommands: shift (single-point energies by closed form and quadrature),
sweep (separation scan to CSV), evolve (master-equation trajectory to CSV),
discriminate (sweep CSV -> power-law verdict JSON), validate (self-check
battery).  Exit codes: 0 ok, 1 usage/config error, 2 validation failure,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .dicke import DickeState, projector
from .discriminator import (
    Classification,
    InsufficientOscillationsError,
    classify,
    envelope_points,
    fit_power_law,
    read_sweep_csv,
    write_sweep_csv,
)
from .geometry import DeSitterPatch, kappa
from .liouvillian import EvolutionError, build_coefficients, evolve
from .quadrature import QuadratureError
from .shifts import rcpi_closed, rcpi_quadrature
from .validation import run_validation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rcpi", description="Resonance interaction energies of an entangled atom pair")
    parser.add_argument("--version", action="version", version=f"rcpi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_shift = sub.add_parser("shift", help="single-point shift by closed form and quadrature")
    p_shift.add_argument("--config", required=True)
    p_shift.add_argument("--out", default=None)
    p_shift.add_argument("--format", choices=("json",), default="json")

    p_sweep = sub.add_parser("sweep", help="closed-form shift versus separation, written as CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)

    p_evolve = sub.add_parser("evolve", help="propagate the master equation, trajectory as CSV")
    p_evolve.add_argument("--config", required=True)
    p_evolve.add_argument("--out", default=None)

    p_disc = sub.add_parser("discriminate", help="classify a sweep CSV by its envelope decay law")
    p_disc.add_argument("input", help="sweep CSV with columns L,dE_S,dE_A")
    p_disc.add_argument("--lmin", type=float, default=None)
    p_disc.add_argument("--lmax", type=float, default=None)
    p_disc.add_argument("--strict", action="store_true", help="exit nonzero on an Indeterminate verdict")
    p_disc.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="run the self-check battery")
    p_val.add_argument("--level", choices=("quick", "full"), default="quick")
    p_val.add_argument("--out", default=None)
    return parser


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _regime_hint(ratio: float) -> str:
    if ratio < 0.1:
        return "near (flat-space law applies)"
    if ratio > 10.0:
        return "far (curvature-dominated decay)"
    return "crossover"


def cmd_shift(cfg: RunConfig, out: str | None) -> int:
    L = cfg.atoms.separation()
    report: dict = {"L": L}
    if isinstance(cfg.spacetime, DeSitterPatch):
        k = kappa(cfg.spacetime)
        report["kappa"] = k
        report["L_over_kappa"] = L / k
        report["regime"] = _regime_hint(L / k)
    closed_s = rcpi_closed(cfg.spacetime, L, cfg.atoms.omega0, cfg.atoms.mu, DickeState.S)
    quad_s, quad_err = rcpi_quadrature(
        cfg.spacetime, L, cfg.atoms.omega0, cfg.atoms.mu, DickeState.S,
        abs_tol=cfg.tolerances.quad_abs_tol, rel_tol=cfg.tolerances.quad_rel_tol,
    )
    report.update(
        {
            "dE_S_closed": closed_s,
            "dE_A_closed": -closed_s,
            "dE_S_quadrature": quad_s,
            "dE_A_quadrature": -quad_s,
            "quadrature_error_estimate": quad_err,
        }
    )
    _write_text(json.dumps(report, indent=2), out)
    return EXIT_OK


def _sweep_grid(cfg: RunConfig) -> np.ndarray:
    sw = cfg.sweep
    if sw.spacing == "log":
        return np.geomspace(sw.L_min, sw.L_max, sw.n_points)
    return np.linspace(sw.L_min, sw.L_max, sw.n_points)


def cmd_sweep(cfg: RunConfig, out: str | None) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep: section is required for the sweep command")
    grid = _sweep_grid(cfg)
    dE_S = rcpi_closed(cfg.spacetime, grid, cfg.atoms.omega0, cfg.atoms.mu, DickeState.S)
    write_sweep_csv(out or cfg.output.path or sys.stdout, grid, dE_S)
    return EXIT_OK


def cmd_evolve(cfg: RunConfig, out: str | None) -> int:
    if cfg.evolve is None:
        raise ConfigError("evolve: section is required for the evolve command")
    L = cfg.atoms.separation()
    gen = build_coefficients(cfg.spacetime, cfg.atoms.omega0, cfg.atoms.mu, L)
    n = int(np.floor(cfg.evolve.tau_max / cfg.evolve.stride + 1e-9)) + 1
    tau = np.arange(n) * cfg.evolve.stride
    if tau[-1] < cfg.evolve.tau_max - 1e-12 * cfg.evolve.tau_max:
        tau = np.append(tau, cfg.evolve.tau_max)
    traj = evolve(projector(DickeState(cfg.evolve.rho0)), gen, tau)
    traj.to_csv(out or cfg.output.path or sys.stdout)
    return EXIT_OK


def cmd_discriminate(input_path: str, lmin: float | None, lmax: float | None, strict: bool, out: str | None) -> int:
    env_L, env_v = envelope_points(*read_sweep_csv(input_path))
    window = None
    if lmin is not None or lmax is not None:
        window = (lmin if lmin is not None else float(env_L.min()), lmax if lmax is not None else float(env_L.max()))
    fit = fit_power_law(env_L, env_v, window)
    result: Classification = classify(fit)
    _write_text(result.to_json(), out)
    if strict and result.verdict.value == "Indeterminate":
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_validate(level: str, out: str | None) -> int:
    report = run_validation(level)
    _write_text(json.dumps(report, indent=2), out)
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "shift":
            return cmd_shift(load_config(args.config), args.out)
        if args.command == "sweep":
            return cmd_sweep(load_config(args.config), args.out)
        if args.command == "evolve":
            return cmd_evolve(load_config(args.config), args.out)
        if args.command == "discriminate":
            return cmd_discriminate(args.input, args.lmin, args.lmax, args.strict, args.out)
        if args.command == "validate":
            return cmd_validate(args.level, args.out)
        raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover
    except (ConfigError, FileNotFoundError, InsufficientOscillationsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureError, EvolutionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
