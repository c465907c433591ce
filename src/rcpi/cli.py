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

from . import __version__
from .config import ConfigError, load_config
from .dicke import DickeState, projector
from .discriminator import Verdict, classify, envelope_points, fit_power_law, read_sweep_csv, write_sweep_csv
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


def cmd_shift(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    L = cfg.atoms.L
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
    _write_text(json.dumps(report, indent=2), args.out)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.sweep is None:
        raise ConfigError("sweep: section is required for the sweep command")
    grid = cfg.sweep.grid()
    dE_S = rcpi_closed(cfg.spacetime, grid, cfg.atoms.omega0, cfg.atoms.mu, DickeState.S)
    write_sweep_csv(args.out or sys.stdout, grid, dE_S)
    return EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.evolve is None:
        raise ConfigError("evolve: section is required for the evolve command")
    gen = build_coefficients(cfg.spacetime, cfg.atoms.omega0, cfg.atoms.mu, cfg.atoms.L)
    traj = evolve(projector(DickeState(cfg.evolve.rho0)), gen, cfg.evolve.grid())
    traj.to_csv(args.out or sys.stdout)
    return EXIT_OK


def cmd_discriminate(args: argparse.Namespace) -> int:
    env_L, env_v = envelope_points(*read_sweep_csv(args.input))
    result = classify(fit_power_law(env_L, env_v, (args.lmin, args.lmax)))
    _write_text(result.to_json(), args.out)
    if args.strict and result.verdict is Verdict.INDETERMINATE:
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    report = run_validation()
    _write_text(json.dumps(report, indent=2), args.out)
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


# The command table: one parser per process, each subcommand bound to its handler.
_PARSER = _Parser(prog="rcpi", description="Resonance interaction energies of an entangled atom pair")
_PARSER.add_argument("--version", action="version", version=f"rcpi {__version__}")
_commands = _PARSER.add_subparsers(dest="command", required=True)

_shift = _commands.add_parser("shift", help="single-point shift by closed form and quadrature")
_shift.set_defaults(run=cmd_shift)
_shift.add_argument("--config", required=True)
_shift.add_argument("--out", default=None)
_shift.add_argument("--format", choices=("json",), default="json")

_sweep = _commands.add_parser("sweep", help="closed-form shift versus separation, written as CSV")
_sweep.set_defaults(run=cmd_sweep)
_sweep.add_argument("--config", required=True)
_sweep.add_argument("--out", default=None)

_evolve = _commands.add_parser("evolve", help="propagate the master equation, trajectory as CSV")
_evolve.set_defaults(run=cmd_evolve)
_evolve.add_argument("--config", required=True)
_evolve.add_argument("--out", default=None)

_discriminate = _commands.add_parser("discriminate", help="classify a sweep CSV by its envelope decay law")
_discriminate.set_defaults(run=cmd_discriminate)
_discriminate.add_argument("input", help="sweep CSV with columns L,dE_S,dE_A")
_discriminate.add_argument("--lmin", type=float, default=None)
_discriminate.add_argument("--lmax", type=float, default=None)
_discriminate.add_argument("--strict", action="store_true", help="exit nonzero on an Indeterminate verdict")
_discriminate.add_argument("--out", default=None)

_validate = _commands.add_parser("validate", help="run the self-check battery")
_validate.set_defaults(run=cmd_validate)
_validate.add_argument("--out", default=None)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.run(args)
    except (_UsageError, OSError, ValueError) as exc:  # ConfigError and InsufficientOscillationsError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureError, EvolutionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
