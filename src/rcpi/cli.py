"""Command-line front end.

Subcommands: shift (single-point energies by closed form and quadrature),
sweep (separation scan to CSV), evolve (master-equation trajectory to CSV),
discriminate (sweep CSV -> power-law verdict JSON), validate (self-check
battery).  Exit codes: 0 ok, 1 usage/config error, 2 validation failure,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from . import __version__
from .config import ConfigError, load_config
from .dicke import DickeState, projector
from .geometry import DeSitterPatch, kappa
from .quadrature import EvolutionError, QuadratureError
from .shifts import rcpi_closed, rcpi_quadrature

# `shift` and every usage or config error run on the modules above, which load no numpy; the other commands import
# the numpy modules they need in their handlers.

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


def _output(out: str | None):
    """Where a command writes its result: stdout, or the ``--out`` file, opened once the result is computed."""
    return contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", newline="")


def _finite_float(text: str) -> float:
    """The type of an option that ends up in a JSON result, which has no Infinity or NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _write_json(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text + "\n")


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
    _write_json(json.dumps(report, indent=2, allow_nan=False), args.out)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.sweep is None:
        raise ConfigError("sweep: section is required for the sweep command")
    from .discriminator import write_sweep_csv

    grid = cfg.sweep.grid()
    dE_S = rcpi_closed(cfg.spacetime, grid, cfg.atoms.omega0, cfg.atoms.mu, DickeState.S)
    with _output(args.out) as fh:
        write_sweep_csv(fh, grid, dE_S)
    return EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.evolve is None:
        raise ConfigError("evolve: section is required for the evolve command")
    from .liouvillian import build_coefficients, evolve

    gen = build_coefficients(cfg.spacetime, cfg.atoms.omega0, cfg.atoms.mu, cfg.atoms.L)
    traj = evolve(projector(DickeState(cfg.evolve.rho0)), gen, cfg.evolve.grid())
    with _output(args.out) as fh:
        traj.to_csv(fh)
    return EXIT_OK


def cmd_discriminate(args: argparse.Namespace) -> int:
    from .discriminator import Verdict, classify, envelope_points, fit_power_law, read_sweep_csv

    env_L, env_v = envelope_points(*read_sweep_csv(args.input))
    result = classify(fit_power_law(env_L, env_v, (args.lmin, args.lmax)))
    _write_json(result.to_json(), args.out)
    if args.strict and result.verdict is Verdict.INDETERMINATE:
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    from .validation import run_validation

    report = run_validation()
    _write_json(json.dumps(report, indent=2, allow_nan=False), args.out)
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


# The command table: one parser per process, each subcommand bound to its handler.
_PARSER = _Parser(prog="rcpi", description="Resonance interaction energies of an entangled atom pair")
_PARSER.add_argument("--version", action="version", version=f"rcpi {__version__}")
_commands = _PARSER.add_subparsers(dest="command", required=True)


def _command(name: str, run, help: str, config: bool = True) -> argparse.ArgumentParser:
    """Add the subcommand ``name`` bound to ``run``, with the options every command shares."""
    sub = _commands.add_parser(name, help=help)
    sub.set_defaults(run=run)
    if config:
        sub.add_argument("--config", required=True)
    sub.add_argument("--out", default=None)
    return sub


_shift = _command("shift", cmd_shift, "single-point shift by closed form and quadrature")
_shift.add_argument("--format", choices=("json",), default="json")
_command("sweep", cmd_sweep, "closed-form shift versus separation, written as CSV")
_command("evolve", cmd_evolve, "propagate the master equation, trajectory as CSV")
_discriminate = _command("discriminate", cmd_discriminate, "classify a sweep CSV by its envelope decay law", config=False)
_discriminate.add_argument("input", help="sweep CSV with columns L,dE_S,dE_A")
_discriminate.add_argument("--lmin", type=_finite_float, default=None)
_discriminate.add_argument("--lmax", type=_finite_float, default=None)
_discriminate.add_argument("--strict", action="store_true", help="exit nonzero on an Indeterminate verdict")
_command("validate", cmd_validate, "run the self-check battery", config=False)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # One parse per call: a command's own parser takes the words after its name.  The top-level parser takes only an
    # argv that names no command (--help, --version, no word, an unknown command), to print or reject it.
    command = _commands.choices.get(argv[0]) if argv else None
    try:
        args = command.parse_args(argv[1:]) if command else _PARSER.parse_args(argv)
        return args.run(args)
    except (_UsageError, OSError, ValueError) as exc:  # ConfigError and InsufficientOscillationsError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureError, EvolutionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
