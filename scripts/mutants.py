"""Mutation checks: each row breaks one guard or term of ``src/rcpi`` and names the tests that must catch it.

A row holds a file under ``src/``, a source fragment that occurs there exactly
once, its replacement, and the pytest node ids that must fail.  For each row
the script copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary directory, applies the edit to the copy and runs the row's tests
there, one subprocess at a time.  A mutant is killed when its tests fail, and
survives when they pass.  A row whose fragment does not occur exactly once is
stale: the code it guards has moved, and the row must move with it.

Prints a JSON report and exits 1 on any survivor or stale row.  Run it from
anywhere:

    python scripts/mutants.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    fragment: str
    replacement: str
    tests: tuple[str, ...]


_OUTSIDE = "brackets = math.pi - 2.0 * si_d + si_below - si_above, ci_above - ci_below"
_OUTSIDE_TESTS = ("tests/test_quadrature.py::TestTail",)
_A_SCALE = "a_scale = 2.0 * _U * (a + d) * (abs(w) + abs(conjugate) + 0.5 * brackets)"
_SHIFT_GUARDS = "    _require_envelope(mu, c)\n    _require_phase(omega0, sigma)\n"
_COEFFICIENT_GUARDS = "    _require_phase(omega0, sigma)\n    _require_envelope(mu, c)\n    at1"
_SICI_TESTS = ("tests/test_quadrature.py::TestSici",)

MUTANTS = (
    # Each sine- and cosine-integral term of quadrature._outside, its sign flipped.
    *(
        Mutant(f"outside: {term} flipped", "rcpi/quadrature.py", _OUTSIDE, _OUTSIDE.replace(term, flipped, 1), _OUTSIDE_TESTS)
        for term, flipped in (
            ("- 2.0 * si_d", "+ 2.0 * si_d"),
            ("+ si_below", "- si_below"),
            ("- si_above", "+ si_above"),
            (", ci_above", ", -ci_above"),
            ("- ci_below", "+ ci_below"),
        )
    ),
    Mutant(
        "_sici: the power series taken out to x = 60",
        "rcpi/quadrature.py",
        "_SICI_SWITCH = 4.0",
        "_SICI_SWITCH = 60.0",
        _SICI_TESTS,
    ),
    Mutant(
        "_sici: the g term dropped",
        "rcpi/quadrature.py",
        "return 0.5 * math.pi - f * cos_x - g * sin_x, f * sin_x - g * cos_x",
        "return 0.5 * math.pi - f * cos_x, f * sin_x",
        _SICI_TESTS,
    ),
    Mutant(
        "_sici: the continued fraction's stop loosened from 4 eps to 1e-8",
        "rcpi/quadrature.py",
        "if abs(step - 1.0) <= 4.0 * sys.float_info.epsilon:",
        "if abs(step - 1.0) <= 1e-8:",
        _SICI_TESTS,
    ),
    Mutant(
        "rules: one stored weight's last digit changed, so it is no longer the double nearest its exact value",
        "rcpi/quadrature.py",
        "(0.3160842505009099, 0.1167462682691774),",
        "(0.3160842505009099, 0.1167462682691775),",
        ("tests/test_quadrature.py::TestRules",),
    ),
    Mutant(
        "_window: the cosh growth of cos(d x) and sin(d x) / (d x) off the real axis dropped from the ellipse bound",
        "rcpi/quadrature.py",
        "math.cosh(d * (_RHO - 1.0 / _RHO) / 4.0)",
        "1.0",
        ("tests/test_quadrature.py::test_ellipse_maxima_bound_the_integrand_on_the_ellipse",),
    ),
    Mutant(
        "_window: w sin(d x) rounded before its division by x, so a subnormal term's rounding grows by 1 / x",
        "rcpi/quadrature.py",
        "math.sin(d * x) / x * (w * (den - u2) / den)",
        "w * math.sin(d * x) / x * (den - u2) / den",
        ("tests/test_quadrature.py::TestWindow::test_matches_mpmath",),
    ),
    Mutant(
        "kernel: a-scale term removed",
        "rcpi/quadrature.py",
        _A_SCALE,
        "a_scale = 0.0",
        ("tests/test_quadrature.py::TestResonanceIntegral::test_phase_1e15",),
    ),
    Mutant(
        "kernel: conjugate window |W'| dropped from the a-scale term",
        "rcpi/quadrature.py",
        _A_SCALE,
        _A_SCALE.replace(" + abs(conjugate)", "", 1),
        ("tests/test_quadrature.py::test_exact_phase_within_the_estimate_or_exit_3",),
    ),
    Mutant(
        "shifts._interaction: envelope guard removed",
        "rcpi/shifts.py",
        _SHIFT_GUARDS,
        "    _require_phase(omega0, sigma)\n",
        ("tests/test_shifts.py::TestClosedForms::test_envelope_past_the_double_range_raises",),
    ),
    Mutant(
        "shifts._interaction: phase guard removed",
        "rcpi/shifts.py",
        _SHIFT_GUARDS,
        "    _require_envelope(mu, c)\n",
        ("tests/test_shifts.py::TestClosedForms::test_phase_past_the_double_range_raises",),
    ),
    Mutant(
        "build_coefficients: phase guard removed",
        "rcpi/liouvillian.py",
        _COEFFICIENT_GUARDS,
        "    _require_envelope(mu, c)\n    at1",
        ("tests/test_cli.py::TestExitCodes::test_phase_past_the_double_range",),
    ),
    Mutant(
        "build_coefficients: envelope guard removed",
        "rcpi/liouvillian.py",
        _COEFFICIENT_GUARDS,
        "    _require_phase(omega0, sigma)\n    at1",
        ("tests/test_liouvillian.py::TestHamiltonianCoefficients::test_envelope_past_the_double_range_raises",),
    ),
    Mutant(
        "dissipator_coefficients: phase guard removed",
        "rcpi/liouvillian.py",
        "    _require_phase(omega0, sigma)\n    return _dissipator(",
        "    return _dissipator(",
        ("tests/test_liouvillian.py::TestDissipatorCoefficients::test_phase_past_the_double_range_raises",),
    ),
    Mutant(
        "liouvillian._dissipator: cross-factor limit sigma / c removed",
        "rcpi/liouvillian.py",
        "math.sin(sigma * omega0) / (c * omega0) if c * omega0 else sigma / c",
        "math.sin(sigma * omega0) / (c * omega0)",
        ("tests/test_extremes.py::test_a_double_or_the_typed_error",),
    ),
    Mutant(
        "rcpi_asymptotic: far-form phase guard at L kappa in place of L / kappa",
        "rcpi/shifts.py",
        "_require_phase(2.0 * omega0 * kappa_val, math.log(L / kappa_val))",
        "_require_phase(2.0 * omega0 * kappa_val, math.log(L * kappa_val))",
        ("tests/test_shifts.py::TestAsymptotics::test_far_phase_guard_at_kappa_other_than_1",),
    ),
    Mutant(
        "cmd_shift: regime read at L kappa in place of L / kappa",
        "rcpi/cli.py",
        'report["regime"] = _regime_hint(L / k)',
        'report["regime"] = _regime_hint(L * k)',
        ("tests/test_cli.py::TestShiftCommand::test_regime_reads_L_over_kappa",),
    ),
    Mutant(
        "cli.main: every command parsed by the top-level parser, then again by its own",
        "rcpi/cli.py",
        "argv[0] if argv and argv[0] in _COMMANDS else None",
        "None",
        ("tests/test_cli.py::TestExitCodes::test_one_parse_per_command",),
    ),
    Mutant(
        "parser cache dropped: each call builds its parser again",
        "rcpi/cli.py",
        "@functools.cache\ndef _parser(",
        "def _parser(",
        ("tests/test_cli.py::TestExitCodes::test_a_second_call_builds_no_parser",),
    ),
    Mutant(
        "_Parser.error: usage line no longer printed",
        "rcpi/cli.py",
        "        self.print_usage(sys.stderr)\n",
        "",
        ("tests/test_cli.py::TestExitCodes::test_usage_error",),
    ),
    Mutant(
        "rcpi_asymptotic: far-form envelope guard removed",
        "rcpi/shifts.py",
        "        _require_envelope(mu, c)\n        _require_phase(2.0 * omega0 * kappa_val",
        "        _require_phase(2.0 * omega0 * kappa_val",
        ("tests/test_extremes.py::test_a_double_or_the_typed_error",),
    ),
    Mutant(
        "geometry._require_envelope: c_min > 0 test removed",
        "rcpi/geometry.py",
        "if not (c_min > 0 and math.isfinite(",
        "if not (math.isfinite(",
        ("tests/test_geometry.py::test_envelope_at_a_c_that_underflowed_to_0_is_rejected",),
    ),
    Mutant(
        "geometry._desitter_shape: overflow of an array no longer silenced",
        "rcpi/geometry.py",
        'with np.errstate(over="ignore"):\n            x = L',
        "with np.errstate():\n            x = L",
        ("tests/test_geometry.py::TestResponseShape::test_c_past_the_double_range_is_rejected",),
    ),
    Mutant(
        "DeSitterPatch: alpha check removed, so the horizon check names r",
        "rcpi/geometry.py",
        "        _require_positive(alpha=self.alpha)\n",
        "",
        ("tests/test_geometry.py::TestKappa::test_alpha_that_is_no_positive_double_is_named",),
    ),
    Mutant(
        "Record.replace: the copy built past __init__, so __post_init__ no longer checks it",
        "rcpi/_record.py",
        "return type(self)(**{**self.__dict__, **changes})",
        "copy = object.__new__(type(self))\n        copy.__dict__.update(self.__dict__, **changes)\n        return copy",
        ("tests/test_record.py::test_replace_builds_and_checks_again",),
    ),
    Mutant(
        "csvio.read_columns: a pipe's copy not rebound for the row-by-row reread",
        "rcpi/csvio.py",
        "path_or_buf = fh = io.StringIO(fh.read())",
        "fh = io.StringIO(fh.read())",
        ("tests/test_cli.py::TestDiscriminateCommand::test_sweep_read_from_a_pipe",),
    ),
    Mutant(
        "config: atoms.mu envelope guard removed",
        "rcpi/config.py",
        '_require_envelope(self.atoms.mu, response_shape(self.spacetime, L)[1], at=f"{name}={L}")',
        "pass",
        ("tests/test_cli.py::TestConfig::test_validation_messages[atoms.mu-envelope-overflow]",),
    ),
)


def run(mutant: Mutant) -> dict:
    """Apply one mutant to a fresh copy of the tree and run its tests; returns its row of the report."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="rcpi-mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        path = copy / "src" / mutant.file
        source = path.read_text()
        count = source.count(mutant.fragment)
        if count != 1:
            return {"name": mutant.name, "status": "stale", "detail": f"fragment occurs {count} times in {mutant.file}"}
        path.write_text(source.replace(mutant.fragment, mutant.replacement))
        # pyproject's pythonpath puts the copy's src/ and tests/ first; -x stops at the first kill.
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy,
            capture_output=True,
            text=True,
        )
    # Exit code 1 is a failed test; any other code (usage, collection, interrupt) is no kill.
    status = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    row = {"name": mutant.name, "status": status, "seconds": round(time.perf_counter() - start, 2)}
    if status != "killed":
        row["detail"] = proc.stdout[-2000:] + proc.stderr[-2000:]
    return row


def main() -> int:
    rows = [run(m) for m in MUTANTS]
    print(json.dumps({"mutants": rows, "all_killed": all(r["status"] == "killed" for r in rows)}, indent=2))
    return 0 if all(r["status"] == "killed" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
