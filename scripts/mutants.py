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
        ("tests/test_extremes.py::test_a_double_or_the_typed_error",),
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
        "rcpi_asymptotic: far-form envelope guard removed",
        "rcpi/shifts.py",
        "        _require_envelope(mu, c)\n        _require_phase(2.0 * omega0 * kappa_val",
        "        _require_phase(2.0 * omega0 * kappa_val",
        ("tests/test_extremes.py::test_a_double_or_the_typed_error",),
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
