"""A double or the typed error: every shift route, the generator coefficients and the CLI over the double range.

mu is drawn log-uniform in [1e-200, 1e200], L and omega0 in [1e-300, 1e300], and kappa in
[1e-150, 1e150] (de Sitter) or T = 0 or in [1e-300, 1e300] (a thermal bath).  pytest turns a
RuntimeWarning into an error here, as it does throughout the suite.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rcpi.cli import main
from rcpi.geometry import DeSitterPatch, ThermalBath
from rcpi.liouvillian import build_coefficients
from rcpi.quadrature import QuadratureError
from rcpi.shifts import Regime, rcpi_asymptotic, rcpi_closed, rcpi_closed_desitter, rcpi_closed_minkowski, rcpi_quadrature


def _log_uniform(lo: int, hi: int):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


def _finite_or_raises(route, *errors):
    """Call ``route``: every number it returns is finite, or it raises one of ``errors`` (ValueError by default)."""
    try:
        out = route()
    except errors or (ValueError,):
        return
    assert np.all(np.isfinite(np.asarray(out, dtype=float))), out


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    desitter=st.booleans(),
    kappa_val=_log_uniform(-150, 150),
    temperature=st.one_of(st.just(0.0), _log_uniform(-300, 300)),
    L=_log_uniform(-300, 300),
    L2=_log_uniform(-300, 300),
    omega0=_log_uniform(-300, 300),
    mu=_log_uniform(-200, 200),
)
# mu^2 overflows: the quadrature returned (-inf, inf) and the far form inf.
@example(desitter=False, kappa_val=1.0, temperature=0.0, L=1.0, L2=2.0, omega0=1.0, mu=1e200)
@example(desitter=True, kappa_val=1.0, temperature=0.0, L=10.0, L2=20.0, omega0=1.0, mu=1e200)
# L * L underflows: the far form divided by 0.
@example(desitter=True, kappa_val=1.0, temperature=0.0, L=1e-170, L2=1.0, omega0=1.0, mu=0.1)
# c omega0 underflows: the cross dissipator factor divided by 0.
@example(desitter=False, kappa_val=1.0, temperature=1.0, L=1e-200, L2=1.0, omega0=1e-200, mu=0.1)
# omega0 sigma overflows: cos and sin of inf.
@example(desitter=False, kappa_val=1.0, temperature=0.0, L=1e200, L2=1.0, omega0=1e200, mu=0.1)
# a2's mu^2 / (8 pi c) overflows.
@example(desitter=False, kappa_val=1.0, temperature=1.0, L=1e-300, L2=1.0, omega0=1.0, mu=1e150)
# L / kappa underflows to 0 in the far form's log.
@example(desitter=True, kappa_val=1e150, temperature=0.0, L=1e-200, L2=1.0, omega0=1.0, mu=1e-10)
# kappa / L^2 overflows in the far form, whose envelope is a double.
@example(desitter=True, kappa_val=1e150, temperature=0.0, L=1e-80, L2=1.0, omega0=1.0, mu=1e-10)
# 2 omega0 kappa overflows at log(L / kappa) = 0: the far form's phase is inf * 0, a NaN.
@example(desitter=True, kappa_val=1.0, temperature=0.0, L=1.0, L2=2.0, omega0=1e308, mu=0.1)
# An array L / 2 kappa overflows: the array closed form warned before it raised.
@example(desitter=True, kappa_val=1e-150, temperature=0.0, L=1.0, L2=1e300, omega0=1.0, mu=0.1)
def test_a_double_or_the_typed_error(desitter, kappa_val, temperature, L, L2, omega0, mu):
    spacetime = DeSitterPatch(kappa_val) if desitter else ThermalBath(temperature)
    _finite_or_raises(lambda: rcpi_closed(spacetime, L, omega0, mu))
    _finite_or_raises(lambda: rcpi_closed(spacetime, np.array([L, L2]), omega0, mu))
    _finite_or_raises(lambda: rcpi_closed_desitter(L, kappa_val, omega0, mu))
    _finite_or_raises(lambda: rcpi_closed_minkowski(L, omega0, mu))
    for regime in Regime:
        _finite_or_raises(lambda: rcpi_asymptotic(L, kappa_val, omega0, mu, regime))
    _finite_or_raises(lambda: rcpi_quadrature(spacetime, L, omega0, mu), ValueError, QuadratureError)
    _finite_or_raises(lambda: [*vars(build_coefficients(spacetime, omega0, mu, L)).values()])

    family = {"type": "desitter", "alpha": kappa_val, "r": 0.0} if desitter else {"type": "thermal", "temperature": temperature}
    doc = {
        "spacetime": family,
        "atoms": {"omega0": omega0, "mu": mu, "L": L},
        "sweep": {"L_min": L, "L_max": 4.0 * L, "n_points": 5},
        "evolve": {"rho0": "E", "tau_max": 1.0, "stride": 0.5},
    }
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        for command in ("shift", "sweep", "evolve"):
            code, out, err = _run([command, "--config", str(config)])
            assert code in (0, 1, 3), (command, code, err)
            assert "inf" not in out.lower() and "nan" not in out.lower(), (command, out)
            if code == 0:
                assert err == "", (command, err)
            else:
                assert out == "" and err.startswith(("error: ", "numerical failure: ")), (command, err)


@pytest.mark.xfail(strict=True, reason="open: evolve takes no bound on max |R| h yet (ROADMAP item 7)")
@pytest.mark.parametrize("temperature", [1e213, 1e215], ids=["trace-0-at-exit-0", "overflow-warning"])
def test_evolve_past_its_domain(tmp_path, temperature):
    # max |R| h is about 1e30: the propagator loses all probability at exit 0, or warns of an overflow.
    doc = {
        "spacetime": {"type": "thermal", "temperature": temperature},
        "atoms": {"omega0": 1e-47, "mu": 1e-91, "L": 1e280},
        "evolve": {"rho0": "E", "tau_max": 1.0, "stride": 0.5},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, out, err = _run(["evolve", "--config", str(config)])
    if code == 0:
        traces = [float(row.split(",")[5]) for row in out.splitlines()[1:]]
        assert all(abs(t - 1.0) <= 1e-9 for t in traces), traces
    else:
        assert code == 3 and err.startswith("numerical failure: "), err
