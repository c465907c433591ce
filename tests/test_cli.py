import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from rcpi import cli, csvio, discriminator, liouvillian, quadrature, shifts, spectral, validation
from rcpi.cli import main
from rcpi.config import (
    MAX_GRID_POINTS,
    ConfigError,
    EvolveSettings,
    SweepSettings,
    config_from_dict,
    load_config,
)
from rcpi.dicke import DickeState, ket, projector
from rcpi.discriminator import envelope_points, fit_power_law, read_sweep_csv
from rcpi.geometry import DeSitterPatch, ThermalBath
from rcpi.liouvillian import build_coefficients, dissipator_coefficients, evolve
from rcpi.shifts import rcpi_closed
from rcpi.validation import run_validation

DS_DOC = {
    "spacetime": {"type": "desitter", "alpha": 1.0, "r": 0.0},
    "atoms": {"omega0": 1.0, "mu": 0.1, "L": 1.0},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfig:
    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            ({"spacetime": {"type": "waterworld"}}, "spacetime.type"),
            pytest.param({"atoms": {"omega0": 1.0, "mu": 0.1}}, r"atoms\.L is required", id="L-missing"),
            pytest.param(
                {"atoms": {"omega0": 1.0, "mu": 0.1, "L": 1.0, "r": 1.0, "delta_theta": 1.0}},
                r"atoms\.r is not a field of AtomPair", id="atoms-r",
            ),
            ({"sweep": {"L_min": 5.0, "L_max": 1.0, "n_points": 10}}, "L_min < L_max"),
            pytest.param(
                {"evolve": {"rho0": "X", "tau_max": 1.0, "stride": 0.1}},
                r"evolve\.rho0 must be one of G, E, S, A, got 'X'", id="rho0-unknown",
            ),
            ({"bogus": {}}, "unknown"),
            pytest.param(
                {"atoms": {"omega0": "1", "mu": 0.1, "L": 1.0}}, r'atoms\.omega0 must be a number, got "1"', id="omega0-string"
            ),
            pytest.param(
                {"evolve": {"rho0": 1, "tau_max": 1.0, "stride": 0.5}}, r"evolve\.rho0 must be a string, got 1", id="rho0-number"
            ),
            pytest.param(
                {"sweep": {"L_min": 0.1, "L_max": 10.0, "n_points": True}}, r"sweep\.n_points must be an integer, got true",
                id="n_points-true",
            ),
            pytest.param({"spacetime": "desitter"}, "spacetime: expected an object", id="spacetime-string"),
            pytest.param({"spacetime": {"type": "desitter", "alpha": None}}, r"spacetime\.alpha .*null", id="alpha-null"),
            pytest.param(
                {"spacetime": {"type": "thermal", "temperature": [1]}}, r"spacetime\.temperature .*\[1\]",
                id="temperature-list",
            ),
            pytest.param({"spacetime": {"type": "desitter", "alpha": True}}, r"spacetime\.alpha .*true", id="alpha-true"),
            pytest.param({"atoms": {"omega0": False, "mu": 0.1, "L": 1.0}}, r"atoms\.omega0 .*false", id="omega0-false"),
            pytest.param({"atoms": {"omega0": None, "mu": 0.1, "L": 1.0}}, r"atoms\.omega0 .*null", id="omega0-null"),
            pytest.param({"atoms": {"omega0": 1.0, "mu": {}, "L": 1.0}}, r"atoms\.mu .*\{\}", id="mu-object"),
            pytest.param(
                {"evolve": {"rho0": "E", "tau_max": True, "stride": 0.5}}, r"evolve\.tau_max .*true", id="tau_max-true"
            ),
            pytest.param({"evolve": {"rho0": "E", "tau_max": 1.0, "stride": True}}, r"evolve\.stride .*true", id="stride-true"),
            pytest.param(
                {"evolve": {"rho0": "E", "tau_max": 1.0, "stride": 0.0}}, r"evolve\.stride must lie in \(0, tau_max\], got 0\.0",
                id="stride-zero",
            ),
            pytest.param(
                {"evolve": {"rho0": "E", "tau_max": 1.0, "stride": -0.5}}, r"evolve\.stride must lie in \(0, tau_max\]",
                id="stride-negative",
            ),
            pytest.param(
                {"evolve": {"rho0": "E", "tau_max": 1.0, "stride": 1.5}}, r"evolve\.stride must lie in \(0, tau_max\], got 1\.5",
                id="stride-above-tau_max",
            ),
            pytest.param(
                {"spacetime": {"type": "desitter", "alpha": "1.0"}}, r'spacetime\.alpha must be a number, got "1\.0"',
                id="alpha-string",
            ),
            pytest.param({"spacetime": {"type": "desitter", "alpha": 10**400}}, "spacetime: ", id="alpha-400-digits"),
            pytest.param(
                {"spacetime": {"type": "desitter", "alpha": 1.0, "temperature": 3}},
                r"spacetime\.temperature is not a field of DeSitterPatch",
                id="desitter-with-temperature",
            ),
            pytest.param({"spacetime": None}, "spacetime: section is required", id="spacetime-null"),
            pytest.param({"atoms": {"omega0": 10**400, "mu": 0.1, "L": 1.0}}, "atoms: ", id="omega0-400-digits"),
            pytest.param({"output": {"path": 5}}, r"unknown configuration fields: \['output'\]", id="output-path"),
            # c = L sqrt(1 + L^2 / 4 kappa^2) leaves the double range at about L = 1.89e154 for kappa = 1.
            pytest.param(
                {"atoms": {"omega0": 1.0, "mu": 0.1, "L": 1e155}},
                r"^atoms\.L: c = L sqrt\(1 \+ L\^2 / 4 kappa\^2\) is not finite at L=1e\+155, kappa=1\.0$",
                id="atoms.L-c-overflow",
            ),
            pytest.param(
                {"sweep": {"L_min": 1.0, "L_max": 1e160, "n_points": 10}},
                r"^sweep\.L_max: c = L sqrt\(1 \+ L\^2 / 4 kappa\^2\) is not finite at L=1e\+160, kappa=1\.0$",
                id="sweep.L_max-c-overflow",
            ),
            # The envelope mu^2 / (4 pi c) is largest at the smallest separation.
            pytest.param(
                {"atoms": {"omega0": 1.0, "mu": 1e200, "L": 1.0}},
                r"^atoms\.mu: the envelope mu\^2 / \(4 pi c\) is not a double at mu=1e\+200, atoms\.L=1\.0$",
                id="atoms.mu-envelope-overflow",
            ),
            pytest.param(
                {"atoms": {"omega0": 1.0, "mu": 1e150, "L": 1.0}, "sweep": {"L_min": 1e-20, "L_max": 1.0, "n_points": 10}},
                r"^atoms\.mu: the envelope mu\^2 / \(4 pi c\) is not a double at mu=1e\+150, sweep\.L_min=1e-20$",
                id="atoms.mu-envelope-overflow-at-sweep.L_min",
            ),
        ],
    )
    def test_validation_messages(self, mutation, fragment):
        doc = {**DS_DOC, **mutation}
        with pytest.raises(ConfigError, match=fragment):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "section, field, value, name",
        [
            ("tolerances", "ode_rtol", 1e-10, "ode_rtol"),
            ("output", "format", "csv", "'output'"),
            ("atoms", "r", 1.0, r"atoms\.r is not a field"),
            ("atoms", "delta_theta", 1.0, r"atoms\.delta_theta is not a field"),
            ("sweep", "spacing", "linear", "sweep.spacing must be 'log', got 'linear'"),
        ],
        ids=["tolerances.ode_rtol", "output.format", "atoms.r", "atoms.delta_theta", "sweep.spacing-linear"],
    )
    def test_removed_field_is_rejected(self, tmp_path, capsys, section, field, value, name):
        # A removed field, field value or section is rejected by name: the separation is L alone,
        # and a sweep is log-spaced.
        base = {**DS_DOC, "sweep": {"L_min": 0.1, "L_max": 10.0, "n_points": 10}}
        doc = {**base, section: {**base.get(section, {}), field: value}}
        with pytest.raises(ConfigError, match=name):
            config_from_dict(doc)
        cfg = write_config(tmp_path, {**doc, "evolve": {"rho0": "E", "tau_max": 1.0, "stride": 0.5}})
        assert main(["evolve", "--config", cfg]) == 1
        assert re.search(name, capsys.readouterr().err)

    @pytest.mark.parametrize(
        "command, section, field, value",
        [
            ("evolve", "evolve", "tau_max", math.inf),
            ("sweep", "sweep", "n_points", 10.5),
            ("shift", "tolerances", "quad_abs_tol", math.nan),
            ("shift", "tolerances", "quad_abs_tol", math.inf),
            ("shift", "atoms", "mu", math.nan),
            ("evolve", "atoms", "omega0", math.inf),
            ("shift", "atoms", "L", math.inf),
            ("shift", "atoms", "L", -1.0),
            ("sweep", "atoms", "L", 0.0),
            ("sweep", "atoms", "L", math.nan),
            ("sweep", "sweep", "L_min", math.nan),
            ("sweep", "sweep", "L_max", math.inf),
            ("sweep", "sweep", "n_points", 10**15),
            ("evolve", "evolve", "tau_max", 1e15),
            ("evolve", "evolve", "stride", 1e-300),
            ("shift", "atoms", "L", None),
            ("evolve", "evolve", "stride", True),
            ("shift", "tolerances", "quad_rel_tol", [1e-9]),
            ("shift", "atoms", "L", 1e155),
            ("evolve", "atoms", "L", 1e155),
            ("sweep", "sweep", "L_max", 1e160),
            ("shift", "atoms", "mu", 1e200),
            ("sweep", "atoms", "mu", 1e200),
            ("evolve", "atoms", "mu", 1e200),
        ],
        ids=[
            "evolve.tau_max-inf", "sweep.n_points-fractional", "tolerances.quad_abs_tol-nan", "tolerances.quad_abs_tol-inf",
            "atoms.mu-nan", "atoms.omega0-inf", "atoms.L-inf", "atoms.L-negative", "atoms.L-zero", "atoms.L-nan",
            "sweep.L_min-nan", "sweep.L_max-inf",
            "sweep.n_points-1e15", "evolve.tau_max-1e15", "evolve.stride-1e-300", "atoms.L-null",
            "evolve.stride-true", "tolerances.quad_rel_tol-list",
            "atoms.L-c-overflow-shift", "atoms.L-c-overflow-evolve", "sweep.L_max-c-overflow",
            "atoms.mu-overflow-shift", "atoms.mu-overflow-sweep", "atoms.mu-overflow-evolve",
        ],
    )
    def test_bad_value_exits_with_usage_error(self, tmp_path, capsys, command, section, field, value):
        # json.dumps writes inf and nan as Infinity and NaN, which json.load reads back.
        base = {
            "atoms": DS_DOC["atoms"],
            "evolve": {"rho0": "E", "tau_max": 1.0, "stride": 0.5},
            "sweep": {"L_min": 0.1, "L_max": 10.0, "n_points": 10},
        }
        cfg = write_config(tmp_path, {**DS_DOC, section: {**base.get(section, {}), field: value}})
        assert main([command, "--config", cfg]) == 1
        assert f"{section}.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, values, field",
        [
            ("sweep", {"n_points": MAX_GRID_POINTS}, None),
            ("sweep", {"n_points": MAX_GRID_POINTS + 1}, "n_points"),
            ("sweep", {"n_points": 10**15}, "n_points"),
            # floor(tau_max / stride) + 1 grid points.
            ("evolve", {"tau_max": MAX_GRID_POINTS - 1.0, "stride": 1.0}, None),
            ("evolve", {"tau_max": float(MAX_GRID_POINTS), "stride": 1.0}, "stride"),
            ("evolve", {"tau_max": 1e15, "stride": 1.0}, "stride"),
            ("evolve", {"tau_max": 1.0, "stride": 1e-300}, "stride"),
            ("evolve", {"tau_max": 1e300, "stride": 5e-324}, "stride"),
        ],
        ids=["sweep-at-cap", "sweep-over-cap", "sweep-1e15", "evolve-at-cap", "evolve-over-cap",
             "evolve-1e15", "evolve-stride-1e-300", "evolve-infinite-ratio"],
    )
    def test_grid_size_is_capped_at_load(self, section, values, field):
        # Only loaded, never run: a grid at the cap takes gigabytes.
        base = {"sweep": {"L_min": 0.1, "L_max": 10.0, "n_points": 10}, "evolve": {"rho0": "E", "tau_max": 1.0, "stride": 0.5}}
        doc = {**DS_DOC, section: {**base[section], **values}}
        if field is None:
            config_from_dict(doc)
        else:
            with pytest.raises(ConfigError, match=rf"{section}\.{field}.*{MAX_GRID_POINTS}"):
                config_from_dict(doc)

    def test_evolve_grid_appends_tau_max(self):
        # The stride misses tau_max = 10, so the grid ends 9.9, 10.
        tau = EvolveSettings(rho0="E", tau_max=10.0, stride=0.3).grid()
        np.testing.assert_array_equal(tau, np.append(np.arange(34) * 0.3, 10.0))
        np.testing.assert_array_equal(EvolveSettings(rho0="E", tau_max=1.5, stride=0.5).grid(), [0.0, 0.5, 1.0, 1.5])

    @pytest.mark.parametrize("tau_max, stride, n", [(3.0, 1.0000000002, 4), (0.3, 0.1, 4)])
    def test_evolve_grid_ends_at_tau_max(self, tau_max, stride, n):
        # The allowance that keeps tau_max as a grid point, or the rounding of k * stride,
        # can carry the last point past tau_max; it is then tau_max itself.
        tau = EvolveSettings(rho0="E", tau_max=tau_max, stride=stride).grid()
        assert (tau.size, tau[-1]) == (n, tau_max)
        assert np.all(np.diff(tau) > 0)

    def test_sweep_grid_is_log_spaced(self):
        L = SweepSettings(1.0, 100.0, 3).grid()
        assert (L[0], L[-1]) == (1.0, 100.0)
        np.testing.assert_allclose(L, [1.0, 10.0, 100.0], rtol=1e-15)

    def test_integer_field_gives_the_float_result(self, tmp_path, capsys):
        outs = []
        for alpha in (1, 1.0):
            cfg = write_config(tmp_path, {**DS_DOC, "spacetime": {"type": "desitter", "alpha": alpha}})
            assert main(["shift", "--config", cfg]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_top_level_array_is_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="configuration document must be a JSON object"):
            config_from_dict([DS_DOC])
        assert main(["shift", "--config", write_config(tmp_path, [DS_DOC])]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    def test_json_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"spacetime\": }\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))


class TestShiftCommand:
    @pytest.mark.parametrize(
        "L, regime",
        [(0.05, "near (flat-space law applies)"), (1.0, "crossover"), (20.0, "far (curvature-dominated decay)")],
        ids=["near", "crossover", "far"],
    )
    def test_closed_and_quadrature_agree(self, tmp_path, capsys, L, regime):
        # kappa = 1, so L is L / kappa: below 0.1 is near, above 10 far.
        cfg = write_config(tmp_path, {**DS_DOC, "atoms": {**DS_DOC["atoms"], "L": L}})
        assert main(["shift", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dE_S_quadrature"] == pytest.approx(doc["dE_S_closed"], rel=1e-6)
        assert doc["dE_A_closed"] == -doc["dE_S_closed"]
        assert doc["L_over_kappa"] == L
        assert doc["regime"] == regime
        assert doc["quadrature_error_estimate"] > 0

    def test_regime_reads_L_over_kappa(self, tmp_path, capsys):
        # kappa = 4: L / kappa = 0.075 is near, where L kappa = 1.2 would be the crossover.
        doc = {**DS_DOC, "spacetime": {"type": "desitter", "alpha": 4.0, "r": 0.0}, "atoms": {**DS_DOC["atoms"], "L": 0.3}}
        assert main(["shift", "--config", write_config(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["kappa"], out["L_over_kappa"], out["regime"]) == (4.0, 0.3 / 4.0, "near (flat-space law applies)")

    def test_thermal_shift_is_temperature_free(self, tmp_path, capsys):
        outs = []
        for T in (0.3, 3.0):
            doc = {
                "spacetime": {"type": "thermal", "temperature": T},
                "atoms": {"omega0": 1.0, "mu": 0.1, "L": 1.0},
            }
            cfg = write_config(tmp_path, doc, f"t{T}.json")
            assert main(["shift", "--config", cfg]) == 0
            outs.append(json.loads(capsys.readouterr().out))
        assert outs[0]["dE_S_closed"] == outs[1]["dE_S_closed"]
        assert outs[0]["dE_S_quadrature"] == outs[1]["dE_S_quadrature"]

    def test_zero_crossing_reported_with_envelope_context(self, tmp_path, capsys):
        L_star = 2.0 * math.sinh(math.pi / 4.0)
        doc = {
            "spacetime": {"type": "desitter", "alpha": 1.0, "r": 0.0},
            "atoms": {"omega0": 1.0, "mu": 0.1, "L": L_star},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["shift", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        envelope = 0.1**2 / (4.0 * math.pi * L_star * math.sqrt(1.0 + (L_star / 2.0) ** 2))
        assert abs(out["dE_S_closed"]) < 1e-12 * envelope


    def test_json_is_the_only_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DS_DOC)
        assert main(["shift", "--config", cfg]) == 0
        default = capsys.readouterr().out
        assert main(["shift", "--config", cfg, "--format", "json"]) == 0
        assert capsys.readouterr().out == default
        assert main(["shift", "--config", cfg, "--format", "csv"]) == 1
        capsys.readouterr()


class TestSweepCommand:
    def test_deterministic_and_antisymmetric(self, tmp_path, capsys):
        doc = {**DS_DOC, "sweep": {"L_min": 0.01, "L_max": 1000.0, "n_points": 200, "spacing": "log"}}
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--bogus"]) == 1  # a usage error leaves the next call as it was
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "L,dE_S,dE_A,envelope"
        assert len(lines) == 201
        Ls = []
        for line in lines[1:]:
            L, s, a, flag = line.split(",")
            assert float(a) == -float(s)
            assert flag in ("0", "1")
            Ls.append(float(L))
        assert Ls == sorted(Ls)

    def test_missing_sweep_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DS_DOC)
        assert main(["sweep", "--config", cfg]) == 1
        assert "sweep" in capsys.readouterr().err


class TestEvolveCommand:
    def test_missing_evolve_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DS_DOC)
        assert main(["evolve", "--config", cfg]) == 1
        assert "evolve: section is required for the evolve command" in capsys.readouterr().err

    def test_trajectory_columns_and_trace(self, tmp_path):
        doc = {
            "spacetime": {"type": "desitter", "alpha": 1.0, "r": 0.0},
            "atoms": {"omega0": 1.0, "mu": 0.5, "L": 1.0},
            "evolve": {"rho0": "E", "tau_max": 10.0, "stride": 0.5},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tau,pG,pE,pS,pA,trace,min_eig"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.max(np.abs(rows[:, 5] - 1.0)) <= 1e-9
        # initial |E> decays monotonically at early times
        assert np.all(np.diff(rows[:6, 2]) < 0)

    def test_subradiant_initial_state_survives(self, tmp_path):
        doc = {
            "spacetime": {"type": "desitter", "alpha": 1.0, "r": 0.0},
            "atoms": {"omega0": 1.0, "mu": 0.5, "L": 1e-3},
            "evolve": {"rho0": "A", "tau_max": 90.0, "stride": 30.0},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        last = out.read_text().strip().splitlines()[-1].split(",")
        assert float(last[4]) >= 0.999

    @pytest.mark.parametrize(
        "spacetime, config",
        [
            (DeSitterPatch(1.0, 0.4), {"type": "desitter", "alpha": 1.0, "r": 0.4}),
            (ThermalBath(0.7), {"type": "thermal", "temperature": 0.7}),
        ],
        ids=["desitter", "thermal"],
    )
    @pytest.mark.parametrize("rho0", ["G", "E", "S", "A"])
    def test_populations_follow_dicke_rate_equation(self, tmp_path, monkeypatch, spacetime, config, rho0):
        # A Dicke-diagonal start stays diagonal, so the populations (G, E, S, A) obey the
        # collective rate equation (Ficek and Tanas, Phys. Rep. 372, 369, 2002).  Downward
        # rates through S and A are 2 [(at1 + bt1) +/- (at2 + bt2)], upward ones
        # 2 [(at1 - bt1) +/- (at2 - bt2)].  The grid is the command's, with a short last step.
        doc = {
            "spacetime": config,
            "atoms": {"omega0": 1.0, "mu": 0.5, "L": 0.8},
            "evolve": {"rho0": rho0, "tau_max": 60.0, "stride": 0.7},
        }
        captured = []

        def capture(*args):
            captured.append(evolve(*args))
            return captured[-1]

        monkeypatch.setattr(liouvillian, "evolve", capture)
        assert main(["evolve", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "traj.csv")]) == 0
        (traj,) = captured
        at1, bt1, at2, bt2 = dissipator_coefficients(spacetime, 1.0, 0.5, 0.8)
        down_s, down_a = 2.0 * (at1 + bt1 + at2 + bt2), 2.0 * (at1 + bt1 - at2 - bt2)
        up_s, up_a = 2.0 * (at1 - bt1 + at2 - bt2), 2.0 * (at1 - bt1 - at2 + bt2)
        rates = np.array([  # d/dtau (pG, pE, pS, pA)
            [-up_s - up_a, 0.0, down_s, down_a],
            [0.0, -down_s - down_a, up_s, up_a],
            [up_s, down_s, -down_s - up_s, 0.0],
            [up_a, down_a, 0.0, -down_a - up_a],
        ])
        p0 = np.array([float(rho0 == s) for s in "GESA"])
        expected = np.array([expm(rates * t) @ p0 for t in traj.tau])
        assert traj.tau[-1] == 60.0 and traj.tau[-1] - traj.tau[-2] < 0.7 - 1e-9
        assert np.max(np.abs(traj.populations - expected)) <= 1e-10
        kets = np.array([ket(DickeState(s)) for s in "GESA"])
        dicke = np.einsum("ki,nij,lj->nkl", kets.conj(), traj.rho, kets)
        assert np.max(np.abs(dicke - dicke * np.eye(4))) <= 1e-12


def per_row_csv(header, rows) -> bytes:
    """Reference writer: csv.writer with one format(x, ".17g") call per value, as the files were first written."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(x, ".17g") if isinstance(x, float) else str(x) for x in row])
    return buf.getvalue().encode()


class TestCsvBytes:
    @pytest.mark.parametrize(
        "spacetime, config",
        [
            (DeSitterPatch(1.3, 0.4), {"type": "desitter", "alpha": 1.3, "r": 0.4}),
            (ThermalBath(0.7), {"type": "thermal", "temperature": 0.7}),
        ],
        ids=["desitter", "thermal"],
    )
    def test_sweep_matches_per_row_writer(self, tmp_path, spacetime, config):
        doc = {
            "spacetime": config,
            "atoms": {"omega0": 7.0, "mu": 0.1, "L": 1.0},
            "sweep": {"L_min": 0.01, "L_max": 1000.0, "n_points": 1500, "spacing": "log"},
        }
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        L = np.geomspace(0.01, 1000.0, 1500).tolist()
        s = rcpi_closed(spacetime, np.array(L), 7.0, 0.1, DickeState.S).tolist()
        m = [abs(v) for v in s]
        flags = [0 < i < len(m) - 1 and m[i] >= m[i - 1] and m[i] >= m[i + 1] and m[i] > 0 for i in range(len(m))]
        expected = per_row_csv(["L", "dE_S", "dE_A", "envelope"], [(Li, v, -v, int(f)) for Li, v, f in zip(L, s, flags)])
        assert sum(flags) > 10
        assert out.read_bytes() == expected

    def test_trajectory_with_short_last_step_matches_per_row_writer(self, tmp_path):
        doc = {
            "spacetime": {"type": "desitter", "alpha": 1.0, "r": 0.0},
            "atoms": {"omega0": 1.0, "mu": 0.5, "L": 1.0},
            "evolve": {"rho0": "S", "tau_max": 10.0, "stride": 0.3},
        }
        out = tmp_path / "traj.csv"
        assert main(["evolve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        gen = build_coefficients(DeSitterPatch(1.0, 0.0), 1.0, 0.5, 1.0)
        traj = evolve(projector(DickeState.S), gen, np.append(np.arange(34) * 0.3, 10.0))
        rows = zip(traj.tau.tolist(), *traj.populations.T.tolist(), traj.trace.tolist(), traj.min_eigenvalue.tolist())
        assert out.read_bytes() == per_row_csv(["tau", "pG", "pE", "pS", "pA", "trace", "min_eig"], rows)


def test_csv_written_in_blocks_matches_per_row_writer(monkeypatch):
    # Blocks of 7 rows: 23 rows are three full blocks and a partial one.
    monkeypatch.setattr(csvio, "_BLOCK_ROWS", 7)
    cols = np.random.default_rng(1).standard_normal((7, 23))
    for n in (23, 21, 0):
        c = cols[:, :n]
        buf = io.StringIO()
        liouvillian.Trajectory(tau=c[0], populations=c[1:5].T, trace=c[5], min_eigenvalue=c[6]).to_csv(buf)
        assert buf.getvalue().encode() == per_row_csv(["tau", "pG", "pE", "pS", "pA", "trace", "min_eig"], c.T.tolist())


# Signed zeros, infinities, NaNs of both signs, the smallest subnormal and the
# largest magnitudes: the values whose negated text is not "-" + text.
EDGE_VALUES = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 1e308, -1e308, 0.25, -1.5, 3.0]


@pytest.mark.parametrize("n", [26, 21, 0], ids=["26-rows", "21-rows", "no-rows"])
@pytest.mark.parametrize("block_rows", [csvio._BLOCK_ROWS, 7])
def test_sweep_of_edge_values_matches_per_row_writer(monkeypatch, block_rows, n):
    # With blocks of 7, 26 rows are three full blocks and a partial one, 21 rows exactly three blocks.
    monkeypatch.setattr(csvio, "_BLOCK_ROWS", block_rows)
    s = (EDGE_VALUES + EDGE_VALUES[::-1])[:n]
    L = s[::-1]
    buf = io.StringIO()
    discriminator.write_sweep_csv(buf, L, s)
    m = [abs(v) for v in s]
    flags = [0 < i < len(m) - 1 and m[i] > m[i - 1] and m[i] >= m[i + 1] for i in range(len(m))]
    assert n == 0 or 0 < sum(flags)
    rows = [(Li, v, -v, int(f)) for Li, v, f in zip(L, s, flags)]
    assert buf.getvalue().encode() == per_row_csv(["L", "dE_S", "dE_A", "envelope"], rows)


class TestDiscriminateCommand:
    def run_pipeline(self, tmp_path, capsys, spacetime, omega0, L_min, L_max, extra=()):
        doc = {
            "spacetime": spacetime,
            "atoms": {"omega0": omega0, "mu": 0.1, "L": 1.0},
            "sweep": {"L_min": L_min, "L_max": L_max, "n_points": 800, "spacing": "log"},
        }
        cfg = write_config(tmp_path, doc)
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(csv_path)]) == 0
        code = main(["discriminate", str(csv_path), *extra])
        return code, json.loads(capsys.readouterr().out)

    def test_desitter_far_pipeline(self, tmp_path, capsys):
        code, doc = self.run_pipeline(
            tmp_path, capsys, {"type": "desitter", "alpha": 1.0, "r": 0.0}, 10.0, 30.0, 1000.0
        )
        assert code == 0
        assert doc["verdict"] == "DeSitterFar"

    def test_thermal_pipeline_all_temperatures(self, tmp_path, capsys):
        for T in (0.0, 0.1, 1.0, 10.0):
            code, doc = self.run_pipeline(
                tmp_path, capsys, {"type": "thermal", "temperature": T}, 1.0, 10.0, 100.0
            )
            assert code == 0
            assert doc["verdict"] == "FlatOrThermal"

    def test_strict_mode_on_crossover(self, tmp_path, capsys):
        code, doc = self.run_pipeline(
            tmp_path,
            capsys,
            {"type": "desitter", "alpha": 1.0, "r": 0.0},
            10.0,
            0.3,
            10.0,
            extra=("--strict",),
        )
        assert doc["verdict"] == "Indeterminate"
        assert code == 2
        # The next call of the same process parses its own flags: without --strict the verdict is no failure.
        assert main(["discriminate", str(tmp_path / "sweep.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "Indeterminate"

    @pytest.fixture
    def far_sweep(self, tmp_path):
        """A de Sitter far-zone sweep CSV and the (L, |dE_S|) envelope that discriminate fits."""
        doc = {**DS_DOC, "atoms": {"omega0": 10.0, "mu": 0.1, "L": 1.0},
               "sweep": {"L_min": 30.0, "L_max": 1000.0, "n_points": 800, "spacing": "log"}}
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(csv_path)]) == 0
        return str(csv_path), envelope_points(*read_sweep_csv(csv_path))

    @pytest.mark.parametrize("lmin, lmax", [(50.0, 500.0), (50.0, None), (None, 500.0)], ids=["both", "lmin-only", "lmax-only"])
    def test_window_bounds(self, far_sweep, capsys, lmin, lmax):
        # A bound left out is taken from that end of the envelope.
        csv_path, (env_L, env_v) = far_sweep
        argv = ["discriminate", csv_path]
        if lmin is not None:
            argv += ["--lmin", str(lmin)]
        if lmax is not None:
            argv += ["--lmax", str(lmax)]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        window = [env_L.min() if lmin is None else lmin, env_L.max() if lmax is None else lmax]
        assert doc["window"] == window
        inside = (env_L >= window[0]) & (env_L <= window[1])
        assert 4 <= inside.sum() < env_L.size
        assert doc["exponent"] == fit_power_law(env_L, env_v, tuple(window)).exponent
        assert doc["verdict"] == "DeSitterFar"

    @pytest.mark.parametrize("flag", ["--lmax=inf", "--lmax=1e400", "--lmax=nan", "--lmin=-inf"])
    def test_non_finite_window_bound_is_a_usage_error(self, far_sweep, capsys, flag):
        # An infinite bound once went into the verdict as "window": [..., Infinity], which is not JSON.
        assert main(["discriminate", far_sweep[0], flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag.split('=')[0]}: must be finite" in captured.err

    def test_verdict_json_rejects_a_non_finite_window(self, far_sweep):
        fit = fit_power_law(*far_sweep[1], (None, math.inf))
        with pytest.raises(ValueError, match="not JSON compliant"):
            discriminator.classify(fit).to_json()

    def test_window_with_too_few_envelope_points(self, far_sweep, capsys):
        csv_path, (env_L, _) = far_sweep
        lo, hi = (env_L[4] + env_L[5]) / 2, (env_L[7] + env_L[8]) / 2  # three envelope points between
        assert main(["discriminate", csv_path, "--lmin", str(lo), "--lmax", str(hi)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: need at least 4 envelope points inside the window")

    def test_header_only_sweep_fails_quietly(self, tmp_path, capsys):
        # An empty sweep is an input error, and no warning of the CSV parser reaches stderr.
        path = tmp_path / "sweep.csv"
        path.write_text("L,dE_S,dE_A,envelope\r\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["discriminate", str(path)]) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr() == ("", "error: need at least 5 samples to look for an envelope\n")

    @pytest.mark.parametrize("bad_row", [False, True], ids=["sweep", "bad-row"])
    def test_sweep_read_from_a_pipe(self, far_sweep, bad_row):
        # /dev/stdin on a pipe cannot seek back: it is read into memory once, and a bad row is still named.
        csv_path, _ = far_sweep
        rows = Path(csv_path).read_bytes().split(b"\r\n")
        if bad_row:
            rows[1] = b"x," + rows[1].split(b",", 1)[1]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "rcpi", "discriminate", "/dev/stdin"], input=b"\r\n".join(rows), env=env, capture_output=True
        )
        if bad_row:
            assert (proc.returncode, proc.stdout) == (1, b"")
            assert proc.stderr == b"error: bad row 2: could not convert string to float: 'x'\n"
        else:
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["verdict"] == "DeSitterFar"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("L,dE_S,dE_A\n1.0,0.1,nope\n")
        assert main(["discriminate", str(bad)]) == 1
        assert "row 2" in capsys.readouterr().err


def _negate_at2(dissipator_coefficients):
    return lambda *args: np.multiply(dissipator_coefficients(*args), [1.0, 1.0, -1.0, 1.0])


# One break per check of `validate`: (check, module, name, a function of the original that returns the broken one).
_BREAKS = [
    ("kms_desitter", liouvillian, "dissipator_coefficients", _negate_at2),
    ("kms_thermal", liouvillian, "dissipator_coefficients", _negate_at2),
    ("temperature_decomposition", validation, "local_temperature",
     lambda f: lambda p: f(p).replace(T_a=2.0 * f(p).T_a)),
    ("oracle_equivalence", quadrature, "response_shape", lambda f: lambda *a: tuple(1.001 * x for x in f(*a))),
    # lambda / (1 - e^{-beta lambda}) less its vacuum term lambda: the occupation part alone.
    ("thermal_temperature_independence", spectral, "_planck_weight", lambda f: lambda lam, b: f(lam, b) - lam),
    ("asymptotic_regimes", shifts, "rcpi_asymptotic",
     lambda f: lambda *a: f(*a) * (2.0 if a[4] is shifts.Regime.FAR else 1.0)),
    ("flat_limit", shifts, "_desitter_shape", lambda f: lambda *a: (1.001 * f(*a)[0], f(*a)[1])),
    ("antisymmetry", shifts, "_entangled_sign", lambda f: lambda state: -f(state)),
    # G and E swapped: rows and columns (G, E, S, A) read as (E, G, S, A).
    ("lindblad_generator", liouvillian, "rate_matrix", lambda f: lambda g: f(g)[[1, 0, 2, 3]][:, [1, 0, 2, 3]]),
    ("discriminator", discriminator, "DESITTER_BAND", lambda band: (band[0] + 0.5, band[1] + 0.5)),
    ("lindblad_trajectories", liouvillian, "_fill_run", lambda f: lambda y, p: f(y, p * (1.0 + 1e-6))),
]


class TestValidateCommand:
    def test_battery_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["validate", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert out.read_text().endswith("}\n")
        assert [c["name"] for c in report["checks"]] == [
            "kms_desitter",
            "kms_thermal",
            "temperature_decomposition",
            "oracle_equivalence",
            "thermal_temperature_independence",
            "asymptotic_regimes",
            "flat_limit",
            "antisymmetry",
            "lindblad_generator",
            "discriminator",
            "lindblad_trajectories",
        ]
        # Every clause names the two routes it compares.
        assert all(" vs " in clause for c in report["checks"] for clause in c["detail"].split("; "))
        times = [c["elapsed_seconds"] for c in report["checks"]]
        assert all(t >= 0.0 for t in times) and sum(times) <= report["elapsed_seconds"] + 1e-3

    def test_level_option_is_gone(self, capsys):
        assert main(["validate", "--level", "quick"]) == 1
        assert "--level" in capsys.readouterr().err

    def test_report_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["validate", "--out", str(a)]) == 0
        assert main(["validate", "--out", str(b)]) == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        for report in (da, db):
            report.pop("elapsed_seconds")
            for check in report["checks"]:
                check.pop("elapsed_seconds")
        assert da == db

    @pytest.mark.parametrize(
        "w_coth",
        [lambda w, T: 2.0 * T if T else w, lambda w, T: w / math.tanh(w / T) if T else w],
        ids=["high-temperature-limit", "coth-of-w-over-T"],
    )
    def test_detects_a_wrong_dissipator(self, monkeypatch, w_coth):
        monkeypatch.setattr(liouvillian, "_w_coth", w_coth)
        report = run_validation()
        assert report["passed"] is False
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert {"kms_desitter", "kms_thermal"} <= failed

    def test_quadrature_window_is_computed_not_restated(self, monkeypatch, tmp_path):
        # Only the stretches outside the pole window are in closed form: a window off by 1e-4 must fail the check.
        window = quadrature._window

        def scaled_window(a, d):
            w, conjugate, error = window(a, d)
            return w * (1.0 + 1e-4), conjugate, error

        monkeypatch.setattr(quadrature, "_window", scaled_window)
        out = tmp_path / "report.json"
        assert main(["validate", "--out", str(out)]) == 2
        assert "oracle_equivalence" in {c["name"] for c in json.loads(out.read_text())["checks"] if not c["passed"]}

    @pytest.mark.parametrize("check, module, name, breaking", _BREAKS, ids=[b[0] for b in _BREAKS])
    def test_a_broken_route_fails_its_check(self, monkeypatch, check, module, name, breaking):
        # Each check compares two routes; breaking one of them must fail it.
        monkeypatch.setattr(module, name, breaking(getattr(module, name)))
        report = run_validation()
        assert check in {c["name"] for c in report["checks"] if not c["passed"]}


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["shift"]) == 1  # missing --config
        err = capsys.readouterr().err
        assert err.startswith("usage: rcpi shift [-h] --config CONFIG"), err
        assert err.endswith("error: the following arguments are required: --config\n"), err

    def test_missing_config_file(self, capsys):
        assert main(["shift", "--config", "/nonexistent/cfg.json"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [["discriminate", "{dir}"], ["shift", "--config", "{dir}"], ["validate", "--out", "{dir}"]],
        ids=["discriminate-input", "config", "validate-out"],
    )
    def test_directory_path_is_a_usage_error(self, tmp_path, capsys, argv):
        assert main([a.format(dir=tmp_path) for a in argv]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_main_builds_no_parser(self, monkeypatch, capsys):
        # The parser is built once, at import; a call only parses.
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        assert main(["shift"]) == 1
        assert main(["discriminate", "/nonexistent/sweep.csv"]) == 1
        assert built == []
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["shift", "sweep", "evolve", "discriminate", "validate"])
    def test_one_parse_per_command(self, tmp_path, monkeypatch, capsys, command):
        # The command's own parser takes the words after its name; the top-level parser does not parse them first.
        doc = {
            **DS_DOC,
            "atoms": {"omega0": 10.0, "mu": 0.1, "L": 1.0},
            "sweep": {"L_min": 30.0, "L_max": 1000.0, "n_points": 2000},
            "evolve": {"rho0": "E", "tau_max": 1.0, "stride": 0.5},
        }
        cfg, sweep = write_config(tmp_path, doc), str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config", cfg, "--out", sweep]) == 0
        monkeypatch.setattr(validation, "run_validation", lambda: {"passed": True, "checks": []})
        parses = []
        parse = cli._Parser.parse_known_args

        def counting_parse(self, *args, **kwargs):
            parses.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_known_args", counting_parse)
        argv = {"discriminate": [sweep], "validate": []}.get(command, ["--config", cfg])
        assert main([command, *argv, "--out", str(tmp_path / "out")]) == 0
        assert parses == [f"rcpi {command}"]

    def test_an_argv_that_names_no_command(self, capsys):
        # The top-level parser takes an argv whose first word is no command: none, an unknown one, or --version.
        assert main([]) == 1
        assert capsys.readouterr().err.endswith("error: the following arguments are required: command\n")
        assert main(["bogus"]) == 1
        assert "error: argument command: invalid choice: 'bogus'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exited:
            main(["--version"])
        assert exited.value.code == 0
        assert capsys.readouterr().out == f"rcpi {cli.__version__}\n"

    def test_unknown_option_prints_the_usage_of_its_command(self, tmp_path, capsys):
        assert main(["sweep", "--config", write_config(tmp_path, DS_DOC), "--bogus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: rcpi sweep [-h] --config CONFIG"), err
        assert err.endswith("error: unrecognized arguments: --bogus\n"), err

    def test_bad_config_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"spacetime": {"type": "desitter", "alpha": -1.0}, "atoms": {"omega0": 1, "mu": 1, "L": 1}})
        assert main(["shift", "--config", cfg]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_numerical_failure(self, tmp_path, capsys):
        # Unreachable quadrature tolerances surface as exit code 3.
        doc = {**DS_DOC, "tolerances": {"quad_abs_tol": 1e-30, "quad_rel_tol": 1e-30}}
        cfg = write_config(tmp_path, doc)
        assert main(["shift", "--config", cfg]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("omega0, L, code", [(1e7, 1e8, 3), (1e3, 1e12, 0)], ids=["c-1e8", "c-1e12"])
    def test_phase_1e15(self, tmp_path, capsys, omega0, L, code):
        # sigma omega0 = 1e15: the estimate's a-scale term, about u a, misses the target c abs_tol / 2 at c = 1e8
        # and meets it at c = 1e12.
        doc = {"spacetime": {"type": "thermal", "temperature": 0.0}, "atoms": {"omega0": omega0, "mu": 0.1, "L": L}}
        assert main(["shift", "--config", write_config(tmp_path, doc)]) == code
        out, err = capsys.readouterr()
        if code:
            assert "requested tolerance not met" in err
        else:
            d = json.loads(out)
            assert abs(d["dE_S_quadrature"] - d["dE_S_closed"]) <= d["quadrature_error_estimate"]

    @pytest.mark.parametrize("command", ["shift", "sweep", "evolve"])
    def test_phase_past_the_double_range(self, tmp_path, capsys, command):
        # omega0 sigma = 1e400 is no double, though the envelope mu^2 / (4 pi c) = 8e-205 is: an error naming
        # the phase, not a numpy warning, an envelope message or "math domain error".
        doc = {
            "spacetime": {"type": "thermal", "temperature": 0.0},
            "atoms": {"omega0": 1e200, "mu": 0.1, "L": 1e200},
            "sweep": {"L_min": 1e199, "L_max": 1e200, "n_points": 3},
            "evolve": {"rho0": "E", "tau_max": 1.0, "stride": 0.5},
        }
        assert main([command, "--config", write_config(tmp_path, doc)]) == 1
        assert capsys.readouterr() == ("", "error: the phase omega0 sigma is not a double: inf\n")

    @pytest.mark.parametrize(
        "omega0, L, code",
        [(1e-300, 1.0, 0), (1.0, 1e-300, 0), (1e-300, 1e-300, 3), (1e10, 1e-310, 3), (1.0, 1e-310, 3)],
        ids=["a-1e-300", "a-and-c-1e-300", "a-underflows-to-0", "2-over-c-overflows", "a-subnormal"],
    )
    def test_tiny_phase_or_separation(self, tmp_path, capsys, omega0, L, code):
        # a = sigma omega0 or c = L near the bottom of the double range: a value within its estimate, or exit 3.
        doc = {"spacetime": {"type": "thermal", "temperature": 0.5}, "atoms": {"omega0": omega0, "mu": 0.1, "L": L}}
        assert main(["shift", "--config", write_config(tmp_path, doc)]) == code
        out, err = capsys.readouterr()
        assert "Infinity" not in out and "NaN" not in out
        if code == 0:
            report = json.loads(out)
            assert abs(report["dE_S_quadrature"] - report["dE_S_closed"]) <= report["quadrature_error_estimate"]
        else:
            assert err.startswith("numerical failure: ")


class TestOutputDestination:
    @pytest.mark.parametrize("command", ["shift", "sweep", "evolve", "discriminate"])
    def test_stdout_and_out_file_hold_the_same_bytes(self, tmp_path, capsys, command):
        doc = {
            **DS_DOC,
            "atoms": {"omega0": 10.0, "mu": 0.1, "L": 1.0},
            "sweep": {"L_min": 30.0, "L_max": 1000.0, "n_points": 400},
            "evolve": {"rho0": "S", "tau_max": 1.0, "stride": 0.25},
        }
        cfg = write_config(tmp_path, doc)
        sweep = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(sweep)]) == 0
        argv = ["discriminate", str(sweep)] if command == "discriminate" else [command, "--config", cfg]
        assert main(argv) == 0
        stdout = capsys.readouterr().out.encode()
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout
        # A JSON document ends with exactly one newline.
        assert stdout.endswith(b"\r\n" if command in ("sweep", "evolve") else b"}\n")

    def test_failing_command_leaves_the_out_file_alone(self, tmp_path, capsys):
        # The file is opened only once the result is computed.
        out = tmp_path / "out.json"
        out.write_text("kept")
        doc = {**DS_DOC, "tolerances": {"quad_abs_tol": 1e-30, "quad_rel_tol": 1e-30}}
        assert main(["shift", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
        assert out.read_text() == "kept"
        capsys.readouterr()


class TestImportSurface:
    def test_module_entry_point_reports_the_package_version(self, tmp_path):
        # `python -m rcpi` runs rcpi/__main__.py; its version is the one pyproject.toml declares.
        src = Path(cli.__file__).resolve().parents[1]
        version = re.search(r'^version = "(.+)"$', (src.parent / "pyproject.toml").read_text(), re.M).group(1)
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "rcpi", "--version"], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"rcpi {version}\n"

    def test_routes_load_no_oracle(self, tmp_path):
        # Every route reads the response shape from geometry, so the frequency-domain
        # oracle stays unloaded; the time-domain one lives in tests/oracles.py.  The
        # commands that need numpy import it in their handlers.
        code = (
            "import importlib.util, sys, rcpi.cli; "
            "assert 'rcpi.spectral' not in sys.modules, 'import rcpi.cli loads rcpi.spectral'; "
            "assert importlib.util.find_spec('rcpi.correlators') is None, 'rcpi.correlators still imports'; "
            "assert 'scipy.integrate' not in sys.modules, 'import rcpi.cli loads scipy.integrate'; "
            "assert 'scipy.linalg' not in sys.modules, 'import rcpi.cli loads scipy.linalg'; "
            "assert 'numpy' not in sys.modules, 'import rcpi.cli loads numpy'"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "modules, unloaded",
        [("rcpi.cli", ("dataclasses", "inspect")), ("rcpi.liouvillian, rcpi.discriminator", ("dataclasses",))],
    )
    def test_records_load_no_dataclasses(self, tmp_path, modules, unloaded):
        # Every record derives from rcpi._record.Record, which needs neither module; numpy loads inspect itself.
        code = f"import sys, {modules}; loaded = [m for m in {unloaded} if m in sys.modules]; assert not loaded, loaded"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_shift_loads_no_scipy(self, tmp_path):
        # The quadrature route takes the pole window by a Gauss-Legendre rule and the rest by a plain-Python Si and
        # Ci; the quadrature value in shift.json shows that it ran.
        cfg = write_config(tmp_path, DS_DOC)
        code = (
            "import json, sys, rcpi.cli; "
            f"assert rcpi.cli.main(['shift', '--config', {cfg!r}, '--out', 'shift.json']) == 0; "
            "assert 'dE_S_quadrature' in json.load(open('shift.json')), 'rcpi shift did not reach the quadrature'; "
            "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
            "assert not loaded, f'rcpi shift loads {loaded}'"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_shift_runs_without_numpy_or_decimal(self, tmp_path):
        # With numpy and decimal blocked, `rcpi shift` writes what it writes with both loaded, and a config error
        # still exits 1.  The window's Gauss-Legendre rule is stored, not built, so it needs no decimal.
        thermal = {"spacetime": {"type": "thermal", "temperature": 0.5}, "atoms": {"omega0": 10.0, "mu": 0.1, "L": 3.0}}
        bad = {**DS_DOC, "atoms": {**DS_DOC["atoms"], "mu": 1e200}}
        configs = [write_config(tmp_path, doc, f"{name}.json") for name, doc in (("ds", DS_DOC), ("thermal", thermal))]
        code = (
            "import sys; sys.modules['numpy'] = sys.modules['decimal'] = None; from rcpi.cli import main; "
            f"assert [main(['shift', '--config', c, '--out', c + '.out']) for c in {configs!r}] == [0, 0]; "
            f"assert main(['shift', '--config', {write_config(tmp_path, bad, 'bad.json')!r}]) == 1"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "atoms.mu" in proc.stderr
        for cfg in configs:
            assert main(["shift", "--config", cfg, "--out", cfg + ".numpy"]) == 0
            assert Path(cfg + ".out").read_text() == Path(cfg + ".numpy").read_text()
