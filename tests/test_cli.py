import json
import math

import numpy as np
import pytest

from rcpi.cli import main
from rcpi.config import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
)

DS_DOC = {
    "spacetime": {"type": "desitter", "alpha": 1.0, "r": 0.0},
    "atoms": {"omega0": 1.0, "mu": 0.1, "L": 1.0},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfig:
    def test_round_trip_identity(self):
        doc = {
            "spacetime": {"type": "desitter", "alpha": 2.0, "r": 0.5},
            "atoms": {"omega0": 1.0, "mu": 0.1, "r": 0.5, "delta_theta": 1.2},
            "sweep": {"L_min": 0.1, "L_max": 10.0, "n_points": 50, "spacing": "log"},
            "evolve": {"rho0": "A", "tau_max": 10.0, "stride": 0.5},
        }
        cfg = config_from_dict(doc)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert config_to_dict(again) == config_to_dict(cfg)
        assert json.loads(dump_config(cfg)) == config_to_dict(cfg)

    def test_separation_from_angle(self):
        doc = dict(DS_DOC)
        doc["atoms"] = {"omega0": 1.0, "mu": 0.1, "r": 1.0, "delta_theta": math.pi / 3.0}
        cfg = config_from_dict(doc)
        assert cfg.atoms.separation() == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            ({"spacetime": {"type": "waterworld"}}, "spacetime.type"),
            ({"atoms": {"omega0": 1.0, "mu": 0.1}}, "either L"),
            ({"atoms": {"omega0": 1.0, "mu": 0.1, "L": 1.0, "r": 1.0, "delta_theta": 1.0}}, "not both"),
            ({"sweep": {"L_min": 5.0, "L_max": 1.0, "n_points": 10}}, "L_min < L_max"),
            ({"evolve": {"rho0": "X", "tau_max": 1.0, "stride": 0.1}}, "rho0"),
            ({"bogus": {}}, "unknown"),
        ],
    )
    def test_validation_messages(self, mutation, fragment):
        doc = {**DS_DOC, **mutation}
        with pytest.raises(ConfigError, match=fragment):
            config_from_dict(doc)

    def test_removed_ode_tolerance_is_rejected(self, tmp_path, capsys):
        doc = {**DS_DOC, "tolerances": {"ode_rtol": 1e-10}}
        with pytest.raises(ConfigError, match="ode_rtol"):
            config_from_dict(doc)
        cfg = write_config(tmp_path, {**doc, "evolve": {"rho0": "E", "tau_max": 1.0, "stride": 0.5}})
        assert main(["evolve", "--config", cfg]) == 1
        assert "ode_rtol" in capsys.readouterr().err

    def test_json_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"spacetime\": }\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))


class TestShiftCommand:
    def test_closed_and_quadrature_agree(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DS_DOC)
        assert main(["shift", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dE_S_quadrature"] == pytest.approx(doc["dE_S_closed"], rel=1e-6)
        assert doc["dE_A_closed"] == -doc["dE_S_closed"]
        assert doc["regime"] == "crossover"
        assert doc["quadrature_error_estimate"] > 0

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


class TestSweepCommand:
    def test_deterministic_and_antisymmetric(self, tmp_path):
        doc = {**DS_DOC, "sweep": {"L_min": 0.01, "L_max": 1000.0, "n_points": 200, "spacing": "log"}}
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
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

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("L,dE_S,dE_A\n1.0,0.1,nope\n")
        assert main(["discriminate", str(bad)]) == 1
        assert "row 2" in capsys.readouterr().err


class TestValidateCommand:
    def test_quick_level_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["validate", "--level", "quick", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
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
        ]

    def test_report_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["validate", "--level", "quick", "--out", str(a)]) == 0
        assert main(["validate", "--level", "quick", "--out", str(b)]) == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da.pop("elapsed_seconds")
        db.pop("elapsed_seconds")
        assert da == db


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["shift"]) == 1  # missing --config
        capsys.readouterr()

    def test_missing_config_file(self, capsys):
        assert main(["shift", "--config", "/nonexistent/cfg.json"]) == 1
        capsys.readouterr()

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
