"""Tests of the benchmark itself: short runs of each workload, the output checks and the span check.

Run from the repository root:

    python -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from jobs import DYNAMICS_L_MIN, SHIFT_TOLERANCES, WORKLOADS, Job, JobStream, check, prepare  # noqa: E402
from tracing import check_spans  # noqa: E402

cli = run.use_source_tree()


def _run_job(job: Job, workdir: Path) -> None:
    for argv in prepare(job, workdir):
        assert cli.main(argv) == 0


def _assert_line(line: dict, names: dict) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == set(names)
    for name, m in line["metrics"].items():
        assert m["unit"] == (names[name] if isinstance(names[name], str) else names[name][0])
        assert math.isfinite(m["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_untraced_run(workload):
    line, record = run.run_workload(workload, seed=7, seconds=0.3, trace=False, setup_repeats=1)
    _assert_line(line, run.END_TO_END)
    assert all(line["metrics"][k]["value"] > 0 for k in ("setup_s", "jobs_per_s", "job_ms_p50", "peak_rss_mb"))
    assert line["failed"] == len(record["failures"])
    assert record["inputs"]["sha256_first_jobs"] == JobStream(workload, 7).fingerprint()
    assert {"python", "numpy", "scipy", "nproc", "cpu_model"} <= set(record["environment"])
    assert record["detail"]["cpu_as_measured"]["jobs_per_s"] > 0
    assert len(record["detail"]["setup_samples_as_measured_s"]) == 1
    assert line["failed"] == 0, record["failures"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_traced_run(workload):
    line, record = run.run_workload(workload, seed=7, seconds=0.1, trace=True, traced_jobs=2)
    _assert_line(line, run.PER_LAYER)
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert record["detail"]["span_check"] == "ok"
    assert 0 < m["trace.overhead_ratio"] < 2
    assert m["cli.self_ms_per_job"] > 0
    if workload == "shift_grid":
        assert m["quadrature.evaluations_per_job"] > 0 and m["spectral.points_per_job"] > 0
        assert m["shifts.rcpi_closed.calls_per_job"] == 1
    elif workload == "dynamics":
        assert m["liouvillian.evolve.us_per_point"] > 0 and m["liouvillian.superoperator.us_per_call"] > 0
        assert m["liouvillian.hamiltonian_cross_coefficients.ms_per_job"] > 0
    else:
        assert m["discriminator.rows_per_job"] > 0
        assert m["shifts.rcpi_closed.calls_per_job"] == m["discriminator.rows_per_job"]
        assert m["quadrature.evaluations_per_job"] == 0
    spans = json.loads((run.ROOT / record["detail"]["span_file"]).read_text())
    assert spans["columns"] == ["name", "start_s", "end_s", "parent", "job"] and spans["spans"]


def test_tracing_is_removed_after_a_traced_run():
    import rcpi.quadrature
    import rcpi.spectral

    run.run_workload("shift_grid", seed=3, seconds=0.01, trace=True, traced_jobs=1)
    assert rcpi.quadrature.geometric_factor_f is rcpi.spectral.geometric_factor_f
    assert not hasattr(rcpi.spectral.geometric_factor_f, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")


def test_counts_repeat_for_a_fixed_seed():
    counts = [
        {k: v["value"] for k, v in run.run_workload("shift_grid", seed=5, seconds=0.01, trace=True,
                                                      traced_jobs=2)[0]["metrics"].items() if "per_job" in k
         and v["unit"] == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1] and counts[0]["quadrature.evaluations_per_job"] > 0


def test_job_streams_are_seeded():
    a, b = JobStream("dynamics", 11), JobStream("dynamics", 11)
    assert [a.job(i) for i in range(30)] == [b.job(i) for i in range(30)]
    assert a.fingerprint() != JobStream("dynamics", 12).fingerprint()


# --- known defects, kept out of the workloads ------------------------------
#
# The workloads stay clear of two defects of the program, so that no measured
# job fails.  These inputs reproduce them.  When a fix lands they pass, and the
# workloads can take back the default tolerance or the near zone.

# Points where the quadrature misses its default tolerance and exits 3: the
# relative target shrinks at a zero of the cosine.
_QUADRATURE_MISSES = [
    {"spacetime": {"type": "desitter", "alpha": 0.6405270068704646, "r": 0.552946347986623},
     "atoms": {"omega0": 27.3944554211311, "mu": 0.5336318094157635, "L": 1.1374877243764485}},
    {"spacetime": {"type": "thermal", "temperature": 1.379571807175093},
     "atoms": {"omega0": 9.991722859337235, "mu": 1.0527832204304832, "L": 0.15735533230468382}},
]

# Near-zone trajectories whose minimum eigenvalue drifts below -1e-8.
_POSITIVITY_DRIFTS = [
    {"spacetime": {"type": "thermal", "temperature": 0.11984761688839574},
     "atoms": {"omega0": 2.3971650236141833, "mu": 0.5, "L": 0.21630699945757342},
     "evolve": {"rho0": "A", "tau_max": 500.0, "stride": 1.0}},
    {"spacetime": {"type": "desitter", "alpha": 1.1381205885302115, "r": 0.5434321245899575},
     "atoms": {"omega0": 2.992818247723824, "mu": 0.5, "L": 0.22706941575374273},
     "evolve": {"rho0": "A", "tau_max": 200.0, "stride": 1.0}},
]


def _passes(job: Job, workdir: Path) -> bool:
    with contextlib.redirect_stderr(io.StringIO()):
        codes = [cli.main(argv) for argv in prepare(job, workdir)]
    return all(c == 0 for c in codes) and check(job, workdir) is None


@pytest.mark.xfail(reason="known defect: the quadrature misses its default relative tolerance at a zero of the cosine")
@pytest.mark.parametrize("config", _QUADRATURE_MISSES)
def test_known_defect_quadrature_at_default_tolerance(config, tmp_path):
    assert _passes(Job(0, "shift", config), tmp_path)


@pytest.mark.parametrize("config", _QUADRATURE_MISSES)
def test_workload_tolerance_clears_the_quadrature_misses(config, tmp_path):
    assert _passes(Job(0, "shift", dict(config, tolerances=SHIFT_TOLERANCES)), tmp_path)


@pytest.mark.xfail(reason="known defect: DOP853 at the default tolerances leaves the positive cone in the near zone")
@pytest.mark.parametrize("config", _POSITIVITY_DRIFTS)
def test_known_defect_positivity_in_the_near_zone(config, tmp_path):
    assert config["atoms"]["L"] < DYNAMICS_L_MIN
    with pytest.warns(RuntimeWarning):
        assert _passes(Job(0, "evolve", config), tmp_path)


# --- the checks see corrupted outputs -------------------------------------


def test_shift_outside_its_error_estimate_fails(tmp_path):
    job = JobStream("shift_grid", 1).job(0)
    _run_job(job, tmp_path)
    assert check(job, tmp_path) is None
    path = tmp_path / "shift.json"
    report = json.loads(path.read_text())
    report["dE_S_quadrature"] = report["dE_S_closed"] + 2.0 * report["quadrature_error_estimate"]
    path.write_text(json.dumps(report))
    assert "error estimate" in check(job, tmp_path)


def test_wrong_verdict_fails(tmp_path):
    job = JobStream("sweep_classify", 1).job(0)
    _run_job(job, tmp_path)
    assert check(job, tmp_path) is None
    path = tmp_path / "verdict.json"
    verdict = json.loads(path.read_text())
    verdict["verdict"] = "DeSitterFar" if verdict["verdict"] != "DeSitterFar" else "FlatOrThermal"
    path.write_text(json.dumps(verdict))
    assert "verdict" in check(job, tmp_path)


def test_trace_defect_fails(tmp_path):
    job = Job(0, "evolve", {
        "spacetime": {"type": "thermal", "temperature": 0.5},
        "atoms": {"omega0": 1.0, "mu": 0.5, "L": 1.0},
        "evolve": {"rho0": "E", "tau_max": 200.0, "stride": 1.0},
    })
    _run_job(job, tmp_path)
    assert check(job, tmp_path) is None
    path = tmp_path / "trajectory.csv"
    lines = path.read_text().splitlines()
    row = lines[50].split(",")
    row[5] = repr(float(row[5]) + 1e-6)
    lines[50] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert "Tr rho" in check(job, tmp_path)


def test_missing_output_fails(tmp_path):
    job = JobStream("shift_grid", 1).job(1)
    prepare(job, tmp_path)
    assert "unreadable output" in check(job, tmp_path)


def test_span_check_finds_overlapping_siblings():
    good = np.array([
        [0, 0.0, 10.0, -1, 0],
        [1, 1.0, 4.0, 0, 0],
        [2, 5.0, 9.0, 0, 0],
    ], dtype=float)
    layers = ["job", "cli", "cli"]
    assert check_spans(good, layers) is None
    bad = good.copy()
    bad[2, 1] = 3.0
    assert "overlap" in check_spans(bad, layers)
    bad = good.copy()
    bad[1, 4] = 1
    assert "job id" in check_spans(bad, layers)


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shift_grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
