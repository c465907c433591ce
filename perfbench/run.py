"""End-to-end and per-layer benchmark of the rcpi command-line routes.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload shift_grid --seed 1 --seconds 20 --trace 0

Workloads: shift_grid (``rcpi shift``: closed form and quadrature), dynamics
(``rcpi evolve``: coefficients and the master equation) and sweep_classify
(``rcpi sweep`` -> ``rcpi discriminate``).  The benchmark drives
``rcpi.cli.main`` in-process as a closed loop with one client: each job
starts when the previous one ends.  Every job gets a generated JSON config on
disk and its output files are checked after its timer stops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
set of jobs in alternating untraced and traced passes and reports per-layer
metrics from the traced passes, plus the tracing overhead.  The last line of
standard output is one JSON object; a fuller record (environment, input
fingerprint, failures, sample counts) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from jobs import FINGERPRINT_JOBS, WORKLOADS, JobStream, check, prepare
from tracing import Tracer, check_spans, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WARMUP_JOBS = 3
MIN_JOBS = 100  # job_ms_p90 needs ten samples beyond it
MAX_SECONDS_FACTOR = 4  # a slow program stops after this many --seconds
SETUP_REPEATS = 5
# Jobs in one pass of a traced run: whole stratified blocks, a few seconds each.
TRACED_JOBS = {"shift_grid": 60, "dynamics": 24, "sweep_classify": 30}

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# name -> (unit, kind, span or counter or layer)
PER_LAYER = {
    "spectral.calls_per_job": ("count", "count", "spectral.calls"),
    "spectral.points_per_job": ("count", "count", "spectral.points"),
    "spectral.self_ms_per_job": ("ms", "self", "spectral"),
    "quadrature.rcpi_integral.ms_per_call": ("ms", "per_call", "quadrature.rcpi_integral"),
    "quadrature.evaluations_per_job": ("count", "count", "quadrature.evaluations"),
    "quadrature.lobes_per_job": ("count", "count", "quadrature.lobes"),
    "quadrature.self_ms_per_job": ("ms", "self", "quadrature"),
    "shifts.rcpi_quadrature.ms_per_job": ("ms", "per_job", "shifts.rcpi_quadrature"),
    "shifts.rcpi_closed.calls_per_job": ("count", "calls", "shifts.rcpi_closed"),
    "shifts.rcpi_closed.us_per_call": ("us", "per_call", "shifts.rcpi_closed"),
    "shifts.self_ms_per_job": ("ms", "self", "shifts"),
    "liouvillian.build_coefficients.ms_per_job": ("ms", "per_job", "liouvillian.build_coefficients"),
    "liouvillian.hamiltonian_cross_coefficients.ms_per_job": (
        "ms", "per_job", "liouvillian.hamiltonian_cross_coefficients"),
    "liouvillian.superoperator.us_per_call": ("us", "per_call", "liouvillian.superoperator"),
    "liouvillian.evolve.ms_per_job": ("ms", "per_job", "liouvillian.evolve"),
    "liouvillian.evolve.us_per_point": ("us", "per_point", "liouvillian.evolve"),
    "liouvillian.to_csv.ms_per_job": ("ms", "per_job", "liouvillian.to_csv"),
    "liouvillian.self_ms_per_job": ("ms", "self", "liouvillian"),
    "discriminator.write_sweep_csv.ms_per_job": ("ms", "per_job", "discriminator.write_sweep_csv"),
    "discriminator.read_sweep_csv.ms_per_job": ("ms", "per_job", "discriminator.read_sweep_csv"),
    "discriminator.extract_envelope.ms_per_job": ("ms", "per_job", "discriminator.extract_envelope"),
    "discriminator.fit_power_law.us_per_job": ("us", "per_job", "discriminator.fit_power_law"),
    "discriminator.rows_per_job": ("count", "count", "discriminator.rows"),
    "discriminator.self_ms_per_job": ("ms", "self", "discriminator"),
    "cli.self_ms_per_job": ("ms", "self", "cli"),
    "trace.overhead_ratio": ("ratio", "overhead", None),
}
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "count": 1.0}
# Functions that get a span even when called from inside their own layer.
ALWAYS_SPAN = frozenset(
    src for _, kind, src in PER_LAYER.values() if kind in ("per_call", "per_job", "calls", "per_point")
)


class SourceTreeMissing(RuntimeError):
    pass


def use_source_tree():
    """Import rcpi from this checkout's src/ and nowhere else."""
    if not (SRC / "rcpi" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no rcpi package under {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rcpi.cli

    if Path(rcpi.cli.__file__).resolve().parent != SRC / "rcpi":
        raise SourceTreeMissing(f"rcpi was imported from {rcpi.cli.__file__}, not from {SRC}")
    return rcpi.cli


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """CPU seconds for a cold ``import rcpi.cli`` in fresh interpreters: at
    reference speed, and as measured."""
    code = ("import calibrate, time; a = calibrate.loop(); t = time.process_time(); import rcpi.cli; "
            "d = time.process_time() - t; print(d, a, calibrate.loop())")
    path = [str(SRC), str(HERE), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    scaled, raw = [], []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        d, before, after = map(float, done.stdout.strip().splitlines()[-1].split())
        scaled.append(d * calibrate.scale(before, after))
        raw.append(d)
    return scaled, raw


class Runner:
    """Runs jobs through ``cli.main`` and keeps the failure record."""

    def __init__(self, cli, stream: JobStream, workdir: Path):
        self.cli = cli
        self.stream = stream
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[dict] = []

    def run(self, i: int, tracer: Tracer | None = None) -> tuple[float, float]:
        """Run job i; return its CPU and wall seconds.  A failure is recorded, not raised."""
        job = self.stream.job(i)
        argvs = prepare(job, self.workdir)
        reason = None
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is not None:
                tracer.begin_job(i)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                for argv in argvs:
                    code = self.cli.main(argv)
                    if code != 0:
                        reason = f"rcpi {argv[0]} exited with code {code}"
                        break
            except Exception as exc:  # a job that raises counts as failed; the run goes on
                reason = f"rcpi {argv[0]} raised {type(exc).__name__}: {exc}"
            cpu, wall = time.process_time() - c0, time.perf_counter() - t0
            if tracer is not None:
                tracer.end_job()
        self.attempted += 1
        reason = reason or check(job, self.workdir)
        if reason is not None:
            self.failures.append({"job": i, "reason": reason, "config": job.config})
        return cpu, wall


def _timings(times: list[float]) -> dict:
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_ms_p50": 1e3 * statistics.median(times),
        "job_ms_p90": 1e3 * (statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]),
    }


def run_untraced(runner: Runner, seconds: float, setup_repeats: int) -> tuple[dict, dict]:
    setup, setup_raw = measure_setup(setup_repeats)
    for i in range(WARMUP_JOBS):
        runner.run(i)
    cpu, raw, wall = [], [], []
    t0 = time.perf_counter()
    i = WARMUP_JOBS
    before = calibrate.loop()
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed >= MAX_SECONDS_FACTOR * seconds or (elapsed >= seconds and len(cpu) >= MIN_JOBS):
            break
        c, w = runner.run(i)
        after = calibrate.loop()
        cpu.append(c * calibrate.scale(before, after))
        raw.append(c)
        wall.append(w)
        before = after
        i += 1
    metrics = _timings(cpu)
    metrics.update(
        setup_s=statistics.median(setup),
        ok_ratio=1.0 - len(runner.failures) / runner.attempted,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    detail = {
        "measured_jobs": len(cpu),
        "jobs_beyond_p90": sum(t > metrics["job_ms_p90"] / 1e3 for t in cpu),
        "run_wall_seconds": time.perf_counter() - t0,
        "cpu_as_measured": _timings(raw),
        "wall_clock": _timings(wall),
        "setup_samples_s": setup,
        "setup_samples_as_measured_s": setup_raw,
        "job_cpu_s": cpu,
    }
    return {k: metrics[k] for k in END_TO_END}, detail


def run_traced(runner: Runner, seconds: float, traced_jobs: int, span_path: Path, meta: dict):
    for i in range(WARMUP_JOBS):
        runner.run(i)
    jobs = range(WARMUP_JOBS, WARMUP_JOBS + traced_jobs)
    tracer = Tracer(ALWAYS_SPAN)
    plain_s = traced_s = 0.0
    passes = 0
    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 < seconds:
        # Alternate which side goes first so that drift does not favour one.
        for traced in ((False, True) if passes % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    traced_s += sum(runner.run(i, tracer)[0] for i in jobs)
            else:
                plain_s += sum(runner.run(i)[0] for i in jobs)
        passes += 1
    n_jobs = traced_jobs * passes
    spans = tracer.spans()
    span_defect = check_spans(spans, tracer.layers)
    tracer.write(span_path, meta)
    by_name, calls, self_s = layer_totals(tracer)

    metrics, absent = {}, []
    for name, (unit, kind, src) in PER_LAYER.items():
        if kind == "overhead":
            value = plain_s / traced_s
        elif kind == "count":
            value = tracer.counts.get(src, 0.0) / n_jobs
        elif kind == "self":
            value = _SCALE[unit] * self_s.get(src, 0.0) / n_jobs
        elif kind == "per_job":
            value = _SCALE[unit] * by_name.get(src, 0.0) / n_jobs
        elif kind == "calls":
            value = calls.get(src, 0) / n_jobs
        else:
            base = calls.get(src, 0) if kind == "per_call" else tracer.counts.get(f"{src}.points", 0.0)
            value = _SCALE[unit] * by_name.get(src, 0.0) / base if base else 0.0
        if src in tracer.absent or (kind in ("per_call", "per_point") and not calls.get(src, 0)):
            absent.append(name)
        metrics[name] = value
    detail = {
        "traced_jobs_per_pass": traced_jobs,
        "passes": passes,
        "untraced_seconds": plain_s,
        "traced_seconds": traced_s,
        "spans": len(spans),
        "span_file": str(span_path.relative_to(ROOT)),
        "span_check": span_defect or "ok",
        "self_seconds_by_layer": self_s,
        "missing_functions": list(tracer.absent),
        "absent_metrics": absent,
        "counters": dict(tracer.counts),
    }
    return metrics, detail, span_defect


def run_workload(workload: str, seed: int, seconds: float, trace: bool, *,
                 setup_repeats: int = SETUP_REPEATS, traced_jobs: int | None = None) -> tuple[dict, dict]:
    """Run one workload; return the result line and the full record."""
    cli = use_source_tree()
    stream = JobStream(workload, seed)
    OUT.mkdir(exist_ok=True)
    runner = Runner(cli, stream, OUT / f"work-{workload}")
    inputs = {"seed": seed, "sha256_first_jobs": stream.fingerprint(), "fingerprint_jobs": FINGERPRINT_JOBS}
    if trace:
        meta = {"workload": workload, "seed": seed}
        metrics, detail, defect = run_traced(
            runner, seconds, traced_jobs or TRACED_JOBS[workload], OUT / f"spans-{workload}.json", meta)
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        metrics, detail = run_untraced(runner, seconds, setup_repeats)
        defect = None
        units = END_TO_END
    inputs["jobs_attempted"] = runner.attempted
    # `correct` says the run verified every job and its own bookkeeping;
    # wrong outputs are counted in `failed`.
    line = {
        "correct": defect is None and runner.attempted > len(runner.failures),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "result": line,
        "failed_ratio": len(runner.failures) / runner.attempted,
        "inputs": inputs,
        "environment": environment(),
        "detail": detail,
        "failures": runner.failures,
    }
    (OUT / f"result-{workload}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2))
    return line, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        line, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceTreeMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, m in line["metrics"].items():
        print(f"{args.workload:15s} {name:55s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        d = record["detail"]
        print(f"{args.workload:15s} job_ms_p90 over {d['measured_jobs']} jobs, {d['jobs_beyond_p90']} beyond it")
    print(f"{args.workload:15s} {'failed_ratio':55s} {record['failed_ratio']:14.6g} ratio "
          f"({line['failed']} of {line['attempted']} jobs)")
    for f in record["failures"]:
        print(f"{args.workload:15s} FAILED job {f['job']}: {f['reason']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
