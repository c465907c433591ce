"""Span tracing of the rcpi layers from outside the package, and the per-layer metrics.

The tracer wraps public functions of each layer module and patches every
``rcpi`` module namespace that holds them, so calls made through any global
name lookup (``rcpi.quadrature.geometric_factor_f``, ``rcpi.cli.cmd_sweep``)
go through the wrapper.  A function that a later version of the package
removes is recorded as absent; the run goes on.

A span is recorded at each layer boundary (a call whose caller span belongs
to another layer) and, for the functions that a per-function metric names,
also on calls from inside their own layer.  Spans are kept in one flat
array of doubles (name, start, end, parent, job) and written out when the
run ends.  A layer's self time is its spans' durations minus the durations
of their child spans.
"""

from __future__ import annotations

import array
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Layer -> (defining module, wrapped names).  ``config`` is folded into ``cli``;
# geometry, correlators and validation are not on the measured path.
TARGETS = {
    "cli": ("rcpi.cli", ("main", "cmd_shift", "cmd_sweep", "cmd_evolve", "cmd_discriminate")),
    "shifts": ("rcpi.shifts", ("rcpi_closed", "rcpi_quadrature")),
    "quadrature": ("rcpi.quadrature", ("rcpi_integral", "principal_value", "oscillatory_tail")),
    "spectral": ("rcpi.spectral", (
        "geometric_factor_f", "sinc", "oscillation_scale", "spectral_density",
        "fourier_desitter_same", "fourier_desitter_cross", "fourier_thermal_minkowski",
    )),
    "liouvillian": ("rcpi.liouvillian", (
        "build_coefficients", "dissipator_coefficients", "hamiltonian_cross_coefficients",
        "assemble_generator", "superoperator", "evolve", "Trajectory.to_csv",
    )),
    "discriminator": ("rcpi.discriminator", (
        "write_sweep_csv", "read_sweep_csv", "extract_envelope", "fit_power_law", "classify",
    )),
}

JOB = "job"
_FIELDS = 5  # name id, start, end, parent index, job id


def _count_spectral(counts, name, result):
    counts["spectral.calls"] += 1
    if name != "spectral.oscillation_scale":  # a scale, not a spectral evaluation point
        counts["spectral.points"] += getattr(result, "size", 1)


def _count_quadrature(counts, name, result):
    counts["quadrature.evaluations"] += getattr(result, "evaluations", 0)
    counts["quadrature.lobes"] += getattr(result, "lobes", 0)


def _count_evolve(counts, name, result):
    if name == "liouvillian.evolve":
        counts["liouvillian.evolve.points"] += getattr(getattr(result, "tau", None), "size", 0)


def _count_discriminator(counts, name, result):
    if name == "discriminator.read_sweep_csv":
        counts["discriminator.rows"] += len(result)


# Counters are taken at layer boundaries only, so nested calls inside a layer
# (rcpi_integral -> principal_value) are not counted twice.
_COUNTERS = {
    "spectral": _count_spectral,
    "quadrature": _count_quadrature,
    "liouvillian": _count_evolve,
    "discriminator": _count_discriminator,
}


class Tracer:
    """Wraps the layer functions while installed and records their spans."""

    def __init__(self, always_span: frozenset[str] = frozenset()):
        self.names: list[str] = [JOB]
        self.layers: list[str] = [JOB]
        self.buf = array.array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.job = -1.0
        self._stack: list[tuple[float, str | None]] = [(-1.0, None)]
        self._always = always_span
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    # -- spans -------------------------------------------------------------

    def begin_job(self, job_id: int) -> None:
        self.job = float(job_id)
        idx = len(self.buf) // _FIELDS
        self.buf.extend((0.0, time.perf_counter(), 0.0, -1.0, float(job_id)))
        self._stack.append((float(idx), JOB))

    def end_job(self) -> None:
        end = time.perf_counter()
        idx, layer = self._stack.pop()
        if layer != JOB or len(self._stack) != 1:
            raise RuntimeError("job span closed while layer spans are still open")
        self.buf[int(idx) * _FIELDS + 2] = end

    def _wrap(self, name: str, layer: str, fn):
        sid = float(len(self.names))
        self.names.append(name)
        self.layers.append(layer)
        always = name in self._always
        count = _COUNTERS.get(layer)
        buf, stack, counts, clock = self.buf, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            parent, parent_layer = stack[-1]
            boundary = parent_layer != layer
            if not (boundary or always):
                return fn(*args, **kwargs)
            idx = len(buf) // _FIELDS
            buf.extend((sid, clock(), 0.0, parent, self.job))
            stack.append((float(idx), layer))
            try:
                result = fn(*args, **kwargs)
            finally:
                buf[idx * _FIELDS + 2] = clock()
                stack.pop()
            if boundary and count is not None:
                count(counts, name, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every rcpi module namespace (and class) that holds a target."""
        modules = [m for n, m in list(sys.modules.items()) if (n == "rcpi" or n.startswith("rcpi.")) and m]
        for layer, (module_name, names) in TARGETS.items():
            module = sys.modules.get(module_name)
            for attr in names:
                key = f"{layer}.{attr.rsplit('.', 1)[-1]}"
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = owner.__dict__.get(fn_name) if owner is not None else None
                if fn is None:
                    if key not in self.absent:
                        self.absent.append(key)
                    continue
                wrapper = self._wrappers.get(key)
                if wrapper is None:
                    wrapper = self._wrappers[key] = self._wrap(key, layer, fn)
                if owner_name:
                    self._patch(owner, fn_name, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, name, wrapper)

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def spans(self) -> np.ndarray:
        return np.frombuffer(self.buf, dtype=float).reshape(-1, _FIELDS)

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans as JSON: a name table and rows (name, start, end, parent, job)."""
        s = self.spans()
        t0 = float(s[0, 1]) if len(s) else 0.0
        rows = [[int(r[0]), r[1] - t0, r[2] - t0, int(r[3]), int(r[4])] for r in s.tolist()]
        doc = dict(meta, names=self.names, layers=self.layers,
                   columns=["name", "start_s", "end_s", "parent", "job"], spans=rows)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(np.int64)
    child = np.zeros(len(spans))
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def check_spans(spans: np.ndarray, layers: list[str]) -> str | None:
    """Structural defects of a span set, or None.

    Roots must be job spans; every child lies inside its parent and belongs
    to the same job; siblings do not overlap; and the self times of all
    spans add up to the job spans' total.
    """
    if len(spans) == 0:
        return "no spans recorded"
    name = spans[:, 0].astype(np.int64)
    start, end = spans[:, 1], spans[:, 2]
    parent = spans[:, 3].astype(np.int64)
    job = spans[:, 4].astype(np.int64)
    is_job = np.array([layer == JOB for layer in layers])[name]
    if np.any(end < start):
        return "a span ends before it starts"
    if np.any(is_job != (parent < 0)):
        return "a root span is not a job span, or a job span has a parent"
    c = np.flatnonzero(parent >= 0)
    p = parent[c]
    if np.any(p >= c):
        return "a parent span starts after its child"
    if np.any(start[c] < start[p]) or np.any(end[c] > end[p]):
        return "a child span leaves its parent's interval"
    if np.any(job[c] != job[p]):
        return "a child span carries another job id than its parent"
    order = c[np.lexsort((start[c], p))]
    same = parent[order[1:]] == parent[order[:-1]]
    if np.any(start[order[1:]][same] < end[order[:-1]][same]):
        return "sibling spans overlap"
    selfs = self_times(spans)
    total = float(np.sum(end[is_job] - start[is_job]))
    if np.any(selfs < -1e-9) or abs(float(np.sum(selfs)) - total) > 1e-9 * max(total, 1e-300):
        return f"self times add up to {float(np.sum(selfs))!r} s, job spans to {total!r} s"
    return None


def layer_totals(tracer: Tracer) -> tuple[dict, dict, dict]:
    """Per-name span totals (seconds, calls) and per-layer self times (seconds)."""
    s = tracer.spans()
    name = s[:, 0].astype(np.int64)
    dur = s[:, 2] - s[:, 1]
    selfs = self_times(s)
    n = len(tracer.names)
    seconds = np.bincount(name, weights=dur, minlength=n)
    calls = np.bincount(name, minlength=n)
    self_s = np.bincount(name, weights=selfs, minlength=n)
    by_name = {tracer.names[i]: float(seconds[i]) for i in range(n)}
    calls_by_name = {tracer.names[i]: int(calls[i]) for i in range(n)}
    by_layer: dict[str, float] = defaultdict(float)
    for i in range(n):
        by_layer[tracer.layers[i]] += float(self_s[i])
    return by_name, calls_by_name, dict(by_layer)
