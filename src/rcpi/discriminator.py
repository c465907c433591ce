"""Blind classification of a spacetime from a sweep of interaction energies.

Given samples of the symmetric-state shift versus separation from an unknown
source, strip the oscillation by locating the local maxima of |delta E_S|,
fit a power law to those envelope points in log-log space, and classify:
exponent near 2 means the curved far regime, exponent near 1 the flat or
thermal law.  The phase law is never assumed, so the test stays honest for
data of unknown origin.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SweepRecord",
    "PowerLawFit",
    "Verdict",
    "Classification",
    "InsufficientOscillationsError",
    "extract_envelope",
    "fit_power_law",
    "classify",
    "read_sweep_csv",
    "write_sweep_csv",
]


class InsufficientOscillationsError(ValueError):
    """The sweep window contains too few oscillations to extract an envelope."""


@dataclass(frozen=True)
class SweepRecord:
    """One (separation, shift) sample; the antisymmetric shift rides along as a sanity check."""

    L: float
    delta_E_S: float
    delta_E_A: float

    def __post_init__(self) -> None:
        if self.L <= 0:
            raise ValueError(f"separation must be positive, got L={self.L}")
        scale = max(abs(self.delta_E_S), abs(self.delta_E_A), 1e-300)
        if abs(self.delta_E_A + self.delta_E_S) > 1e-10 * scale:
            raise ValueError(
                f"sweep record at L={self.L} violates delta_E_A = -delta_E_S "
                f"({self.delta_E_A} vs {-self.delta_E_S})"
            )


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares log-log line: |delta E| ~ amplitude / L^exponent."""

    exponent: float
    amplitude: float
    residual_rms: float
    window: tuple[float, float]
    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 4:
            raise ValueError(f"a power-law fit needs at least 4 points, got {self.n_points}")
        if self.residual_rms < 0:
            raise ValueError("residual_rms must be non-negative")
        if not self.window[0] < self.window[1]:
            raise ValueError(f"fit window must be increasing, got {self.window}")


class Verdict(enum.Enum):
    DESITTER_FAR = "DeSitterFar"
    FLAT_OR_THERMAL = "FlatOrThermal"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    fit: PowerLawFit
    notes: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "exponent": self.fit.exponent,
                "amplitude": self.fit.amplitude,
                "residual_rms": self.fit.residual_rms,
                "window": list(self.fit.window),
                "verdict": self.verdict.value,
                "notes": self.notes,
            },
            indent=2,
        )


def _interior_maxima(mag: np.ndarray) -> np.ndarray:
    """Mask of the interior samples of mag that are nonzero and no smaller than either neighbour."""
    flags = np.zeros(mag.size, dtype=bool)
    flags[1:-1] = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:]) & (mag[1:-1] > 0)
    return flags


def extract_envelope(samples: list[SweepRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Locate the local maxima of |delta E_S(L)| and refine them by interpolation.

    Returns (L, |delta E|) arrays of envelope points, each refined with the
    vertex of the parabola through the three neighbouring samples in log-log
    coordinates.  Requires at least 3 sign changes of delta E_S or at least 5
    local maxima; otherwise the sweep window is too narrow to see the
    oscillation and an InsufficientOscillationsError is raised.
    """
    if len(samples) < 5:
        raise InsufficientOscillationsError("need at least 5 samples to look for an envelope")
    L = np.array([s.L for s in samples])
    v = np.array([s.delta_E_S for s in samples])
    if np.any(np.diff(L) <= 0):
        raise ValueError("sweep samples must be ordered by strictly increasing L")

    signs = np.sign(v)
    nonzero = signs != 0
    sign_changes = int(np.sum(np.abs(np.diff(signs[nonzero])) > 1))

    mag = np.abs(v)
    idx = np.flatnonzero(_interior_maxima(mag))
    # Drop plateau duplicates (equal neighbours register twice).
    if idx.size > 1:
        idx = idx[np.concatenate(([True], np.diff(idx) > 1))]

    if sign_changes < 3 and idx.size < 5:
        raise InsufficientOscillationsError(
            f"insufficient oscillations in the sweep window: {sign_changes} sign changes, "
            f"{idx.size} interior maxima; widen the L range or sample more densely"
        )

    env_L = []
    env_v = []
    for i in idx:
        x = np.log(L[i - 1 : i + 2])
        y = np.log(mag[i - 1 : i + 2])
        c2, c1, c0 = np.polyfit(x, y, 2)
        if c2 >= 0:  # not concave in log-log; keep the raw sample
            env_L.append(L[i])
            env_v.append(mag[i])
            continue
        # Parabola vertex, clamped to the bracketing samples.
        x0 = float(np.clip(-c1 / (2.0 * c2), x[0], x[2]))
        y0 = (c2 * x0 + c1) * x0 + c0
        env_L.append(math.exp(x0))
        env_v.append(math.exp(y0))
    return np.array(env_L), np.array(env_v)


def fit_power_law(
    env_L: np.ndarray, env_value: np.ndarray, window: tuple[float, float] | None = None
) -> PowerLawFit:
    """Least-squares line in (log L, log |delta E|); exponent is minus the slope."""
    env_L = np.asarray(env_L, dtype=float)
    env_value = np.asarray(env_value, dtype=float)
    if window is None:
        window = (float(env_L.min()), float(env_L.max()))
    lo, hi = window
    mask = (env_L >= lo) & (env_L <= hi)
    if int(mask.sum()) < 4:
        raise ValueError(f"need at least 4 envelope points inside the window {window}, got {int(mask.sum())}")
    if np.any(env_value[mask] <= 0):
        raise ValueError("envelope values must be positive to fit in log space")
    x = np.log(env_L[mask])
    y = np.log(env_value[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return PowerLawFit(
        exponent=float(-slope),
        amplitude=float(math.exp(intercept)),
        residual_rms=float(np.sqrt(np.mean(resid * resid))),
        window=(lo, hi),
        n_points=int(mask.sum()),
    )


def classify(
    fit: PowerLawFit,
    desitter_band: tuple[float, float] = (1.8, 2.2),
    flat_band: tuple[float, float] = (0.8, 1.2),
) -> Classification:
    """Threshold rule on the fitted exponent, with the crossover left honest."""
    p = fit.exponent
    notes = (
        f"exponent {p:.4f} over window [{fit.window[0]:.6g}, {fit.window[1]:.6g}] "
        f"({fit.n_points} envelope points, residual rms {fit.residual_rms:.2e})"
    )
    if desitter_band[0] <= p <= desitter_band[1]:
        return Classification(Verdict.DESITTER_FAR, fit, notes + "; consistent with a curved far-zone 1/L^2 law")
    if flat_band[0] <= p <= flat_band[1]:
        return Classification(Verdict.FLAT_OR_THERMAL, fit, notes + "; consistent with the flat/thermal 1/L law")
    return Classification(
        Verdict.INDETERMINATE, fit, notes + "; between the two laws (crossover region or mixed window)"
    )


def read_sweep_csv(path_or_buf) -> list[SweepRecord]:
    """Parse a sweep CSV with header columns L,dE_S,dE_A (extra columns ignored)."""
    own = isinstance(path_or_buf, (str, bytes))
    fh = open(path_or_buf, newline="") if own else path_or_buf
    try:
        reader = csv.DictReader(fh)
        required = {"L", "dE_S", "dE_A"}
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise ValueError(f"sweep CSV must have columns L,dE_S,dE_A, got {reader.fieldnames}")
        records = []
        for row_num, row in enumerate(reader, start=2):
            try:
                records.append(
                    SweepRecord(L=float(row["L"]), delta_E_S=float(row["dE_S"]), delta_E_A=float(row["dE_A"]))
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad sweep row {row_num}: {exc}") from None
    finally:
        if own:
            fh.close()
    return records


def write_sweep_csv(path_or_buf, records: list[SweepRecord], envelope_flags=None) -> None:
    """Write sweep records with 17-significant-digit floats; byte-stable for fixed input."""
    own = isinstance(path_or_buf, (str, bytes))
    fh = open(path_or_buf, "w", newline="") if own else path_or_buf
    try:
        writer = csv.writer(fh)
        if envelope_flags is None:
            writer.writerow(["L", "dE_S", "dE_A"])
            for rec in records:
                writer.writerow([format(x, ".17g") for x in (rec.L, rec.delta_E_S, rec.delta_E_A)])
        else:
            writer.writerow(["L", "dE_S", "dE_A", "envelope"])
            for rec, flag in zip(records, envelope_flags):
                writer.writerow(
                    [format(x, ".17g") for x in (rec.L, rec.delta_E_S, rec.delta_E_A)] + [str(int(flag))]
                )
    finally:
        if own:
            fh.close()
