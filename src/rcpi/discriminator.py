"""Blind classification of a spacetime from a sweep of interaction energies.

Given samples of the symmetric-state shift versus separation from an unknown
source, strip the oscillation by locating the local maxima of |delta E_S|,
fit a power law to those envelope points in log-log space, and classify:
exponent near 2 means the curved far regime, exponent near 1 the flat or
thermal law.  The phase law is never assumed, so the test stays honest for
data of unknown origin.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from . import csvio

__all__ = [
    "SweepRecord",
    "PowerLawFit",
    "Verdict",
    "Classification",
    "InsufficientOscillationsError",
    "envelope_points",
    "extract_envelope",
    "fit_power_law",
    "classify",
    "read_sweep_csv",
    "write_sweep_csv",
]


class InsufficientOscillationsError(ValueError):
    """The sweep window contains too few oscillations to extract an envelope."""


_SAMPLE_RULE = "need a positive finite L and finite dE_A = -dE_S"


def _valid_samples(L, dE_S, dE_A) -> np.ndarray:
    """Mask of the sweep samples that meet _SAMPLE_RULE, dE_A = -dE_S within 1e-10 of the larger magnitude."""
    L, dE_S, dE_A = (np.asarray(x, dtype=float) for x in (L, dE_S, dE_A))
    scale = np.maximum(np.maximum(np.abs(dE_S), np.abs(dE_A)), 1e-300)
    with np.errstate(invalid="ignore"):  # inf - inf gives NaN, which fails the comparison
        ok = np.isfinite(L) & (L > 0) & np.isfinite(dE_S) & np.isfinite(dE_A)
        return ok & (np.abs(dE_A + dE_S) <= 1e-10 * scale)


@dataclass(frozen=True)
class SweepRecord:
    """One (separation, shift) sample; the antisymmetric shift rides along as a sanity check."""

    L: float
    delta_E_S: float
    delta_E_A: float

    def __post_init__(self) -> None:
        if not _valid_samples(self.L, self.delta_E_S, self.delta_E_A):
            raise ValueError(f"bad sweep record ({self.L}, {self.delta_E_S}, {self.delta_E_A}): {_SAMPLE_RULE}")


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


def envelope_points(L, dE_S) -> tuple[np.ndarray, np.ndarray]:
    """Locate the local maxima of |delta E_S(L)| and refine them by interpolation.

    Takes the sweep as arrays of separations and symmetric-state shifts.
    Returns (L, |delta E|) arrays of envelope points, each refined with the
    vertex of the parabola through the three neighbouring samples in log-log
    coordinates.  Requires at least 3 sign changes of delta E_S or at least 5
    local maxima; otherwise the sweep window is too narrow to see the
    oscillation and an InsufficientOscillationsError is raised.
    """
    L = np.asarray(L, dtype=float)
    v = np.asarray(dE_S, dtype=float)
    if L.size < 5:
        raise InsufficientOscillationsError("need at least 5 samples to look for an envelope")
    if not (np.all(np.isfinite(L) & (L > 0)) and np.all(np.isfinite(v))):
        raise ValueError("sweep samples must be finite, with L > 0")
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


def extract_envelope(samples: list[SweepRecord]) -> tuple[np.ndarray, np.ndarray]:
    """`envelope_points` of a sweep given as a list of SweepRecords."""
    return envelope_points([s.L for s in samples], [s.delta_E_S for s in samples])


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


def read_sweep_csv(path_or_buf) -> tuple[np.ndarray, np.ndarray]:
    """Read a sweep CSV with header columns L,dE_S,dE_A (extra columns ignored).

    Returns the (L, dE_S) arrays.  A row whose L is not positive and finite,
    whose shifts are not finite, or whose dE_A differs from -dE_S by more than
    1e-10 of the larger magnitude raises ValueError naming the row.
    """
    rows, (L, dE_S, dE_A) = csvio.read_columns(path_or_buf, ("L", "dE_S", "dE_A"))
    ok = _valid_samples(L, dE_S, dE_A)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"bad sweep row {rows[i]}: L={L[i]}, dE_S={dE_S[i]}, dE_A={dE_A[i]} ({_SAMPLE_RULE})")
    return L, dE_S


def write_sweep_csv(path_or_buf, L, dE_S) -> None:
    """Write a sweep as columns L, dE_S, dE_A = -dE_S and envelope, byte-stable for fixed input.

    The envelope column is 1 at the interior local maxima of |dE_S| and 0
    elsewhere.
    """
    dE_S = np.asarray(dE_S, dtype=float)
    csvio.write_columns(
        path_or_buf, ("L", "dE_S", "dE_A", "envelope"), (L, dE_S, -dE_S, _interior_maxima(np.abs(dE_S)))
    )
