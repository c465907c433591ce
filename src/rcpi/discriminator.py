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
from .geometry import _require_positive

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
            allow_nan=False,
        )


def _interior_maxima(mag: np.ndarray) -> np.ndarray:
    """Mask of the maxima of mag >= 0: interior samples above the one before (so nonzero) and no smaller
    than the one after, so that a plateau of equal samples registers once, at its first sample."""
    flags = np.zeros(mag.size, dtype=bool)
    flags[1:-1] = (mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:])
    return flags


def envelope_points(L, dE_S) -> tuple[np.ndarray, np.ndarray]:
    """Locate the local maxima of |delta E_S(L)| and refine them by interpolation.

    Takes the sweep as arrays of separations and symmetric-state shifts and
    returns (L, |delta E|) arrays, one point per maximum of ``_interior_maxima``:
    the vertex of the parabola through it and its neighbours in log-log
    coordinates, clamped to the neighbours, or the raw sample where a neighbour
    is zero or the parabola is not concave.  Fewer than 3 sign changes of
    delta E_S and fewer than 5 maxima raise InsufficientOscillationsError.
    """
    L = np.asarray(L, dtype=float)
    v = np.asarray(dE_S, dtype=float)
    if L.shape != v.shape:
        raise ValueError(f"L and dE_S must have the same shape, got {L.shape} and {v.shape}")
    if L.size < 5:
        raise InsufficientOscillationsError("need at least 5 samples to look for an envelope")
    _require_positive(L=L)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"dE_S must be finite, got {v[~np.isfinite(v)][0]}")
    if np.any(np.diff(L) <= 0):
        raise ValueError("sweep samples must be ordered by strictly increasing L")

    signs = np.sign(v[v != 0])
    sign_changes = int(np.count_nonzero(signs[1:] != signs[:-1]))

    mag = np.abs(v)
    i = np.flatnonzero(_interior_maxima(mag))
    if sign_changes < 3 and i.size < 5:
        raise InsufficientOscillationsError(
            f"insufficient oscillations in the sweep window: {sign_changes} sign changes, "
            f"{i.size} interior maxima; widen the L range or sample more densely"
        )

    # Newton form through (x1, y1), (x0, y0), (x2, y2): y1 + d1 (x - x1) + c2 (x - x1)(x - x0).
    x0, x1, x2 = np.log(L[i - 1]), np.log(L[i]), np.log(L[i + 1])
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero neighbour; masked out below
        y0, y1, y2 = np.log(mag[i - 1]), np.log(mag[i]), np.log(mag[i + 1])
        d1 = (y1 - y0) / (x1 - x0)
        c2 = ((y2 - y1) / (x2 - x1) - d1) / (x2 - x0)
        xv = np.clip(0.5 * (x0 + x1) - d1 / (2.0 * c2), x0, x2)
        yv = y1 + (xv - x1) * (d1 + c2 * (xv - x0))
    refine = (mag[i - 1] > 0) & (mag[i + 1] > 0) & (c2 < 0)
    return np.where(refine, np.exp(xv), L[i]), np.where(refine, np.exp(yv), mag[i])


def extract_envelope(samples: list[SweepRecord]) -> tuple[np.ndarray, np.ndarray]:
    """`envelope_points` of a sweep given as a list of SweepRecords."""
    return envelope_points([s.L for s in samples], [s.delta_E_S for s in samples])


def fit_power_law(
    env_L: np.ndarray, env_value: np.ndarray, window: tuple[float | None, float | None] | None = None
) -> PowerLawFit:
    """Least-squares line in (log L, log |delta E|); exponent is minus the slope.

    The fit takes the points with L in the closed ``window`` (lo, hi); a
    missing window, or a None end of it, is that end of ``env_L``.
    """
    env_L = np.asarray(env_L, dtype=float)
    env_value = np.asarray(env_value, dtype=float)
    if env_L.shape != env_value.shape:
        raise ValueError(f"env_L and env_value must have the same shape, got {env_L.shape} and {env_value.shape}")
    _require_positive(env_L=env_L, env_value=env_value)  # the fit is in log space
    lo, hi = window or (None, None)
    lo = float(env_L.min()) if lo is None else lo
    hi = float(env_L.max()) if hi is None else hi
    mask = (env_L >= lo) & (env_L <= hi)
    if int(mask.sum()) < 4:
        raise ValueError(f"need at least 4 envelope points inside the window {(lo, hi)}, got {int(mask.sum())}")
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


# Exponent bands of the verdicts: 2 is the curved far-zone law, 1 the flat/thermal law.
DESITTER_BAND = (1.8, 2.2)
FLAT_BAND = (0.8, 1.2)


def classify(fit: PowerLawFit) -> Classification:
    """Threshold rule on the fitted exponent, with the crossover left honest."""
    p = fit.exponent
    notes = (
        f"exponent {p:.4f} over window [{fit.window[0]:.6g}, {fit.window[1]:.6g}] "
        f"({fit.n_points} envelope points, residual rms {fit.residual_rms:.2e})"
    )
    if DESITTER_BAND[0] <= p <= DESITTER_BAND[1]:
        return Classification(Verdict.DESITTER_FAR, fit, notes + "; consistent with a curved far-zone 1/L^2 law")
    if FLAT_BAND[0] <= p <= FLAT_BAND[1]:
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
    file_row, (L, dE_S, dE_A) = csvio.read_columns(path_or_buf, ("L", "dE_S", "dE_A"))
    ok = _valid_samples(L, dE_S, dE_A)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"bad sweep row {file_row(i)}: L={L[i]}, dE_S={dE_S[i]}, dE_A={dE_A[i]} ({_SAMPLE_RULE})")
    return L, dE_S


def write_sweep_csv(path_or_buf, L, dE_S) -> None:
    """Write a sweep as columns L, dE_S, dE_A = -dE_S and envelope, byte-stable for fixed input.

    The envelope column is 1 at the interior local maxima of |dE_S| and 0
    elsewhere.  Each dE_S is formatted once: the ``%.17g`` text of -x is that
    of x with its leading ``-`` toggled (``nan`` stays ``nan``).
    """
    L = np.asarray(L, dtype=float)
    dE_S = np.asarray(dE_S, dtype=float)
    envelope = _interior_maxima(np.abs(dE_S))

    def rows(start: int, stop: int) -> str:
        s = list(map("%.17g".__mod__, dE_S[start:stop].tolist()))
        a = [t[1:] if t[0] == "-" else t if t == "nan" else "-" + t for t in s]
        fields = zip(L[start:stop].tolist(), s, a, envelope[start:stop].tolist())
        return "".join(map("%.17g,%s,%s,%d\r\n".__mod__, fields))

    csvio.write_rows(path_or_buf, ("L", "dE_S", "dE_A", "envelope"), L.size, rows)
