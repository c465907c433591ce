"""Run configuration: a flat JSON document mapped onto dataclasses.

Each dataclass checks its fields as it is built and raises a ``ConfigError``
that names the offending field; the CLI maps it to exit code 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .geometry import DeSitterPatch, SpacetimeConfig, ThermalBath, euclidean_separation


class ConfigError(ValueError):
    """A configuration document failed validation; the message names the field."""


def _require_positive_finite(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class AtomPair:
    """Transition frequency, coupling, and separation of the two probes.

    The separation is either the chord distance L directly, or the pair
    (r, delta_theta) on the sphere of static radius r, which gives the chord
    L = 2 r sin(delta_theta / 2).  L and spacetime.r are independent inputs:
    spacetime.r enters only through kappa = sqrt(alpha^2 - r^2), and no route
    requires L <= 2 spacetime.r.
    """

    omega0: float
    mu: float
    L: float | None = None
    r: float | None = None
    delta_theta: float | None = None

    def __post_init__(self) -> None:
        for name in ("omega0", "mu"):
            _require_positive_finite(f"atoms.{name}", getattr(self, name))
        by_angle = self.r is not None or self.delta_theta is not None
        if self.L is None and not (self.r is not None and self.delta_theta is not None):
            raise ConfigError("atoms: give either L or both r and delta_theta")
        if self.L is not None and by_angle:
            raise ConfigError("atoms: give L or (r, delta_theta), not both")
        if self.L is not None:
            _require_positive_finite("atoms.L", self.L)
        else:
            _require_positive_finite("atoms.r", self.r)
            if not 0.0 < self.delta_theta <= math.pi:
                raise ConfigError(f"atoms.delta_theta must lie in (0, pi], got {self.delta_theta}")

    def separation(self) -> float:
        if self.L is not None:
            return self.L
        return euclidean_separation(self.r, self.delta_theta)


@dataclass(frozen=True)
class SweepSettings:
    L_min: float
    L_max: float
    n_points: int
    spacing: str = "log"

    def __post_init__(self) -> None:
        for name in ("L_min", "L_max"):
            _require_positive_finite(f"sweep.{name}", getattr(self, name))
        if not self.L_min < self.L_max:
            raise ConfigError(f"sweep bounds must satisfy 0 < L_min < L_max, got [{self.L_min}, {self.L_max}]")
        if not (isinstance(self.n_points, int) and self.n_points >= 2):
            raise ConfigError(f"sweep.n_points must be an integer of at least 2, got {self.n_points!r}")
        if self.spacing not in ("log", "linear"):
            raise ConfigError(f"sweep.spacing must be 'log' or 'linear', got {self.spacing!r}")


@dataclass(frozen=True)
class EvolveSettings:
    rho0: str
    tau_max: float
    stride: float

    def __post_init__(self) -> None:
        if self.rho0 not in ("G", "E", "S", "A"):
            raise ConfigError(f"evolve.rho0 must be one of G, E, S, A, got {self.rho0!r}")
        _require_positive_finite("evolve.tau_max", self.tau_max)
        if not (0 < self.stride <= self.tau_max):
            raise ConfigError(f"evolve.stride must lie in (0, tau_max], got {self.stride}")


@dataclass(frozen=True)
class ToleranceSettings:
    """Targets of the resonance quadrature; only ``rcpi shift`` runs it, so they affect no other command."""

    quad_abs_tol: float = 1e-9
    quad_rel_tol: float = 1e-7

    def __post_init__(self) -> None:
        for name in ("quad_abs_tol", "quad_rel_tol"):
            _require_positive_finite(f"tolerances.{name}", getattr(self, name))


@dataclass(frozen=True)
class OutputSettings:
    path: str | None = None


@dataclass(frozen=True)
class RunConfig:
    spacetime: SpacetimeConfig
    atoms: AtomPair
    sweep: SweepSettings | None = None
    evolve: EvolveSettings | None = None
    tolerances: ToleranceSettings = field(default_factory=ToleranceSettings)
    output: OutputSettings = field(default_factory=OutputSettings)


def _spacetime_from_dict(d: dict) -> SpacetimeConfig:
    kind = d.get("type")
    try:
        if kind == "desitter":
            return DeSitterPatch(alpha=float(d["alpha"]), r=float(d.get("r", 0.0)))
        if kind == "thermal":
            return ThermalBath(temperature=float(d["temperature"]))
    except KeyError as exc:
        raise ConfigError(f"spacetime: missing field {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"spacetime: {exc}") from None
    raise ConfigError(f"spacetime.type must be 'desitter' or 'thermal', got {kind!r}")


def _section(cls, d: dict | None, name: str):
    if d is None:
        return None
    if not isinstance(d, dict):
        raise ConfigError(f"{name}: expected an object, got {type(d).__name__}")
    try:
        return cls(**d)
    except TypeError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    unknown = set(doc) - {"spacetime", "atoms", "sweep", "evolve", "tolerances", "output"}
    if unknown:
        raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")
    if "spacetime" not in doc:
        raise ConfigError("spacetime: section is required")
    if "atoms" not in doc:
        raise ConfigError("atoms: section is required")
    try:
        spacetime = _spacetime_from_dict(doc["spacetime"])
        atoms = _section(AtomPair, doc["atoms"], "atoms")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(
        spacetime=spacetime,
        atoms=atoms,
        sweep=_section(SweepSettings, doc.get("sweep"), "sweep"),
        evolve=_section(EvolveSettings, doc.get("evolve"), "evolve"),
        tolerances=_section(ToleranceSettings, doc.get("tolerances"), "tolerances") or ToleranceSettings(),
        output=_section(OutputSettings, doc.get("output"), "output") or OutputSettings(),
    )


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return config_from_dict(doc)

