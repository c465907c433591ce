"""Run configuration: a flat JSON document mapped onto frozen records.

``_section`` checks each section against the names, defaults and annotated
kinds of its record's fields; each record checks the ranges of its values
as it is built.  Each error is a ``ConfigError`` naming the field, or the
section where the record names none; the CLI maps it to exit code 1.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

from ._record import Record
from .dicke import DickeState
from .geometry import DeSitterPatch, SpacetimeConfig, ThermalBath, _require_envelope, response_shape
from .quadrature import DEFAULT_ABS_TOL, DEFAULT_REL_TOL

if TYPE_CHECKING:
    import numpy as np


class ConfigError(ValueError):
    """A configuration document failed validation; the message names the field."""


# Most grid points a config may ask for, in a sweep or a trajectory.  A point
# costs about 35 (sweep) to 60 (evolve) bytes of peak memory (see the README),
# so a run at the cap needs about 0.4 GB for a sweep and 0.6 GB for a trajectory.
MAX_GRID_POINTS = 10**7


def _require_positive_finite(name: str, value: float) -> None:
    """The rule of ``geometry._require_positive``, raised as the ConfigError that names ``section.field``."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {value}")


class AtomPair(Record):
    """Transition frequency, coupling, and separation L of the two probes.

    L enters the cross response through ``geometry.response_shape``; the
    static radius the pair shares is ``spacetime.r``, which sets kappa.
    """

    omega0: float
    mu: float
    L: float

    def __post_init__(self) -> None:
        for name in ("omega0", "mu", "L"):
            _require_positive_finite(f"atoms.{name}", getattr(self, name))


class SweepSettings(Record):
    """The separations of ``rcpi sweep``: n_points from L_min to L_max, log-spaced."""

    L_min: float
    L_max: float
    n_points: int
    spacing: str = "log"

    def __post_init__(self) -> None:
        for name in ("L_min", "L_max"):
            _require_positive_finite(f"sweep.{name}", getattr(self, name))
        if not self.L_min < self.L_max:
            raise ConfigError(f"sweep bounds must satisfy 0 < L_min < L_max, got [{self.L_min}, {self.L_max}]")
        if not (isinstance(self.n_points, int) and 2 <= self.n_points <= MAX_GRID_POINTS):
            raise ConfigError(
                f"sweep.n_points must be an integer from 2 to {MAX_GRID_POINTS}, got {self.n_points!r}"
            )
        if self.spacing != "log":
            raise ConfigError(f"sweep.spacing must be 'log', got {self.spacing!r}")

    def grid(self) -> np.ndarray:
        """The ``n_points`` log-spaced separations from L_min to L_max."""
        import numpy as np  # deferred, as for every array: `rcpi shift` loads no numpy

        return np.geomspace(self.L_min, self.L_max, self.n_points)


class EvolveSettings(Record):
    """The trajectory of ``rcpi evolve``: the Dicke state it starts in, its end tau_max and its output stride."""

    rho0: str
    tau_max: float
    stride: float

    def __post_init__(self) -> None:
        names = [state.value for state in DickeState]
        if self.rho0 not in names:
            raise ConfigError(f"evolve.rho0 must be one of {', '.join(names)}, got {self.rho0!r}")
        _require_positive_finite("evolve.tau_max", self.tau_max)
        if not (0 < self.stride <= self.tau_max):
            raise ConfigError(f"evolve.stride must lie in (0, tau_max], got {self.stride}")
        # floor(tau_max / stride) + 1 points, without the floor, which fails on an infinite ratio.
        if self.tau_max / self.stride >= MAX_GRID_POINTS:
            raise ConfigError(
                f"evolve.tau_max {self.tau_max} and evolve.stride {self.stride} give more than "
                f"{MAX_GRID_POINTS} grid points"
            )

    def grid(self) -> np.ndarray:
        """0, stride, 2 stride, ... ending at tau_max: appended if the stride misses it, in place of a point past it."""
        import numpy as np  # deferred, as for every array: `rcpi shift` loads no numpy

        n = int(np.floor(self.tau_max / self.stride + 1e-9)) + 1
        tau = np.arange(n) * self.stride
        tau[-1] = min(tau[-1], self.tau_max)
        if tau[-1] < self.tau_max - 1e-12 * self.tau_max:
            tau = np.append(tau, self.tau_max)
        return tau


class ToleranceSettings(Record):
    """Targets of the resonance quadrature; only ``rcpi shift`` runs it, so they affect no other command."""

    quad_abs_tol: float = DEFAULT_ABS_TOL
    quad_rel_tol: float = DEFAULT_REL_TOL

    def __post_init__(self) -> None:
        for name in ("quad_abs_tol", "quad_rel_tol"):
            _require_positive_finite(f"tolerances.{name}", getattr(self, name))


class RunConfig(Record):
    """A whole run configuration: each section checked, and the spacetime checked against the atoms and sweep."""

    spacetime: SpacetimeConfig
    atoms: AtomPair
    sweep: SweepSettings | None = None
    evolve: EvolveSettings | None = None
    tolerances: ToleranceSettings = ToleranceSettings()

    def __post_init__(self) -> None:
        # c grows with L, so the largest separation of each command bounds every c it computes,
        # and the smallest bounds the envelope mu^2 / (4 pi c) of every shift.
        largest = {"atoms.L": self.atoms.L} | ({"sweep.L_max": self.sweep.L_max} if self.sweep else {})
        for name, L in largest.items():
            try:
                response_shape(self.spacetime, L)
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from None
        smallest = {"atoms.L": self.atoms.L} | ({"sweep.L_min": self.sweep.L_min} if self.sweep else {})
        for name, L in smallest.items():
            try:
                _require_envelope(self.atoms.mu, response_shape(self.spacetime, L)[1], at=f"{name}={L}")
            except ValueError as exc:
                raise ConfigError(f"atoms.mu: {exc}") from None


_SPACETIMES = {"desitter": DeSitterPatch, "thermal": ThermalBath}
_KINDS = {"float": ("a number", (int, float)), "int": ("an integer", int), "str": ("a string", str)}


def _section(cls, d: dict | None, name: str):
    """``cls(**d)`` for the record class ``cls``.  An unknown key, a missing field without a default and a value
    not of the field's annotated kind (a bool is never a number) raise a ConfigError naming ``section.field``;
    a ValueError or OverflowError of ``cls``, such as an integer too large for a float, one naming the section."""
    if d is None:
        return None
    for key, value in d.items():
        if key not in cls._fields:
            raise ConfigError(f"{name}.{key} is not a field of {cls.__name__}")
        kind, types = _KINDS[cls._fields[key]]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"{name}.{key} must be {kind}, got {json.dumps(value)}")
    for field in cls._fields:
        if field not in d and field not in cls._defaults:
            raise ConfigError(f"{name}.{field} is required")
    try:
        return cls(**d)
    except ConfigError:
        raise
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    unknown = set(doc) - {"spacetime", "atoms", "sweep", "evolve", "tolerances"}
    if unknown:
        raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")
    for name in ("spacetime", "atoms"):
        if doc.get(name) is None:
            raise ConfigError(f"{name}: section is required")
    for name, d in doc.items():
        if not isinstance(d, dict | None):
            raise ConfigError(f"{name}: expected an object, got {type(d).__name__}")
    spacetime = dict(doc["spacetime"])
    kind = spacetime.pop("type", None)
    if not (isinstance(kind, str) and kind in _SPACETIMES):
        raise ConfigError(f"spacetime.type must be 'desitter' or 'thermal', got {kind!r}")
    return RunConfig(
        spacetime=_section(_SPACETIMES[kind], spacetime, "spacetime"),
        atoms=_section(AtomPair, doc["atoms"], "atoms"),
        sweep=_section(SweepSettings, doc.get("sweep"), "sweep"),
        evolve=_section(EvolveSettings, doc.get("evolve"), "evolve"),
        tolerances=_section(ToleranceSettings, doc.get("tolerances"), "tolerances") or ToleranceSettings(),
    )


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return config_from_dict(doc)

