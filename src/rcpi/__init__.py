"""Resonance Casimir-Polder interactions of an entangled atom pair.

Computes the separation-dependent energy shift of the symmetric and
antisymmetric two-atom states for a conformally coupled massless scalar
field, either in the static patch of de Sitter spacetime or in a thermal
Minkowski bath, and classifies sweeps by their envelope decay law: the
curved far zone falls off as 1/L^2, the flat/thermal law always as 1/L.
"""

__version__ = "0.1.0"

from .dicke import DickeState
from .discriminator import (
    Classification,
    InsufficientOscillationsError,
    PowerLawFit,
    SweepRecord,
    Verdict,
    classify,
    envelope_points,
    extract_envelope,
    fit_power_law,
)
from .geometry import (
    DeSitterPatch,
    SpacetimeConfig,
    TemperatureDecomposition,
    ThermalBath,
    euclidean_separation,
    field_temperature,
    kappa,
    local_temperature,
    response_shape,
)
from .liouvillian import (
    EvolutionError,
    GeneratorMatrices,
    Trajectory,
    assemble_generator,
    build_coefficients,
    dissipator_coefficients,
    evolve,
)
from .quadrature import IntegralResult, QuadratureError, rcpi_integral
from .shifts import (
    Regime,
    rcpi_asymptotic,
    rcpi_closed,
    rcpi_closed_desitter,
    rcpi_closed_minkowski,
    rcpi_quadrature,
)
