"""The contract of the 14 frozen records: what ``@dataclass(frozen=True)`` gave them, pinned class by class."""

import numpy as np
import pytest

from rcpi.config import AtomPair, EvolveSettings, RunConfig, SweepSettings, ToleranceSettings
from rcpi.discriminator import Classification, PowerLawFit, SweepRecord, Verdict
from rcpi.geometry import DeSitterPatch, TemperatureDecomposition, ThermalBath
from rcpi.liouvillian import GeneratorMatrices, Trajectory
from rcpi.quadrature import IntegralResult

_FIT = dict(exponent=2.0, amplitude=1.0, residual_rms=0.01, window=(1.0, 10.0), n_points=5)
_FIT_REPR = "PowerLawFit(exponent=2.0, amplitude=1.0, residual_rms=0.01, window=(1.0, 10.0), n_points=5)"
_ATOMS_REPR = "AtomPair(omega0=1.0, mu=0.1, L=1.0)"
_TOLERANCES_REPR = "ToleranceSettings(quad_abs_tol=1e-09, quad_rel_tol=1e-07)"

# (class, every field by name in order, the pinned repr).  Trajectory holds numpy arrays, which have no == or hash.
RECORDS = [
    (DeSitterPatch, dict(alpha=1.0, r=0.5), "DeSitterPatch(alpha=1.0, r=0.5)"),
    (ThermalBath, dict(temperature=0.5), "ThermalBath(temperature=0.5)"),
    (
        TemperatureDecomposition,
        dict(T=1.0, T_f=0.5, T_a=0.25, a=2.0),
        "TemperatureDecomposition(T=1.0, T_f=0.5, T_a=0.25, a=2.0)",
    ),
    (
        IntegralResult,
        dict(value=1.0, error=1e-9, evaluations=24),
        "IntegralResult(value=1.0, error=1e-09, evaluations=24)",
    ),
    (AtomPair, dict(omega0=1.0, mu=0.1, L=1.0), _ATOMS_REPR),
    (
        SweepSettings,
        dict(L_min=30.0, L_max=1000.0, n_points=100, spacing="log"),
        "SweepSettings(L_min=30.0, L_max=1000.0, n_points=100, spacing='log')",
    ),
    (EvolveSettings, dict(rho0="E", tau_max=10.0, stride=0.5), "EvolveSettings(rho0='E', tau_max=10.0, stride=0.5)"),
    (ToleranceSettings, dict(quad_abs_tol=1e-9, quad_rel_tol=1e-7), _TOLERANCES_REPR),
    (
        RunConfig,
        dict(
            spacetime=DeSitterPatch(1.0),
            atoms=AtomPair(1.0, 0.1, 1.0),
            sweep=None,
            evolve=None,
            tolerances=ToleranceSettings(),
        ),
        f"RunConfig(spacetime=DeSitterPatch(alpha=1.0, r=0.0), atoms={_ATOMS_REPR}, sweep=None, evolve=None, "
        f"tolerances={_TOLERANCES_REPR})",
    ),
    (
        GeneratorMatrices,
        dict(omega0=1.0, a2=0.1, at1=1.0, bt1=0.5, at2=0.1, bt2=0.1),
        "GeneratorMatrices(omega0=1.0, a2=0.1, at1=1.0, bt1=0.5, at2=0.1, bt2=0.1)",
    ),
    (SweepRecord, dict(L=1.0, delta_E_S=-0.5, delta_E_A=0.5), "SweepRecord(L=1.0, delta_E_S=-0.5, delta_E_A=0.5)"),
    (PowerLawFit, _FIT, _FIT_REPR),
    (
        Classification,
        dict(verdict=Verdict.DESITTER_FAR, fit=PowerLawFit(**_FIT), notes="notes"),
        f"Classification(verdict=<Verdict.DESITTER_FAR: 'DeSitterFar'>, fit={_FIT_REPR}, notes='notes')",
    ),
]
TRAJECTORY = (
    Trajectory,
    dict(tau=np.zeros(1), populations=np.eye(1, 4), trace=np.ones(1), min_eigenvalue=np.zeros(1)),
    "Trajectory(tau=array([0.]), populations=array([[1., 0., 0., 0.]]), trace=array([1.]), min_eigenvalue=array([0.]))",
)


def _by_class(records):
    return pytest.mark.parametrize("cls, fields, text", [pytest.param(*r, id=r[0].__name__) for r in records])


every_record, hashable_records = _by_class([*RECORDS, TRAJECTORY]), _by_class(RECORDS)


@every_record
def test_repr(cls, fields, text):
    assert repr(cls(*fields.values())) == text
    assert repr(cls(**fields)) == text


@hashable_records
def test_equal_records_hash_alike(cls, fields, text):
    by_position, by_name = cls(*fields.values()), cls(**fields)
    assert by_position == by_name and hash(by_position) == hash(by_name)
    assert by_position != tuple(fields.values())


def test_records_of_different_classes_are_unequal():
    # The same values, field by field, in two classes.
    assert IntegralResult(1.0, 0.1, 1.0) != AtomPair(1.0, 0.1, 1.0)
    assert DeSitterPatch(2.0, 1.0) != DeSitterPatch(2.0, 0.5)


@every_record
def test_frozen(cls, fields, text):
    record = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert repr(record) == text


@every_record
def test_an_argument_missing_unknown_or_repeated_is_a_type_error(cls, fields, text):
    values, first = list(fields.values()), next(iter(fields))
    calls = [
        lambda: cls(**fields, unknown=1),  # unknown
        lambda: cls(*values, None),  # one too many by position
        lambda: cls(*values[:1], **fields),  # the first field twice
        lambda: cls(**{name: value for name, value in fields.items() if name != first}, unknown=values[0]),
    ]
    if cls is not ToleranceSettings:  # whose every field has a default
        calls.append(lambda: cls())
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_defaults():
    assert DeSitterPatch(1.0).r == 0.0
    assert SweepSettings(30.0, 1000.0, 100).spacing == "log"
    config = RunConfig(DeSitterPatch(1.0), AtomPair(1.0, 0.1, 1.0))
    assert config.tolerances == ToleranceSettings() and config.sweep is None and config.evolve is None


def test_replace_builds_and_checks_again():
    patch = DeSitterPatch(1.0)
    assert patch.replace(r=0.5) == DeSitterPatch(1.0, 0.5) and patch.r == 0.0
    assert patch.replace() == patch and patch.replace() is not patch
    with pytest.raises(ValueError, match="strictly inside the horizon"):
        patch.replace(r=1.0)
    with pytest.raises(TypeError):
        patch.replace(radius=0.5)
