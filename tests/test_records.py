"""The record base against the stdlib: each value class behaves as a frozen
dataclass with the same fields would, which the tests take as the reference.
And each class a document reader builds takes every field as its reader does."""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import field, make_dataclass

import numpy as np
import pytest

from chitomo import bec_analogue, fock_oracle, gaussian_field, pulse_protocol, ramsey_readout
from chitomo import tomography
from chitomo.errors import Record, ValidationError, read_object

_MODES = gaussian_field.ModeSet(1, 2 * math.pi, 1.0, ((1,),))
_AXES = (tomography.grid_axis(2.0, 5),) * 2
_DELTA, _CONSTANT = pulse_protocol.Delta(), pulse_protocol.Constant()
_U = np.eye(3, dtype=complex)

# every record class, with keyword arguments of valid instances: the first
# complete, any further one leaving defaults out
CASES = [
    (bec_analogue.BecParams, [dict(rho0=1.0, g_g=0.1, g_e=0.3, g_rho0=1.0, m_B=1.0)]),
    (bec_analogue.BogoliubovWeighted, [dict(base=_DELTA, m_B=1.0, g_rho0=2.0, sign=-1.0),
                                       dict(base=_DELTA, m_B=1.0, g_rho0=2.0)]),
    (bec_analogue.MappedProtocol, [dict(modes=_MODES, schedule=None, omegas=np.ones(1),
                                        weights=np.ones(1), lambda_eff=0.0)]),
    (fock_oracle.FieldMode, [dict(k=1.0, omega=1.5, box_side=2 * math.pi, spatial_dim=1.0)]),
    (fock_oracle.SegmentOperators, [dict(dim=3, u_g=_U, u_e=_U, half_g=_U, half_e=_U, leak=0.0)]),
    (gaussian_field.ModeSet, [dict(spatial_dim=2, box_side=3.0, mass=0.0,
                                   mode_indices=[[1, 0], [0, 2]])]),
    (gaussian_field.SqueezedThermal, [dict(n=0.5, r=0.3, theta=7.0), dict(n=0.5, r=0.3)]),
    (gaussian_field.Vacuum, [{}]),
    (gaussian_field.Thermal, [dict(n=0.7)]),
    (gaussian_field.Squeezed, [dict(r=0.4, theta=1.1), dict(r=0.4)]),
    (gaussian_field.GaussianFieldState, [
        dict(modes=_MODES, mode_states=(gaussian_field.Thermal(n=0.7),))]),
    (pulse_protocol.SphericalGaussian, [dict(sigma=0.5)]),
    (pulse_protocol.Delta, [{}]),
    (pulse_protocol.CustomRadial, [dict(r=[0.0, 1.0], f=[1.0, 0.0])]),
    (pulse_protocol.Constant, [dict(value=2.0), {}]),
    (pulse_protocol.GaussianWindow, [dict(center=0.5, width=0.2, relative=True),
                                     dict(center=0.5, width=0.2)]),
    (pulse_protocol.CustomSwitching, [dict(t=[0.0, 1.0], eta=[1.0, 0.5])]),
    (pulse_protocol.PulseSchedule, [dict(lam=0.01, tau=1.0, N=2.0, smearing=_DELTA,
                                         switching=_CONSTANT)]),
    (pulse_protocol.Curve, [dict(N=1, taus=np.ones(2), xis=np.zeros(2, complex))]),
    (ramsey_readout.QubitState, [dict(bx=0.1, by=0.2, bz=0.3)]),
    (ramsey_readout.ReadoutRecord, [dict(xi=np.zeros(1, complex), theta=0.5, shots=100,
                                         est_sx=0.1, est_sy=0.2, stderr_sx=0.01, stderr_sy=0.01,
                                         chi_est=0.3 + 0.1j, seed=7)]),
    (tomography._Grid, []),  # its subclasses supply the cast it needs
    (tomography.ChiGrid, [dict(axes=_AXES, values=np.ones((5, 5)), provenance="sampled",
                               shots=10, stderr=np.zeros((5, 5))),
                          dict(axes=_AXES, values=np.ones((5, 5)))]),
    (tomography.WignerGrid, [dict(axes=_AXES, values=np.ones((5, 5)), normalization=0.25,
                                  imag_residual=1e-17),
                             dict(axes=_AXES, values=np.ones((5, 5)), normalization=0.25)]),
    (tomography.GaussianFit, [dict(covariance=np.eye(2), residual=0.0, psd_ok=True,
                                   uncertainty_ok=True, nbar=(0.0,), n_points=9)]),
]

# the classes compared by identity, as dataclasses declared with eq=False
IDENTITY = {bec_analogue.MappedProtocol, fock_oracle.SegmentOperators, tomography._Grid,
            tomography.ChiGrid, tomography.WignerGrid, tomography.GaussianFit}


@functools.cache
def twin(cls):
    """The frozen dataclass that the class body of cls declares: each field
    with its annotation and default, a pinned field as init=False and
    repr=False, on the twin of cls's record base."""
    bases = () if cls.__base__ is Record else (twin(cls.__base__),)
    fields = []
    for name, annotation in cls.__dict__.get("__annotations__", {}).items():
        if name not in cls._args:
            spec = field(default=getattr(cls, name), init=False, repr=False)
        else:
            spec = field(default=getattr(cls, name)) if hasattr(cls, name) else field()
        fields.append((name, annotation, spec))
    return make_dataclass(cls.__qualname__, fields, bases=bases, frozen=True,
                          eq=cls not in IDENTITY)


def outcome(call):
    """call()'s value, or the type of what it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc)


def _records(cls=Record):
    """The record classes of the package (a test may declare its own)."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("chitomo."):
            yield sub
        yield from _records(sub)


def test_every_record_class_is_compared():
    assert {cls for cls, _ in CASES} == set(_records())
    assert len(CASES) == 25


@pytest.mark.parametrize("cls,examples", CASES, ids=[cls.__qualname__ for cls, _ in CASES])
def test_a_record_behaves_as_its_dataclass_twin(cls, examples):
    ref = twin(cls)
    assert inspect.signature(cls) == inspect.signature(ref)
    for kwargs in examples:
        a = cls(**kwargs)
        b = cls(*kwargs.values()) if len(kwargs) == len(cls._args) else cls(**kwargs)
        # the twin takes the fields that __post_init__ has converted
        ta, tb = (ref(**{name: getattr(r, name) for name in cls._args}) for r in (a, b))
        assert repr(a) == repr(ta)
        for x, y, tx, ty in ((a, b, ta, tb), (a, a, ta, ta), (a, "other", ta, "other")):
            assert outcome(lambda: x == y) == outcome(lambda: tx == ty)
            assert outcome(lambda: x != y) == outcome(lambda: tx != ty)
        if cls in IDENTITY:
            assert hash(a) == object.__hash__(a) and hash(ta) == object.__hash__(ta)
        else:
            assert outcome(lambda: hash(a)) == outcome(lambda: hash(ta))
        for name in (*cls._fields, "other"):
            for obj in (a, ta):
                with pytest.raises(AttributeError):
                    setattr(obj, name, 1.0)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
    for bad in ({"no_such_field": 1.0}, {"args": (1.0,) * (len(cls._args) + 1)}):
        call = (lambda c: c(*bad["args"])) if "args" in bad else (lambda c: c(**bad))
        assert outcome(lambda: call(cls)) is outcome(lambda: call(ref)) is TypeError


# ------------------------------------------------ the class and its readers agree

_STATE = {"spatial_dim": 1, "box_side": 6.0, "mass": 1.0}
_SCHEDULE = {"smearing": {"kind": "delta"}, "switching": {"kind": "constant"}}


def _mode_set_doc(kw):
    indices = kw["mode_indices"]
    modes = [{"j": j} for j in indices] if isinstance(indices, list) else indices
    return {"spatial_dim": kw["spatial_dim"], "box_side": kw["box_side"], "mass": kw["mass"],
            "modes": modes}


# each class a document reader builds: valid keyword arguments in document
# form, and the record that the reader makes of them
READERS = {
    **{cls: lambda kw, kind=kind: pulse_protocol.smearing_from_dict({"kind": kind, **kw})
       for kind, cls in pulse_protocol._SMEARING_KINDS.items()},
    **{cls: lambda kw, kind=kind: pulse_protocol.switching_from_dict({"kind": kind, **kw})
       for kind, cls in pulse_protocol._SWITCHING_KINDS.items()},
    **{cls: lambda kw, kind=kind: gaussian_field.state_from_dict(
        {**_STATE, "modes": [{"j": [1], "kind": kind, "params": kw}]}).mode_states[0]
       for kind, cls in gaussian_field._KINDS.items()},
    bec_analogue.BecParams: bec_analogue.params_from_dict,
    pulse_protocol.PulseSchedule: lambda kw: pulse_protocol.schedule_from_dict(
        {"lambda": kw["lam"], "tau": kw["tau"], "N": kw["N"], **_SCHEDULE}),
    gaussian_field.ModeSet: lambda kw: gaussian_field.state_from_dict(_mode_set_doc(kw)).modes,
    fock_oracle.FieldMode: lambda kw: read_object(kw, fock_oracle.FieldMode, "mode"),
}
VALID = {
    pulse_protocol.SphericalGaussian: dict(sigma=0.5),
    pulse_protocol.CustomRadial: dict(r=[0.0, 1.0], f=[1.0, 0.0]),
    bec_analogue.BogoliubovWeighted: dict(base={"kind": "delta"}, m_B=1.0, g_rho0=2.0, sign=-1.0),
    pulse_protocol.Constant: dict(value=2.0),
    pulse_protocol.GaussianWindow: dict(center=0.5, width=0.2, relative=True),
    pulse_protocol.CustomSwitching: dict(t=[0.0, 1.0], eta=[1.0, 0.5]),
    gaussian_field.SqueezedThermal: dict(n=0.5, r=0.3, theta=7.0),
    gaussian_field.Thermal: dict(n=0.7),
    gaussian_field.Squeezed: dict(r=0.4, theta=1.1),
    bec_analogue.BecParams: dict(rho0=1.0, g_g=0.1, g_e=0.3, g_rho0=1.0, m_B=1.0),
    pulse_protocol.PulseSchedule: dict(lam=0.01, tau=1.0, N=2),
    gaussian_field.ModeSet: dict(spatial_dim=2, box_side=3.0, mass=0.5,
                                 mode_indices=[[1, 0], [0, 2]]),
    fock_oracle.FieldMode: dict(k=1.0, omega=1.5, box_side=2 * math.pi, spatial_dim=1),
}
# the value each field of a probed record takes in turn
PROBES = ["0.3", "x", "no", True, False, None, -1.0, 0, 2, 2.5, math.nan, math.inf, 5,
          [0.3], [[1]], [[1, 2]], {"kind": "delta"}]


def _built(cls, kw):
    if cls is pulse_protocol.PulseSchedule:
        return cls(**kw, smearing=_DELTA, switching=pulse_protocol.Constant())
    return cls(**kw)


def _made(call):
    """call()'s record, or the ValidationError it raised."""
    try:
        return call()
    except ValidationError as exc:
        return exc


def test_every_document_class_is_probed():
    assert set(VALID) | {pulse_protocol.Delta, gaussian_field.Vacuum} == set(READERS)


@pytest.mark.parametrize("cls", READERS, ids=lambda cls: cls.__qualname__)
def test_a_record_and_its_reader_take_each_field_alike(cls):
    # a value the reader refuses is refused by the class, by name (or for a
    # rule across fields or a nested document, with the reader's own message);
    # a value the reader converts is stored converted
    valid = VALID.get(cls, {})
    assert READERS[cls](valid) == _built(cls, valid)
    for name in (name for name in cls._args if name in cls._rules):
        for probe in PROBES:
            kw = {**valid, name: probe}
            read, built = _made(lambda: READERS[cls](kw)), _made(lambda: _built(cls, kw))
            if isinstance(read, ValidationError):
                assert isinstance(built, ValidationError), (name, probe, built)
                head = str(built).split(" = ")[0]
                assert head.endswith(name) or str(built) == str(read), (name, probe, built)
            else:
                assert built == read and repr(getattr(built, name)) == repr(getattr(read, name))
