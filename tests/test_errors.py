"""The exact integer, finite number and boolean field kinds, and the
allowed-fields rule."""
from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

from chitomo.bec_analogue import BecParams, BogoliubovWeighted
from chitomo.errors import ValidationError, boolean, converted, integer, known_fields, real
from chitomo.fock_oracle import (
    FieldMode,
    _squeezer,
    build_segment,
    evolve_pulse_sequence,
    fock_density,
    ladder,
    run_displacement_draws,
    verify_displacement_composition,
)
from chitomo.gaussian_field import ModeSet, SqueezedThermal, Thermal
from chitomo.pulse_protocol import (
    Constant,
    Delta,
    GaussianWindow,
    PulseSchedule,
    SphericalGaussian,
    displacement_surface,
    reachable_manifold,
    smearing_ft,
    switching_integral,
)
from chitomo.ramsey_readout import (
    QubitState, final_qubit_state, readout_chi, required_shots, sample_shots, shot_rng,
)
from chitomo.tomography import _boundary_tol


@pytest.mark.parametrize("value", [2, 2.0, np.int64(2), np.float64(2.0)])
def test_integer_accepts_exact_integers(value):
    got = integer(value)
    assert got == 2 and type(got) is int
    assert integer(10**400) == 10**400  # beyond the float range, still exact


@pytest.mark.parametrize("value", [2.5, "2", True, math.nan, math.inf, None, [2]])
def test_integer_refuses_what_int_would_coerce(value):
    with pytest.raises(ValidationError, match=r"^grid\.points = "):
        converted(integer, value, "grid.points")


@pytest.mark.parametrize("value", [True, False])
def test_boolean_accepts_json_booleans(value):
    assert boolean(value) is value


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_boolean_refuses_everything_else(value):
    with pytest.raises(ValidationError, match="^half = "):
        converted(boolean, value, "half")


_SCHED = PulseSchedule(lam=0.01, tau=1.0, N=1, smearing=Delta(), switching=Constant(1.0))
_FIELD_MODE = FieldMode(k=1.0, omega=1.0, box_side=2 * math.pi, spatial_dim=1)
_SEG = build_segment(_SCHED, _FIELD_MODE, 16)

# one library call per integer argument, taking the bad value
_INTEGER_ARGUMENTS = {
    "ModeSet.mode_indices": lambda v: ModeSet(1, 6.28, 1.0, ((v,),)),
    "ModeSet.spatial_dim": lambda v: ModeSet(v, 6.28, 1.0, ((1,),)),
    "FieldMode.spatial_dim": lambda v: FieldMode(1.0, 1.0, 6.28, v),
    "smearing_ft.n": lambda v: smearing_ft(Delta(), 1.0, v),
    "switching_integral.n": lambda v: switching_integral(Constant(1.0), 1.0, 1.0, 6.28, v),
    "run_displacement_draws.n_draws": lambda v: run_displacement_draws(v, D=16),
    "run_displacement_draws.seed": lambda v: run_displacement_draws(1, D=16, seed=v),
    "ladder.D": lambda v: ladder(v),
    "build_segment.D": lambda v: build_segment(_SCHED, _FIELD_MODE, v),
    "evolve_pulse_sequence.N": lambda v: evolve_pulse_sequence(_SEG, v),
    "verify_displacement_composition.N": lambda v: verify_displacement_composition(
        0.1, 0.7, v, D=16),
    "sample_shots.M": lambda v: sample_shots(QubitState(0.0, 0.0, 1.0), "x", v, shot_rng(0)),
    "readout_chi.shots": lambda v: readout_chi([0.5], 1.0, v, 0),
    "readout_chi.seed": lambda v: readout_chi([0.5], 1.0, 10, v),
    "shot_rng.seed": lambda v: shot_rng(v),
}


@pytest.mark.parametrize("argument", sorted(_INTEGER_ARGUMENTS))
@pytest.mark.parametrize("bad", [16.5, True])
def test_library_integer_arguments_are_exact(argument, bad):
    # 16.5 is not truncated to 16, nor True read as 1
    with pytest.raises(ValidationError, match=" = "):
        _INTEGER_ARGUMENTS[argument](bad)


_BEC = {"rho0": 1.0, "g_g": 0.0, "g_e": 0.02, "g_rho0": 1.0, "m_B": 1.0}
_MODE = {"k": 1.0, "omega": 1.0, "box_side": 6.28, "spatial_dim": 1}
_PULSE = {"lam": 0.01, "tau": 1.0, "N": 1, "smearing": Delta(), "switching": Constant(1.0)}

# one library call per physical parameter, taking the bad value; the last part
# of each name is the name the refusal gives. The Fock oracle's xi, x, y, n, r
# and theta, the readout's theta and grid_axis's extent are refused by name in
# their own modules' tests.
_REAL_ARGUMENTS = {
    **{f"BecParams.{name}": lambda v, name=name: BecParams(**{**_BEC, name: v}) for name in _BEC},
    "BogoliubovWeighted.m_B": lambda v: BogoliubovWeighted(Delta(), v, 1.0),
    "BogoliubovWeighted.g_rho0": lambda v: BogoliubovWeighted(Delta(), 1.0, v),
    **{f"FieldMode.{name}": lambda v, name=name: FieldMode(**{**_MODE, name: v})
       for name in ("k", "omega", "box_side")},
    "ModeSet.box_side": lambda v: ModeSet(1, v, 1.0, ((1,),)),
    "ModeSet.mass": lambda v: ModeSet(1, 6.28, v, ((1,),)),
    "SqueezedThermal.n": lambda v: SqueezedThermal(v, 0.1, 0.2),
    "SqueezedThermal.r": lambda v: SqueezedThermal(0.5, v, 0.2),
    "SqueezedThermal.theta": lambda v: SqueezedThermal(0.5, 0.1, v),
    "SphericalGaussian.sigma": lambda v: SphericalGaussian(v),
    "GaussianWindow.center": lambda v: GaussianWindow(v, 0.2),
    "GaussianWindow.width": lambda v: GaussianWindow(0.5, v),
    "Constant.value": lambda v: Constant(v),
    "PulseSchedule.lam": lambda v: PulseSchedule(**{**_PULSE, "lam": v}),
    "PulseSchedule.tau": lambda v: PulseSchedule(**{**_PULSE, "tau": v}),
    "displacement_surface.lam": lambda v: displacement_surface(v, Delta(), Constant(1.0), [1],
                                                               [1.0], [1.0], [1.0], 6.28, 1),
    "smearing_ft.|k|": lambda v: smearing_ft(Delta(), [0.5, v], 2),
    "switching_integral.tau": lambda v: switching_integral(Constant(1.0), [1.0, v], 1.0, 6.28, 1),
    "switching_integral.omega": lambda v: switching_integral(Constant(1.0), 1.0, [v], 6.28, 1),
    "switching_integral.L": lambda v: switching_integral(Constant(1.0), 1.0, 1.0, v, 1),
    "required_shots.target_error": lambda v: required_shots(v),
}


@pytest.mark.parametrize("argument", sorted(_REAL_ARGUMENTS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_physical_parameters_refuse_non_finite_values_by_name(argument, bad):
    name = re.escape(argument.split(".")[-1])
    with pytest.raises(ValidationError, match=rf"^{name} = .+ is not usable: a finite number"):
        _REAL_ARGUMENTS[argument](bad)


# one library call per real field, taking a complex value; the last part of
# each name is the name the refusal gives
_COMPLEX_ARGUMENTS = {
    "BecParams.g_g": lambda v: BecParams(**{**_BEC, "g_g": v}),
    "FieldMode.k": lambda v: FieldMode(**{**_MODE, "k": v}),
    "GaussianWindow.center": lambda v: GaussianWindow(center=v, width=1.0),
    "SqueezedThermal.theta": lambda v: SqueezedThermal(0.5, 0.1, v),
    "readout_chi.theta": lambda v: readout_chi([0.5], v, 10, 0),
    "final_qubit_state.theta": lambda v: final_qubit_state(v, 0.5),
    "displacement_surface.lam": lambda v: displacement_surface(v, Delta(), Constant(1.0), [1],
                                                               [1.0], [1.0], [1.0], 6.28, 1),
}


@pytest.mark.parametrize("argument", sorted(_COMPLEX_ARGUMENTS))
@pytest.mark.parametrize("bad", [1j, 1 + 0j, np.complex128(1j), np.complex64(1)])
def test_real_fields_refuse_complex_values_by_name(argument, bad):
    # a complex value is refused, not cut to its real part nor left to fail
    # in the arithmetic with a bare TypeError
    name = re.escape(argument.split(".")[-1])
    with pytest.raises(ValidationError, match=rf"^{name} = .+ is not usable: a real number"):
        _COMPLEX_ARGUMENTS[argument](bad)


@pytest.mark.parametrize("argument", sorted(_COMPLEX_ARGUMENTS))
@pytest.mark.parametrize("bad", ["1.5", b"1.5"])
def test_real_fields_refuse_numeric_strings_by_name(argument, bad):
    # float() would parse the string as the number 1.5
    name = re.escape(argument.split(".")[-1])
    kind = type(bad).__name__
    with pytest.raises(ValidationError,
                       match=rf"^{name} = .+ is not usable: a real number is expected, not {kind}"):
        _COMPLEX_ARGUMENTS[argument](bad)


@pytest.mark.parametrize("argument", sorted(_COMPLEX_ARGUMENTS))
@pytest.mark.parametrize("bad", [[1.5], {"a": 1.5}, None])
def test_real_fields_refuse_lists_objects_and_null_by_the_same_rule(argument, bad):
    # float() refused these in its own words ("float() argument must be ...")
    name = re.escape(argument.split(".")[-1])
    kind = type(bad).__name__
    with pytest.raises(ValidationError,
                       match=rf"^{name} = .+ is not usable: a real number is expected, not {kind}$"):
        _COMPLEX_ARGUMENTS[argument](bad)


@pytest.mark.parametrize("value", [np.float64(0.25), np.float32(0.25), np.int8(3),
                                   np.array(0.25), np.array(3)])
def test_a_0d_numpy_value_is_a_real_number(value):
    assert real(value) == float(value) and type(real(value)) is float


@pytest.mark.parametrize("value", [0.25, -0.0, math.nan, -math.inf, 5e-324])
def test_a_python_float_is_returned_as_it_is(value):
    assert real(value) is value


class _Float(float):
    pass


@pytest.mark.parametrize("value", [True, False, "1.5", 1j, complex(1.0, 0.0), None])
def test_a_value_that_is_not_exactly_a_float_is_still_checked(value):
    with pytest.raises(TypeError, match=f"a real number is expected, not {type(value).__name__}"):
        real(value)
    assert type(real(_Float(0.5))) is float  # a float subclass is read through float()


_SCHEDULE = PulseSchedule(lam=0.1, tau=1.0, N=1, smearing=Delta(), switching=Constant(1.0))
_PROBE = (0.1, Delta(), Constant(1.0))

# one library call per real array argument, taking an array that holds the
# value; the last part of each name is the name the refusal gives
_COMPLEX_ARRAY_ARGUMENTS = {
    "smearing_ft.k": lambda v: smearing_ft(Delta(), [0.5, v], 2),
    "switching_integral.tau": lambda v: switching_integral(Constant(1.0), [1.0, v], 1.0, 6.28, 1),
    "switching_integral.omega_k": lambda v: switching_integral(Constant(1.0), 1.0, [1.0, v],
                                                               6.28, 1),
    "displacement_surface.taus": lambda v: displacement_surface(*_PROBE, [1], [1.0, v], [1.0],
                                                                [1.0], 6.28, 1),
    "displacement_surface.kmag": lambda v: displacement_surface(*_PROBE, [1], [1.0], [v],
                                                                [1.0], 6.28, 1),
    "displacement_surface.omega": lambda v: displacement_surface(*_PROBE, [1], [1.0], [1.0],
                                                                 [v], 6.28, 1),
    "reachable_manifold.tau_grid": lambda v: reachable_manifold(_SCHEDULE, [1], [1.0, v], 1.0,
                                                                1.0, 6.28, 1),
}


@pytest.mark.parametrize("argument", sorted(_COMPLEX_ARRAY_ARGUMENTS))
@pytest.mark.parametrize("bad", [1j, np.complex128(1)])
def test_real_arrays_refuse_complex_values_by_name(argument, bad):
    # not cut to real parts with a ComplexWarning, nor left to fail with a
    # bare TypeError
    name = re.escape(argument.split(".")[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match=rf"^{name} = .+ is not usable: real numbers are expected"):
            _COMPLEX_ARRAY_ARGUMENTS[argument](bad)


def test_the_boundary_values_stay_accepted():
    assert ModeSet(1, 6.28, 0.0, ((1,),)).omegas[0] > 0  # mass 0
    assert SqueezedThermal(0.0, 0.0, 0.0).theta == 0.0  # n, r and theta 0
    assert fock_density(Thermal(n=0), 8)[0, 0] == 1.0
    assert np.allclose(_squeezer(8, 0.0, 0.0), np.eye(8))
    assert Constant(0).window_integral(2.0) == 0.0
    assert _boundary_tol(math.inf) == math.inf  # no aliasing guard


def test_known_fields_names_the_unknown_field():
    known_fields({"a": 1}, ("a", "b"), "doc")  # an allowed field may be missing
    with pytest.raises(ValidationError, match=r"^doc has unknown field\(s\) 'c'; it takes a, b$"):
        known_fields({"a": 1, "c": 2}, ("a", "b"), "doc")
    with pytest.raises(ValidationError, match="it takes none"):
        known_fields({"c": 2}, (), "doc")
    with pytest.raises(ValidationError, match="must be an object"):
        known_fields([1], ("a",), "doc")
