"""The exact integer and boolean field kinds, and the allowed-fields rule."""
from __future__ import annotations

import math

import numpy as np
import pytest

from chitomo.errors import ValidationError, boolean, converted, integer, known_fields
from chitomo.fock_oracle import (
    FieldMode,
    build_segment,
    evolve_pulse_sequence,
    ladder,
    run_displacement_draws,
    verify_displacement_composition,
)
from chitomo.gaussian_field import ModeSet
from chitomo.pulse_protocol import Constant, Delta, PulseSchedule, smearing_ft, switching_integral
from chitomo.ramsey_readout import QubitState, readout_chi, sample_shots, shot_rng


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
    "sample_shots.M": lambda v: sample_shots(QubitState(0.0, 0.0, 1.0), "x", v, 0),
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


def test_known_fields_names_the_unknown_field():
    known_fields({"a": 1}, ("a", "b"), "doc")  # an allowed field may be missing
    with pytest.raises(ValidationError, match=r"^doc has unknown field\(s\) 'c'; it takes a, b$"):
        known_fields({"a": 1, "c": 2}, ("a", "b"), "doc")
    with pytest.raises(ValidationError, match="it takes none"):
        known_fields({"c": 2}, (), "doc")
    with pytest.raises(ValidationError, match="must be an object"):
        known_fields([1], ("a",), "doc")
