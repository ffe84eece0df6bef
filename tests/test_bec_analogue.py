"""Condensate dispersion, mode weights, and the impurity protocol mapping."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from chitomo.bec_analogue import (
    BecParams,
    BogoliubovWeighted,
    bogoliubov_omega,
    bogoliubov_weight,
    map_to_protocol,
    params_from_dict,
)
from chitomo.errors import ValidationError
from chitomo.fileio import read_json, write_json
from chitomo.gaussian_field import ModeSet
from chitomo.pulse_protocol import (
    Constant,
    CustomRadial,
    Delta,
    PulseSchedule,
    SphericalGaussian,
    displacement_param,
    schedule_from_dict,
    schedule_to_dict,
    smearing_ft,
)

from documents import fields_of

WEIGHT_AT_MU = 0.7598356856515925   # (1/3)^{1/4}, where E_k = g rho0


def params(g_g=0.0, g_e=0.02, g_rho0=1.0, m_B=1.0, rho0=1.0):
    return BecParams(rho0=rho0, g_g=g_g, g_e=g_e, g_rho0=g_rho0, m_B=m_B)


def template(tau=1.0, N=3, smearing=None):
    return PulseSchedule(
        lam=1.0,  # placeholder; the mapping replaces the coupling
        tau=tau,
        N=N,
        smearing=Delta() if smearing is None else smearing,
        switching=Constant(1.0),
    )


# -------------------------------------------------------------- dispersion

def test_params_validation():
    with pytest.raises(ValidationError):
        params(rho0=0.0)
    with pytest.raises(ValidationError):
        params(g_rho0=-1.0)
    with pytest.raises(ValidationError):
        BecParams(rho0=1.0, g_g=0.0, g_e=0.02, g_rho0=1.0, m_B=0.0)


def test_dispersion_limits():
    p = params()
    # sound speed c and healing length xi_h of the condensate
    c = math.sqrt(p.g_rho0 / p.m_B)
    xi_h = 1.0 / math.sqrt(2.0 * p.m_B * p.g_rho0)
    # phonon branch: linear within 1% for k << 1/xi_h
    for k in (0.01 / xi_h, 0.1 / xi_h):
        assert bogoliubov_omega(k, p) / (c * k) == pytest.approx(1.0, abs=0.01)
    # free branch: the free-particle energy k^2 / 2 m_B at large k
    k = 80.0 / xi_h
    assert bogoliubov_omega(k, p) / (k**2 / (2.0 * p.m_B)) == pytest.approx(1.0, abs=1e-3)
    # exact midpoint value, E(E + 2 g rho0) at E = g rho0
    k_mu = math.sqrt(2.0 * p.m_B * p.g_rho0)
    assert bogoliubov_omega(k_mu, p) == pytest.approx(math.sqrt(3.0) * p.g_rho0, rel=1e-14)


def test_weight_values_and_limits():
    p = params()
    k_mu = math.sqrt(2.0 * p.m_B * p.g_rho0)  # E_k = g rho0
    assert bogoliubov_weight(k_mu, p) == pytest.approx(WEIGHT_AT_MU, abs=1e-15)
    assert bogoliubov_weight(200.0, p) == pytest.approx(1.0, abs=1e-4)
    # phonon suppression: w ~ sqrt(k / (2 m c)), within 1% deep in the branch
    c = math.sqrt(p.g_rho0 / p.m_B)
    k = 0.02 * math.sqrt(2.0 * p.m_B * p.g_rho0)  # 0.02 / healing length
    assert bogoliubov_weight(k, p) == pytest.approx(math.sqrt(k / (2.0 * p.m_B * c)), rel=0.01)
    with pytest.raises(ValidationError):
        bogoliubov_weight(0.0, p)
    # vector k accepted
    assert bogoliubov_weight([0.0, k_mu], params()) == pytest.approx(WEIGHT_AT_MU, abs=1e-15)


def test_weighted_smearing_composes():
    p = params()
    w = BogoliubovWeighted(base=SphericalGaussian(sigma=0.5), m_B=p.m_B, g_rho0=p.g_rho0)
    k = 1.3
    want = bogoliubov_weight(k, p) * math.exp(-0.5 * 0.25 * k**2)
    assert smearing_ft(w, k, 1) == pytest.approx(want, abs=1e-15)
    flipped = BogoliubovWeighted(base=SphericalGaussian(sigma=0.5), m_B=p.m_B,
                                 g_rho0=p.g_rho0, sign=-1.0)
    assert smearing_ft(flipped, k, 1) == -smearing_ft(w, k, 1)
    with pytest.raises(ValidationError):
        BogoliubovWeighted(base=Delta(), m_B=1.0, g_rho0=1.0, sign=0.5)


# ----------------------------------------------------------------- mapping

def modes_1d(*js):
    return ModeSet(spatial_dim=1, box_side=2 * math.pi, mass=1.0,
                   mode_indices=[[j] for j in js])


def test_map_builds_weighted_schedule():
    p = params(g_g=0.0, g_e=0.02)
    mapped = map_to_protocol(p, modes_1d(1, 2, 3), template())
    assert not mapped.no_signal
    assert mapped.lambda_eff == pytest.approx(0.01, rel=1e-15)
    assert mapped.schedule.lam == pytest.approx(0.01, rel=1e-15)
    # dispersion comes from the condensate, not the mode set's mass term
    for m, j in enumerate((1, 2, 3)):
        assert mapped.omegas[m] == pytest.approx(bogoliubov_omega(float(j), p), rel=1e-14)
        assert mapped.weights[m] == pytest.approx(bogoliubov_weight(float(j), p), rel=1e-14)
    assert mapped.displacements().shape == (3,)


def test_map_no_signal_when_couplings_match():
    mapped = map_to_protocol(params(g_g=0.02, g_e=0.02), modes_1d(1, 2), template())
    assert mapped.no_signal
    assert mapped.schedule is None
    np.testing.assert_array_equal(mapped.displacements(), np.zeros(2, dtype=complex))


def test_map_folds_negative_coupling_into_sign():
    fwd = map_to_protocol(params(g_g=0.0, g_e=0.02), modes_1d(1, 2), template())
    rev = map_to_protocol(params(g_g=0.02, g_e=0.0), modes_1d(1, 2), template())
    assert rev.lambda_eff == -fwd.lambda_eff
    assert rev.schedule.lam == fwd.schedule.lam  # magnitude stored
    np.testing.assert_array_equal(rev.displacements(), -fwd.displacements())


def test_map_rejects_zero_mode():
    with pytest.raises(ValidationError):
        map_to_protocol(params(), modes_1d(0, 1), template())


BOX_3D = ModeSet(spatial_dim=3, box_side=2 * math.pi, mass=0.0, mode_indices=[
    (a, b, c) for a in range(-3, 4) for b in range(-3, 4) for c in range(-3, 4)
    if (a, b, c) != (0, 0, 0)
])


class Frozen:
    """A smearing whose transform is one fixed value at every k."""

    def __init__(self, value):
        self.value = value

    def ft(self, kmag, n):
        return self.value


def test_mapped_run_equals_weighted_scalar_run():
    # a mapped run must be bit-identical, mode by mode, to a plain run whose
    # profile is pre-multiplied by the mode weight, whatever the base profile;
    # a real-valued base once divided a real F(k) by omega tau, which differs
    # from the complex division of the plain run in the last bit
    p = params(g_g=0.03, g_e=0.01)  # negative lambda_eff branch too
    r = np.linspace(0.0, 3.0, 257)
    radial = CustomRadial(r=tuple(r), f=tuple(np.exp(-((r / 0.5) ** 2))))
    for base in (Delta(), SphericalGaussian(sigma=0.3), radial):
        for modes in (modes_1d(2), BOX_3D):
            mapped = map_to_protocol(p, modes, template(tau=1.3, N=4, smearing=base))
            n = modes.spatial_dim
            xi_plain = []
            for m, kvec in enumerate(modes.wavevectors):
                k = float(np.linalg.norm(kvec))
                plain = PulseSchedule(lam=mapped.schedule.lam, tau=1.3, N=4,
                                      smearing=Frozen(mapped.schedule.smearing.ft(k, n)),
                                      switching=Constant(1.0))
                xi_plain.append(displacement_param(plain, k, float(mapped.omegas[m]),
                                                   modes.box_side, n))
            assert mapped.displacements().tobytes() == np.array(xi_plain).tobytes()


def test_dispersion_takes_a_stack_of_wave_vectors():
    p = params()
    stack = BOX_3D.wavevectors
    for fn in (bogoliubov_omega, bogoliubov_weight):
        rows = fn(stack, p)
        assert rows.shape == (BOX_3D.n_modes,)
        assert rows.tobytes() == np.array([fn(k, p) for k in stack]).tobytes()
    # a 1-D k stays one wave vector
    assert np.ndim(bogoliubov_omega([3.0, 4.0], p)) == 0
    assert bogoliubov_omega([3.0, 4.0], p) == bogoliubov_omega(5.0, p)
    with pytest.raises(ValidationError):
        bogoliubov_weight(np.array([[1.0, 0.0], [0.0, 0.0]]), p)


def test_mapped_schedule_serializes():
    mapped = map_to_protocol(params(), modes_1d(1), template())
    doc = schedule_to_dict(mapped.schedule)
    assert doc["smearing"]["kind"] == "bogoliubov_weighted"
    assert schedule_from_dict(doc) == mapped.schedule


def test_mapped_schedule_reads_back_after_importing_only_pulse_protocol():
    # the package registers bogoliubov_weighted on any import, so a written
    # weighted schedule reads back without importing chitomo.bec_analogue
    weighted = template(smearing=SphericalGaussian(sigma=0.3))
    sched = map_to_protocol(params(g_e=-0.02), modes_1d(1), weighted).schedule
    doc = json.dumps(schedule_to_dict(sched))
    code = (
        "import json; from chitomo.pulse_protocol import schedule_from_dict; "
        f"print(schedule_from_dict(json.loads({doc!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.strip() == repr(sched)


# ------------------------------------------------------------ serialization

def test_params_roundtrip(tmp_path):
    p = params(g_g=0.011, g_e=0.023, g_rho0=1.7, m_B=0.9)
    assert params_from_dict(fields_of(p)) == p
    path = tmp_path / "bec.json"
    write_json(path, fields_of(p))
    assert params_from_dict(read_json(path)) == p
