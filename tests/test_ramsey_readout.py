"""Qubit-side encoding and shot-noise estimation."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chitomo.errors import ValidationError
from chitomo.gaussian_field import GaussianFieldState, ModeSet, Thermal, char_analytic
from chitomo import ramsey_readout
from chitomo.ramsey_readout import (
    QubitState,
    bloch_expectation,
    estimate_chi,
    final_qubit_state,
    readout_chi,
    required_shots,
    run_readout_scan,
    sample_shots,
    shot_rng,
)

# Pauli matrices in the basis ordering (|g>, |e>); sigma_z|g> = -|g>.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


def rotate(theta: float, phi: float = 0.0):
    """R(theta, phi) = cos(theta/2) I - i sin(theta/2) (cos phi sigma_x
    + sin phi sigma_y). Applied to |g> with phi = 0 this gives
    cos(theta/2)|g> - i sin(theta/2)|e>."""
    return np.cos(theta / 2.0) * np.eye(2, dtype=complex) - 1j * np.sin(theta / 2.0) * (
        np.cos(phi) * SIGMA_X + np.sin(phi) * SIGMA_Y
    )


def density_matrix(qs: QubitState):
    """rho = (1 + b . sigma)/2 of a Bloch vector."""
    return 0.5 * (np.eye(2, dtype=complex) + qs.bx * SIGMA_X + qs.by * SIGMA_Y + qs.bz * SIGMA_Z)


THERMAL = GaussianFieldState(
    modes=ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=1.0, mode_indices=[[1]]),
    mode_states=[Thermal(n=1.0)],
)


# ------------------------------------------------------------ qubit algebra

def test_pauli_algebra():
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        np.testing.assert_array_equal(s @ s, np.eye(2))
        np.testing.assert_array_equal(s, s.conj().T)
    np.testing.assert_allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)


def test_rotate_is_unitary_su2():
    for theta, phi in ((0.3, 0.0), (math.pi / 2, 1.1), (2.5, -0.7)):
        R = rotate(theta, phi)
        np.testing.assert_allclose(R @ R.conj().T, np.eye(2), atol=1e-15)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-15)


def test_rotate_moves_ground_state():
    # |g> is index 0; a theta rotation puts sin^2(theta/2) in |e>
    psi = rotate(0.8, 0.0)[:, 0]
    assert abs(psi[1]) ** 2 == pytest.approx(math.sin(0.4) ** 2, rel=1e-12)
    # pi pulse swaps the populations completely
    psi = rotate(math.pi, 0.0)[:, 0]
    assert abs(psi[0]) < 1e-15


def test_qubit_state_validation_and_density():
    qs = QubitState(bx=0.3, by=-0.4, bz=0.5)
    rho = density_matrix(qs)
    assert np.trace(rho).real == pytest.approx(1.0)
    np.testing.assert_allclose(rho, rho.conj().T)
    assert np.trace(rho @ SIGMA_X).real == pytest.approx(0.3, abs=1e-15)
    assert np.trace(rho @ SIGMA_Y).real == pytest.approx(-0.4, abs=1e-15)
    assert np.trace(rho @ SIGMA_Z).real == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValidationError):
        QubitState(bx=1.0, by=1.0, bz=0.0)


# ----------------------------------------------------------- field encoding

def test_final_state_encodes_chi():
    theta, chi = 0.7, 0.4 - 0.25j
    qs = final_qubit_state(theta, chi)
    assert qs.bx == pytest.approx(math.sin(theta) * chi.imag)
    assert qs.by == pytest.approx(math.sin(theta) * chi.real)
    assert qs.bz == pytest.approx(-math.cos(theta))


def test_final_state_pure_when_chi_unimodular():
    qs = final_qubit_state(math.pi / 2, np.exp(0.3j))
    assert math.hypot(qs.bx, qs.by) == pytest.approx(1.0, rel=1e-12)
    assert qs.bz == pytest.approx(0.0, abs=1e-16)


def test_final_state_rejects_unphysical_chi():
    with pytest.raises(ValidationError):
        final_qubit_state(1.0, 1.5 + 0.0j)


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(0.11, math.pi - 0.11),
    re=st.floats(-1.0, 1.0),
    im=st.floats(-1.0, 1.0),
)
def test_estimate_chi_inverts_encoding(theta, re, im):
    chi = complex(re, im)
    if abs(chi) > 1.0:
        chi /= abs(chi)
    qs = final_qubit_state(theta, chi)
    got = estimate_chi(bloch_expectation(qs, "x"), bloch_expectation(qs, "y"), theta)
    assert got == pytest.approx(chi, abs=1e-12)


def test_estimate_chi_rejects_degenerate_theta():
    # a float multiple of pi has sin of rounding size (1.2e-16 at pi), not 0
    for theta in (0.0, math.pi, -math.pi, 2.0 * math.pi, 1e6 * math.pi):
        with pytest.raises(ValidationError, match="sin"):
            estimate_chi(0.1, 0.1, theta)
    assert estimate_chi(0.1, 0.2, math.pi / 2) == complex(0.2, 0.1)
    assert estimate_chi(0.0, 1e-300, 1e-300) == 1.0


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_is_refused_before_any_draw(theta, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew shots for a non-finite theta")

    monkeypatch.setattr(ramsey_readout, "_sample_mean", no_draw)
    for shots in (0, 10):
        with pytest.raises(ValidationError, match=f"theta = {theta!r} must be finite"):
            readout_chi([0.5], theta, shots=shots)
    with pytest.raises(ValidationError, match="must be finite"):
        estimate_chi(0.1, 0.1, theta)


# ------------------------------------------------------------------- shots

def test_shot_rng_streams_are_reproducible_and_distinct():
    a = shot_rng(7, 3, 0).random(4)
    b = shot_rng(7, 3, 0).random(4)
    c = shot_rng(7, 3, 1).random(4)
    d = shot_rng(8, 3, 0).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_seeds_and_shot_counts_are_refused_by_name():
    # numpy's ValueError and OverflowError escaped from these
    for seed in (-1, 2.5):
        with pytest.raises(ValidationError, match="seed"):
            shot_rng(seed)
        with pytest.raises(ValidationError, match="seed"):
            readout_chi([0.5], 1.0, shots=10, seed=seed)
    qs = QubitState(bx=0.0, by=0.5, bz=0.0)
    with pytest.raises(ValidationError, match="shots = 9223372036854775808 "):
        readout_chi([0.5], 1.0, shots=2**63)
    with pytest.raises(ValidationError, match="shot count M = 9223372036854775808 "):
        sample_shots(qs, "y", 2**63, shot_rng(0))
    assert abs(sample_shots(qs, "y", 2**63 - 1, shot_rng(0)).estimate - 0.5) < 1e-6


def test_sample_shots_statistics():
    qs = final_qubit_state(math.pi / 2, 0.6 + 0.0j)  # <sy> = 0.6
    res = sample_shots(qs, "y", 200_000, shot_rng(0))
    assert res.estimate == pytest.approx(0.6, abs=5 * res.stderr)
    assert res.stderr == pytest.approx(math.sqrt((1 - res.estimate**2) / 200_000))


def test_sample_shots_deterministic_edges():
    qs = QubitState(bx=0.0, by=1.0, bz=0.0)
    res = sample_shots(qs, "y", 100, shot_rng(5))
    assert res == (1.0, 0.0)
    with pytest.raises(ValidationError):
        sample_shots(qs, "y", 0, shot_rng(0))
    with pytest.raises(ValidationError):
        sample_shots(qs, "w", 10, shot_rng(0))


def test_required_shots_values_and_scaling():
    assert required_shots(0.1) == 200
    assert required_shots(0.01) == 20_000
    assert required_shots(0.005) == 80_000
    for delta in (0.1, 0.05, 0.02, 0.01):
        assert required_shots(delta / 2) == 4 * required_shots(delta)
    with pytest.raises(ValidationError):
        required_shots(0.0)


# -------------------------------------------------------------------- scans

def test_exact_scan_reproduces_analytic_chi():
    pts = [0.2, 0.5j, 0.3 + 0.4j]
    recs = run_readout_scan(THERMAL, pts, theta=0.6, shots=0)
    for pt, rec in zip(pts, recs):
        assert rec.chi_est == pytest.approx(char_analytic(THERMAL, pt), abs=1e-14)
        assert rec.stderr_sx == rec.stderr_sy == 0.0
        assert rec.shots == 0


def test_readout_exact_mode_is_the_bloch_map():
    chi = np.array([1.0, 0.4 - 0.25j, -0.3j, 0.0])
    theta = 0.7
    r = readout_chi(chi, theta)
    np.testing.assert_array_equal(r.est_sx, math.sin(theta) * chi.imag)
    np.testing.assert_array_equal(r.est_sy, math.sin(theta) * chi.real)
    for err in (r.stderr_sx, r.stderr_sy, r.chi_stderr):
        np.testing.assert_array_equal(err, 0.0)
    np.testing.assert_allclose(r.chi_est, chi, rtol=0, atol=1e-15)


def test_readout_draws_one_binomial_per_basis_in_point_order():
    chi = np.exp(-0.5 * np.linspace(0.0, 2.0, 7)) * np.exp(1j * np.linspace(0.0, 3.0, 7))
    theta, M, seed = 1.1, 300, 5
    r = readout_chi(chi, theta, shots=M, seed=seed)
    s = math.sin(theta)
    kx = shot_rng(seed, 0).binomial(M, (1.0 + s * chi.imag) / 2.0)
    ky = shot_rng(seed, 1).binomial(M, (1.0 + s * chi.real) / 2.0)
    np.testing.assert_array_equal(r.est_sx, 2.0 * kx / M - 1.0)
    np.testing.assert_array_equal(r.est_sy, 2.0 * ky / M - 1.0)
    np.testing.assert_array_equal(r.stderr_sx, np.sqrt((1.0 - r.est_sx**2) / M))
    np.testing.assert_array_equal(r.chi_stderr, np.sqrt(r.stderr_sx**2 + r.stderr_sy**2) / s)
    again = readout_chi(chi, theta, shots=M, seed=seed)
    for a, b in zip(r, again):
        np.testing.assert_array_equal(a, b)
    other = readout_chi(chi, theta, shots=M, seed=seed + 1)
    assert not np.array_equal(r.chi_est, other.chi_est)


def test_readout_guards():
    with pytest.raises(ValidationError):
        readout_chi([0.5, 1.5], 1.0)
    readout_chi([1.0 + 5e-10], 1.0)  # within the 1e-9 rounding allowance
    with pytest.raises(ValidationError):
        readout_chi([0.5], 1.0, shots=-1)
    with pytest.raises(ValidationError):
        readout_chi([0.5], 1.0, shots=2.5)
    for shots in (0, 10):
        for theta in (0.0, math.pi, -math.pi, 2.0 * math.pi):
            with pytest.raises(ValidationError):
                readout_chi([0.5], theta, shots=shots)
    with pytest.raises(ValidationError):
        run_readout_scan(THERMAL, [0.2], theta=1.0, shots=-1)
    for bad in ([[0.2, 0.3]], [[0.2], [0.1, 0.3]], [0.2, float("nan")]):
        with pytest.raises(ValidationError):
            run_readout_scan(THERMAL, bad, theta=1.0)


def test_scan_records_equal_array_readout():
    pts = [complex(x, y) for x in (-0.4, 0.0, 0.4) for y in (-0.4, 0.0, 0.4)]
    recs = run_readout_scan(THERMAL, pts, theta=1.2, shots=400, seed=11)
    chi = np.array([char_analytic(THERMAL, p) for p in pts])
    r = readout_chi(chi, 1.2, shots=400, seed=11)
    for i, rec in enumerate(recs):
        np.testing.assert_array_equal(rec.xi, [pts[i]])
        assert (rec.est_sx, rec.est_sy) == (r.est_sx[i], r.est_sy[i])
        assert (rec.stderr_sx, rec.stderr_sy) == (r.stderr_sx[i], r.stderr_sy[i])
        assert rec.chi_est == r.chi_est[i]
        assert (rec.theta, rec.shots, rec.seed) == (1.2, 400, 11)
    assert run_readout_scan(THERMAL, [], theta=1.2, shots=400) == []


def test_scan_seed_changes_samples_not_truth():
    pts = [0.3]
    a = run_readout_scan(THERMAL, pts, theta=1.2, shots=50, seed=1)[0]
    b = run_readout_scan(THERMAL, pts, theta=1.2, shots=50, seed=2)[0]
    assert (a.est_sx, a.est_sy) != (b.est_sx, b.est_sy)
    exact = run_readout_scan(THERMAL, pts, theta=1.2, shots=0, seed=1)[0]
    assert exact.chi_est == run_readout_scan(THERMAL, pts, theta=1.2, shots=0, seed=2)[0].chi_est
