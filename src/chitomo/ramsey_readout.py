"""Auxiliary-qubit preparation, encoding and Pauli readout.

After the rotation R(theta, phi) and the 2N-pulse sequence, the reduced qubit
state is

    rho_q = 1/2 [ 1 - cos(theta) sigma_z
                  + sin(theta) (Im[chi] sigma_x + Re[chi] sigma_y) ],

so the Bloch vector is (sin(theta) Im chi, sin(theta) Re chi, -cos(theta))
and chi is read out as (<sigma_y> + i <sigma_x>) / sin(theta). The Pauli
matrices are the standard ones for the basis ordered (excited, ground);
written in the (ground, excited) ordering, sigma_z = diag(-1, +1) and
sigma_y = [[0, i], [-i, 0]]. This is the convention under which the formula
above reproduces an explicit joint qubit-field simulation. This module works
on Bloch vectors only; the matrices themselves live in fock_oracle, which
restates them on purpose, and in the tests.

The map from chi to the Bloch vector is elementwise, so readout_chi runs it
over whole arrays of chi values at once. Finite-shot mode draws M independent
+-1 outcomes per basis with P(+1) = (1 + <sigma>)/2, as one binomial draw per
point. Each basis has one counter-based (Philox) stream keyed by (seed,
basis), consumed in point order, so a given seed and point list always give
the same samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ValidationError, at_least, converted
from .gaussian_field import GaussianFieldState, char_points

__all__ = [
    "QubitState",
    "ShotResult",
    "ChiReadout",
    "ReadoutRecord",
    "final_qubit_state",
    "bloch_expectation",
    "shot_rng",
    "sample_shots",
    "estimate_chi",
    "readout_chi",
    "required_shots",
    "run_readout_scan",
]


@dataclass(frozen=True)
class QubitState:
    """Qubit state as a Bloch vector; rho = (1 + b . sigma)/2."""

    bx: float
    by: float
    bz: float

    def __post_init__(self) -> None:
        if self.norm > 1.0 + 1e-12:
            raise ValidationError(f"Bloch vector norm {self.norm} exceeds 1")

    @property
    def norm(self) -> float:
        return math.sqrt(self.bx**2 + self.by**2 + self.bz**2)


def _check_characteristic(chi) -> None:
    worst = float(np.max(np.abs(chi), initial=0.0))
    if worst > 1.0 + 1e-9:
        raise ValidationError(f"|chi| = {worst} > 1 is not a characteristic value")


def final_qubit_state(theta: float, chi: complex) -> QubitState:
    """Qubit state after the full sequence, given chi(xi) of the field.

    Bloch vector (sin th Im chi, sin th Re chi, -cos th); purity
    |b| = sqrt(cos^2 th + sin^2 th |chi|^2) <= 1 with equality iff |chi| = 1.
    """
    chi = complex(chi)
    _check_characteristic(chi)
    s = math.sin(theta)
    return QubitState(bx=s * chi.imag, by=s * chi.real, bz=-math.cos(theta))


def bloch_expectation(qs: QubitState, basis: str) -> float:
    """Exact <sigma_basis> for basis "x", "y" or "z"."""
    try:
        return {"x": qs.bx, "y": qs.by, "z": qs.bz}[basis]
    except KeyError:
        raise ValidationError(f"unknown basis {basis!r}") from None


# the largest shot count numpy's binomial draw takes (an int64)
MAX_SHOTS = 2**63 - 1


def shot_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for a named stream.

    Streams derived from the same seed but different stream indices (the
    readout uses one per basis) are statistically independent.
    """
    ss = np.random.SeedSequence(
        entropy=converted(at_least(0), seed, "seed"), spawn_key=tuple(int(s) for s in stream)
    )
    return np.random.Generator(np.random.Philox(ss))


class ShotResult(NamedTuple):
    estimate: float
    stderr: float


def _sample_mean(bloch, M: int, rng: np.random.Generator):
    """Mean of M projective +-1 reads with P(+1) = (1 + bloch)/2 and its
    binomial standard error sqrt((1 - mean^2)/M), elementwise over bloch."""
    k = rng.binomial(M, np.clip((1.0 + bloch) / 2.0, 0.0, 1.0))
    est = 2.0 * k / M - 1.0
    return est, np.sqrt(np.maximum(1.0 - est * est, 0.0) / M)


def sample_shots(qs: QubitState, basis: str, M: int, rng) -> ShotResult:
    """Sample mean of M projective +-1 measurements of sigma_basis.

    P(+1) = (1 + <sigma>)/2; returns the sample mean and its binomial
    standard error sqrt((1 - mean^2)/M). rng is a Generator or an int seed.
    """
    M = converted(at_least(1, MAX_SHOTS), M, "shot count M")
    if not isinstance(rng, np.random.Generator):
        rng = shot_rng(rng)
    est, stderr = _sample_mean(bloch_expectation(qs, basis), M, rng)
    return ShotResult(estimate=float(est), stderr=float(stderr))


def _sin_theta(theta) -> float:
    """sin(theta) of a finite theta whose sin is not rounding of 0."""
    if not math.isfinite(theta):
        raise ValidationError(f"theta = {theta!r} must be finite")
    s = math.sin(theta)
    if abs(s) <= np.spacing(abs(theta)):
        raise ValidationError(f"sin(theta) = {s:.3g} is rounding of 0 at theta = {theta!r}: "
                              "protocol encodes no information")
    return s


def estimate_chi(rec_x, rec_y, theta: float):
    """chi estimate (est_sy + i est_sx)/sin(theta) from X- and Y-basis reads.

    Accepts ShotResults, floats or arrays of estimates (elementwise). theta
    with sin(theta) = 0 encodes no field information on the qubit and is
    rejected. A float multiple of pi has a sin of rounding size, not 0, so
    any |sin(theta)| within theta's own spacing counts as 0. theta must be
    finite.
    """
    s = _sin_theta(theta)
    est_x, est_y = getattr(rec_x, "estimate", rec_x), getattr(rec_y, "estimate", rec_y)
    return est_y / s + 1j * (est_x / s)


def required_shots(target_error: float) -> int:
    """Per-basis shot count for a target chi error, M = ceil(2 / Delta^2).

    The constant 2 is the worst case of two unit-variance Pauli estimators
    entering quadratically, Delta_chi^2 = Delta_sx^2 + Delta_sy^2.
    """
    if not target_error > 0:
        raise ValidationError("target error must be positive")
    return math.ceil(2.0 / target_error**2)


class ChiReadout(NamedTuple):
    """Arrays of X/Y estimates with their binomial errors, the chi estimate,
    and its combined error sqrt(stderr_sx^2 + stderr_sy^2)/|sin theta|."""

    est_sx: NDArray[np.float64]
    est_sy: NDArray[np.float64]
    stderr_sx: NDArray[np.float64]
    stderr_sy: NDArray[np.float64]
    chi_est: NDArray[np.complex128]
    chi_stderr: NDArray[np.float64]


def readout_chi(chi, theta: float, shots: int = 0, seed: int = 0) -> ChiReadout:
    """Read out an array of chi values through the qubit, elementwise.

    The Bloch components are (sin th Im chi, sin th Re chi). theta, shots
    (0 to MAX_SHOTS) and seed (>= 0) are checked before any draw. shots = 0
    returns them exactly, with zero errors. Otherwise each basis takes one
    binomial draw of M = shots per point from shot_rng(seed, basis), basis 0
    for X and 1 for Y, in the points' C order.
    """
    chi = np.asarray(chi, dtype=complex)
    shots = converted(at_least(0, MAX_SHOTS), shots, "shots")
    seed = converted(at_least(0), seed, "seed")
    s = _sin_theta(theta)
    _check_characteristic(chi)
    bloch_x, bloch_y = s * chi.imag, s * chi.real
    if shots == 0:
        est_x, est_y = bloch_x, bloch_y
        err_x = err_y = np.zeros(chi.shape)
    else:
        est_x, err_x = _sample_mean(bloch_x, shots, shot_rng(seed, 0))
        est_y, err_y = _sample_mean(bloch_y, shots, shot_rng(seed, 1))
    chi_est = estimate_chi(est_x, est_y, theta)
    return ChiReadout(
        est_x, est_y, err_x, err_y, chi_est, np.sqrt(err_x**2 + err_y**2) / abs(s)
    )


@dataclass(frozen=True)
class ReadoutRecord:
    """One (xi, theta) readout: Pauli estimates and the implied chi."""

    xi: NDArray[np.complex128]
    theta: float
    shots: int
    est_sx: float
    est_sy: float
    stderr_sx: float
    stderr_sy: float
    chi_est: complex
    seed: int


def run_readout_scan(
    state: GaussianFieldState,
    xi_points: Sequence,
    theta: float,
    shots: int = 0,
    seed: int = 0,
) -> list[ReadoutRecord]:
    """Readout records for a sequence of displacement points, in point order.

    Each point is a complex scalar (single mode) or a length-n_modes
    sequence. shots = 0 means exact mode. chi of the whole scan comes from one
    char_points call and is read out in one readout_chi call.
    """
    try:
        xis = np.asarray(xi_points, dtype=complex).reshape(len(xi_points), state.n_modes)
    except ValueError:
        raise ValidationError(f"each point needs {state.n_modes} complex entries") from None
    r = readout_chi(char_points(state, xis), theta, shots, seed)
    return [
        ReadoutRecord(xi, theta, int(shots), sx, sy, ex, ey, c, int(seed))
        for xi, sx, sy, ex, ey, c in zip(xis, *(a.tolist() for a in r[:5]))
    ]
