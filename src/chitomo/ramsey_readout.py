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
point, and reads the count k of +1 outcomes as the mean (k - (M - k)) / M;
at shots 0 the readout is exact and gives chi back as it is.
Each basis has one counter-based (Philox) stream keyed by (seed,
basis), consumed in point order, so a given seed and point list always give
the same samples.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import Record, ValidationError, at_least, converted, finite, positive
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


class QubitState(Record):
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
    theta must be finite; sin th = 0 is a valid state that reads out nothing.
    """
    chi = complex(chi)
    _check_characteristic(chi)
    s = math.sin(converted(finite, theta, "theta"))
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


def _draw(bloch, M: int, rng: np.random.Generator):
    """The count of +1 among M projective +-1 reads with P(+1) = (1 + bloch)/2:
    one binomial draw per element of bloch."""
    return rng.binomial(M, np.clip((1.0 + bloch) / 2.0, 0.0, 1.0))


def _count_ratio(k, M: int):
    """Mean of M +-1 reads of which k are +1, and its binomial standard error
    sqrt((1 - mean^2)/M), elementwise over the counts k.

    The mean is the count ratio (k - (M - k)) / M; integer counts stay int64
    up to the one division, where 2 * k - M would overflow int64 near
    MAX_SHOTS. For M <= 2**53 that is the correctly rounded (2k - M)/M:
    exactly +-1 at k = 0 or M, and for M = 2**a 5**b (10**4, 10**5) an exact
    short decimal whose repr is that decimal.
    """
    k = np.asarray(k)
    est = (k - (M - k)) / M
    return est, np.sqrt(np.maximum(1.0 - est * est, 0.0) / M)


def _chi_stderr(err_x, err_y, s: float):
    """Combined chi error sqrt(err_x^2 + err_y^2)/|sin theta| of the two bases."""
    return np.sqrt(err_x**2 + err_y**2) / abs(s)


def sample_shots(qs: QubitState, basis: str, M: int, rng) -> ShotResult:
    """Sample mean of M projective +-1 measurements of sigma_basis.

    P(+1) = (1 + <sigma>)/2; returns the sample mean, the count ratio
    (k - (M - k)) / M of k reads of +1, and its binomial standard error
    sqrt((1 - mean^2)/M). rng is a numpy Generator, such as shot_rng's. The
    draw and the arithmetic are readout_chi's, so the two agree bit for bit.
    """
    M = converted(at_least(1, MAX_SHOTS), M, "shot count M")
    est, stderr = _count_ratio(_draw(bloch_expectation(qs, basis), M, rng), M)
    return ShotResult(estimate=float(est), stderr=float(stderr))


def _sin_theta(theta) -> float:
    """sin(theta) of a finite theta whose sin is not rounding of 0.

    Where theta's own spacing is a radian or more, the float theta fixes no
    angle, so any sin it has is refused as rounding.
    """
    s = math.sin(converted(finite, theta, "theta"))
    ulp = float(np.spacing(abs(theta)))
    if ulp >= 1.0:
        raise ValidationError(f"theta = {theta!r} fixes no angle: its float spacing, {ulp:.3g}, "
                              "is 1 radian or more, so its sin is rounding: "
                              "protocol encodes no information")
    if abs(s) <= ulp:
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
    return math.ceil(2.0 / converted(positive, target_error, "target_error") ** 2)


class ChiReadout(NamedTuple):
    """Arrays of X/Y estimates with their binomial errors, the chi estimate,
    and its combined error sqrt(stderr_sx^2 + stderr_sy^2)/|sin theta|.

    A sampled estimate is the count ratio (k - (M - k)) / M (see
    sample_shots); at theta = pi/2, where sin is exactly 1.0, chi_est holds
    the two ratios unchanged. An exact readout's chi_est is chi itself.
    """

    est_sx: NDArray[np.float64]
    est_sy: NDArray[np.float64]
    stderr_sx: NDArray[np.float64]
    stderr_sy: NDArray[np.float64]
    chi_est: NDArray[np.complex128]
    chi_stderr: NDArray[np.float64]


def _readout_args(theta, shots, seed) -> tuple[int, int, float]:
    """shots (0 to MAX_SHOTS), seed (>= 0) and sin(theta) of a readout, each
    refused by name: the one check of readout_chi's arguments."""
    shots = converted(at_least(0, MAX_SHOTS), shots, "shots")
    return shots, converted(at_least(0), seed, "seed"), _sin_theta(theta)


def readout_chi(chi, theta: float, shots: int = 0, seed: int = 0) -> ChiReadout:
    """Read out an array of chi values through the qubit, elementwise.

    The Bloch components are (sin th Im chi, sin th Re chi). theta, shots
    (0 to MAX_SHOTS) and seed (>= 0) are checked before any draw. shots = 0
    returns them exactly, with zero errors, and chi itself as chi_est.
    Otherwise each basis takes one binomial draw of M = shots per point from
    shot_rng(seed, basis), basis 0 for X and 1 for Y, in the points' C order,
    and its estimate is the count ratio (k - (M - k)) / M of the k reads of +1.
    """
    chi = np.asarray(chi, dtype=complex)
    shots, seed, s = _readout_args(theta, shots, seed)
    _check_characteristic(chi)
    bloch_x, bloch_y = s * chi.imag, s * chi.real
    if shots == 0:
        est_x, est_y, chi_est = bloch_x, bloch_y, chi
        err_x = err_y = np.zeros(chi.shape)
    else:
        est_x, err_x = _count_ratio(_draw(bloch_x, shots, shot_rng(seed, 0)), shots)
        est_y, err_y = _count_ratio(_draw(bloch_y, shots, shot_rng(seed, 1)), shots)
        chi_est = estimate_chi(est_x, est_y, theta)
    return ChiReadout(est_x, est_y, err_x, err_y, chi_est, _chi_stderr(err_x, err_y, s))


def _counts(chi, theta: float, shots: int) -> ChiReadout:
    """The readout behind chi estimates that readout_chi drew with shots >= 1.

    Elementwise over chi of any shape, each basis's count of +1 reads is
    k = rint(M (1 + sin(theta) c) / 2), with c = Im chi for X and Re chi for
    Y, and _count_ratio turns it into the basis's estimate and error as in
    readout_chi. So for M <= 2**53 every field is readout_chi's bit for bit,
    chi_est being the chi given. The counts are floats, so a NaN chi (an
    unmeasured point) carries NaN through; a cell that was not read out as
    one point, such as one the fill averaged, gives no count of its own.
    """
    s = _sin_theta(theta)
    M = converted(at_least(1, MAX_SHOTS), shots, "shots")
    chi = np.asarray(chi, dtype=complex)
    (est_x, err_x), (est_y, err_y) = (_count_ratio(np.rint(M * (1.0 + s * c) / 2.0), M)
                                      for c in (chi.imag, chi.real))
    return ChiReadout(est_x, est_y, err_x, err_y, chi, _chi_stderr(err_x, err_y, s))


class ReadoutRecord(Record):
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
