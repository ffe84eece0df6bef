"""Auxiliary-qubit preparation, encoding and Pauli readout.

After the rotation R(theta, phi) and the 2N-pulse sequence, the reduced qubit
state is

    rho_q = 1/2 [ 1 - cos(theta) sigma_z
                  + sin(theta) (Im[chi] sigma_x + Re[chi] sigma_y) ],

so the Bloch vector is (sin(theta) Im chi, sin(theta) Re chi, -cos(theta))
and chi is read out as (<sigma_y> + i <sigma_x>) / sin(theta). The Pauli
matrices here are the standard ones for the basis ordered (excited, ground);
written in the (ground, excited) ordering used internally, sigma_z = diag(-1,
+1) and sigma_y = [[0, i], [-i, 0]]. This is the convention under which the
formula above reproduces an explicit joint qubit-field simulation (see
fock_oracle).

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

from .errors import ValidationError
from .gaussian_field import GaussianFieldState, char_analytic

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "QubitState",
    "ShotResult",
    "ChiReadout",
    "ReadoutRecord",
    "rotate",
    "final_qubit_state",
    "bloch_expectation",
    "shot_rng",
    "sample_shots",
    "estimate_chi",
    "readout_chi",
    "required_shots",
    "run_readout_scan",
    "records_table",
]

# Basis ordering (|g>, |e>); sigma_z|g> = -|g>.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)

_BASIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def rotate(theta: float, phi: float = 0.0) -> NDArray[np.complex128]:
    """R(theta, phi) = cos(theta/2) I - i sin(theta/2) (cos phi sigma_x
    + sin phi sigma_y). Applied to |g> with phi = 0 this gives
    cos(theta/2)|g> - i sin(theta/2)|e>."""
    return np.cos(theta / 2.0) * np.eye(2, dtype=complex) - 1j * np.sin(theta / 2.0) * (
        np.cos(phi) * SIGMA_X + np.sin(phi) * SIGMA_Y
    )


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

    def density_matrix(self) -> NDArray[np.complex128]:
        return 0.5 * (
            np.eye(2, dtype=complex)
            + self.bx * SIGMA_X
            + self.by * SIGMA_Y
            + self.bz * SIGMA_Z
        )


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


def shot_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for a named stream.

    Streams derived from the same seed but different stream indices (the
    readout uses one per basis) are statistically independent.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


class ShotResult(NamedTuple):
    estimate: float
    stderr: float


def _shot_count(M) -> int:
    if int(M) != M or M < 1:
        raise ValidationError("shot count M must be an integer >= 1 in sampling mode")
    return int(M)


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
    M = _shot_count(M)
    if not isinstance(rng, np.random.Generator):
        rng = shot_rng(int(rng))
    est, stderr = _sample_mean(bloch_expectation(qs, basis), M, rng)
    return ShotResult(estimate=float(est), stderr=float(stderr))


def estimate_chi(rec_x, rec_y, theta: float):
    """chi estimate (est_sy + i est_sx)/sin(theta) from X- and Y-basis reads.

    Accepts ShotResults, floats or arrays of estimates (elementwise). theta
    with sin(theta) = 0 encodes no field information on the qubit and is
    rejected.
    """
    s = math.sin(theta)
    if s == 0.0:
        raise ValidationError("sin(theta) = 0: protocol encodes no information")
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

    The Bloch components are (sin th Im chi, sin th Re chi). shots = 0 returns
    them exactly, with zero errors. Otherwise each basis takes one binomial
    draw of M = shots per point from shot_rng(seed, basis), basis 0 for X and
    1 for Y, in the points' C order.
    """
    chi = np.asarray(chi, dtype=complex)
    if shots < 0:
        raise ValidationError("shots must be >= 0")
    _check_characteristic(chi)
    s = math.sin(theta)
    bloch_x, bloch_y = s * chi.imag, s * chi.real
    if shots == 0:
        est_x, est_y = bloch_x, bloch_y
        err_x = err_y = np.zeros(chi.shape)
    else:
        M = _shot_count(shots)
        est_x, err_x = _sample_mean(bloch_x, M, shot_rng(seed, 0))
        est_y, err_y = _sample_mean(bloch_y, M, shot_rng(seed, 1))
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

    shots = 0 means exact mode. chi is evaluated at every point, then the
    whole scan is read out in one readout_chi call.
    """
    xis = [np.atleast_1d(np.asarray(xi, dtype=complex)) for xi in xi_points]
    chi = np.array([char_analytic(state, xi) for xi in xis], dtype=complex)
    r = readout_chi(chi, theta, shots, seed)
    return [
        ReadoutRecord(xi, theta, int(shots), sx, sy, ex, ey, c, int(seed))
        for xi, sx, sy, ex, ey, c in zip(xis, *(a.tolist() for a in r[:5]))
    ]


def records_table(records: Sequence[ReadoutRecord]) -> tuple[list[str], list[list]]:
    """Flatten records to (columns, rows) for the readout-log CSV."""
    if not records:
        raise ValidationError("no records")
    n_modes = len(records[0].xi)
    if n_modes == 1:
        xi_cols = ["re_xi", "im_xi"]
    else:
        xi_cols = []
        for k in range(n_modes):
            xi_cols += [f"re_xi{k}", f"im_xi{k}"]
    columns = xi_cols + ["theta", "M", "est_sx", "est_sy", "re_chi", "im_chi", "seed"]
    rows = []
    for r in records:
        row: list = []
        for k in range(n_modes):
            row += [r.xi[k].real, r.xi[k].imag]
        row += [
            r.theta,
            r.shots,
            r.est_sx,
            r.est_sy,
            r.chi_est.real,
            r.chi_est.imag,
            r.seed,
        ]
        rows.append(row)
    return columns, rows
