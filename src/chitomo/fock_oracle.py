"""Brute-force verification layer in a truncated Fock space.

Everything here is deliberately independent of the analytic layer: states are
built by exponentiating their generators (never from closed-form amplitudes),
the pulse sequence is multiplied out segment by segment, and the qubit check
embeds the two-level system explicitly and partial-traces it back out.
Agreement between this module and the closed forms is the evidence that the
closed forms are implemented with the right signs and orderings.

Every exponential taken here is exp(-i H) of a Hermitian H, formed from an
eigendecomposition H = V diag(w) V-dagger as V diag(e^(-i w)) V-dagger, which
is unitary up to rounding at any norm of H. Each generator is a phase rotation
of a real symmetric matrix, by exact identities of the truncated matrices
(P = diag(e^(i phi n)) and Pi = diag((-1)^n) are diagonal, so they hold at
any cutoff D):

  * displacement, i(xi a-dagger - conj(xi) a) = |xi| P (a + a-dagger) P-dagger
    with phi = arg xi + pi/2;
  * squeezer, i/2 (conj(zeta) a^2 - zeta a-dagger^2)
    = -r P [(a^2 + a-dagger^2)/2] P-dagger with phi = theta/2 + pi/4;
  * segment pair, v_g/e = omega tau n -/+ (c a + conj(c) a-dagger) with
    c = lam eta F: v_g = P (omega tau n - |c| (a + a-dagger)) P-dagger with
    phi = -arg c, and v_e = Pi v_g Pi.

So a displacement or squeezer at cutoff D rotates the eigenbasis of the real
(a^p + a-dagger^p)/p, p = 1 or 2, taken once per (D, p) and kept read-only in
a small memo, and a segment takes one real eigendecomposition for v_g and
pairs half_e = Pi half_g Pi exactly. The generators are still exponentiated:
no closed-form amplitude, and no code of the analytic layer, enters.

Conventions validated against the closed-form layer:

  * one segment evolves the field under v_g = omega tau n + coupling with the
    minus sign for the ground branch, plus for the excited branch, and
    u_g = exp(-i v_e) exp(-i v_g) (pi pulse swaps the branch mid-segment),
    u_e with the two factors swapped;
  * the full sequence (u_g^dag)^N (u_e)^N equals the displacement D(xi) with
    xi the closed-form value, with no residual global phase.

Truncation is policed two ways: segment unitaries are leak-checked (no
amplitude reaching the top Fock level from the lower half), and truncated
states carry tail/boundary checks. Comparisons between a computed unitary and
a target displacement are restricted to the low Fock columns (j < D/2) after
aligning the global phase on the interior of the matrix, since the top edge
of a truncated displacement is wrong by construction.

The guards are module constants, one value for every caller:

  * TAIL_TOL = 1e-10 bounds the discarded thermal tail weight (n+1) p_D;
  * BOUNDARY_TOL = 1e-8 bounds a squeezed state's amplitude on the top two
    Fock levels;
  * LEAK_TOL = 1e-8 bounds the top-level population a segment feeds from the
    low Fock columns;
  * DEFECT_TOL = 1e-5 bounds |xi_closed - xi_fock| for a passing identity
    check;
  * RESIDUAL_TOL = 1e-6 bounds the distance of the sequence operator from a
    pure displacement, above which no xi is read off it.

Every check reports one plain dict, the record oracle-check writes: check
(its name), inputs, the cutoff D, defect, tolerance and passed (defect <=
tolerance). The displacement identity adds xi_closed and xi_fock as [re, im]
pairs, residual and residual_tolerance.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import NumericalCheckError, ValidationError, at_least, converted, dimension
from .gaussian_field import (
    GaussianFieldState,
    ModeSet,
    Squeezed,
    Thermal,
    Vacuum,
    char_analytic,
)
from .pulse_protocol import (
    Constant, Delta, PulseSchedule, displacement_param, smearing_ft, switching_integral,
)

# truncation and identity guards (module docstring)
TAIL_TOL = 1e-10
BOUNDARY_TOL = 1e-8
LEAK_TOL = 1e-8
DEFECT_TOL = 1e-5
RESIDUAL_TOL = 1e-6

__all__ = [
    "FieldMode",
    "SegmentOperators",
    "ladder",
    "displacement_operator",
    "number_rotation",
    "thermal_density",
    "fock_density",
    "build_segment",
    "evolve_pulse_sequence",
    "verify_displacement_identity",
    "verify_displacement_composition",
    "chi_fock",
    "joint_bloch_oracle",
    "run_displacement_draws",
    "run_default_suite",
]


@dataclass(frozen=True)
class FieldMode:
    """One field mode (k, omega) plus the box data the closed form needs."""

    k: float
    omega: float
    box_side: float
    spatial_dim: int

    def __post_init__(self) -> None:
        if not self.omega > 0:
            raise ValidationError("mode frequency must be positive")
        if not self.box_side > 0:
            raise ValidationError("bad box parameters")
        dim = converted(dimension, self.spatial_dim, "spatial_dim")
        object.__setattr__(self, "spatial_dim", dim)

    @classmethod
    def from_mode_set(cls, modes: ModeSet, index: int = 0) -> "FieldMode":
        return cls(
            k=float(modes.wavenumbers[index]),
            omega=float(modes.omegas[index]),
            box_side=modes.box_side,
            spatial_dim=modes.spatial_dim,
        )

    def closed_form_xi(self, sched: PulseSchedule) -> complex:
        return displacement_param(sched, self.k, self.omega, self.box_side, self.spatial_dim)


# --------------------------------------------------------------------------
# operator algebra at cutoff D

def ladder(D: int) -> NDArray[np.complex128]:
    """Annihilation operator, a|n> = sqrt(n)|n-1>, as a dense D x D matrix."""
    D = converted(at_least(2), D, "Fock cutoff D")
    return np.diag(np.sqrt(np.arange(1.0, D)), k=1).astype(complex)


def _unitary(H: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """exp(-i H) for a Hermitian H, from its eigendecomposition."""
    return _exp_from_basis(*np.linalg.eigh(H))


def _exp_from_basis(
    w: NDArray[np.float64], V: NDArray, cols=slice(None)
) -> NDArray[np.complex128]:
    """Columns cols of exp(-i H) for H = V diag(w) V-dagger."""
    return (V * np.exp(-1j * w)) @ V[cols].conj().T


def _phased(V: NDArray[np.float64], phi: float) -> NDArray[np.complex128]:
    """P V with P = diag(e^(i phi n)): the eigenbasis of P H P-dagger."""
    return np.exp(1j * phi * np.arange(V.shape[0]))[:, None] * V


def _finite(value: complex, name: str) -> None:
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


@functools.lru_cache(maxsize=8)
def _quadrature_basis(D: int, p: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Read-only eigh of the real symmetric (a^p + a-dagger^p)/p at cutoff D."""
    ap = np.linalg.matrix_power(ladder(D).real, p)
    w, V = np.linalg.eigh((ap + ap.T) / p)
    w.flags.writeable = False
    V.flags.writeable = False
    return w, V


def displacement_operator(D: int, xi: complex) -> NDArray[np.complex128]:
    """D(xi) = exp(xi a-dagger - conj(xi) a) at cutoff D.

    The generator is |xi| P (a + a-dagger) P-dagger, phi = arg xi + pi/2.
    """
    D = converted(at_least(2), D, "Fock cutoff D")
    xi = complex(xi)
    _finite(xi, "xi")
    w, V = _quadrature_basis(D, 1)
    return _exp_from_basis(abs(xi) * w, _phased(V, np.angle(xi) + np.pi / 2))


def number_rotation(D: int, y: float) -> NDArray[np.complex128]:
    """exp(i y n) as a diagonal matrix."""
    return np.diag(np.exp(1j * float(y) * np.arange(D)))


def thermal_density(D: int, n: float) -> NDArray[np.complex128]:
    """Truncated thermal density matrix, p_j = n^j / (n+1)^(j+1).

    The discarded tail has total weight (n+1) p_D; the check on p_D keeps the
    trace deficit below (n+1) TAIL_TOL. Not renormalized, so the truncation
    error stays visible in any comparison.
    """
    if not 0 <= n < math.inf:
        raise ValidationError(f"thermal occupation n must be finite and >= 0, got {n!r}")
    if n == 0:
        rho = np.zeros((D, D), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    j = np.arange(D)
    logp = j * math.log(n) - (j + 1) * math.log(n + 1.0)
    p = np.exp(logp)
    if p[-1] * (n + 1.0) >= TAIL_TOL:
        raise NumericalCheckError(
            f"thermal tail weight {p[-1] * (n + 1.0):.3e} at D = {D} exceeds {TAIL_TOL:.1e}"
        )
    return np.diag(p).astype(complex)


def _squeezer(D: int, r: float, theta: float, cols=slice(None)) -> NDArray[np.complex128]:
    """Columns cols of S(zeta) = exp[(conj(zeta) a^2 - zeta a-dagger^2)/2] with
    zeta = r e^(i theta), exponentiated from its generator
    -r P [(a^2 + a-dagger^2)/2] P-dagger, phi = theta/2 + pi/4, never from
    closed-form Fock amplitudes."""
    D = converted(at_least(2), D, "Fock cutoff D")
    _finite(r, "r")
    _finite(theta, "theta")
    if r < 0:
        raise ValidationError("squeezing modulus must be >= 0")
    w, V = _quadrature_basis(D, 2)
    return _exp_from_basis(-r * w, _phased(V, theta / 2.0 + np.pi / 4.0), cols)


def _check_boundary(top, D: int, boundary_tol: float) -> None:
    if max(top) >= boundary_tol:
        raise NumericalCheckError(
            f"squeezed boundary amplitude {max(top):.3e} at D = {D} exceeds {boundary_tol:.1e}"
        )


def fock_density(mode_state, D: int) -> NDArray[np.complex128]:
    """S rho_th S-dagger of one mode state (n, r, theta); S acts only when r > 0."""
    rho = thermal_density(D, mode_state.n)
    if mode_state.r > 0:
        p = rho.diagonal()  # rho_th is diagonal: only the columns it weights enter
        k = np.flatnonzero(p)
        S = _squeezer(D, mode_state.r, mode_state.theta, k)
        rho = (S * p[k]) @ S.conj().T
        _check_boundary(np.sqrt(np.abs(np.diag(rho)[-2:])), D, BOUNDARY_TOL)
    return rho


# --------------------------------------------------------------------------
# pulse-sequence evolution

@dataclass(frozen=True, eq=False)
class SegmentOperators:
    """Segment and half-segment unitaries for one [tau - pi - tau - pi] segment.

    half_g = exp(-i v_g) and half_e = exp(-i v_e) evolve the field over one
    half-segment under the window-integrated generators v_g, v_e = omega tau n
    -/+ (c a + conj(c) a-dagger), c = lam eta F. v_g is exponentiated from one
    real eigendecomposition (module docstring), and half_e = Pi half_g Pi
    exactly, Pi = diag((-1)^n); u_g = half_e half_g and u_e = half_g half_e.
    leak is the largest top-level population any low Fock state acquires
    under u_g or u_e.
    """

    dim: int
    u_g: NDArray[np.complex128]
    u_e: NDArray[np.complex128]
    half_g: NDArray[np.complex128]
    half_e: NDArray[np.complex128]
    leak: float


def build_segment(sched: PulseSchedule, mode: FieldMode, D: int) -> SegmentOperators:
    """Dense segment unitaries u_g = exp(-i v_e) exp(-i v_g), u_e swapped.

    The pi pulse in the middle of a segment swaps the qubit branch, so the
    field conditioned on starting in g evolves first under v_g, then v_e.
    Raises when any low Fock column leaks population above LEAK_TOL into the
    top level, which is the signal to enlarge D.
    """
    D = converted(at_least(8), D, "segment cutoff D")
    eta = switching_integral(
        sched.switching, sched.tau, mode.omega, mode.box_side, mode.spatial_dim
    )
    ft = smearing_ft(sched.smearing, mode.k, mode.spatial_dim)
    c = complex(sched.lam * eta * ft)  # lam and eta are real
    a = ladder(D).real
    n = np.arange(D)
    w, V = np.linalg.eigh(np.diag(mode.omega * sched.tau * n) - abs(c) * (a + a.T))
    half_g = _exp_from_basis(w, _phased(V, -np.angle(c)))
    parity = (-1.0) ** n
    half_e = parity[:, None] * half_g * parity
    u_g = half_e @ half_g
    u_e = half_g @ half_e
    half = D // 2
    leak = max(
        float(np.max(np.abs(u_g[D - 1, :half]) ** 2)),
        float(np.max(np.abs(u_e[D - 1, :half]) ** 2)),
    )
    if leak > LEAK_TOL:
        raise NumericalCheckError(
            f"segment leaks population {leak:.3e} into the top Fock level at D = {D}; "
            "increase the cutoff"
        )
    return SegmentOperators(dim=D, u_g=u_g, u_e=u_e, half_g=half_g, half_e=half_e, leak=leak)


def evolve_pulse_sequence(seg: SegmentOperators, N: int) -> NDArray[np.complex128]:
    """(u_g^dag)^N (u_e)^N, the operator the qubit coherence averages."""
    N = converted(at_least(1), N, "segment count N")
    return np.linalg.matrix_power(seg.u_g.conj().T, N) @ np.linalg.matrix_power(seg.u_e, N)


def _aligned_low_column_distance(
    U: NDArray[np.complex128], target: NDArray[np.complex128]
) -> float:
    """max_j<D/2 of ||U[:, j] - phase * target[:, j]||, phase from the interior.

    The global phase is fixed by the trace of target^dag U over the low
    diagonal; top columns are excluded because a truncated displacement is
    wrong there by construction.
    """
    D = U.shape[0]
    half = D // 2
    overlap = np.einsum("ij,ij->", target[:, :half].conj(), U[:, :half])
    if abs(overlap) < 1e-12:
        raise NumericalCheckError("matrices too far apart to align a global phase")
    phase = overlap / abs(overlap)
    diff = U[:, :half] - phase * target[:, :half]
    return float(np.max(np.linalg.norm(diff, axis=0)))


def _extract_displacement(U: NDArray[np.complex128]) -> complex:
    # <0|D(xi)|0> = e^{-|xi|^2/2}, <1|D(xi)|0> = xi e^{-|xi|^2/2}
    if abs(U[0, 0]) < 1e-12:
        raise NumericalCheckError("vacuum overlap too small to extract a displacement")
    return complex(U[1, 0] / U[0, 0])


def _report(check: str, inputs: dict, D: int, defect: float, tol: float) -> dict:
    """The report dict every check shares (module docstring)."""
    return {"check": check, "inputs": inputs, "D": D, "defect": defect,
            "tolerance": tol, "passed": bool(defect <= tol)}


def default_cutoff(xi: complex) -> int:
    """Cutoff heuristic D = (4|xi| + 4)^2, floor 16; leak checks still apply."""
    return max(16, math.ceil((4.0 * abs(xi) + 4.0) ** 2))


def verify_displacement_identity(
    sched: PulseSchedule, mode: FieldMode, D: int | None = None
) -> dict:
    """Check that the pulse sequence really is D(xi) with the closed-form xi.

    xi_fock is read off the matrix elements <0|U|0> and <1|U|0>; the residual
    measures how far U is from being any displacement at all (low columns,
    global phase aligned), and raising on it guards against reading a xi off
    a matrix that is not a displacement.

    Returns the check's report dict (module docstring) with inputs {lambda,
    tau, N}, defect |xi_closed - xi_fock| and tolerance DEFECT_TOL; a report
    whose residual exceeds RESIDUAL_TOL is never returned.
    """
    xi_closed = mode.closed_form_xi(sched)
    if D is None:
        D = default_cutoff(xi_closed)
    seg = build_segment(sched, mode, D)
    U = evolve_pulse_sequence(seg, sched.N)
    xi_fock = _extract_displacement(U)
    residual = _aligned_low_column_distance(U, displacement_operator(seg.dim, xi_fock))
    if residual > RESIDUAL_TOL:
        raise NumericalCheckError(
            f"sequence operator is {residual:.3e} away from a pure displacement "
            f"(tolerance {RESIDUAL_TOL:.1e}) at D = {seg.dim}"
        )
    inputs = {"lambda": sched.lam, "tau": sched.tau, "N": sched.N}
    return {
        **_report("displacement_identity", inputs, seg.dim, abs(xi_closed - xi_fock), DEFECT_TOL),
        "xi_closed": [xi_closed.real, xi_closed.imag],
        "xi_fock": [xi_fock.real, xi_fock.imag],
        "residual": residual,
        "residual_tolerance": RESIDUAL_TOL,
    }


def verify_displacement_composition(x: complex, y: float, N: int, D: int = 40) -> float:
    """Matrix distance for [D(x) e^(iyn)]^N = phase * D(x_N) e^(iNyn).

    x_N = x (1 - e^(iNy)) / (1 - e^(iy)), or N x when y = 0 mod 2pi. Distance
    is taken over the low Fock columns modulo a global phase.
    """
    N = converted(at_least(1), N, "N")
    x = complex(x)
    y = float(y)
    _finite(x, "x")
    _finite(y, "y")
    step = displacement_operator(D, x) @ number_rotation(D, y)
    lhs = np.linalg.matrix_power(step, N)
    ratio = 1.0 - np.exp(1j * y)
    if abs(ratio) < 1e-12:
        x_total = N * x
    else:
        x_total = x * (1.0 - np.exp(1j * N * y)) / ratio
    rhs = displacement_operator(D, x_total) @ number_rotation(D, N * y)
    return _aligned_low_column_distance(lhs, rhs)


# --------------------------------------------------------------------------
# characteristic-function and qubit oracles

def _single_mode_state(state: GaussianFieldState):
    if state.n_modes != 1:
        raise ValidationError("Fock oracle handles single-mode states only")
    return state.mode_states[0]


def chi_fock(state: GaussianFieldState, xi: complex, D: int) -> complex:
    """Tr[rho_D D(xi)] for a single-mode state, everything dense at cutoff D."""
    mode_state = _single_mode_state(state)
    rho = fock_density(mode_state, D)
    return complex(np.einsum("ij,ji->", rho, displacement_operator(D, xi)))


# The qubit algebra is restated here on purpose: the oracle must not import
# its conventions from the module it is checking. Basis order (g, e).
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
_SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


def _qubit_rotation(theta: float) -> NDArray[np.complex128]:
    """R(theta) = exp(-i theta sigma_x / 2), a rotation about the x axis."""
    return np.cos(theta / 2.0) * np.eye(2, dtype=complex) - 1j * np.sin(theta / 2.0) * _SX


def joint_bloch_oracle(
    state: GaussianFieldState,
    sched: PulseSchedule,
    mode: FieldMode,
    theta: float,
    D: int,
) -> tuple[float, float, float]:
    """Bloch vector after the full sequence, from the explicit joint evolution.

    Prepares R(theta)|g> x rho_field on the 2D-dimensional joint space,
    applies [pi-pulse * half-segment] four times per segment... precisely,
    S = P F P F with F the branch-conditioned half-segment evolution and P
    the pi pulse, then S^N, then traces out the field. No closed form enters.
    """
    mode_state = _single_mode_state(state)
    seg = build_segment(sched, mode, D)
    rho_f = fock_density(mode_state, seg.dim)
    q0 = _qubit_rotation(theta) @ np.array([1.0, 0.0], dtype=complex)
    rho = np.kron(np.outer(q0, q0.conj()), rho_f)

    proj_g = np.zeros((2, 2), dtype=complex)
    proj_g[0, 0] = 1.0
    proj_e = np.zeros((2, 2), dtype=complex)
    proj_e[1, 1] = 1.0
    F = np.kron(proj_g, seg.half_g) + np.kron(proj_e, seg.half_e)
    P = np.kron(_qubit_rotation(np.pi), np.eye(seg.dim, dtype=complex))
    S = P @ F @ P @ F
    total = np.linalg.matrix_power(S, sched.N)

    rho = total @ rho @ total.conj().T
    rho_q = np.einsum("imjm->ij", rho.reshape(2, seg.dim, 2, seg.dim))
    return (
        float(np.real(np.trace(rho_q @ _SX))),
        float(np.real(np.trace(rho_q @ _SY))),
        float(np.real(np.trace(rho_q @ _SZ))),
    )


# --------------------------------------------------------------------------
# report-producing suites (consumed by the CLI and the acceptance tests)

# the ranges of the random draws: lam below 0.02, N up to 6
_DRAW_LAM_MAX = 0.02
_DRAW_N_MAX = 6


def run_displacement_draws(n_draws: int, D: int = 40, seed: int = 0) -> list[dict]:
    """Random (lam, tau, N) draws of the closed-form-vs-oracle check.

    omega = 1, L = 2 pi, n = 1, point smearing, constant switching; lam is
    drawn from [0.1, 1) _DRAW_LAM_MAX, N from 1.._DRAW_N_MAX, and tau spans
    (0, 2 pi) including the neighbourhood of the removable singularity.
    One verify_displacement_identity report per draw.
    """
    n_draws = converted(at_least(1), n_draws, "n_draws")
    entropy = converted(at_least(0), seed, "seed")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
    mode = FieldMode(k=1.0, omega=1.0, box_side=2.0 * np.pi, spatial_dim=1)
    reports = []
    for _ in range(n_draws):
        lam = rng.uniform(0.1 * _DRAW_LAM_MAX, _DRAW_LAM_MAX)
        tau = rng.uniform(0.05, 2.0 * np.pi - 0.05)
        N = int(rng.integers(1, _DRAW_N_MAX + 1))
        sched = PulseSchedule(
            lam=lam, tau=tau, N=N, smearing=Delta(), switching=Constant(1.0)
        )
        reports.append(verify_displacement_identity(sched, mode, D))
    return reports


def run_default_suite(n_draws: int = 20, D: int = 40, seed: int = 0) -> list[dict]:
    """The oracle battery behind `oracle-check`: one report dict per check
    (module docstring), the displacement draws first."""
    reports = run_displacement_draws(n_draws, D=D, seed=seed)

    for x, y, N, tol in [
        (0.1 + 0.05j, 0.7, 5, 1e-8),
        (0.1 + 0.05j, 0.7, 1, 1e-12),
        (0.0 + 0.0j, 0.3, 4, 1e-12),
    ]:
        defect = verify_displacement_composition(x, y, N, D=D)
        reports.append(_report("displacement_composition",
                               {"x": [x.real, x.imag], "y": y, "N": N}, D, defect, tol))

    modes = ModeSet(spatial_dim=1, box_side=2.0 * np.pi, mass=1.0, mode_indices=((0,),))
    vacuum = GaussianFieldState(modes, (Vacuum(),))
    thermal = GaussianFieldState(modes, (Thermal(n=1.0),))
    squeezed = GaussianFieldState(modes, (Squeezed(r=1.0, theta=0.0),))
    # the squeezed pair distinguishes the two sign conventions: the wrong one
    # swaps the fast and slow decay axes
    for state, label, xi, dim, tol in [
        (vacuum, "vacuum", 1.0 + 0.0j, D, 1e-10),
        (thermal, "thermal n=1", 0.5 + 0.0j, max(D, 60), 1e-8),
        (squeezed, "squeezed r=1", 0.5 + 0.0j, 160, 1e-8),
        (squeezed, "squeezed r=1", 0.0 + 0.5j, 160, 1e-8),
    ]:
        defect = abs(chi_fock(state, xi, dim) - char_analytic(state, [xi]))
        reports.append(_report("chi_closed_form", {"state": label, "xi": [xi.real, xi.imag]},
                               dim, defect, tol))

    sched = PulseSchedule(lam=0.01, tau=1.0, N=2, smearing=Delta(), switching=Constant(1.0))
    mode = FieldMode(k=1.0, omega=1.0, box_side=2.0 * np.pi, spatial_dim=1)
    theta = 0.6 * np.pi
    bloch = joint_bloch_oracle(thermal, sched, mode, theta, D=max(D, 60))
    chi = char_analytic(thermal, [mode.closed_form_xi(sched)])
    expected = (
        math.sin(theta) * chi.imag,
        math.sin(theta) * chi.real,
        -math.cos(theta),
    )
    defect = max(abs(b - e) for b, e in zip(bloch, expected))
    reports.append(_report("joint_qubit_bloch",
                           {"state": "thermal n=1", "theta": theta, "N": sched.N},
                           max(D, 60), defect, 1e-6))
    return reports
