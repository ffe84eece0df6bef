"""Truncated-Fock brute force against the closed forms it polices."""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from chitomo import fock_oracle
from chitomo.errors import NumericalCheckError, ValidationError
from chitomo.fock_oracle import (
    MAX_CUTOFF,
    FieldMode,
    SegmentOperators,
    _SX,
    _SY,
    _SZ,
    _check_boundary,
    _qubit_rotation,
    _quadrature_basis,
    _squeezer,
    _thermal_populations,
    build_segment,
    chi_fock,
    displacement_operator,
    evolve_pulse_sequence,
    fock_density,
    joint_bloch_oracle,
    ladder,
    number_rotation,
    run_default_suite,
    run_displacement_draws,
    verify_displacement_composition,
    verify_displacement_identity,
)
from chitomo.gaussian_field import (
    GaussianFieldState,
    ModeSet,
    Squeezed,
    SqueezedThermal,
    Thermal,
    Vacuum,
    char_analytic,
)
from chitomo.pulse_protocol import (
    Constant,
    CustomRadial,
    Delta,
    GaussianWindow,
    PulseSchedule,
    SphericalGaussian,
    smearing_ft,
    switching_integral,
)
from chitomo.ramsey_readout import final_qubit_state

MODE = FieldMode(k=1.0, omega=1.0, box_side=2 * math.pi, spatial_dim=1)
MODES_1D = ModeSet(spatial_dim=1, box_side=2 * math.pi, mass=1.0, mode_indices=[[1]])

CHI_SQ_HALF = 0.39707424035439476     # analytic frozen pair, r=1 theta=0
CHI_SQ_HALF_I = 0.9832253770397565
CHI_TH_HALF = 0.6872892787909722      # n=1, xi=0.5


def sched(lam=0.01, tau=1.0, N=3):
    return PulseSchedule(lam=lam, tau=tau, N=N, smearing=Delta(), switching=Constant(1.0))


def state_of(mode_state):
    return GaussianFieldState(modes=MODES_1D, mode_states=[mode_state])


def truncated_mode(D):
    """Dense a, a-dagger and number matrices at cutoff D; [a, a-dagger] = 1
    holds on the top-left (D-1) block only."""
    a = ladder(D)
    return SimpleNamespace(a=a, adag=a.conj().T, number=a.conj().T @ a)


def squeezed_ket(D, r, theta=0.0, boundary_tol=1e-8):
    """S(zeta)|0> with zeta = r e^(i theta), through the oracle's squeezer and
    its boundary guard."""
    psi = _squeezer(D, r, theta, 0)
    _check_boundary(np.abs(psi[-2:]), D, boundary_tol)
    return psi


# ---------------------------------------------------------------- operators

def test_ladder_commutator():
    a = ladder(12)
    comm = a @ a.conj().T - a.conj().T @ a
    # canonical commutation holds below the cutoff corner
    np.testing.assert_allclose(comm[:11, :11], np.eye(11), atol=1e-14)
    tm = truncated_mode(6)
    np.testing.assert_allclose(tm.number, np.diag(np.arange(6.0)), atol=1e-14)
    with pytest.raises(ValidationError):
        ladder(1)


def test_displacement_operator_coherent_amplitudes():
    D = 40
    U = displacement_operator(D, 0.7 - 0.3j)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(D), atol=1e-12)
    # <0|D|0> = e^{-|xi|^2/2}, <1|D|0> = xi <0|D|0>
    xi = 0.7 - 0.3j
    assert U[0, 0] == pytest.approx(math.exp(-abs(xi) ** 2 / 2), abs=1e-13)
    assert U[1, 0] == pytest.approx(xi * U[0, 0], abs=1e-13)


def assert_matches_expm(U, H):
    # scipy's Pade expm is the reference the eigendecomposition replaces
    bound = 1e-13 * max(1.0, np.linalg.norm(H, 2))
    assert np.linalg.norm(U - expm(-1j * H), 2) <= bound


def test_unitary_matches_expm_on_the_oracle_generators():
    a, xi = ladder(40), 0.7 - 0.3j
    H = 1j * (xi * a.conj().T - np.conj(xi) * a)
    assert_matches_expm(displacement_operator(40, xi), H)

    a = ladder(160)
    H = 0.5j * (a @ a - a.conj().T @ a.conj().T)  # squeezer, r = 1, theta = 0
    ref = expm(-1j * H)[:, 0]
    assert np.linalg.norm(squeezed_ket(160, 1.0) - ref) <= 1e-13 * np.linalg.norm(H, 2)

    seg = build_segment(sched(), MODE, 40)
    for half, v in zip((seg.half_g, seg.half_e), segment_generators(sched(), MODE, 40)):
        assert_matches_expm(half, v)


def segment_generators(s, mode, D):
    """v_g and v_e = omega tau n -/+ lam eta (F a + conj(F) a-dagger), built as
    dense complex matrices without the phase-rotation identity."""
    tm = truncated_mode(D)
    eta = switching_integral(s.switching, s.tau, mode.omega, mode.box_side, mode.spatial_dim)
    ft = smearing_ft(s.smearing, mode.k, mode.spatial_dim)
    free = mode.omega * s.tau * tm.number
    coupling = s.lam * eta * (ft * tm.a + np.conj(ft) * tm.adag)
    return free - coupling, free + coupling


@pytest.mark.parametrize("D", [2, 8, 40, 160])
@pytest.mark.parametrize(
    "xi", [0.7 + 0.3j, -0.7 + 0.3j, -0.7 - 0.3j, 0.7 - 0.3j, 0.5, -0.5, 0.5j, -0.5j, 0.0]
)
def test_displacement_operator_matches_expm(D, xi):
    # every quadrant and both axes: the phase rotation of the one real basis
    a = ladder(D)
    assert_matches_expm(displacement_operator(D, xi), 1j * (xi * a.conj().T - np.conj(xi) * a))


@pytest.mark.parametrize("theta", [0.0, np.pi / 2, np.pi, -2.0])
def test_squeezer_matches_expm(theta):
    a, zeta = ladder(160), np.exp(1j * theta)  # r = 1
    H = 0.5j * (np.conj(zeta) * (a @ a) - zeta * (a.conj().T @ a.conj().T))
    assert_matches_expm(_squeezer(160, 1.0, theta), H)
    ref = expm(-1j * H)[:, 0]
    assert np.linalg.norm(squeezed_ket(160, 1.0, theta) - ref) <= 1e-13 * np.linalg.norm(H, 2)


@pytest.mark.parametrize(
    "smearing,switching",
    [(CustomRadial(r=(0.0, 1.0), f=(-1.0, -1.0)), Constant(1.0)),  # F(1) < 0
     (SphericalGaussian(sigma=0.4), GaussianWindow(center=0.5, width=0.2, relative=True))],
)
def test_segment_halves_match_expm(smearing, switching):
    s = PulseSchedule(lam=0.3, tau=1.0, N=2, smearing=smearing, switching=switching)
    seg = build_segment(s, MODE, 40)
    for half, v in zip((seg.half_g, seg.half_e), segment_generators(s, MODE, 40)):
        assert_matches_expm(half, v)


def test_segment_excited_half_is_the_parity_image_of_the_ground_half():
    # v_e = Pi v_g Pi with Pi = diag((-1)^n); the pairing is exact, not rounded
    s = PulseSchedule(lam=0.3, tau=1.0, N=2, smearing=CustomRadial(r=(0.0, 1.0), f=(-1.0, -1.0)),
                      switching=Constant(1.0))
    seg = build_segment(s, MODE, 40)
    parity = np.diag((-1.0) ** np.arange(40))
    np.testing.assert_array_equal(seg.half_e, parity @ seg.half_g @ parity)


def test_cached_quadrature_basis_is_read_only():
    for p in (1, 2):
        w, V = _quadrature_basis(40, p)
        assert _quadrature_basis(40, p)[1] is V  # one basis per (D, p)
        with pytest.raises(ValueError):
            V[0, 0] = 1.0
        with pytest.raises(ValueError):
            w[0] = 1.0


def test_segment_is_the_product_of_its_halves():
    # each generator is exponentiated once; the segment unitaries are the two
    # orders of the same pair of half-segment factors
    seg = build_segment(sched(), MODE, 40)
    np.testing.assert_array_equal(seg.half_e @ seg.half_g, seg.u_g)
    np.testing.assert_array_equal(seg.half_g @ seg.half_e, seg.u_e)


def test_number_rotation_phases():
    R = number_rotation(8, 0.37)
    np.testing.assert_allclose(np.diag(R), np.exp(1j * 0.37 * np.arange(8)), atol=1e-15)
    assert np.abs(R - np.diag(np.diag(R))).max() == 0.0


def test_thermal_density_geometric_diagonal():
    rho = fock_density(Thermal(n=1.0), 80)
    d = np.diag(rho).real
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(d[1:20] / d[:19], 0.5, rtol=1e-12)
    assert np.abs(rho - np.diag(d)).max() == 0.0


def test_thermal_density_tail_guard():
    with pytest.raises(NumericalCheckError):
        fock_density(Thermal(n=1.0), 10)
    # vacuum limit is exact at any cutoff
    assert _thermal_populations(16, 0.0)[0] == 1.0


def test_squeezed_ket_structure():
    psi = squeezed_ket(160, 1.0)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(psi[1::2]).max() == pytest.approx(0.0, abs=1e-14)  # even Fock layers only
    assert abs(psi[0]) == pytest.approx(1 / math.sqrt(math.cosh(1.0)), rel=1e-10)


def test_squeezed_ket_boundary_guard():
    with pytest.raises(NumericalCheckError):
        squeezed_ket(60, 1.0)
    psi = squeezed_ket(60, 1.0, boundary_tol=1e-2)  # explicit opt-in still works
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-6)


# ----------------------------------------------------------------- segments

def test_segment_free_limit():
    # lam -> 0: both branches reduce to e^{-2 i omega tau n}
    seg = build_segment(sched(lam=1e-14), MODE, 40)
    free = number_rotation(40, -2.0)
    assert np.abs(seg.u_g - free).max() < 1e-10
    assert np.abs(seg.u_e - free).max() < 1e-10


def test_segment_unitarity():
    seg = build_segment(sched(), MODE, 40)
    for u in (seg.u_g, seg.u_e):
        assert np.abs(u @ u.conj().T - np.eye(40)).max() < 1e-10


def test_segment_full_period_is_identity():
    # omega tau = 2 pi: the pair returns every Fock layer to itself
    seg = build_segment(sched(tau=2 * math.pi), MODE, 40)
    dev = seg.u_g - seg.u_g[0, 0] * np.eye(40)
    assert np.abs(dev[:, :20]).max() < 1e-10


def test_segment_leak_guard():
    with pytest.raises(NumericalCheckError):
        build_segment(sched(lam=5.0), MODE, 8)
    with pytest.raises(ValidationError):
        build_segment(sched(), MODE, 4)


def test_evolution_inherits_unitarity():
    seg = build_segment(sched(), MODE, 30)
    U = evolve_pulse_sequence(seg, 4)
    assert np.abs(U @ U.conj().T - np.eye(30)).max() < 1e-10


# -------------------------------------------------------- identity checking

def test_identity_canonical_inputs():
    rep = verify_displacement_identity(sched(), MODE, D=40)
    assert rep["defect"] < 1e-6 and rep["residual"] < 1e-6
    assert complex(*rep["xi_closed"]) == pytest.approx(MODE.closed_form_xi(sched()), abs=0)
    assert rep["passed"] is True and rep["D"] == 40


def test_identity_maximum_law_on_fock_side():
    rep = verify_displacement_identity(sched(tau=math.pi), MODE, D=40)
    eta = math.pi / math.sqrt(4 * math.pi)
    assert abs(complex(*rep["xi_fock"])) == pytest.approx(8 * 0.01 * 3 * eta / math.pi, abs=1e-6)


def test_identity_defect_converges_with_cutoff():
    defects = [verify_displacement_identity(sched(), MODE, D=D)["defect"] for D in (20, 40, 80)]
    assert defects[1] <= defects[0] + 2e-17
    assert defects[2] <= defects[1] + 2e-17
    assert max(defects) < 1e-15


def test_identity_reports_the_segment_leak():
    # the report carries the leak build_segment refuses above LEAK_TOL
    rep = verify_displacement_identity(sched(), MODE, D=40)
    assert rep["leak"] == build_segment(sched(), MODE, 40).leak
    assert rep["leak_tolerance"] == fock_oracle.LEAK_TOL
    assert 0.0 <= rep["leak"] <= rep["leak_tolerance"]


# ------------------------------------------------------------- composition

def test_composition_cases():
    assert verify_displacement_composition(0.1 + 0.05j, 0.7, 5, D=40) < 1e-8
    assert verify_displacement_composition(0.3 - 0.2j, 1.3, 1, D=40) < 1e-12
    assert verify_displacement_composition(0.0, 0.3, 4, D=40) < 1e-12
    # resonant rotation angle takes the geometric-series limit branch
    assert verify_displacement_composition(0.05 + 0.02j, 2 * math.pi, 3, D=40) < 1e-10


# --------------------------------------------------------------- chi values

def test_chi_fock_vacuum():
    vac = GaussianFieldState(modes=MODES_1D, mode_states=[Vacuum()])
    assert chi_fock(vac, 1.0, D=40) == pytest.approx(math.exp(-0.5), abs=1e-10)
    for xi in (0.3, -1.2j, 1.4 + 0.8j, 2.0):
        assert chi_fock(vac, xi, D=64) == pytest.approx(char_analytic(vac, xi), abs=1e-10)


def test_chi_fock_thermal_frozen():
    got = chi_fock(state_of(Thermal(n=1.0)), 0.5, D=60)
    assert got == pytest.approx(CHI_TH_HALF, abs=1e-8)


def test_chi_fock_resolves_squeezed_sign():
    # the brute-force values split the two sign conventions by ~0.59
    sq = state_of(Squeezed(r=1.0, theta=0.0))
    on_axis = chi_fock(sq, 0.5, D=160)
    off_axis = chi_fock(sq, 0.5j, D=160)
    assert on_axis == pytest.approx(CHI_SQ_HALF, abs=1e-8)
    assert off_axis == pytest.approx(CHI_SQ_HALF_I, abs=1e-8)
    assert abs(on_axis - CHI_SQ_HALF_I) > 0.5
    assert abs(off_axis - CHI_SQ_HALF) > 0.5


@pytest.mark.parametrize(
    "mode_state,D",
    [(SqueezedThermal(n=0.5, r=0.3, theta=0.4), 80),
     (SqueezedThermal(n=1.0, r=0.6, theta=2.0), 200)],
)
def test_chi_fock_pins_squeezed_thermal(mode_state, D):
    # S rho_th S-dagger, built from the generators alone, against the closed form
    st_ = state_of(mode_state)
    for xi in (0.5, 0.5j, 0.3 + 0.2j, -0.4 + 0.7j):
        assert chi_fock(st_, xi, D) == pytest.approx(char_analytic(st_, xi), abs=1e-8)


def test_fock_density_squeezes_only_when_r_is_positive():
    # vacuum and thermal densities are the diagonal thermal populations, bit for bit
    def thermal(D, n):
        return np.diag(_thermal_populations(D, n)).astype(complex)

    np.testing.assert_array_equal(fock_density(Vacuum(), 40), thermal(40, 0.0))
    np.testing.assert_array_equal(fock_density(Thermal(n=1.0), 60), thermal(60, 1.0))
    np.testing.assert_array_equal(
        fock_density(SqueezedThermal(n=1.0, r=0.0, theta=0.5), 60), thermal(60, 1.0)
    )
    # a pure squeezed density is the squeezed ket's projector
    psi = squeezed_ket(160, 1.0, 0.7)
    rho = fock_density(Squeezed(r=1.0, theta=0.7), 160)
    assert np.abs(rho - np.outer(psi, psi.conj())).max() < 1e-14


def test_fock_density_boundary_guard_sees_the_mixed_tail():
    # a mixed squeezed state reaches higher Fock levels than the pure one
    with pytest.raises(NumericalCheckError, match="boundary amplitude"):
        fock_density(SqueezedThermal(n=0.5, r=0.3, theta=0.4), 60)
    rho = fock_density(SqueezedThermal(n=0.5, r=0.3, theta=0.4), 80)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(rho - rho.conj().T).max() < 1e-15


def chi_dense(mode_state, xi, D):
    """Tr[rho D(xi)] with both operators dense: the form chi_fock replaces."""
    return complex(np.einsum("ij,ji->", fock_density(mode_state, D), displacement_operator(D, xi)))


# (mode state, cutoff): vacuum, thermal, squeezed and squeezed thermal at
# cutoffs that pass the tail and boundary guards
ORACLE_STATES = [
    pytest.param(mode_state, D, id=f"{type(mode_state).__name__}-D{D}")
    for mode_state, D in [
        (Vacuum(), 40), (Vacuum(), 160), (Thermal(n=1.0), 60), (Thermal(n=1.0), 120),
        (Squeezed(r=1.0, theta=0.0), 160), (Squeezed(r=0.5, theta=0.3), 80),
        (SqueezedThermal(n=0.5, r=0.3, theta=0.4), 80),
        (SqueezedThermal(n=0.2, r=0.5, theta=-1.0), 160),
    ]
]


@pytest.mark.parametrize("mode_state,D", ORACLE_STATES)
def test_chi_fock_matches_the_dense_trace(mode_state, D):
    st_ = state_of(mode_state)
    for xi in (0.0, 0.5, 0.5j, 0.3 + 0.2j, -0.4 + 0.7j, 1.2 - 0.3j):
        assert abs(chi_fock(st_, xi, D) - chi_dense(mode_state, xi, D)) <= 1e-13


def test_chi_fock_single_mode_only():
    modes2 = ModeSet(spatial_dim=1, box_side=2 * math.pi, mass=1.0, mode_indices=[[1], [2]])
    state2 = GaussianFieldState(modes=modes2, mode_states=[Vacuum()] * 2)
    with pytest.raises(ValidationError, match="single-mode"):
        chi_fock(state2, 0.5, D=20)
    with pytest.raises(ValidationError, match="single-mode"):
        joint_bloch_oracle(state2, sched(), MODE, 1.0, D=20)


@pytest.mark.parametrize("D", [1, 0, -3, 2.5])
def test_bad_oracle_cutoff_is_refused_by_name(D):
    vac = state_of(Vacuum())
    with pytest.raises(ValidationError, match=rf"^Fock cutoff D = {D!r} is not usable"):
        chi_fock(vac, 0.5, D)
    with pytest.raises(ValidationError, match=rf"^Fock cutoff D = {D!r} is not usable"):
        fock_density(Squeezed(r=0.5, theta=0.0), D)
    with pytest.raises(ValidationError, match=rf"^segment cutoff D = {D!r} is not usable"):
        joint_bloch_oracle(vac, sched(), MODE, 1.0, D)


@pytest.mark.parametrize("call", [
    ladder,
    lambda D: displacement_operator(D, 0.5),
    lambda D: number_rotation(D, 0.3),
    lambda D: fock_density(Thermal(n=1.0), D),
    lambda D: chi_fock(state_of(Vacuum()), 0.5, D),
    lambda D: build_segment(sched(), MODE, D),
], ids=["ladder", "displacement_operator", "number_rotation", "fock_density", "chi_fock",
        "build_segment"])
def test_cutoff_above_the_maximum_is_refused_before_any_matrix(call):
    D = MAX_CUTOFF + 1
    with pytest.raises(ValidationError, match=rf"cutoff D = {D} is not usable: "
                                              rf"an integer <= {MAX_CUTOFF} is expected"):
        call(D)


# ------------------------------------------------------------- joint qubit

@pytest.mark.parametrize(
    "mode_state,D",
    [(Thermal(n=1.0), 60), (Squeezed(r=0.5, theta=0.3), 80)],
)
def test_joint_oracle_matches_encoding_formula(mode_state, D):
    st_ = state_of(mode_state)
    theta = 0.6 * math.pi
    s = sched(N=2)
    bl = joint_bloch_oracle(st_, s, MODE, theta, D=D)
    qs = final_qubit_state(theta, char_analytic(st_, MODE.closed_form_xi(s)))
    assert bl[0] == pytest.approx(qs.bx, abs=1e-12)
    assert bl[1] == pytest.approx(qs.by, abs=1e-12)
    assert bl[2] == pytest.approx(qs.bz, abs=1e-12)


def bloch_dense(state, s, mode, theta, D):
    """The joint oracle on the 2D-dimensional joint space: R(theta)|g><g|R-dagger
    x rho, S = P F P F with F = |g><g| x half_g + |e><e| x half_e and
    P = R(pi) x 1, then T rho T-dagger with T = S^N and the field traced out:
    the form joint_bloch_oracle replaces."""
    seg = build_segment(s, mode, D)
    q0 = _qubit_rotation(theta) @ np.array([1.0, 0.0], dtype=complex)
    rho = np.kron(np.outer(q0, q0.conj()), fock_density(state.mode_states[0], seg.dim))
    F = np.kron(np.diag([1.0, 0.0]), seg.half_g) + np.kron(np.diag([0.0, 1.0]), seg.half_e)
    P = np.kron(_qubit_rotation(np.pi), np.eye(seg.dim))
    T = np.linalg.matrix_power(P @ F @ P @ F, s.N)
    rho = T @ rho @ T.conj().T
    rho_q = np.einsum("imjm->ij", rho.reshape(2, seg.dim, 2, seg.dim))
    return tuple(float(np.real(np.trace(rho_q @ sigma))) for sigma in (_SX, _SY, _SZ))


@pytest.mark.parametrize("N", [1, 2, 5])
@pytest.mark.parametrize("mode_state,D", ORACLE_STATES)
def test_joint_oracle_matches_the_dense_joint_evolution(mode_state, D, N):
    st_, s = state_of(mode_state), sched(N=N)
    got = joint_bloch_oracle(st_, s, MODE, 0.6 * math.pi, D)
    want = bloch_dense(st_, s, MODE, 0.6 * math.pi, D)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-13


def _superposition_columns(mode_state, D):
    """(|0> + |1>)/sqrt(2) as one weighted column: a state whose chi is not
    even in xi, so the sign of xi shows in the readout (every mean-zero
    Gaussian chi is real and even)."""
    cols = np.zeros((D, 1), dtype=complex)
    cols[:2, 0] = 1.0 / math.sqrt(2.0)
    return cols, np.ones(1)


def _superposition_chi(xi):
    # <psi|D(xi)|psi> from <0|D|0> = e^(-|xi|^2/2), <1|D|1> = (1 - |xi|^2) e^(-|xi|^2/2),
    # <1|D|0> = xi e^(-|xi|^2/2) and <0|D|1> = -conj(xi) e^(-|xi|^2/2)
    return math.exp(-abs(xi) ** 2 / 2) * complex(1.0 - abs(xi) ** 2 / 2, xi.imag)


def _swapped_halves(build):
    def mutated(*args):
        seg = build(*args)
        return SegmentOperators(dim=seg.dim, u_g=seg.u_e, u_e=seg.u_g,
                                half_g=seg.half_e, half_e=seg.half_g, leak=seg.leak)
    return mutated


def _bloch_miss(theta=0.6 * math.pi, D=40):
    """Largest distance of the joint oracle's Bloch vector from the encoding
    formula at the superposition's closed-form chi."""
    s = sched(lam=0.1, N=2)
    bl = joint_bloch_oracle(state_of(Vacuum()), s, MODE, theta, D)
    qs = final_qubit_state(theta, _superposition_chi(MODE.closed_form_xi(s)))
    return max(abs(b - e) for b, e in zip(bl, (qs.bx, qs.by, qs.bz)))


def test_joint_oracle_mutations_miss_the_closed_form(monkeypatch):
    monkeypatch.setattr(fock_oracle, "_weighted_columns", _superposition_columns)
    assert _bloch_miss() <= 1e-12
    # half_g and half_e swapped: the sequence reads chi(-xi) = conj chi(xi)
    with monkeypatch.context() as m:
        m.setattr(fock_oracle, "build_segment", _swapped_halves(build_segment))
        assert _bloch_miss() > 1e-2
    # the sign of R flipped, R(theta) = exp(+i theta sigma_x / 2): it shows
    # through the preparation R(theta)|g>, since for any pulse P that swaps g
    # and e, P diag(a, b) P = P_ge P_eg diag(b, a), so the pulse's own sign
    # is a global phase of each segment
    with monkeypatch.context() as m:
        m.setattr(fock_oracle, "_qubit_rotation", lambda t: _qubit_rotation(-t))
        assert _bloch_miss() > 1e-1
    with monkeypatch.context() as m:
        m.setattr(fock_oracle, "_qubit_rotation",
                  lambda t: -_qubit_rotation(t) if t == np.pi else _qubit_rotation(t))
        assert _bloch_miss() <= 1e-12


# -------------------------------------------------------------- batch runs

def test_displacement_draws_batch():
    reports = run_displacement_draws(5, D=40, seed=3)
    assert len(reports) == 5
    for r in reports:
        assert r["passed"] is True
        assert r["defect"] <= 1e-5
        assert 0.0 < r["inputs"]["lambda"] <= 0.02
        assert 1 <= r["inputs"]["N"] <= 6
    with pytest.raises(ValidationError, match="seed = -1 "):
        run_displacement_draws(1, D=40, seed=-1)


def test_default_suite_passes():
    reports = run_default_suite(n_draws=3, D=40, seed=1)
    assert all(r["passed"] for r in reports)
    checks = {r["check"] for r in reports}
    assert checks == {
        "displacement_identity",
        "displacement_composition",
        "chi_closed_form",
        "joint_qubit_bloch",
    }


def test_default_suite_is_the_same_with_the_memo_cold_and_warm():
    _quadrature_basis.cache_clear()
    cold = run_default_suite()
    assert run_default_suite() == cold


def test_default_suite_eigendecomposition_count(monkeypatch):
    # one real eigh per segment plus one per (D, p) basis; 74 complex ones before
    calls = []
    eigh = np.linalg.eigh

    def counted(H):
        calls.append(H.shape)
        return eigh(H)

    _quadrature_basis.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", counted)
    run_default_suite()
    assert len(calls) <= 25


_NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", _NON_FINITE)
@pytest.mark.parametrize(
    "call,name",
    [pytest.param(lambda v: displacement_operator(8, v), "xi", id="displacement_operator"),
     pytest.param(lambda v: displacement_operator(8, complex(0.1, v)), "xi",
                  id="displacement_operator-imag"),
     pytest.param(lambda v: verify_displacement_composition(v, 0.3, 2, D=8), "x",
                  id="composition-x"),
     pytest.param(lambda v: verify_displacement_composition(0.1, v, 2, D=8), "y",
                  id="composition-y"),
     pytest.param(lambda v: squeezed_ket(8, v), "r", id="squeezed_ket-r"),
     pytest.param(lambda v: squeezed_ket(8, 0.1, v), "theta", id="squeezed_ket-theta"),
     pytest.param(lambda v: _squeezer(8, v, 0.0), "r", id="squeezer-r"),
     pytest.param(lambda v: _squeezer(8, 0.1, v), "theta", id="squeezer-theta"),
     pytest.param(lambda v: _thermal_populations(8, v), "n", id="thermal_populations-n"),
     pytest.param(lambda v: chi_fock(state_of(Vacuum()), v, 8), "xi", id="chi_fock-xi"),
     pytest.param(lambda v: chi_fock(state_of(Vacuum()), complex(0.1, v), 8), "xi",
                  id="chi_fock-xi-imag"),
     pytest.param(lambda v: joint_bloch_oracle(state_of(Vacuum()), sched(), MODE, v, 40),
                  "theta", id="joint_bloch_oracle-theta")],
)
def test_non_finite_oracle_input_is_refused(call, name, bad):
    # a cached basis would turn NaN or inf silently into an all-NaN matrix
    with pytest.raises(ValidationError, match=rf"^{name} = .+ is not usable: a finite number"):
        call(bad)


# ----------------------------------------------------------------- plumbing

def test_field_mode_construction():
    with pytest.raises(ValidationError):
        FieldMode(k=1.0, omega=0.0, box_side=1.0, spatial_dim=1)
    with pytest.raises(ValidationError):
        FieldMode(k=1.0, omega=1.0, box_side=1.0, spatial_dim=4)
