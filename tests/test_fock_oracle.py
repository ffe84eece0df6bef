"""Truncated-Fock brute force against the closed forms it polices."""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from chitomo.errors import NumericalCheckError, ValidationError
from chitomo.fock_oracle import (
    FieldMode,
    _check_boundary,
    _quadrature_basis,
    _squeezer,
    _unitary,
    build_segment,
    chi_fock,
    default_cutoff,
    displacement_operator,
    evolve_pulse_sequence,
    fock_density,
    joint_bloch_oracle,
    ladder,
    number_rotation,
    run_default_suite,
    run_displacement_draws,
    thermal_density,
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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 60), norm=st.floats(0.0, 60.0), seed=st.integers(0, 2**32 - 1))
def test_unitary_matches_expm_on_random_hermitian(n, norm, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = A + A.conj().T
    H *= norm / np.linalg.norm(H, 2)
    assert_matches_expm(_unitary(H), H)


def test_unitary_matches_expm_on_the_oracle_generators():
    a, xi = ladder(40), 0.7 - 0.3j
    H = 1j * (xi * a.conj().T - np.conj(xi) * a)
    assert_matches_expm(_unitary(H), H)
    assert_matches_expm(displacement_operator(40, xi), H)

    a = ladder(160)
    H = 0.5j * (a @ a - a.conj().T @ a.conj().T)  # squeezer, r = 1, theta = 0
    assert_matches_expm(_unitary(H), H)
    ref = expm(-1j * H)[:, 0]
    assert np.linalg.norm(squeezed_ket(160, 1.0) - ref) <= 1e-13 * np.linalg.norm(H, 2)

    seg = build_segment(sched(), MODE, 40)
    for half, v in zip((seg.half_g, seg.half_e), segment_generators(sched(), MODE, 40)):
        assert_matches_expm(_unitary(v), v)
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
    rho = thermal_density(80, 1.0)
    d = np.diag(rho).real
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(d[1:20] / d[:19], 0.5, rtol=1e-12)
    assert np.abs(rho - np.diag(d)).max() == 0.0


def test_thermal_density_tail_guard():
    with pytest.raises(NumericalCheckError):
        thermal_density(10, 1.0)
    # vacuum limit is exact at any cutoff
    rho = thermal_density(16, 0.0)
    assert rho[0, 0] == 1.0


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


def test_identity_default_cutoff_heuristic():
    assert default_cutoff(0.0) == 16
    assert default_cutoff(1.0) == 64
    rep = verify_displacement_identity(sched(), MODE)  # D chosen from |xi|
    assert rep["D"] == default_cutoff(complex(*rep["xi_closed"]))
    assert rep["passed"]


# ------------------------------------------------------------- composition

def test_composition_cases():
    assert verify_displacement_composition(0.1 + 0.05j, 0.7, 5, D=40) < 1e-8
    assert verify_displacement_composition(0.3 - 0.2j, 1.3, 1, D=40) < 1e-12
    assert verify_displacement_composition(0.0, 0.3, 4, D=40) < 1e-12
    # resonant rotation angle takes the geometric-series limit branch
    assert verify_displacement_composition(0.05 + 0.02j, 2 * math.pi, 3, D=40) < 1e-10


# --------------------------------------------------------------- chi values

def test_chi_fock_vacuum():
    vac = GaussianFieldState(modes=MODES_1D)
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
    # vacuum and thermal densities are thermal_density's own, bit for bit
    np.testing.assert_array_equal(fock_density(Vacuum(), 40), thermal_density(40, 0.0))
    np.testing.assert_array_equal(fock_density(Thermal(n=1.0), 60), thermal_density(60, 1.0))
    np.testing.assert_array_equal(
        fock_density(SqueezedThermal(n=1.0, r=0.0, theta=0.5), 60), thermal_density(60, 1.0)
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


def test_chi_fock_single_mode_only():
    modes2 = ModeSet(spatial_dim=1, box_side=2 * math.pi, mass=1.0, mode_indices=[[1], [2]])
    with pytest.raises(ValidationError):
        chi_fock(GaussianFieldState(modes=modes2), 0.5, D=20)


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
     pytest.param(lambda v: thermal_density(8, v), "n", id="thermal_density-n")],
)
def test_non_finite_oracle_input_is_refused(call, name, bad):
    # a cached basis would turn NaN or inf silently into an all-NaN matrix
    with pytest.raises(ValidationError, match=rf"\b{name} must be finite"):
        call(bad)


# ----------------------------------------------------------------- plumbing

def test_field_mode_construction():
    fm = FieldMode.from_mode_set(MODES_1D, 0)
    assert fm.k == pytest.approx(1.0)
    assert fm.omega == pytest.approx(math.sqrt(2.0))
    with pytest.raises(ValidationError):
        FieldMode(k=1.0, omega=0.0, box_side=1.0, spatial_dim=1)
    with pytest.raises(ValidationError):
        FieldMode(k=1.0, omega=1.0, box_side=1.0, spatial_dim=4)
