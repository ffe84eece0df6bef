"""Analytic characteristic functions, covariances, and moments."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chitomo.errors import ValidationError
from chitomo.fileio import read_json, write_json
from chitomo.gaussian_field import (
    GaussianFieldState,
    ModeSet,
    Squeezed,
    Thermal,
    Vacuum,
    beta_from_n,
    char_analytic,
    char_analytic_grid,
    char_points,
    covariance,
    moments_analytic,
    n_from_beta,
    state_from_dict,
    state_to_dict,
)

# brute-force oracle values, frozen (truncated-Fock route, D = 160/200)
CHI_SQ_HALF = 0.39707424035439476        # r=1, theta=0, xi = 0.5
CHI_SQ_HALF_I = 0.9832253770397565       # r=1, theta=0, xi = 0.5i
CHI_SQ_MIXED = 0.7151848558047891        # r=1, theta=0, xi = 0.3+0.2i
CHI_TH_HALF = 0.6872892787909722         # n=1, xi = 0.5
SQ_MOMENT_11 = 1.8810978455418155        # sinh(1)^2 + 1/2
SQ_MOMENT_20 = -1.8134302039235095       # -sinh(2)/2
SQ_MOMENT_22 = 10.365587313506197        # Weyl average over orderings, Fock side
TH_MOMENT_22 = 4.5


def char_closed_form(state, xi) -> complex:
    """chi(xi) from the per-mode exponential closed forms in the
    gaussian_field docstring: a second expression for the same Gaussian."""
    vec = np.atleast_1d(np.asarray(xi, dtype=complex))
    out = 1.0 + 0.0j
    for z, s in zip(vec, state.mode_states):
        a2 = abs(z) ** 2
        if isinstance(s, Vacuum):
            out *= np.exp(-0.5 * a2)
        elif isinstance(s, Thermal):
            out *= np.exp(-0.5 * (2.0 * s.n + 1.0) * a2)
        else:
            q = np.cosh(2.0 * s.r) * a2 + np.sinh(2.0 * s.r) * (
                np.exp(1j * s.theta) * np.conj(z) ** 2
            ).real
            out *= np.exp(-0.5 * q)
    return complex(out)


def gaussian_expectation(state, terms) -> float:
    """<O^2> for O = sum over (mode, c_x, c_p) terms of c_x X_k + c_p P_k.

    Modes are independent and mean zero, so <O^2> = sum_k c_k^T V_k c_k,
    with the coefficients of repeated terms on one mode added first.
    """
    coeffs: dict = {}
    for mode, cx, cp in terms:
        coeffs[mode] = coeffs.get(mode, 0.0) + np.array([cx, cp])
    return sum(float(c @ covariance(state, mode) @ c) for mode, c in coeffs.items())


def single_mode(mode_state=None, mass=1.0):
    modes = ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=mass, mode_indices=[[1]])
    states = None if mode_state is None else [mode_state]
    return GaussianFieldState(modes=modes, mode_states=states)


def two_mode(s0, s1):
    modes = ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=1.0, mode_indices=[[1], [2]])
    return GaussianFieldState(modes=modes, mode_states=[s0, s1])


# ---------------------------------------------------------------- mode sets

def test_mode_set_wavevectors_and_omegas():
    modes = ModeSet(spatial_dim=3, box_side=4.0, mass=0.5, mode_indices=[[1, 0, 0], [1, 1, 0]])
    np.testing.assert_allclose(modes.wavevectors[0], [2 * np.pi / 4.0, 0.0, 0.0])
    k1 = np.linalg.norm(modes.wavevectors[1])
    assert modes.omegas[1] == pytest.approx(math.sqrt(0.25 + k1**2), rel=1e-15)


def test_mode_set_rejects_duplicates_and_massless_zero_mode():
    with pytest.raises(ValidationError):
        ModeSet(spatial_dim=1, box_side=1.0, mass=1.0, mode_indices=[[1], [1]])
    with pytest.raises(ValidationError):
        ModeSet(spatial_dim=1, box_side=1.0, mass=0.0, mode_indices=[[0]])
    with pytest.raises(ValidationError):
        ModeSet(spatial_dim=2, box_side=1.0, mass=1.0, mode_indices=[[1]])


def test_state_defaults_to_vacuum_and_checks_length():
    st_ = single_mode()
    assert isinstance(st_.mode_states[0], Vacuum)
    modes = st_.modes
    with pytest.raises(ValidationError):
        GaussianFieldState(modes=modes, mode_states=[Vacuum(), Vacuum()])


def test_mode_state_parameter_validation():
    with pytest.raises(ValidationError):
        Thermal(n=-0.5)
    with pytest.raises(ValidationError):
        Squeezed(r=-1.0)
    assert Squeezed(r=1.0, theta=2 * np.pi + 0.3).theta == pytest.approx(0.3)


# -------------------------------------------------------------- covariances

def test_covariance_vacuum_thermal():
    np.testing.assert_array_equal(covariance(single_mode(), 0), np.eye(2))
    np.testing.assert_allclose(covariance(single_mode(Thermal(n=1.0)), 0), 3.0 * np.eye(2))


def test_covariance_squeezed():
    V = covariance(single_mode(Squeezed(r=1.0)), 0)
    np.testing.assert_allclose(np.diag(V), [math.exp(-2), math.exp(2)], rtol=1e-14)
    assert V[0, 1] == V[1, 0] == 0.0
    V = covariance(single_mode(Squeezed(r=1.0, theta=np.pi / 2)), 0)
    assert V[0, 1] == pytest.approx(-math.sinh(2.0), rel=1e-14)
    np.testing.assert_allclose(np.diag(V), [math.cosh(2.0)] * 2, rtol=1e-14)


def test_covariance_determinant_is_purity_measure():
    assert np.linalg.det(covariance(single_mode(Squeezed(r=0.7, theta=1.1)), 0)) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.det(covariance(single_mode(Thermal(n=1.0)), 0)) == pytest.approx(9.0, rel=1e-14)


@pytest.mark.parametrize("bad", [9.7, 0.7, True, "1"])
def test_mode_and_order_arguments_are_exact_integers(bad):
    st2 = GaussianFieldState(modes=ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=1.0,
                                           mode_indices=[[1], [2]]),
                             mode_states=[Thermal(n=1.0), Squeezed(r=0.5)])
    with pytest.raises(ValidationError, match="mode = "):
        covariance(st2, bad)
    for args, name in (((bad, 1, 1), "mode"), ((1, bad, 1), "p"), ((1, 1, bad), "q")):
        with pytest.raises(ValidationError, match=f"{name} = "):
            moments_analytic(st2, *args)
    np.testing.assert_array_equal(covariance(st2, 1.0), covariance(st2, 1))
    assert moments_analytic(st2, 1.0, 2.0, 0.0) == moments_analytic(st2, 1, 2, 0)


# ---------------------------------------------------- characteristic values

def test_char_vacuum():
    st_ = single_mode()
    assert char_analytic(st_, 0.0) == 1.0
    assert char_analytic(st_, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_char_thermal_frozen():
    st_ = single_mode(Thermal(n=1.0))
    assert char_analytic(st_, 0.5) == pytest.approx(CHI_TH_HALF, abs=1e-14)


def test_char_squeezed_frozen_sign():
    st_ = single_mode(Squeezed(r=1.0, theta=0.0))
    assert char_analytic(st_, 0.5) == pytest.approx(CHI_SQ_HALF, abs=1e-13)
    assert char_analytic(st_, 0.5j) == pytest.approx(CHI_SQ_HALF_I, abs=1e-13)
    assert char_analytic(st_, 0.3 + 0.2j) == pytest.approx(CHI_SQ_MIXED, abs=1e-13)


def test_char_closed_form_matches_covariance_route():
    # two independent expressions for the same Gaussian
    st_ = single_mode(Squeezed(r=0.8, theta=2.1))
    for xi in (0.4, 0.3j, -0.2 + 0.6j, 1.1 - 0.9j):
        assert char_closed_form(st_, xi) == pytest.approx(char_analytic(st_, xi), abs=1e-14)


def test_char_product_over_modes():
    st2 = two_mode(Thermal(n=0.5), Squeezed(r=0.6))
    xi = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    want = char_analytic(single_mode(Thermal(n=0.5)), xi[0]) * char_analytic(
        single_mode(Squeezed(r=0.6)), xi[1]
    )
    assert char_analytic(st2, xi) == pytest.approx(want, abs=1e-15)


def test_char_xi_vector_length_checked():
    with pytest.raises(ValidationError):
        char_analytic(two_mode(Vacuum(), Vacuum()), 0.5)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["vacuum", "thermal", "squeezed"]),
    param=st.floats(0.0, 2.0),
    theta=st.floats(0.0, 6.28),
    xr=st.floats(-3.0, 3.0),
    xi_im=st.floats(-3.0, 3.0),
)
def test_char_bounded_and_hermitian(kind, param, theta, xr, xi_im):
    ms = {"vacuum": Vacuum(), "thermal": Thermal(n=param), "squeezed": Squeezed(r=param, theta=theta)}[kind]
    st_ = single_mode(ms)
    xi = complex(xr, xi_im)
    v = char_analytic(st_, xi)
    assert abs(v) <= 1.0 + 1e-12
    assert char_analytic(st_, -xi) == pytest.approx(np.conj(v), abs=1e-15)


def test_char_grid_matches_pointwise():
    # one exponent expression serves all three routes, so they agree exactly
    for state, points in (
        (single_mode(Thermal(n=0.3)), 9),
        (single_mode(Squeezed(r=0.4, theta=0.7)), 9),
        (two_mode(Thermal(n=0.3), Squeezed(r=0.4, theta=0.7)), 5),
    ):
        axes = [np.linspace(-2, 2, points)] * (2 * state.n_modes)
        grid = char_analytic_grid(state, axes)
        assert grid.shape == (points,) * (2 * state.n_modes)
        assert grid[(points // 2,) * (2 * state.n_modes)] == 1.0
        mesh = np.meshgrid(*axes, indexing="ij")
        xi = np.stack(
            [mesh[2 * k] + 1j * mesh[2 * k + 1] for k in range(state.n_modes)], axis=-1
        ).reshape(-1, state.n_modes)
        flat = grid.reshape(-1)
        np.testing.assert_array_equal(char_points(state, xi), flat)
        np.testing.assert_array_equal([char_analytic(state, v) for v in xi], flat)


def test_char_points_checks_its_input():
    st2 = two_mode(Thermal(n=0.3), Vacuum())
    assert char_points(st2, np.zeros((0, 2))).shape == (0,)
    for bad in (np.zeros(2), np.zeros((3, 1)), [[0.1, np.nan]], [[0.1], [0.2, 0.3]]):
        with pytest.raises(ValidationError):
            char_points(st2, bad)


# ------------------------------------------------------ quadrature averages

def test_gaussian_expectation_quadratures():
    # <X^2> on X = a + a{dagger}: vacuum 1, thermal n=1 3, squeezed r=1 e^-2
    term = [(0, 1.0, 0.0)]
    assert gaussian_expectation(single_mode(), term) == pytest.approx(1.0)
    assert gaussian_expectation(single_mode(Thermal(n=1.0)), term) == pytest.approx(3.0)
    assert gaussian_expectation(single_mode(Squeezed(r=1.0)), term) == pytest.approx(
        math.exp(-2.0), rel=1e-12
    )


def test_gaussian_expectation_mixed_quadrature():
    # O = cos(phi) X + sin(phi) P interpolates the two squeezed variances
    phi = 0.6
    got = gaussian_expectation(single_mode(Squeezed(r=1.0)), [(0, math.cos(phi), math.sin(phi))])
    want = math.cos(phi) ** 2 * math.exp(-2.0) + math.sin(phi) ** 2 * math.exp(2.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_gaussian_expectation_accumulates_and_adds_modes():
    st2 = two_mode(Thermal(n=1.0), Vacuum())
    # independent modes: <(X_0 + X_1)^2> = 3 + 1
    assert gaussian_expectation(st2, [(0, 1.0, 0.0), (1, 1.0, 0.0)]) == pytest.approx(4.0)
    # repeated terms on one mode add coefficients, (2X)^2 = 4 X^2
    assert gaussian_expectation(st2, [(0, 1.0, 0.0), (0, 1.0, 0.0)]) == pytest.approx(12.0)


# ----------------------------------------------------------------- moments

def test_moments_low_order():
    st_ = single_mode(Thermal(n=1.0))
    assert moments_analytic(st_, 0, 0, 0) == 1.0
    assert moments_analytic(st_, 0, 1, 0) == 0.0
    assert moments_analytic(st_, 0, 1, 1) == pytest.approx(1.5, rel=1e-14)
    assert moments_analytic(st_, 0, 2, 2) == pytest.approx(TH_MOMENT_22, rel=1e-13)


def test_moments_squeezed_frozen():
    st_ = single_mode(Squeezed(r=1.0))
    assert moments_analytic(st_, 0, 1, 1) == pytest.approx(SQ_MOMENT_11, rel=1e-13)
    assert moments_analytic(st_, 0, 2, 0) == pytest.approx(SQ_MOMENT_20, rel=1e-13)
    assert moments_analytic(st_, 0, 2, 2) == pytest.approx(SQ_MOMENT_22, rel=1e-12)
    assert moments_analytic(st_, 0, 1, 0) == 0.0


def test_moments_order_cap():
    with pytest.raises(ValidationError):
        moments_analytic(single_mode(), 0, 3, 2)


def test_moment_20_carries_squeezing_phase():
    th = 0.9
    st_ = single_mode(Squeezed(r=0.5, theta=th))
    got = moments_analytic(st_, 0, 2, 0)
    want = -0.5 * math.sinh(1.0) * np.exp(-1j * th)
    assert got == pytest.approx(want, abs=1e-14)


# ----------------------------------------------------------- thermal helper

def test_occupation_temperature_roundtrip():
    for n in (0.1, 1.0, 7.3):
        beta = beta_from_n(n, omega=2.0)
        assert n_from_beta(beta, omega=2.0) == pytest.approx(n, rel=1e-12)
    assert n_from_beta(math.inf, omega=1.0) == 0.0


# ------------------------------------------------------------ serialization

def test_state_roundtrip_exact():
    st2 = two_mode(Thermal(n=1.25), Squeezed(r=0.75, theta=1.5))
    back = state_from_dict(state_to_dict(st2))
    assert back.modes == st2.modes
    assert back.mode_states == st2.mode_states


def test_state_file_roundtrip(tmp_path):
    st_ = single_mode(Squeezed(r=1.0, theta=0.25))
    path = tmp_path / "state.json"
    write_json(path, state_to_dict(st_))
    back = state_from_dict(read_json(path))
    assert back.mode_states == st_.mode_states
    assert back.modes.box_side == st_.modes.box_side


def test_state_from_dict_rejects_unknown_kind():
    doc = state_to_dict(single_mode())
    doc["modes"][0]["kind"] = "coherent"
    with pytest.raises(ValidationError):
        state_from_dict(doc)
