"""Grids, the Wigner transform pair, moment stencils, and covariance fits."""
from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chitomo.errors import NumericalCheckError, ValidationError
from chitomo.gaussian_field import (
    OMEGA_2X2,
    GaussianFieldState,
    ModeSet,
    Squeezed,
    SqueezedThermal,
    Thermal,
    Vacuum,
    char_analytic,
    char_points,
    covariance,
    moments_analytic,
)
from chitomo.tomography import (
    ChiGrid,
    WignerGrid,
    chi_grid_from_state,
    gaussian_fit,
    grid_axis,
    grid_integral,
    hermitian_fill,
    inverse_wigner_transform,
    moments_fd,
    sampled_chi_grid,
    wigner_transform,
)
from chitomo import tomography
from chitomo.tomography import _half_space_mask, _stencil

MS1 = ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=1.0, mode_indices=[[1]])
MS2 = ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=1.0, mode_indices=[[1], [2]])
VACUUM = GaussianFieldState(modes=MS1)
THERMAL = GaussianFieldState(modes=MS1, mode_states=[Thermal(n=1.0)])
SQUEEZED = GaussianFieldState(modes=MS1, mode_states=[Squeezed(r=1.0)])
SQ_TILTED = GaussianFieldState(modes=MS1, mode_states=[Squeezed(r=1.0, theta=0.7)])

# squeezed r=1 needs an anisotropic box: chi decays like e^{-e^2 x^2/2} on one
# axis and e^{-x^2 e^{-2}/2} on the other, W the opposite way around
SQ_CHI_AXES = (grid_axis(2.5, 201), grid_axis(18.0, 361))
SQ_ALPHA_AXES = (grid_axis(8.0, 161), grid_axis(3.0, 121))


def square_axes(extent, points):
    return (grid_axis(extent, points), grid_axis(extent, points))


def variances(w):
    """(var_x, var_p) of a WignerGrid treated as a density."""
    x, p = np.meshgrid(*w.axes, indexing="ij")
    cell = np.prod([a[1] - a[0] for a in w.axes])
    norm = w.values.sum() * cell
    vx = (w.values * x * x).sum() * cell / norm
    vp = (w.values * p * p).sum() * cell / norm
    return vx, vp


# -------------------------------------------------------------------- axes

def test_grid_axis_shape_and_symmetry():
    ax = grid_axis(2.0, 128)  # even request bumps to odd
    assert ax.size == 129
    assert ax[64] == 0.0
    assert ax[0] == -2.0 and ax[-1] == 2.0
    np.testing.assert_array_equal(ax, -ax[::-1])
    with pytest.raises(ValidationError):
        grid_axis(0.0, 11)
    with pytest.raises(ValidationError):
        grid_axis(1.0, 2)


@pytest.mark.parametrize("extent", [math.inf, math.nan, -1.0])
def test_grid_axis_refuses_its_extent_by_name(extent):
    with pytest.raises(ValidationError, match=f"axis extent {extent} must be finite and positive"):
        grid_axis(extent, 5)


@pytest.mark.parametrize("bad", [[math.nan, -1.0, 0.0, 1.0, math.nan],
                                 [-math.inf, -1.0, 0.0, 1.0, math.inf],
                                 [-2.0, -1.0, 0.0, 1.0, math.nan]])
def test_axes_must_be_finite(bad):
    # every comparison with NaN is False, so these passed as uniform and symmetric
    bad, ax = np.array(bad), grid_axis(1.0, 5)
    for axes, d in (((bad, ax), 0), ((ax, bad), 1)):
        with pytest.raises(ValidationError, match=f"axis {d} holds the non-finite value"):
            ChiGrid(axes=axes, values=np.ones((5, 5)))
        with pytest.raises(ValidationError, match=f"axis {d} holds the non-finite value"):
            WignerGrid(axes=axes, values=np.ones((5, 5)), normalization=1.0)
    chi = chi_grid_from_state(VACUUM, (ax, ax))
    with pytest.raises(ValidationError, match="axis 1 holds the non-finite value"):
        wigner_transform(chi, (ax, bad), boundary_tol=np.inf)
    with pytest.raises(ValidationError, match="axis 0 holds the non-finite value"):
        inverse_wigner_transform(wigner_transform(chi, boundary_tol=np.inf), (bad, ax))
    with pytest.raises(ValidationError, match="axis 0 holds the non-finite value"):
        chi_grid_from_state(VACUUM, (bad, ax))


def test_chi_grid_validation():
    ax = grid_axis(1.0, 5)
    with pytest.raises(ValidationError):
        ChiGrid(axes=(ax,), values=np.zeros(5), provenance="exact")  # odd axis count
    with pytest.raises(ValidationError):
        ChiGrid(axes=(ax, ax), values=np.zeros((5, 4)), provenance="exact")
    off = np.array([-1.0, 0.5, 1.0])
    with pytest.raises(ValidationError):
        ChiGrid(axes=(off, off), values=np.zeros((3, 3)), provenance="exact")


def test_axes_must_be_uniform_and_mirror_symmetric():
    # odd, increasing and centred on 0, but on this axis the fill would take
    # chi(-1, 0) from chi(2, 0) (0.135 for a vacuum, against 0.607) and steps
    # would read 0.6
    bad = np.array([-1.0, -0.4, 0.0, 0.5, 2.0])
    wide = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])  # mirror-symmetric, not uniform
    ax = grid_axis(1.0, 5)
    for axes, d in (((bad, ax), 0), ((ax, bad), 1), ((ax, ax, ax, wide), 3)):
        shape = (5,) * len(axes)
        with pytest.raises(ValidationError, match=f"axis {d} is not uniform and symmetric"):
            ChiGrid(axes=axes, values=np.ones(shape))
        with pytest.raises(ValidationError, match=f"axis {d} is not uniform and symmetric"):
            WignerGrid(axes=axes, values=np.ones(shape), normalization=1.0)
    chi = chi_grid_from_state(VACUUM, (ax, ax))
    with pytest.raises(ValidationError, match="axis 0"):
        wigner_transform(chi, (bad, ax), boundary_tol=np.inf)
    with pytest.raises(ValidationError, match="axis 1"):
        inverse_wigner_transform(wigner_transform(chi, boundary_tol=np.inf), (ax, bad))
    with pytest.raises(ValidationError, match="axis 0"):
        chi_grid_from_state(VACUUM, (bad, ax))
    # rounding is not a defect: np.linspace is uniform and symmetric only to
    # within a few ulps; 1e-9 of the extent is the stated tolerance
    lin = np.linspace(-3.0, 3.0, 61)
    assert np.ptp(np.diff(lin)) > 0 and not np.array_equal(lin, -lin[::-1])
    assert chi_grid_from_state(VACUUM, (lin, lin)).steps == (lin[1] - lin[0],) * 2
    nudged = ax.copy()
    nudged[-1] += 0.5e-9
    ChiGrid(axes=(nudged, ax), values=np.ones((5, 5)))
    nudged[-1] += 2e-9
    with pytest.raises(ValidationError, match="axis 0"):
        ChiGrid(axes=(nudged, ax), values=np.ones((5, 5)))


def test_exact_grid_values_and_origin():
    g = chi_grid_from_state(THERMAL, square_axes(3.0, 21))
    assert g.provenance == "exact"
    assert g.origin_value == 1.0
    assert g.values[13, 7] == pytest.approx(
        char_analytic(THERMAL, complex(g.axes[0][13], g.axes[1][7])), abs=1e-15
    )
    assert g.n_modes == 1
    with pytest.raises(ValidationError):
        chi_grid_from_state(THERMAL, (grid_axis(1.0, 5),) * 4)


def test_grid_integral_gaussian():
    g = chi_grid_from_state(VACUUM, square_axes(8.0, 161))
    assert grid_integral(g) == pytest.approx(2.0 * math.pi, abs=1e-12)


# ----------------------------------------------------------- sampled grids

def test_sampled_grid_shapes_and_streams():
    axes = square_axes(2.0, 21)
    g = sampled_chi_grid(THERMAL, axes, shots=500, seed=4)
    assert g.provenance == "sampled"
    assert g.shots == 500
    assert g.stderr is not None and g.stderr.shape == g.values.shape
    assert not np.any(np.isnan(g.values.real))
    # the same seed reproduces bitwise; another seed draws other samples
    g2 = sampled_chi_grid(THERMAL, axes, shots=500, seed=4)
    np.testing.assert_array_equal(g.values, g2.values)
    np.testing.assert_array_equal(g.stderr, g2.stderr)
    g3 = sampled_chi_grid(THERMAL, axes, shots=500, seed=5)
    assert not np.array_equal(g.values, g3.values)


def test_sampled_grid_without_shots_is_the_exact_grid():
    axes = square_axes(2.0, 21)
    g = sampled_chi_grid(SQ_TILTED, axes, theta=math.pi / 2, shots=0, half=True)
    mask = _half_space_mask(axes)
    np.testing.assert_array_equal(g.values[mask], chi_grid_from_state(SQ_TILTED, axes).values[mask])
    np.testing.assert_array_equal(g.stderr[mask], 0.0)
    assert np.isnan(g.values[~mask].real).all()


def _half_space_mask_reference(axes):
    """The canonical half point by point: first nonzero coordinate >= 0."""
    shape = tuple(a.size for a in axes)
    mask = np.zeros(shape, dtype=bool)
    for idx in np.ndindex(shape):
        coords = [axes[d][i] for d, i in enumerate(idx)]
        first = next((c for c in coords if c != 0.0), 0.0)
        mask[idx] = first >= 0.0
    return mask


@settings(max_examples=60, deadline=None)
@given(n_modes=st.sampled_from([1, 2]), data=st.data())
def test_half_space_mask_matches_pointwise_definition(n_modes, data):
    sizes = data.draw(st.lists(st.sampled_from([3, 5, 7, 9, 11]),
                               min_size=2 * n_modes, max_size=2 * n_modes))
    extents = data.draw(st.lists(st.floats(0.1, 10.0), min_size=2 * n_modes,
                                 max_size=2 * n_modes))
    axes = tuple(grid_axis(e, n) for e, n in zip(extents, sizes))
    mask = _half_space_mask(axes)
    assert mask.dtype == bool
    np.testing.assert_array_equal(mask, _half_space_mask_reference(axes))
    # exactly the origin plus one of each +-xi pair
    assert np.count_nonzero(mask) == (mask.size + 1) // 2


def test_sampled_grid_half_space():
    axes = square_axes(2.0, 21)
    g = sampled_chi_grid(THERMAL, axes, shots=300, seed=1, half=True)
    mask = _half_space_mask(axes)
    assert np.isnan(g.values.real[~mask]).all()
    assert not np.any(np.isnan(g.values.real[mask]))
    # measured half agrees with truth within a few standard errors
    err = np.abs(g.values[mask] - chi_grid_from_state(THERMAL, axes).values[mask])
    assert np.quantile(err / np.maximum(g.stderr[mask], 1e-12), 0.95) < 4.0


def test_sampled_grid_error_scale():
    axes = square_axes(1.0, 5)
    coarse = sampled_chi_grid(THERMAL, axes, shots=100, seed=0)
    fine = sampled_chi_grid(THERMAL, axes, shots=10_000, seed=0)
    assert np.median(coarse.stderr) == pytest.approx(10 * np.median(fine.stderr), rel=0.3)


# ----------------------------------------------------------- hermitian fill

def test_fill_restores_exact_half_grid_bitwise():
    axes = square_axes(2.0, 41)
    full = chi_grid_from_state(SQ_TILTED, axes)
    hv = full.values.copy()
    hv[~_half_space_mask(axes)] = np.nan
    filled = hermitian_fill(ChiGrid(axes=axes, values=hv, provenance="exact"))
    np.testing.assert_array_equal(filled.values, full.values)


def test_fill_single_conjugate_pair():
    ax = grid_axis(1.0, 3)
    vals = np.full((3, 3), np.nan, dtype=complex)
    mask = _half_space_mask((ax, ax))
    vals[mask] = 1.0  # make the half-space complete
    vals[2, 1] = 0.3 + 0.1j  # xi = 1.0 + 0i
    filled = hermitian_fill(ChiGrid(axes=(ax, ax), values=vals, provenance="sampled"))
    assert filled.values[0, 1] == 0.3 - 0.1j


def test_fill_requires_complete_half_space():
    ax = grid_axis(1.0, 3)
    vals = np.full((3, 3), np.nan, dtype=complex)
    vals[1, 1] = 1.0
    vals[2, 1] = 0.5
    with pytest.raises(ValidationError):
        hermitian_fill(ChiGrid(axes=(ax, ax), values=vals, provenance="sampled"))


def test_fill_averages_doubly_measured_points():
    axes = square_axes(2.0, 11)
    g = sampled_chi_grid(THERMAL, axes, shots=400, seed=7)  # full grid, both halves
    filled = hermitian_fill(g)
    out = filled.values
    np.testing.assert_array_equal(out, out[::-1, ::-1].conj())
    assert filled.stderr is not None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_fill_output_always_hermitian(seed):
    rng = np.random.default_rng(seed)
    ax = grid_axis(1.0, 7)
    vals = (rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))).astype(complex)
    # drop a random subset, keeping every (point, mirror) pair covered
    drop = rng.random((7, 7)) < 0.4
    drop &= ~drop[::-1, ::-1]
    vals[drop] = np.nan
    filled = hermitian_fill(ChiGrid(axes=(ax, ax), values=vals, provenance="sampled"))
    out = filled.values
    assert not np.any(np.isnan(out.real))
    np.testing.assert_array_equal(out, out[::-1, ::-1].conj())


# --------------------------------------------------------- transform pair

def test_wigner_vacuum_profile():
    w = wigner_transform(chi_grid_from_state(VACUUM, square_axes(6.0, 129)))
    mid = tuple(s // 2 for s in w.values.shape)
    total = grid_integral(w)
    assert w.values[mid] / total == pytest.approx(2.0 / math.pi, rel=1e-4)
    assert w.normalization == 0.25
    assert total == pytest.approx(w.normalization, rel=0.02)
    assert w.imag_residual <= 1e-8 * np.abs(w.values).max()


def test_wigner_thermal_width():
    wv = wigner_transform(chi_grid_from_state(VACUUM, square_axes(6.0, 129)))
    wt = wigner_transform(chi_grid_from_state(THERMAL, square_axes(6.0, 129)))
    assert variances(wt)[0] / variances(wv)[0] == pytest.approx(3.0, rel=1e-3)


def test_wigner_squeezed_anisotropy():
    g = chi_grid_from_state(SQUEEZED, SQ_CHI_AXES)
    w = wigner_transform(g, alpha_axes=SQ_ALPHA_AXES)
    vx, vp = variances(w)
    assert vx / vp == pytest.approx(math.exp(4.0), rel=1e-3)
    assert vx == pytest.approx(math.exp(2.0) / 4.0, rel=1e-3)


def test_wigner_two_mode_product():
    g = chi_grid_from_state(GaussianFieldState(modes=MS2), (grid_axis(6.0, 41),) * 4)
    w = wigner_transform(g)
    mid = tuple(s // 2 for s in w.values.shape)
    assert w.values[mid] / grid_integral(w) == pytest.approx((2.0 / math.pi) ** 2, rel=1e-6)
    assert w.normalization == pytest.approx(4.0**-2)


def test_wigner_guards():
    with pytest.raises(NumericalCheckError):
        wigner_transform(chi_grid_from_state(THERMAL, square_axes(2.0, 21)))
    half = sampled_chi_grid(THERMAL, square_axes(6.0, 21), shots=100, seed=0, half=True)
    with pytest.raises(ValidationError):
        wigner_transform(half)
    g3 = chi_grid_from_state(
        GaussianFieldState(
            modes=ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=1.0,
                          mode_indices=[[1], [2], [3]])
        ),
        (grid_axis(6.0, 9),) * 6,
    )
    with pytest.raises(ValidationError):
        wigner_transform(g3)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, "abc"])
def test_wigner_boundary_tol_must_be_positive(tol):
    # NaN switched the guard off (decay > NaN is False) and -1 was reported as
    # a failed numerical check; inf switches the guard off on purpose
    chi = chi_grid_from_state(THERMAL, square_axes(2.0, 21))
    with pytest.raises(ValidationError, match=f"boundary_tol = {tol!r} "):
        wigner_transform(chi, boundary_tol=tol)
    assert wigner_transform(chi, boundary_tol=math.inf).values.shape == (21, 21)


def test_transforms_refuse_three_modes_ahead_of_every_other_check():
    # undecayed, unmeasured values, a bad tolerance and a bad axis count
    ax = grid_axis(1.0, 3)
    chi = ChiGrid(axes=(ax,) * 6, values=np.full((3,) * 6, np.nan))
    with pytest.raises(ValidationError, match="one or two modes"):
        wigner_transform(chi, (ax, ax), boundary_tol=math.nan)
    w = WignerGrid(axes=(ax,) * 6, values=np.ones((3,) * 6), normalization=1.0)
    with pytest.raises(ValidationError, match="one or two modes"):
        inverse_wigner_transform(w, (ax, ax))


@pytest.mark.parametrize("state", [VACUUM, THERMAL])
def test_transform_roundtrip(state):
    g = chi_grid_from_state(state, square_axes(6.0, 257))
    back = inverse_wigner_transform(wigner_transform(g))
    assert back.provenance == "reconstructed"
    x, y = np.meshgrid(g.axes[0], g.axes[1], indexing="ij")
    interior = (np.abs(x) <= 3.0) & (np.abs(y) <= 3.0)
    assert np.abs(back.values - g.values)[interior].max() < 1e-4
    mid = g.values.shape[0] // 2
    assert back.values[mid, mid] == pytest.approx(1.0, abs=1e-6)


# ----------------------------------------------------------------- moments

def test_moments_fd_trivial_orders():
    assert moments_fd(THERMAL, 0, 0, 0) == 1.0
    assert moments_fd(THERMAL, 0, 1, 0) == pytest.approx(0.0, abs=1e-10)


def test_moments_fd_matches_analytic():
    for state in (VACUUM, THERMAL, SQ_TILTED):
        for p in range(5):
            for q in range(5 - p):
                got = moments_fd(state, 0, p, q)
                want = moments_analytic(state, 0, p, q)
                assert got == pytest.approx(want, abs=1e-3), (state.mode_states[0], p, q)


def test_moments_fd_thermal_example():
    value, err = moments_fd(THERMAL, 0, 1, 1, h=0.01, with_error=True)
    assert value == pytest.approx(1.5, abs=1e-3)
    assert err is None  # exact source carries no shot noise
    plain = moments_fd(THERMAL, 0, 1, 1, h=0.01, richardson=False)
    assert plain == pytest.approx(1.5, abs=1e-3)


def _node_by_node_moment(state, mode, p, q, h, richardson):
    """The moment with chi read point by point: char_points at every stencil
    node of the mode's plane (other modes at 0), each node summed with its
    mirror -xi under the stencil's parity."""
    weights = _stencil(p, q, richardson).ravel()
    nodes = np.flatnonzero(weights)
    weights = weights[nodes]
    xi = np.zeros((nodes.size, state.n_modes), dtype=complex)
    for row, (ox, oy) in enumerate((np.stack(np.divmod(nodes, 9)).T - 4).tolist()):
        xi[row, mode] = complex(ox * h / 2.0, oy * h / 2.0)
    values = np.array([char_points(state, point[None, :])[0] for point in xi])
    half = (nodes.size + 1) // 2
    pairs = values[:half] + (-1) ** (p + q) * values[::-1][:half]
    if nodes.size % 2:
        pairs[-1] = values[half - 1]
    return complex((-1) ** q * (0.5 / h) ** (p + q) * (weights[:half] @ pairs))


def test_moments_fd_of_a_state_is_its_chi_read_node_by_node():
    # the state's 9 x 9 lattice of half-steps holds chi at the stencil nodes
    # to the bit, so the moment is bitwise the node-by-node one on every mode
    states = (
        GaussianFieldState(modes=MS2, mode_states=[Thermal(n=0.5), Squeezed(r=0.3, theta=0.4)]),
        GaussianFieldState(modes=MS2, mode_states=[SqueezedThermal(n=0.4, r=0.5, theta=1.0),
                                                   Vacuum()]),
    )
    for state in states:
        for mode in range(2):
            for h in (1e-3, 0.01, 0.37):
                for richardson in (True, False):
                    for p in range(5):
                        for q in range(5 - p):
                            got = moments_fd(state, mode, p, q, h=h, richardson=richardson)
                            want = _node_by_node_moment(state, mode, p, q, h, richardson)
                            assert got == want, (mode, h, richardson, p, q)


def test_moments_fd_grid_source():
    g = chi_grid_from_state(THERMAL, square_axes(3.0, 65))
    got = moments_fd(g, 0, 1, 1)  # h defaults to two grid steps
    assert got == pytest.approx(1.5, abs=2e-3)
    with pytest.raises(ValidationError):
        moments_fd(g, 0, 1, 1, h=3.0 * g.steps[0])  # odd multiple of the step
    with pytest.raises(ValidationError):
        moments_fd(g, 0, 1, 1, h=40.0 * g.steps[0])  # stencil exits the grid


def test_moments_fd_grid_rejects_nan_under_stencil():
    half = sampled_chi_grid(THERMAL, square_axes(3.0, 31), shots=200, seed=2, half=True)
    with pytest.raises(ValidationError):
        moments_fd(half, 0, 1, 1)


def test_moments_fd_order_and_mode_limits():
    with pytest.raises(ValidationError):
        moments_fd(THERMAL, 0, 3, 2)
    with pytest.raises(ValidationError, match="state has no mode 1"):
        moments_fd(THERMAL, 1, 1, 1)
    with pytest.raises(ValidationError, match="chi_source must be"):
        moments_fd(lambda xi: char_analytic(THERMAL, xi), 0, 1, 1)


@pytest.mark.parametrize("h", [0.0, -0.01, 1e-300, 1e300, math.nan, math.inf, "a"])
def test_moments_fd_refuses_a_bad_h_before_reading_chi(h, monkeypatch):
    # finite, positive, and with (1/(2h))^4 a finite nonzero float; the state
    # is never evaluated
    grid = chi_grid_from_state(THERMAL, square_axes(3.0, 31))
    reads = []
    evaluate = tomography.char_analytic_grid
    monkeypatch.setattr(tomography, "char_analytic_grid",
                        lambda *args: reads.append(args) or evaluate(*args))
    for source in (THERMAL, grid):
        for p, q in ((0, 0), (1, 0), (2, 2)):
            with pytest.raises(ValidationError, match="h = "):
                moments_fd(source, 0, p, q, h=h)
    assert reads == []
    moments_fd(THERMAL, 0, 1, 1)  # a good h reads the state once
    assert len(reads) == 1


@pytest.mark.parametrize("richardson", [True, False])
def test_moments_fd_is_exact_on_monomials(richardson):
    # second-order central stencils differentiate xi^a conj(xi)^b exactly for
    # a + b <= p + q + 1, so every weight of every stencil is pinned here on
    # a grid of step h/2
    axis = grid_axis(1.0, 9)
    xi = axis[:, None] + 1j * axis[None, :]
    for p in range(5):
        for q in range(5 - p):
            for a in range(p + q + 2):
                for b in range(p + q + 2 - a):
                    want = (-1) ** q * math.factorial(p) * math.factorial(q) * ((a, b) == (p, q))
                    grid = ChiGrid(axes=(axis, axis), values=xi**a * np.conj(xi) ** b)
                    got = moments_fd(grid, 0, p, q, h=0.5, richardson=richardson)
                    assert abs(got - want) <= 1e-12, (p, q, a, b)


def test_moments_fd_equal_orders_are_real_on_a_hermitian_source():
    # each node is summed with its mirror -xi, so chi(-xi) = conj chi(xi)
    # leaves no rounding-size imaginary part in a p = q moment
    axes = square_axes(3.0, 13) * 2
    states = (
        GaussianFieldState(modes=MS2, mode_states=[Thermal(n=0.5), Squeezed(r=0.3, theta=0.4)]),
        GaussianFieldState(modes=MS2, mode_states=[SqueezedThermal(n=0.4, r=0.5, theta=1.0),
                                                   Vacuum()]),
    )
    grids = [chi_grid_from_state(state, axes) for state in states]
    for state in states:
        for seed in range(10):
            grids.append(hermitian_fill(
                sampled_chi_grid(state, axes, shots=1000, seed=seed, half=True)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # (2,2) of a 1000-shot grid is mostly noise
        for grid in grids:
            for mode in range(2):
                for p in range(3):
                    for richardson in (True, False):
                        value = moments_fd(grid, mode, p, p, richardson=richardson)
                        assert value.imag == 0.0, (grid.provenance, mode, p, richardson)


def test_moments_fd_writes_no_negative_zero():
    # the (-1)^q factor must not flip an exactly zero part to -0.0, which a
    # text table would print as "-0.0"
    grid = hermitian_fill(sampled_chi_grid(VACUUM, square_axes(6.0, 33), shots=1000, seed=1,
                                           half=True))
    orders = [(p, q) for p in range(5) for q in range(5 - p)]
    zeros = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # high orders of a 1000-shot grid are mostly noise
        for source in (VACUUM, THERMAL, SQ_TILTED, grid):
            for p, q in orders:
                value = moments_fd(source, 0, p, q)
                for part in (value.real, value.imag):
                    assert not (part == 0.0 and math.copysign(1.0, part) < 0), (source, p, q)
                    zeros += part == 0.0
    assert zeros > 0  # the check has zeros to look at


def _two_thermal_grid() -> ChiGrid:
    state = GaussianFieldState(modes=MS2, mode_states=[Thermal(n=0.5), Thermal(n=1.0)])
    return chi_grid_from_state(state, square_axes(4.0, 17) * 2)


@pytest.mark.parametrize("bad", [9.7, 0.7, True, "1"])
def test_integer_arguments_are_exact(bad):
    with pytest.raises(ValidationError, match="points = "):
        grid_axis(6.0, bad)
    grid2 = _two_thermal_grid()
    for args, name in (((bad, 1, 1), "mode"), ((1, bad, 1), "p"), ((1, 1, bad), "q")):
        with pytest.raises(ValidationError, match=f"{name} = "):
            moments_fd(grid2, *args)
    with pytest.raises(ValidationError, match="mode = "):
        gaussian_fit(grid2).mode_block(bad)


def test_integral_floats_are_integers():
    np.testing.assert_array_equal(grid_axis(6.0, 9.0), grid_axis(6.0, 9))
    grid2 = _two_thermal_grid()
    assert moments_fd(grid2, 1.0, 1.0, 1.0) == moments_fd(grid2, 1, 1, 1)
    fit = gaussian_fit(grid2)
    np.testing.assert_array_equal(fit.mode_block(1.0), fit.mode_block(1))


def test_moments_fd_warns_when_noise_dominates():
    noisy = sampled_chi_grid(THERMAL, square_axes(3.0, 31), shots=50, seed=9)
    with pytest.warns(UserWarning):
        value, err = moments_fd(noisy, 0, 2, 2, with_error=True)
    assert err > abs(value) * 0.1  # fourth derivative of a 50-shot grid is noise


def test_moments_fd_error_propagation_scale():
    # quadrupling shots should halve the propagated stencil error
    a = sampled_chi_grid(THERMAL, square_axes(3.0, 31), shots=400, seed=3)
    b = sampled_chi_grid(THERMAL, square_axes(3.0, 31), shots=1600, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, ea = moments_fd(a, 0, 1, 1, with_error=True)
        _, eb = moments_fd(b, 0, 1, 1, with_error=True)
    assert ea / eb == pytest.approx(2.0, rel=0.25)


# --------------------------------------------------------------------- fit

def test_fit_exact_thermal():
    fit = gaussian_fit(chi_grid_from_state(THERMAL, square_axes(4.0, 81)))
    np.testing.assert_allclose(fit.covariance, 3.0 * np.eye(2), atol=1e-8)
    assert fit.psd_ok and fit.uncertainty_ok
    assert fit.nbar[0] == pytest.approx(1.0, abs=1e-8)
    assert fit.residual < 1e-10
    st_ = fit.to_state(MS1)
    assert isinstance(st_.mode_states[0], Thermal)
    assert st_.mode_states[0].n == pytest.approx(1.0, abs=1e-8)


def test_fit_exact_squeezed():
    fit = gaussian_fit(chi_grid_from_state(SQ_TILTED, square_axes(2.5, 81)))
    eigs = np.linalg.eigvalsh(fit.mode_block(0))
    np.testing.assert_allclose(eigs, [math.exp(-2.0), math.exp(2.0)], rtol=1e-6)
    recovered = fit.to_state(MS1).mode_states[0]
    assert isinstance(recovered, Squeezed)
    assert recovered.r == pytest.approx(1.0, abs=1e-6)
    assert recovered.theta == pytest.approx(0.7, abs=1e-6)


def test_fit_vacuum_classifies_as_vacuum():
    fit = gaussian_fit(chi_grid_from_state(VACUUM, square_axes(4.0, 41)))
    assert isinstance(fit.to_state(MS1).mode_states[0], Vacuum)


def test_fit_two_mode_blocks():
    st2 = GaussianFieldState(modes=MS2, mode_states=[Thermal(n=0.5), Squeezed(r=0.4)])
    fit = gaussian_fit(chi_grid_from_state(st2, (grid_axis(3.0, 31),) * 4))
    np.testing.assert_allclose(fit.mode_block(0), 2.0 * np.eye(2), atol=1e-6)
    np.testing.assert_allclose(
        np.diag(fit.mode_block(1)), [math.exp(-0.8), math.exp(0.8)], rtol=1e-6
    )
    back = fit.to_state(MS2).mode_states
    assert isinstance(back[0], Thermal) and isinstance(back[1], Squeezed)
    for bad in (-1, 2):
        with pytest.raises(ValidationError, match="out of range"):
            fit.mode_block(bad)


def test_fit_flags_unphysical_grids():
    axes = square_axes(1.5, 21)
    x, y = np.meshgrid(*axes, indexing="ij")
    growing = ChiGrid(axes=axes, values=np.exp(+0.5 * (x**2 + y**2)).astype(complex),
                      provenance="exact")
    fit = gaussian_fit(growing)
    assert not fit.psd_ok
    with pytest.raises(ValidationError):
        fit.to_state(MS1)
    squeezed_below = ChiGrid(axes=axes, values=np.exp(-0.25 * (x**2 + y**2)).astype(complex),
                             provenance="exact")
    fit = gaussian_fit(squeezed_below)
    assert fit.psd_ok and not fit.uncertainty_ok


def _assert_mode(got, n, r, theta):
    assert isinstance(got, SqueezedThermal)
    assert got.n == pytest.approx(n, abs=1e-6)
    assert got.r == pytest.approx(r, abs=1e-6)
    assert math.remainder(got.theta - theta, 2 * math.pi) == pytest.approx(0.0, abs=1e-6)


def test_fit_round_trips_mixed_squeezed_state():
    # squeezed and mixed at once: V = (2n+1) S S^T with n = 0.5, r = 1, theta = 0,
    # built here from its exponent rather than from the library's chi
    axes = square_axes(2.0, 41)
    x, y = np.meshgrid(*axes, indexing="ij")
    ex = 2.0 * math.exp(2.0) * x**2 + 2.0 * math.exp(-2.0) * y**2
    grid = ChiGrid(axes=axes, values=np.exp(-0.5 * ex).astype(complex), provenance="exact")
    fit = gaussian_fit(grid)
    assert fit.psd_ok and fit.uncertainty_ok
    assert fit.nbar[0] == pytest.approx(0.5, abs=1e-6)
    _assert_mode(fit.to_state(MS1).mode_states[0], 0.5, 1.0, 0.0)

    # two modes: exact grid -> fit -> state gives back both modes
    modes = (SqueezedThermal(n=0.5, r=1.0), SqueezedThermal(n=0.25, r=0.4, theta=0.7))
    st2 = GaussianFieldState(modes=MS2, mode_states=modes)
    fit = gaussian_fit(chi_grid_from_state(st2, (grid_axis(2.0, 21),) * 4))
    back = fit.to_state(MS2).mode_states
    for got, want in zip(back, modes):
        _assert_mode(got, want.n, want.r, want.theta)


def test_fit_needs_enough_usable_points():
    ax = grid_axis(1.0, 3)
    vals = np.full((3, 3), 1e-5, dtype=complex)
    vals[1, 1] = 1.0
    with pytest.raises(ValidationError):
        gaussian_fit(ChiGrid(axes=(ax, ax), values=vals, provenance="exact"))


def test_fit_recovers_from_sampled_grid():
    g = sampled_chi_grid(THERMAL, square_axes(2.0, 21), shots=100_000, seed=3, half=True)
    fit = gaussian_fit(hermitian_fill(g))
    assert fit.nbar[0] == pytest.approx(1.0, abs=0.05)


# ------------------------------------------------- reference implementations
#
# The dense exact-grid layers were rewritten to avoid full-size temporaries.
# The straightforward forms below are kept as references: the library must
# agree with them bit for bit, sign of zero included.

def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _chi_grid_reference(state, axes):
    """exp of the summed per-mode exponents, then cast to complex."""
    expo = np.zeros(tuple(a.size for a in axes))
    for k in range(state.n_modes):
        G = OMEGA_2X2 @ covariance(state, k) @ OMEGA_2X2.T
        x, y = axes[2 * k], axes[2 * k + 1]
        e2 = -0.5 * (
            G[0, 0] * x[:, None] ** 2
            + 2.0 * G[0, 1] * x[:, None] * y[None, :]
            + G[1, 1] * y[None, :] ** 2
        )
        shape = [1] * len(axes)
        shape[2 * k], shape[2 * k + 1] = x.size, y.size
        expo += e2.reshape(shape)
    return np.exp(expo).astype(complex)


def _fill_reference(grid):
    """Three np.where calls over full-size operands."""
    rev = tuple(slice(None, None, -1) for _ in grid.axes)
    partner = np.conj(grid.values[rev])
    have_v = ~np.isnan(grid.values)
    have_p = ~np.isnan(partner)
    values = np.where(
        have_v & have_p,
        0.5 * (np.where(have_v, grid.values, 0) + np.where(have_p, partner, 0)),
        np.where(have_v, grid.values, partner),
    )
    stderr = None
    if grid.stderr is not None:
        err_p = grid.stderr[rev]
        both = have_v & have_p
        stderr = np.where(
            both,
            0.5 * np.sqrt(np.where(both, grid.stderr**2 + err_p**2, 0)),
            np.where(have_v, grid.stderr, err_p),
        )
    return values, stderr


def _wigner_reference(grid, alpha_axes):
    """One np.tensordot per axis; returns the complex transform."""
    out = grid.values
    for xi_ax, al_ax in zip(grid.axes, alpha_axes):
        step = float(xi_ax[1] - xi_ax[0])
        kernel = np.exp(2j * np.outer(al_ax, xi_ax)) * (step / (2.0 * np.pi))
        out = np.tensordot(out, kernel, axes=([0], [1]))
    return out


def _inverse_reference(wgrid, xi_axes):
    out = wgrid.values.astype(complex)
    for al_ax, xi_ax in zip(wgrid.axes, xi_axes):
        step = float(al_ax[1] - al_ax[0])
        kernel = np.exp(-2j * np.outer(xi_ax, al_ax)) * (2.0 * step)
        out = np.tensordot(out, kernel, axes=([0], [1]))
    return out


def _assert_unfolded(got, want):
    """got's rows a >= 0 along the first axis are want's to the bit, and its
    rows a < 0 the reversed conjugate of its rows a > 0, also to the bit."""
    h = got.shape[0] // 2
    assert _same_bits(got[h:], want[h:])
    assert _same_bits(got[:h], np.conj(got[h + 1 :][(slice(None, None, -1),) * got.ndim]))


def _fit_reference(grid, min_abs=1e-3):
    """Covariance, residual and point count from a dense coordinate meshgrid."""
    n = grid.n_modes
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    absval = np.abs(grid.values).reshape(-1)
    mask = np.isfinite(absval) & (absval > min_abs)
    if np.count_nonzero(mask) < 3 * n + 1:
        raise ValidationError("too few usable grid points for the fit")
    y = -2.0 * np.log(absval[mask])
    cols = []
    for m in range(n):
        xr = mesh[2 * m].reshape(-1)[mask]
        xi = mesh[2 * m + 1].reshape(-1)[mask]
        cols += [xr**2, 2.0 * xr * xi, xi**2]
    A = np.stack(cols, axis=1)
    w = absval[mask]
    beta, *_ = np.linalg.lstsq(A * w[:, None], y * w, rcond=None)
    cov = np.zeros((2 * n, 2 * n))
    for m in range(n):
        G = np.array([[beta[3 * m], beta[3 * m + 1]], [beta[3 * m + 1], beta[3 * m + 2]]])
        cov[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = OMEGA_2X2.T @ G @ OMEGA_2X2
    residual = float(np.sqrt(np.mean(((A * w[:, None]) @ beta - y * w) ** 2)))
    return cov, residual, int(np.count_nonzero(mask))


_MODE_STATES = st.one_of(
    st.builds(Thermal, n=st.floats(0.0, 2.0)),
    st.builds(Squeezed, r=st.floats(0.0, 0.8), theta=st.floats(0.0, 6.3)),
)


@settings(max_examples=40, deadline=None)
@given(n_modes=st.sampled_from([1, 2]), kind=st.sampled_from(["exact", "full", "half"]),
       negzero=st.booleans(), data=st.data())
def test_dense_layers_match_references_bitwise(n_modes, kind, negzero, data):
    modes = MS1 if n_modes == 1 else MS2
    state = GaussianFieldState(
        modes=modes, mode_states=data.draw(st.lists(_MODE_STATES, min_size=n_modes,
                                                    max_size=n_modes)))
    sizes = [5, 7, 9, 15, 21] if n_modes == 1 else [5, 7, 9]
    axes = tuple(grid_axis(data.draw(st.floats(1.0, 6.0)), data.draw(st.sampled_from(sizes)))
                 for _ in range(2 * n_modes))
    grid = chi_grid_from_state(state, axes)
    assert _same_bits(grid.values, _chi_grid_reference(state, axes))
    if kind != "exact":
        grid = sampled_chi_grid(state, axes, shots=200, seed=data.draw(st.integers(0, 99)),
                                half=kind == "half")
    if negzero:
        # signed zeros on measured cells, where conj and averaging meet them
        rng = np.random.default_rng(data.draw(st.integers(0, 99)))
        values = grid.values.copy()
        values.real[rng.random(values.shape) < 0.3] = -0.0
        values.imag[rng.random(values.shape) < 0.3] = -0.0
        values[np.isnan(grid.values)] = np.nan
        grid = ChiGrid(axes=axes, values=values, provenance=grid.provenance,
                       shots=grid.shots, stderr=grid.stderr)

    filled = hermitian_fill(grid)
    want_values, want_stderr = _fill_reference(grid)
    assert _same_bits(filled.values, want_values)
    assert (filled.stderr is None) == (want_stderr is None)
    if want_stderr is not None:
        assert _same_bits(filled.stderr, want_stderr)

    # a real input is transformed on the rows a >= 0 of the first output axis
    # when every output axis is mirror-symmetric to the bit; one axis nudged
    # by an ulp, symmetric only within _AXIS_RTOL, takes the full path
    alpha_axes = [grid_axis(2.0, 11) for _ in axes]
    xi_axes = list(axes)
    skew = data.draw(st.sampled_from([None, "alpha", "xi"]))
    if skew is not None:
        out_axes = alpha_axes if skew == "alpha" else xi_axes
        d = data.draw(st.integers(0, len(axes) - 1))
        out_axes[d] = out_axes[d].copy()
        out_axes[d][1] = np.nextafter(out_axes[d][1], 0.0)
    w = wigner_transform(filled, alpha_axes, boundary_tol=np.inf)
    want = _wigner_reference(filled, alpha_axes)
    if skew == "alpha" or np.any(filled.values.imag):
        assert _same_bits(w.values, want.real)
        assert w.imag_residual == float(np.max(np.abs(want.imag)))
    else:
        _assert_unfolded(w.values, want.real)
        assert w.imag_residual == float(np.max(np.abs(want.imag[want.shape[0] // 2 :])))
    back = inverse_wigner_transform(w, xi_axes)
    want = _inverse_reference(w, xi_axes)
    if skew == "xi":
        assert _same_bits(back.values, want)
    else:
        _assert_unfolded(back.values, want)

    try:
        cov, residual, n_points = _fit_reference(filled)
    except ValidationError:
        with pytest.raises(ValidationError):
            gaussian_fit(filled)
        return
    fit = gaussian_fit(filled)
    assert _same_bits(fit.covariance, cov)
    assert fit.residual == residual and fit.n_points == n_points


# ------------------------------------------------- fill pass-through rule

def _nudged(grid, cell):
    """grid with the real part at cell one ulp up."""
    values = grid.values.copy()
    values.real[cell] = np.nextafter(values.real[cell], np.inf)
    return ChiGrid(axes=grid.axes, values=values, provenance=grid.provenance,
                   shots=grid.shots, stderr=grid.stderr)


def _assert_averaged(grid):
    filled = hermitian_fill(grid)
    assert filled is not grid
    want_values, want_stderr = _fill_reference(grid)
    assert _same_bits(filled.values, want_values)
    assert (filled.stderr is None) == (want_stderr is None)
    if want_stderr is not None:
        assert _same_bits(filled.stderr, want_stderr)
    return filled


@pytest.mark.parametrize("state", [SQ_TILTED, GaussianFieldState(
    modes=MS2, mode_states=[Thermal(n=0.5), Squeezed(r=0.3, theta=0.4)])])
def test_fill_returns_an_exact_grid_itself(state):
    axes = tuple(grid_axis(3.0, 9) for _ in range(2 * state.n_modes))
    chi = chi_grid_from_state(state, axes)
    assert hermitian_fill(chi) is chi
    # the same values in Fortran order go through the average, to the same bits
    fortran = ChiGrid(axes=axes, values=np.asfortranarray(chi.values))
    assert _same_bits(_assert_averaged(fortran).values, chi.values)


def test_fill_averages_a_signed_zero_pair():
    axes = square_axes(2.0, 9)
    chi = chi_grid_from_state(SQ_TILTED, axes)
    values = chi.values.copy()
    values.imag[2, 3] = values.imag[6, 5] = -0.0  # xi and -xi, still Hermitian
    filled = _assert_averaged(ChiGrid(axes=axes, values=values))
    assert not np.signbit(filled.values.imag[2, 3]) and not np.signbit(filled.values.imag[6, 5])


def test_fill_averages_a_complete_sampled_grid_with_stderr():
    axes = square_axes(2.0, 11)
    sampled = sampled_chi_grid(THERMAL, axes, shots=400, seed=7)
    # Hermitian values to the bit: only stderr asks for the average
    values = hermitian_fill(sampled).values
    filled = _assert_averaged(ChiGrid(axes=axes, values=values, provenance="sampled",
                                      shots=400, stderr=sampled.stderr))
    assert _same_bits(filled.values, values)


def test_fill_averages_a_grid_off_hermitian():
    axes = square_axes(2.0, 9)
    chi = chi_grid_from_state(SQ_TILTED, axes)
    # one ulp off at one cell, and an even imaginary part where an odd one is due
    for grid in (_nudged(chi, (1, 2)), ChiGrid(axes=axes, values=chi.values + 0.25j)):
        filled = _assert_averaged(grid)
        np.testing.assert_array_equal(filled.values, filled.values[::-1, ::-1].conj())


# ---------------------------------------------------------- memory budgets

# an exact two-mode grid of 21^4 = 194,481 cells (3.1 MB complex)
_BUDGET_STATE = GaussianFieldState(
    modes=MS2, mode_states=[Thermal(n=0.5), Squeezed(r=0.3, theta=0.4)])
_BUDGET_AXES = (grid_axis(7.0, 21),) * 4


def _traced(fn, *args):
    """fn(*args), the peak of the memory it allocated, and what it left allocated."""
    tracemalloc.start()
    try:
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, kept


def test_dense_layers_stay_within_their_memory_budgets():
    # peaks in units of one complex grid; each bound sits between the layer's
    # own peak and that of its full-size-temporary reference form above
    chi, peak, _ = _traced(chi_grid_from_state, _BUDGET_STATE, _BUDGET_AXES)
    grid = chi.values.nbytes
    assert peak <= 1.6 * grid  # one real exponent and the complex result
    filled, peak, kept = _traced(hermitian_fill, chi)
    assert filled is chi and kept <= 0.01 * grid
    assert peak <= 0.4 * grid  # half the mirrored imaginary part and masks
    _, peak, _ = _traced(hermitian_fill, _nudged(chi, (1, 2, 3, 4)))
    assert peak <= 1.4 * grid  # the mirrored partner, which becomes the result, and masks
    for half in (False, True):
        sampled = sampled_chi_grid(_BUDGET_STATE, _BUDGET_AXES, shots=100, half=half)
        _, peak, _ = _traced(hermitian_fill, sampled)
        assert peak <= 2.4 * grid  # and stderr's buffer with one squared temporary
    _, peak, _ = _traced(gaussian_fit, chi)
    assert peak <= 1.0 * grid  # |chi| and the kept cells' rows only
    # the transforms of a real input run on half the first output axis: the
    # full-axis form of the same stages peaks at 2.0 grids
    w, peak, kept = _traced(wigner_transform, chi)
    assert peak <= 1.2 * grid  # one half-size stage's input and output
    assert kept <= 0.55 * grid  # the real result alone
    _, peak, _ = _traced(inverse_wigner_transform, w)
    assert peak <= 1.7 * grid  # the first stage's complex cast of W and its half output


def test_wigner_grid_owns_a_contiguous_real_array():
    out = np.exp(1j * np.linspace(0.0, 1.0, 9)).reshape(3, 3)
    ax = grid_axis(1.0, 3)
    w = WignerGrid(axes=(ax, ax), values=out.real, normalization=1.0)
    assert w.values.dtype == np.float64 and w.values.flags.c_contiguous
    assert not np.shares_memory(w.values, out)
    w = wigner_transform(chi_grid_from_state(VACUUM, square_axes(6.0, 41)))
    assert w.values.flags.c_contiguous and w.values.base is None
