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
from chitomo.ramsey_readout import readout_chi
from chitomo.tomography import _stencil

MS1 = ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=1.0, mode_indices=[[1]])
MS2 = ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=1.0, mode_indices=[[1], [2]])
VACUUM = GaussianFieldState(modes=MS1, mode_states=[Vacuum()])
VACUUM2 = GaussianFieldState(modes=MS2, mode_states=[Vacuum()] * 2)
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
    ax = grid_axis(2.0, 129)
    assert ax.size == 129
    assert ax[64] == 0.0
    assert ax[0] == -2.0 and ax[-1] == 2.0
    np.testing.assert_array_equal(ax, -ax[::-1])
    with pytest.raises(ValidationError):
        grid_axis(0.0, 11)
    with pytest.raises(ValidationError):
        grid_axis(1.0, 2)


@pytest.mark.parametrize("points", [2, 4, 128, 1, -3])
def test_grid_axis_refuses_an_even_or_short_count_by_name(points):
    # an even count has no middle point for the origin; it is refused, not bumped
    with pytest.raises(ValidationError,
                       match=f"^points = {points} is not usable: an odd integer >= 3 is expected$"):
        grid_axis(2.0, points)


@pytest.mark.parametrize("extent", [math.inf, math.nan, -math.inf, -1.0])
def test_grid_axis_refuses_its_extent_by_name(extent):
    with pytest.raises(ValidationError,
                       match=f"^extent = {extent!r} is not usable: a finite number > 0 is expected"):
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
    half = g.values.size // 2  # the measured half is the flat tail from here
    exact = chi_grid_from_state(SQ_TILTED, axes).values.reshape(-1)
    np.testing.assert_array_equal(g.values.reshape(-1)[half:], exact[half:])
    np.testing.assert_array_equal(g.stderr.reshape(-1)[half:], 0.0)
    assert np.isnan(g.values.reshape(-1)[:half].real).all()


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
def test_a_half_plane_scan_measures_the_pointwise_half_space(n_modes, data):
    sizes = data.draw(st.lists(st.sampled_from([3, 5, 7, 9, 11]),
                               min_size=2 * n_modes, max_size=2 * n_modes))
    extents = data.draw(st.lists(st.floats(0.1, 10.0), min_size=2 * n_modes,
                                 max_size=2 * n_modes))
    axes = tuple(grid_axis(e, n) for e, n in zip(extents, sizes))
    state = VACUUM if n_modes == 1 else VACUUM2
    g = sampled_chi_grid(state, axes, shots=0, half=True)
    measured = ~np.isnan(g.stderr)  # shots=0 gives stderr 0.0 where measured
    np.testing.assert_array_equal(measured, _half_space_mask_reference(axes))
    # on these axes C order is lexicographic: the half is the flat tail
    np.testing.assert_array_equal(np.flatnonzero(measured),
                                  np.arange(measured.size // 2, measured.size))


def test_sampled_grid_half_space():
    axes = square_axes(2.0, 21)
    g = sampled_chi_grid(THERMAL, axes, shots=300, seed=1, half=True)
    mask = np.arange(g.values.size).reshape(g.values.shape) >= g.values.size // 2
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


@pytest.mark.parametrize(
    "readout", [{"theta": math.nan}, {"seed": -1}, {"shots": 2**63}], ids=["theta", "seed", "shots"]
)
def test_sampled_grid_refuses_readout_arguments_before_evaluating_chi(readout, monkeypatch):
    # the refusal is readout_chi's own, and no cell of chi is evaluated first
    args = {"theta": math.pi / 2, "shots": 10, "seed": 0, **readout}
    with pytest.raises(ValidationError) as want:
        readout_chi(np.ones(1), **args)

    def evaluate(*_):
        raise AssertionError("chi was evaluated before the readout arguments were checked")

    monkeypatch.setattr(tomography, "char_analytic_grid", evaluate)
    with pytest.raises(ValidationError) as got:
        sampled_chi_grid(THERMAL, square_axes(6.0, 2049), **args)
    assert str(got.value) == str(want.value)


# ----------------------------------------------------------- hermitian fill

def test_fill_restores_exact_half_grid_bitwise():
    axes = square_axes(2.0, 41)
    full = chi_grid_from_state(SQ_TILTED, axes)
    hv = full.values.copy()
    hv.reshape(-1)[:hv.size // 2] = np.nan  # the lower half of the flat C order
    filled = hermitian_fill(ChiGrid(axes=axes, values=hv, provenance="exact"))
    np.testing.assert_array_equal(filled.values, full.values)


def test_fill_single_conjugate_pair():
    ax = grid_axis(1.0, 3)
    vals = np.full((3, 3), np.nan, dtype=complex)
    vals.reshape(-1)[4:] = 1.0  # make the half-space, the flat tail of C order, complete
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
    g = chi_grid_from_state(VACUUM2, (grid_axis(6.0, 41),) * 4)
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
                          mode_indices=[[1], [2], [3]]),
            mode_states=[Vacuum()] * 3,
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


def test_two_mode_roundtrip_meets_the_benchmark_gates():
    # the exact two-mode gates on a 17^4 grid: the grid integral within 2% of
    # the normalization, and chi back within 1e-4 where |coordinate| <= extent/2
    axes = (grid_axis(5.5, 17),) * 4
    chi = chi_grid_from_state(VACUUM2, axes)
    w = wigner_transform(chi)
    assert abs(grid_integral(w) / w.normalization - 1.0) <= 0.02
    back = inverse_wigner_transform(w)
    assert back.values.dtype == np.float64  # the chi of an even W is real
    interior = np.ix_(*[np.abs(a) <= 5.5 / 2.0 for a in axes])
    assert np.max(np.abs(back.values - chi.values)[interior]) < 1e-4


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
    value, err = moments_fd(THERMAL, 0, 1, 1, with_error=True)
    assert value == pytest.approx(1.5, abs=1e-3)
    assert err is None  # exact source carries no shot noise


def _node_by_node_moment(chi_at, p, q, h):
    """The moment with chi read point by point: chi_at(xi) at every stencil
    node xi, on the lattice of half-steps h/2 of one mode's plane, each node
    summed with its mirror -xi under the stencil's parity."""
    weights = _stencil(p, q).ravel()
    nodes = np.flatnonzero(weights)
    weights = weights[nodes]
    values = np.array([chi_at(complex(ox * h / 2.0, oy * h / 2.0))
                       for ox, oy in (np.stack(np.divmod(nodes, 9)).T - 4).tolist()])
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
            def chi_at(xi):  # xi in the mode's plane, every other mode at 0
                point = np.zeros((1, state.n_modes), dtype=complex)
                point[0, mode] = xi
                return char_points(state, point)[0]

            for p in range(5):
                for q in range(5 - p):
                    got = moments_fd(state, mode, p, q)
                    assert got == _node_by_node_moment(chi_at, p, q, 0.01), (mode, p, q)


def test_moments_fd_reads_a_state_once_on_its_lattice_of_half_steps(monkeypatch):
    # h = 0.01: the mode's plane on grid_axis(0.02, 9), every other mode at 0
    reads = []
    evaluate = tomography.char_analytic_grid
    monkeypatch.setattr(tomography, "char_analytic_grid",
                        lambda *args: reads.append(args) or evaluate(*args))
    state = GaussianFieldState(modes=MS2, mode_states=[Thermal(n=0.5), Vacuum()])
    moments_fd(state, 1, 2, 2)
    [(_, axes)] = reads
    for d, axis in enumerate(axes):
        want = grid_axis(0.02, 9) if d in (2, 3) else np.zeros(1)
        np.testing.assert_array_equal(axis, want)


def test_moments_fd_of_a_grid_is_its_cells_read_node_by_node():
    # on a grid h is two steps, so each node is the cell nearest its xi
    state = GaussianFieldState(modes=MS2, mode_states=[Thermal(n=0.5), Squeezed(r=0.3, theta=0.4)])
    axes = square_axes(3.0, 13) * 2
    grids = [chi_grid_from_state(state, axes),
             hermitian_fill(sampled_chi_grid(state, axes, shots=1000, seed=4, half=True))]
    for grid in grids:
        for mode in range(2):
            def chi_at(xi):  # the cell nearest xi in the mode's plane, other modes at 0
                index = [a.size // 2 for a in grid.axes]
                for d, x in zip((2 * mode, 2 * mode + 1), (xi.real, xi.imag)):
                    index[d] = int(np.argmin(np.abs(grid.axes[d] - x)))
                return grid.values[tuple(index)]

            h = 2.0 * (grid.axes[2 * mode][1] - grid.axes[2 * mode][0])
            for p in range(5):
                for q in range(5 - p):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # a 1000-shot grid's noise
                        got = moments_fd(grid, mode, p, q)
                    want = _node_by_node_moment(chi_at, p, q, h)
                    assert got == want, (grid.provenance, mode, p, q)


def test_moments_fd_grid_source():
    g = chi_grid_from_state(THERMAL, square_axes(3.0, 65))
    got = moments_fd(g, 0, 1, 1)  # h is two grid steps
    assert got == pytest.approx(1.5, abs=2e-3)
    small = chi_grid_from_state(THERMAL, square_axes(3.0, 7))
    moments_fd(small, 0, 1, 1)
    with pytest.raises(ValidationError, match="stencil exits the grid"):
        moments_fd(small, 0, 2, 2)  # nodes 4 steps out on a grid of 3


def test_moments_fd_grid_rejects_nan_under_stencil():
    half = sampled_chi_grid(THERMAL, square_axes(3.0, 31), shots=200, seed=2, half=True)
    with pytest.raises(ValidationError):
        moments_fd(half, 0, 1, 1)


def test_moments_fd_order_and_mode_limits():
    with pytest.raises(ValidationError):
        moments_fd(THERMAL, 0, 3, 2)
    with pytest.raises(ValidationError, match="mode index 1 out of range 0..0"):
        moments_fd(THERMAL, 1, 1, 1)
    with pytest.raises(ValidationError, match="chi_source must be"):
        moments_fd(lambda xi: char_analytic(THERMAL, xi), 0, 1, 1)


@pytest.mark.parametrize("p,q,message", [
    (-1, 0, "p = -1 is not usable: an integer >= 0 is expected"),
    (0, -1, "q = -1 is not usable: an integer >= 0 is expected"),
    (1.5, 0, "p = 1.5 is not usable: an integer is expected"),
    (3, 2, "moment order p + q = 5 is above the implemented 4"),
    (0, 5, "moment order p + q = 5 is above the implemented 4"),
])
def test_both_moment_functions_refuse_an_order_with_one_message(p, q, message):
    for moments in (moments_fd, moments_analytic):
        with pytest.raises(ValidationError) as exc:
            moments(THERMAL, 0, p, q)
        assert str(exc.value) == message


def test_moments_fd_is_exact_on_monomials():
    # the stencil differentiates xi^a conj(xi)^b exactly for
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
                    got = moments_fd(grid, 0, p, q)
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
                    value = moments_fd(grid, mode, p, p)
                    assert value.imag == 0.0, (grid.provenance, mode, p)


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
    np.testing.assert_allclose(fit.mode_block(0), covariance(THERMAL, 0), atol=1e-8)


def test_fit_exact_squeezed():
    fit = gaussian_fit(chi_grid_from_state(SQ_TILTED, square_axes(2.5, 81)))
    eigs = np.linalg.eigvalsh(fit.mode_block(0))
    np.testing.assert_allclose(eigs, [math.exp(-2.0), math.exp(2.0)], rtol=1e-6)
    # the whole block, not only its eigenvalues, pins the tilt theta = 0.7
    np.testing.assert_allclose(fit.mode_block(0), covariance(SQ_TILTED, 0), rtol=1e-6)


def test_fit_vacuum():
    fit = gaussian_fit(chi_grid_from_state(VACUUM, square_axes(4.0, 41)))
    np.testing.assert_allclose(fit.mode_block(0), covariance(VACUUM, 0), atol=1e-8)


def test_fit_two_mode_blocks():
    st2 = GaussianFieldState(modes=MS2, mode_states=[Thermal(n=0.5), Squeezed(r=0.4)])
    fit = gaussian_fit(chi_grid_from_state(st2, (grid_axis(3.0, 31),) * 4))
    np.testing.assert_allclose(fit.mode_block(0), 2.0 * np.eye(2), atol=1e-6)
    np.testing.assert_allclose(
        np.diag(fit.mode_block(1)), [math.exp(-0.8), math.exp(0.8)], rtol=1e-6
    )
    for m in range(2):
        np.testing.assert_allclose(fit.mode_block(m), covariance(st2, m), atol=1e-6)
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
    squeezed_below = ChiGrid(axes=axes, values=np.exp(-0.25 * (x**2 + y**2)).astype(complex),
                             provenance="exact")
    fit = gaussian_fit(squeezed_below)
    assert fit.psd_ok and not fit.uncertainty_ok


def test_fit_recovers_mixed_squeezed_state():
    # squeezed and mixed at once: V = (2n+1) S S^T with n = 0.5, r = 1, theta = 0,
    # built here from its exponent rather than from the library's chi
    axes = square_axes(2.0, 41)
    x, y = np.meshgrid(*axes, indexing="ij")
    ex = 2.0 * math.exp(2.0) * x**2 + 2.0 * math.exp(-2.0) * y**2
    grid = ChiGrid(axes=axes, values=np.exp(-0.5 * ex).astype(complex), provenance="exact")
    fit = gaussian_fit(grid)
    assert fit.psd_ok and fit.uncertainty_ok
    assert fit.nbar[0] == pytest.approx(0.5, abs=1e-6)
    mixed = GaussianFieldState(modes=MS1, mode_states=[SqueezedThermal(n=0.5, r=1.0)])
    np.testing.assert_allclose(fit.mode_block(0), covariance(mixed, 0), rtol=1e-6)

    # two modes: exact grid -> fit gives back both modes' blocks
    modes = (SqueezedThermal(n=0.5, r=1.0), SqueezedThermal(n=0.25, r=0.4, theta=0.7))
    st2 = GaussianFieldState(modes=MS2, mode_states=modes)
    fit = gaussian_fit(chi_grid_from_state(st2, (grid_axis(2.0, 21),) * 4))
    for m in range(2):
        np.testing.assert_allclose(fit.mode_block(m), covariance(st2, m), rtol=1e-6, atol=1e-12)


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


def _drawn_grid(n_modes, kind, negzero, data):
    """A chi grid of one or two modes drawn by hypothesis: exact (checked bit
    for bit against _chi_grid_reference on the way), or sampled on the full
    grid or its half; with negzero, signed zeros on measured cells, where
    conj and averaging meet them."""
    modes = MS1 if n_modes == 1 else MS2
    state = GaussianFieldState(
        modes=modes, mode_states=data.draw(st.lists(_MODE_STATES, min_size=n_modes,
                                                    max_size=n_modes)))
    sizes = [5, 7, 9, 15, 21] if n_modes == 1 else [5, 7, 9]
    axes = tuple(grid_axis(data.draw(st.floats(1.0, 6.0)), data.draw(st.sampled_from(sizes)))
                 for _ in range(2 * n_modes))
    grid = chi_grid_from_state(state, axes)
    # exact chi is stored real: the reference's real part, whose imaginary
    # part is all +0.0
    want = _chi_grid_reference(state, axes)
    assert _same_bits(grid.values, want.real)
    assert not np.any(want.imag) and not np.any(np.signbit(want.imag))
    if kind != "exact":
        grid = sampled_chi_grid(state, axes, shots=200, seed=data.draw(st.integers(0, 99)),
                                half=kind == "half")
    if negzero:
        rng = np.random.default_rng(data.draw(st.integers(0, 99)))
        values = grid.values.astype(complex)  # a copy, complex also for an exact grid
        values.real[rng.random(values.shape) < 0.3] = -0.0
        values.imag[rng.random(values.shape) < 0.3] = -0.0
        values[np.isnan(grid.values)] = np.nan
        grid = ChiGrid(axes=axes, values=values, provenance=grid.provenance,
                       shots=grid.shots, stderr=grid.stderr)
    return grid


_GRID_DRAWS = dict(n_modes=st.sampled_from([1, 2]), kind=st.sampled_from(["exact", "full", "half"]),
                   negzero=st.booleans(), data=st.data())


@settings(max_examples=40, deadline=None)
@given(**_GRID_DRAWS)
def test_dense_layers_match_references_bitwise(n_modes, kind, negzero, data):
    grid = _drawn_grid(n_modes, kind, negzero, data)
    filled = hermitian_fill(grid)
    want_values, want_stderr = _fill_reference(grid)
    assert _same_bits(filled.values, want_values)
    assert (filled.stderr is None) == (want_stderr is None)
    if want_stderr is not None:
        assert _same_bits(filled.stderr, want_stderr)

    try:
        cov, residual, n_points = _fit_reference(filled)
    except ValidationError:
        with pytest.raises(ValidationError):
            gaussian_fit(filled)
        return
    fit = gaussian_fit(filled)
    assert _same_bits(fit.covariance, cov)
    assert fit.residual == residual and fit.n_points == n_points


# The transforms and their tensordot references evaluate the same kernel
# entries, up to exact factors of 2 and signs, and differ only in the order
# of their sums: the parity core folds the rows x_last < 0 onto their
# mirrors and takes the Re or Im in its last stage. Each output then differs
# by at most _ROUNDING_K eps sum|v| measure, where sum|v| measure bounds every
# partial sum; the largest multiple seen over 400 draws was 2.7.
_ROUNDING_K = 16


def _rounding_bound(grid, measure) -> float:
    scale = np.sum(np.abs(grid.values)) * math.prod(measure(h) for h in grid.steps)
    return _ROUNDING_K * np.finfo(float).eps * scale


def _reversed(values):
    return values[(slice(None, None, -1),) * values.ndim]


@settings(max_examples=40, deadline=None)
@given(**_GRID_DRAWS)
def test_transforms_match_references_to_rounding(n_modes, kind, negzero, data):
    filled = hermitian_fill(_drawn_grid(n_modes, kind, negzero, data))
    # each part is evaluated on the rows a >= 0 of the first output axis and
    # unfolded when every output axis is mirror-symmetric to the bit; one axis
    # nudged by an ulp, symmetric only within _AXIS_RTOL, takes every row
    alpha_axes = [grid_axis(2.0, 11) for _ in filled.axes]
    xi_axes = list(filled.axes)
    skew = data.draw(st.sampled_from([None, "alpha", "xi"]))
    if skew is not None:
        out_axes = alpha_axes if skew == "alpha" else xi_axes
        d = data.draw(st.integers(0, len(out_axes) - 1))
        out_axes[d] = out_axes[d].copy()
        out_axes[d][1] = np.nextafter(out_axes[d][1], 0.0)
    w = wigner_transform(filled, alpha_axes, boundary_tol=np.inf)
    want = _wigner_reference(filled, alpha_axes)
    assert np.max(np.abs(w.values - want.real)) <= _rounding_bound(
        filled, lambda step: step / (2.0 * np.pi))
    # a filled grid is Hermitian to the bit: no part of it transforms to an
    # imaginary W
    assert w.imag_residual == 0.0
    even = _same_bits(w.values, _reversed(w.values))
    if not np.any(filled.values.imag) and skew != "alpha":
        assert even  # the W of a real even chi, unfolded by its parity
    back = inverse_wigner_transform(w, xi_axes)
    want = _inverse_reference(w, xi_axes)
    assert np.max(np.abs(back.values - want)) <= _rounding_bound(w, lambda step: 2.0 * step)
    assert back.values.dtype == (np.float64 if even else np.complex128)


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
    values = chi.values.astype(complex)  # stored complex, to hold the imaginary -0.0
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
    grid = 16 * chi.values.size  # the bytes of one complex grid; exact chi is stored real
    assert peak <= 1.6 * grid  # room for a complex result; the real one alone is tested below
    filled, peak, kept = _traced(hermitian_fill, chi)
    assert filled is chi and kept <= 0.01 * grid
    assert peak <= 0.4 * grid  # the masks of the mirror comparison
    _, peak, _ = _traced(hermitian_fill, _nudged(chi, (1, 2, 3, 4)))
    assert peak <= 1.4 * grid  # the mirrored partner, which becomes the result, and masks
    for half in (False, True):
        sampled = sampled_chi_grid(_BUDGET_STATE, _BUDGET_AXES, shots=100, half=half)
        _, peak, _ = _traced(hermitian_fill, sampled)
        assert peak <= 2.4 * grid  # and stderr's buffer with one squared temporary
    _, peak, _ = _traced(gaussian_fit, chi)
    assert peak <= 0.3 * grid  # the masks and the kept cells' rows: 0.22 measured
    _, peak, _ = _traced(gaussian_fit, _complex_copy(chi))
    assert peak <= 0.8 * grid  # and |chi| of a complex grid: 0.72 measured
    # the transforms of an even real input run on quarter-size stages: the
    # full-axis form of the same stages peaks at 2.0 grids
    w, peak, kept = _traced(wigner_transform, chi)
    assert peak <= 1.1 * grid  # the part's rows x_last >= 0, the last stage's input, the result
    assert kept <= 0.55 * grid  # the real result alone
    _, peak, _ = _traced(inverse_wigner_transform, w)
    assert peak <= 1.1 * grid  # the same for the even W, whose chi is real: 1.04 measured


def test_wigner_grid_owns_a_contiguous_real_array():
    out = np.exp(1j * np.linspace(0.0, 1.0, 9)).reshape(3, 3)
    ax = grid_axis(1.0, 3)
    w = WignerGrid(axes=(ax, ax), values=out.real, normalization=1.0)
    assert w.values.dtype == np.float64 and w.values.flags.c_contiguous
    assert not np.shares_memory(w.values, out)
    w = wigner_transform(chi_grid_from_state(VACUUM, square_axes(6.0, 41)))
    assert w.values.flags.c_contiguous and w.values.base is None


# ------------------------------------------------------ exact grids stored real

def _complex_copy(grid):
    """grid with the same values stored complex, every imaginary part +0.0."""
    return ChiGrid(axes=grid.axes, values=grid.values.astype(complex),
                   provenance=grid.provenance)


@pytest.mark.parametrize("state", [SQ_TILTED, _BUDGET_STATE])
def test_exact_chi_is_stored_real_and_filled_as_itself(state):
    axes = tuple(grid_axis(4.0, 11) for _ in range(2 * state.n_modes))
    chi = chi_grid_from_state(state, axes)
    assert chi.values.dtype == np.float64
    assert hermitian_fill(chi) is chi
    twin = _complex_copy(chi)
    assert hermitian_fill(twin) is twin


def test_exact_chi_grid_makes_no_complex_copy():
    # the real exponent, which becomes the result, is half a complex grid
    chi, peak, _ = _traced(chi_grid_from_state, _BUDGET_STATE, _BUDGET_AXES)
    assert peak <= 0.6 * 16 * chi.values.size


@pytest.mark.parametrize("state", [SQ_TILTED, _BUDGET_STATE])
@pytest.mark.parametrize("skew", [False, True])
def test_transforms_of_a_real_grid_are_those_of_its_complex_copy(state, skew):
    # a complex grid whose imaginary parts are all zero takes the real path,
    # on mirror-symmetric output axes and (skew) on an axis that is not so
    axes = tuple(grid_axis(6.0, 17) for _ in range(2 * state.n_modes))
    alpha_axes = [grid_axis(2.0, 11) for _ in axes]
    if skew:
        alpha_axes[0][1] = np.nextafter(alpha_axes[0][1], 0.0)
    chi = chi_grid_from_state(state, axes)
    twin = _complex_copy(chi)
    w = wigner_transform(chi, alpha_axes, boundary_tol=np.inf)
    w_twin = wigner_transform(twin, alpha_axes, boundary_tol=np.inf)
    assert _same_bits(w.values, w_twin.values)
    assert w.imag_residual == w_twin.imag_residual
    assert w.normalization == w_twin.normalization
    for xi_axes in (None, axes):
        back = inverse_wigner_transform(w, xi_axes)
        assert _same_bits(back.values, inverse_wigner_transform(w_twin, xi_axes).values)


@pytest.mark.parametrize("state", [SQ_TILTED, _BUDGET_STATE])
@pytest.mark.parametrize("skew", [False, True])
def test_an_even_chi_transforms_to_an_even_w_and_back_to_a_real_chi(state, skew):
    # on chi axes mirror-symmetric to the bit, and (skew) with one axis an ulp
    # off, symmetric only within _AXIS_RTOL: the parity core pairs x with the
    # mirror index either way
    axes = [grid_axis(6.0, 17) for _ in range(2 * state.n_modes)]
    chi = chi_grid_from_state(state, axes)
    if skew:
        axes[-1] = axes[-1].copy()
        axes[-1][1] = np.nextafter(axes[-1][1], 0.0)
        chi = ChiGrid(axes=axes, values=chi.values)
    w = wigner_transform(chi, boundary_tol=np.inf)
    assert _same_bits(w.values, _reversed(w.values))
    assert w.imag_residual == 0.0
    back = inverse_wigner_transform(w)
    assert back.values.dtype == np.float64
    assert _same_bits(back.values, _reversed(back.values))
    # a filled half grid: an even real part and an odd imaginary one
    filled = hermitian_fill(sampled_chi_grid(state, axes, shots=100, seed=2, half=True))
    assert np.any(filled.values.imag)
    assert wigner_transform(filled, boundary_tol=np.inf).imag_residual == 0.0


def test_fit_gathers_the_cells_of_the_dense_mask_in_c_order():
    # the kept cells found from flat indices are np.nonzero's, in its C order,
    # so the fit is bit for bit the one built on the dense mask
    axes = (grid_axis(7.0, 13),) * 4
    chi = chi_grid_from_state(_BUDGET_STATE, axes)
    sampled = hermitian_fill(sampled_chi_grid(_BUDGET_STATE, axes, shots=400, seed=3, half=True))
    for grid in (chi, _complex_copy(chi), sampled):
        cov, residual, n_points = _fit_reference(grid)
        fit = gaussian_fit(grid)
        assert _same_bits(fit.covariance, cov)
        assert fit.residual == residual and fit.n_points == n_points
