"""Grid assembly, Wigner reconstruction, moment extraction and Gaussian fits.

The characteristic function lives on uniform symmetric grids, one (Re xi,
Im xi) axis pair per mode, with the origin always a grid point. Unmeasured
points are NaN; hermitian_fill completes a half grid through chi(-xi) =
conj chi(xi) and makes the symmetry exact on the stored array. ChiGrid and
WignerGrid check their axes and values in one private base.

The quasiprobability is the Fourier transform

    W(alpha) = integral d^2n xi / (2 pi)^2n  e^{xi+ alpha + alpha+ xi} chi(xi),

whose exponent is the pure phase 2i sum_m Re(conj(xi_m) alpha_m). Under this
kernel the transform of a normalized chi integrates to 4^-n rather than 1;
that constant is recorded on the WignerGrid instead of being silently
rescaled away, and the inverse transform carries the compensating 4^n. Both
are one private core, run with conjugate kernel phases.

Moments of symmetric-ordered operator products come from Wirtinger
derivatives at the origin,

    <[(a+)^p a^q]_S> = (-1)^q  d^{p+q} chi / d xi^p d conj(xi)^q | 0,

evaluated by central finite differences with optional Richardson
extrapolation, as one array of weights on the lattice of half-steps. The
source is one of two kinds: a ChiGrid, whose stencil nodes are gathered from
its cells, or a GaussianFieldState, whose closed form is evaluated once on
the stencil's own 9 x 9 lattice and then read as a grid in the same way. Each
node is summed together with its mirror -xi, whose weight carries the
stencil's parity (-1)^(p+q); a p = q stencil has exactly real weights, so on
a Hermitian source, where chi(-xi) = conj chi(xi) holds to the bit, a p = q
moment is exactly real. For sampled grids the per-point binomial errors are
pushed through the same weights to an error bar on the moment.

The dense layers allocate no full-size array that their result does not
need. Their peak allocation, counted in complex grids of the input's size
(the input itself not counted; tracemalloc on exact two-mode grids):

    chi_grid_from_state       1.5   the real exponent and the complex result
    hermitian_fill            0.3   on a complete Hermitian grid, which it
                                    returns as it is (nothing kept); else 1.3:
                                    the mirrored partner, which becomes the
                                    result, and masks; 2.1 on a sampled grid
                                    (stderr's buffer and one squared temporary)
    gaussian_fit              0.7   |chi|, then only the kept cells' rows
    wigner_transform          1.1   one stage's input and output, each on
                                    the rows x_0 >= 0 of a real chi (2.0 on
                                    a complex chi); the result is a
                                    contiguous real array (0.5)
    inverse_wigner_transform  1.5   the complex cast of the real W and the
                                    first stage's output on the rows
                                    Re xi_0 >= 0; then that half and the
                                    result
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import NumericalCheckError, ValidationError, converted, integer
from .gaussian_field import (
    OMEGA_2X2,
    GaussianFieldState,
    ModeSet,
    Squeezed,
    SqueezedThermal,
    Thermal,
    Vacuum,
    _check_mode,
    char_analytic_grid,
)
from .ramsey_readout import readout_chi

__all__ = [
    "ChiGrid",
    "WignerGrid",
    "GaussianFit",
    "grid_axis",
    "chi_grid_from_state",
    "sampled_chi_grid",
    "hermitian_fill",
    "wigner_transform",
    "inverse_wigner_transform",
    "grid_integral",
    "moments_fd",
    "gaussian_fit",
]


def grid_axis(extent: float, points: int) -> NDArray[np.float64]:
    """Symmetric axis [-extent, extent]; even counts are bumped to odd so the
    origin is always a grid point (exact 0.0).

    Built by mirroring the positive half, so ax == -ax[::-1] bitwise; paired
    with the even quadratic forms this makes Hermitian symmetry of exact
    grids exact in floating point too, not just up to rounding.
    """
    if not 0 < extent < math.inf:
        raise ValidationError(f"axis extent {extent} must be finite and positive")
    points = converted(integer, points, "points")
    if points < 3:
        raise ValidationError("axis needs at least 3 points")
    if points % 2 == 0:
        points += 1
    half = np.linspace(0.0, extent, points // 2 + 1)
    return np.concatenate((-half[:0:-1], half))


# rounding allowed in an axis's steps and mirror symmetry, relative to its extent
_AXIS_RTOL = 1e-9


def _check_axes(axes: Sequence[np.ndarray]) -> tuple[NDArray[np.float64], ...]:
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    if len(axes) < 2 or len(axes) % 2 != 0:
        raise ValidationError("need one (Re xi, Im xi) axis pair per mode")
    for d, a in enumerate(axes):
        if a.ndim != 1 or a.size < 3 or a.size % 2 == 0:
            raise ValidationError("axes must be 1-D, odd-length, >= 3 points")
        if not np.all(np.isfinite(a)):
            raise ValidationError(f"axis {d} holds the non-finite value {a[~np.isfinite(a)][0]}")
        if np.any(np.diff(a) <= 0):
            raise ValidationError("axes must be strictly increasing")
        if a[a.size // 2] != 0.0:
            raise ValidationError("axes must contain the origin at the center")
        # the transforms, the fill and the stencils all read one step per axis
        # and the mirror point -xi of every xi
        step = (a[-1] - a[0]) / (a.size - 1)
        off = max(np.max(np.abs(np.diff(a) - step)), np.max(np.abs(a + a[::-1])))
        if off > _AXIS_RTOL * a[-1]:
            raise ValidationError(
                f"axis {d} is not uniform and symmetric about 0: a step or a mirror "
                f"pair is {off:.3g} off, above {_AXIS_RTOL:g} of the extent {a[-1]:g}"
            )
    return axes


@dataclass(frozen=True, eq=False)
class _Grid:
    """values on checked axes, one axis per entry of axes, cast by _cast."""

    axes: tuple[NDArray[np.float64], ...]
    values: NDArray

    def __post_init__(self) -> None:
        axes = _check_axes(self.axes)
        object.__setattr__(self, "axes", axes)
        values = self._cast(self.values)
        shape = tuple(a.size for a in axes)
        if values.shape != shape:
            raise ValidationError(f"values shape {values.shape} does not match axes {shape}")
        object.__setattr__(self, "values", values)

    @property
    def n_modes(self) -> int:
        return len(self.axes) // 2

    @property
    def steps(self) -> tuple[float, ...]:
        return tuple(float(a[1] - a[0]) for a in self.axes)


@dataclass(frozen=True, eq=False)
class ChiGrid(_Grid):
    """chi values on a uniform symmetric grid; NaN marks unmeasured points.

    axes holds (Re xi_0, Im xi_0, Re xi_1, ...); values has one axis per
    entry, same order. provenance is "exact", "sampled" or "reconstructed";
    sampled grids carry per-point combined standard errors.
    """

    provenance: str = "exact"
    shots: int = 0
    stderr: NDArray[np.float64] | None = None

    _cast = staticmethod(partial(np.asarray, dtype=complex))

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.stderr is not None:
            err = np.asarray(self.stderr, dtype=float)
            if err.shape != self.values.shape:
                raise ValidationError("stderr shape does not match the grid")
            object.__setattr__(self, "stderr", err)

    @property
    def origin_value(self) -> complex:
        center = tuple(a.size // 2 for a in self.axes)
        return complex(self.values[center])


@dataclass(frozen=True, eq=False)
class WignerGrid(_Grid):
    """Real quasiprobability samples on quadrature axes (x_0, p_0, x_1, ...).

    normalization records the value the grid integral should take under the
    adopted Fourier kernel (4^-n times chi(0)); imag_residual is the largest
    imaginary part discarded when realifying the transform.
    """

    normalization: float
    imag_residual: float = 0.0

    # a contiguous copy of a strided view (such as .real of a complex array),
    # so that the grid does not keep the complex array alive
    _cast = staticmethod(partial(np.ascontiguousarray, dtype=float))


def grid_integral(grid) -> float:
    """Riemann cell sum over the full grid (the same quadrature the discrete
    transform uses)."""
    return float(np.sum(np.real(grid.values)) * math.prod(grid.steps))


# --------------------------------------------------------------------------
# grid construction

# the largest grid a state may be evaluated on: 537 MB per complex array
MAX_GRID_CELLS = 2**25


def _state_axes(state: GaussianFieldState, axes: Sequence[np.ndarray] | None):
    """Checked axes for a grid of state (default: 129 points at extent 6 on
    every axis); a grid above MAX_GRID_CELLS is refused before it exists."""
    if axes is None:
        axes = tuple(grid_axis(6.0, 129) for _ in range(2 * state.n_modes))
    axes = _check_axes(axes)
    if len(axes) != 2 * state.n_modes:
        raise ValidationError("axis count does not match the state's mode count")
    cells = math.prod(a.size for a in axes)
    if cells > MAX_GRID_CELLS:
        raise ValidationError(
            f"a {'x'.join(str(a.size) for a in axes)} grid has {cells} cells, "
            f"above the budget of {MAX_GRID_CELLS}; use fewer points"
        )
    return axes


def chi_grid_from_state(
    state: GaussianFieldState, axes: Sequence[np.ndarray] | None = None
) -> ChiGrid:
    """Exact chi on a grid, straight from the closed form."""
    axes = _state_axes(state, axes)
    return ChiGrid(axes=axes, values=char_analytic_grid(state, axes), provenance="exact")


def _half_space_mask(axes: Sequence[np.ndarray]) -> NDArray[np.bool_]:
    """True on the canonical half: first nonzero coordinate positive, plus 0.

    Lexicographic sign test, one axis at a time: a point is decided at its
    first nonzero coordinate; points still undecided after the last axis are
    the origin.
    """
    shape = tuple(a.size for a in axes)
    mask = np.zeros(shape, dtype=bool)
    undecided = np.ones(shape, dtype=bool)
    for d, a in enumerate(axes):
        c = np.reshape(a, [-1 if k == d else 1 for k in range(len(shape))])
        mask |= undecided & (c > 0)
        undecided &= c == 0
    return mask | undecided


def sampled_chi_grid(
    state: GaussianFieldState,
    axes: Sequence[np.ndarray] | None = None,
    theta: float = np.pi / 2,
    shots: int = 10_000,
    seed: int = 0,
    half: bool = False,
) -> ChiGrid:
    """Simulated finite-shot chi grid via the qubit readout.

    Each grid point is an independent two-basis measurement; stderr combines
    the two binomial errors, sqrt(sx^2 + sy^2)/|sin theta|. The measured
    points are read out in C order by one readout_chi call. With half=True
    only the canonical half-space is measured (NaN elsewhere), ready for
    hermitian_fill.
    """
    axes = _state_axes(state, axes)
    chi = char_analytic_grid(state, axes)
    measured = _half_space_mask(axes) if half else np.ones(chi.shape, dtype=bool)
    readout = readout_chi(chi[measured], theta, shots, seed)
    values = np.full(chi.shape, np.nan + 0j)
    stderr = np.full(chi.shape, np.nan)
    values[measured] = readout.chi_est
    stderr[measured] = readout.chi_stderr
    return ChiGrid(
        axes=axes,
        values=values,
        provenance="sampled",
        shots=int(shots),
        stderr=stderr,
    )


def _is_hermitian(values: np.ndarray) -> bool:
    """True when chi(-xi) == conj chi(xi) on every cell of a C-ordered array
    that holds no NaN and no -0.0, so that the fill's average is the identity.

    Reversing every axis of a C-ordered array reverses its flat order, so each
    (xi, -xi) pair is compared once, from the first half of the flat view.
    """
    if not values.flags.c_contiguous:
        return False
    flat = values.reshape(-1)
    half = flat.size // 2 + 1
    head, mirror = flat[:half], flat[::-1][:half]
    # NaN compares unequal; -0.0 is the one float whose int64 view is the minimum
    return (
        np.array_equal(head.real, mirror.real)
        and np.array_equal(head.imag, np.negative(mirror.imag))
        and not np.any(flat.view(np.int64) == np.iinfo(np.int64).min)
    )


def hermitian_fill(grid: ChiGrid) -> ChiGrid:
    """Complete a grid through chi(-xi) = conj chi(xi), exactly.

    Points measured on both halves are averaged as (chi(xi) + conj
    chi(-xi))/2, which makes the stored array Hermitian to the last bit.
    Fails if some point is missing from both halves.

    A grid the average would not change is returned as it is, the same
    object, with nothing allocated: one without stderr whose values are
    complete and Hermitian to the bit and hold no -0.0 (the average turns
    -0.0 + +0.0 into +0.0). Exact grids from chi_grid_from_state are such.
    """
    if grid.stderr is None and _is_hermitian(grid.values):
        return grid
    # the result is built in the buffer of the conjugated mirror: the cells
    # measured only at xi are copied in, the doubly measured ones averaged
    rev = tuple(slice(None, None, -1) for _ in grid.axes)
    values = np.conj(grid.values[rev])
    only_v = np.isnan(values)
    missing_v = np.isnan(grid.values)
    if np.any(missing_v & only_v):
        raise ValidationError("grid is not a centrally complete half-space")
    both = ~(missing_v | only_v)
    del missing_v
    np.copyto(values, grid.values, where=only_v)
    np.add(values, grid.values, out=values, where=both)
    np.multiply(values, 0.5, out=values, where=both)
    stderr = None
    if grid.stderr is not None:
        # 0.5 sqrt(s^2 + e^2) on the doubly measured cells, in the same way
        stderr = grid.stderr[rev].copy()
        np.copyto(stderr, grid.stderr, where=only_v)
        np.square(stderr, out=stderr, where=both)
        np.add(stderr, np.square(grid.stderr), out=stderr, where=both)
        np.sqrt(stderr, out=stderr, where=both)
        np.multiply(stderr, 0.5, out=stderr, where=both)
    return ChiGrid(
        axes=grid.axes,
        values=values,
        provenance=grid.provenance,
        shots=grid.shots,
        stderr=stderr,
    )


# --------------------------------------------------------------------------
# Wigner transform and its inverse

def _boundary_max(values: np.ndarray) -> float:
    worst = 0.0
    for d in range(values.ndim):
        face = [slice(None)] * values.ndim
        for edge in (0, -1):
            face[d] = edge
            worst = max(worst, float(np.max(np.abs(values[tuple(face)]))))
    return worst


def _unfold(upper: np.ndarray) -> np.ndarray:
    """The transform of a real input from its rows a >= 0 along the odd-length
    first axis, by out(-a, -a') = conj out(a, a'), exact on output axes that
    are mirror-symmetric to the bit: the rows a < 0 are the reversed
    conjugate of the rows a > 0 (a reversed copy for a real upper)."""
    h = upper.shape[0] - 1
    out = np.empty((2 * h + 1,) + upper.shape[1:], dtype=upper.dtype)
    out[h:] = upper
    np.conjugate(upper[1:][(slice(None, None, -1),) * upper.ndim], out=out[:h])
    return out


def _fourier(grid: _Grid, out_axes, phase: complex, measure, guard=None):
    """The transform behind wigner_transform and its inverse: grid axis x is
    contracted, in order, with exp(phase * outer(y, x)) * measure(step of x)
    onto output axis y (by default the dual axis of x), one matrix product on
    transposed views per stage, so that only a stage's input and output live.

    More than two modes are refused ahead of every other check; guard() runs
    next. A real input on output axes mirror-symmetric to the bit is taken
    onto the rows y_0 >= 0 only, bit for bit those of the full contraction;
    the returned half says so, and _unfold completes it.
    """
    if grid.n_modes > 2:
        raise ValidationError("transform supports one or two modes")
    if guard is not None:
        guard()
    if out_axes is None:
        # half the DFT Nyquist extent; the factor 2 in the kernel phase
        # doubles the effective frequency of each alpha
        out_axes = tuple(grid_axis(np.pi / (2.0 * h), x.size)
                         for x, h in zip(grid.axes, grid.steps))
    else:
        out_axes = _check_axes(out_axes)
        if len(out_axes) != len(grid.axes):
            raise ValidationError(
                f"{len(out_axes)} output axes do not match the {len(grid.axes)} axes of the grid"
            )
    out = grid.values
    half = all(np.array_equal(y, -y[::-1]) for y in out_axes) and not (
        np.iscomplexobj(out) and np.any(out.imag)
    )
    for d, (x, y, h) in enumerate(zip(grid.axes, out_axes, grid.steps)):
        if half and d == 0:
            y = y[y.size // 2 :]
        kernel = np.exp(phase * np.outer(y, x)) * measure(h)
        rows = out.reshape(out.shape[0], -1).T  # a real input is cast in the first stage
        out = (rows.astype(complex, copy=False) @ kernel.T).reshape(out.shape[1:] + y.shape)
    return out_axes, out, half


def _check_decay(grid: ChiGrid, boundary_tol) -> None:
    """The aliasing guard: boundary_tol > 0 (inf for none) bounds |chi| on
    every face of a grid that has no unmeasured point."""
    boundary_tol = converted(float, boundary_tol, "boundary_tol")
    if not boundary_tol > 0:
        raise ValidationError(
            f"boundary_tol = {boundary_tol!r} must be > 0, or inf for no aliasing guard"
        )
    if np.any(np.isnan(grid.values)):
        raise ValidationError("grid has unmeasured points; hermitian_fill it first")
    decay = _boundary_max(grid.values)
    if decay > boundary_tol:
        if grid.stderr is None:
            remedy = "enlarge the xi extent"
        else:
            remedy = f"the largest stderr on the boundary is {_boundary_max(grid.stderr):.3e}"
        raise NumericalCheckError(
            f"|chi| = {decay:.3e} at the grid boundary exceeds {boundary_tol:.1e}; {remedy}"
        )


def wigner_transform(
    grid: ChiGrid,
    alpha_axes: Sequence[np.ndarray] | None = None,
    boundary_tol: float = 1e-6,
) -> WignerGrid:
    """Discrete Fourier transform of chi to the quasiprobability W.

    The kernel is exp[2i sum_m (Re xi_m x_m + Im xi_m p_m)] with measure
    d^2n xi/(2 pi)^2n. Refuses grids whose chi has not decayed below
    boundary_tol at the edges (aliasing); boundary_tol must be > 0, and inf
    switches that guard off. One or two modes.

    A real chi (every imaginary part zero, as on exact grids) transforms to
    W(-alpha) = conj W(alpha). When every alpha axis is mirror-symmetric to
    the bit, as the default ones are, only the rows x_0 >= 0 are computed;
    the rows x_0 < 0 are their reversed real part, and imag_residual is the
    largest |imag| over the computed rows. A complex chi, such as a sampled
    one, is transformed on every row.
    """
    alpha_axes, out, half = _fourier(
        grid, alpha_axes, 2j, lambda step: step / (2.0 * np.pi),
        guard=lambda: _check_decay(grid, boundary_tol),
    )
    # taken before the unfold, so that |imag| and the result are not alive together
    residual = float(np.max(np.abs(out.imag)))
    return WignerGrid(
        axes=alpha_axes,
        values=_unfold(out.real) if half else out.real,
        normalization=float(4.0 ** (-grid.n_modes) * np.real(grid.origin_value)),
        imag_residual=residual,
    )


def inverse_wigner_transform(
    wgrid: WignerGrid, xi_axes: Sequence[np.ndarray] | None = None
) -> ChiGrid:
    """chi(xi) = 4^n integral d^2n alpha exp[-2i sum Re(conj(xi) alpha)] W.

    W is real, so chi(-xi) = conj chi(xi): when every xi axis is
    mirror-symmetric to the bit, as the default ones are, only the rows
    Re xi_0 >= 0 are computed and the rows Re xi_0 < 0 are their reversed
    conjugate.
    """
    xi_axes, out, half = _fourier(wgrid, xi_axes, -2j, lambda step: 2.0 * step)
    return ChiGrid(axes=xi_axes, values=_unfold(out) if half else out, provenance="reconstructed")


# --------------------------------------------------------------------------
# symmetric-ordered moments by finite differences

# second-order central 1-D stencils of orders 0..4 on offsets -2..2 steps,
# to be divided by step^order
_CENTRAL = np.array([
    [0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, -0.5, 0.0, 0.5, 0.0],
    [0.0, 1.0, -2.0, 1.0, 0.0],
    [-0.5, 1.0, 0.0, -1.0, 0.5],
    [1.0, -4.0, 6.0, -4.0, 1.0],
])


def _stencil(p: int, q: int, richardson: bool) -> NDArray[np.complex128]:
    """Weights of (2h)^{p+q} d^{p+q} / d xi^p d conj(xi)^q at 0 on the 9 x 9
    lattice of half-steps h/2 about the origin, Re xi along axis 0.

    Wirtinger: d/dxi = (d/dx - i d/dy)/2, d/dconj(xi) = (d/dx + i d/dy)/2;
    expanding binomially gives mixed (x, y) partials of total order p + q,
    each an outer product of two 1-D stencils. Before the Richardson division
    by 3 every weight is a small dyadic number, so the imaginary parts of a
    p = q stencil cancel exactly.
    """
    unit = sum(
        math.comb(p, i) * math.comb(q, j) * (-1j) ** (p - i) * 1j ** (q - j)
        * np.outer(_CENTRAL[i + j], _CENTRAL[p + q - i - j])
        for i in range(p + 1)
        for j in range(q + 1)
    )
    weights = np.zeros((9, 9), dtype=complex)
    if richardson:  # (4 A(h/2) - A(h)) / 3; the step h/2 scales A by 2^(p+q)
        weights[2:7, 2:7] = 4.0 * 2.0 ** (p + q) * unit
        weights[::2, ::2] -= unit
        weights /= 3.0
    else:
        weights[::2, ::2] = unit
    return weights


def moments_fd(
    chi_source: ChiGrid | GaussianFieldState,
    mode: int,
    p: int,
    q: int,
    h: float | None = None,
    richardson: bool = True,
    with_error: bool = False,
):
    """Symmetric-ordered moment <[(a+)^p a^q]_S> for one mode, p + q <= 4.

    chi_source is a ChiGrid or a GaussianFieldState; every other mode is held
    at the origin. A state is evaluated once, in closed form, on the stencil's
    own 9 x 9 lattice of half-steps in the mode's plane, and that lattice is
    then read as a grid. h must be finite and positive with (1/(2h))^4 a
    finite nonzero float; it defaults to 0.01 on a state and to 2 steps on a
    grid, where it must be an even multiple of the step so that every stencil
    node, including Richardson half-steps, lands on a grid point. Sampled
    grids propagate their binomial errors through the stencil; a warning is
    raised when the moment is smaller than its error bar. With
    with_error=True returns (value, error) instead of the bare value.
    """
    mode = converted(integer, mode, "mode")
    p, q = converted(integer, p, "p"), converted(integer, q, "q")
    if p < 0 or q < 0 or p + q > 4:
        raise ValidationError("orders must be nonnegative with p + q <= 4")
    if not isinstance(chi_source, (ChiGrid, GaussianFieldState)):
        raise ValidationError("chi_source must be a ChiGrid or a GaussianFieldState")
    is_grid = isinstance(chi_source, ChiGrid)
    if not 0 <= mode < chi_source.n_modes:
        raise ValidationError(f"{'grid' if is_grid else 'state'} has no mode {mode}")
    if is_grid:
        step_r, step_i = chi_source.steps[2 * mode : 2 * mode + 2]
        if abs(step_r - step_i) > 1e-12 * max(step_r, step_i):
            raise ValidationError("mode axes must share one step for the stencil")
    if h is None:
        h = 2.0 * step_r if is_grid else 0.01
    # the stencil scale is checked at the highest order, so that a bad h is
    # refused before any chi is read, whatever the order
    h = converted(float, h, "h")
    if not (0.0 < h < math.inf and 0.0 < math.prod([0.5 / h] * 4) < math.inf):
        raise ValidationError(
            f"h = {h!r} must be finite and positive, with a finite nonzero stencil "
            f"scale (1/(2h))^4"
        )
    scale = (0.5 / h) ** (p + q)
    if not is_grid:
        # the mode's plane on the stencil's own lattice of half-steps, every
        # other mode at the origin: a 9 x 9 grid read like any other
        axis = grid_axis(2.0 * h, 9)
        axes = [np.zeros(1)] * (2 * chi_source.n_modes)
        axes[2 * mode] = axes[2 * mode + 1] = axis
        values = char_analytic_grid(chi_source, axes).reshape(9, 9)
        chi_source, mode, step_r = ChiGrid(axes=(axis, axis), values=values), 0, h / 2.0

    m = h / step_r
    if abs(m - round(m)) > 1e-9 or round(m) % 2 != 0 or round(m) < 2:
        raise ValidationError("grid stencils need h an even multiple of the step")
    unit = round(m) // 2  # grid points per half-step

    weights = _stencil(p, q, richardson).ravel()
    nodes = np.flatnonzero(weights)  # row-major: node k mirrors node K - 1 - k
    weights = weights[nodes]
    offsets = np.stack(np.divmod(nodes, 9)) - 4  # (Re, Im) in half-steps
    index = [a.size // 2 for a in chi_source.axes]
    for d, off in zip((2 * mode, 2 * mode + 1), offsets.tolist()):
        index[d] = [index[d] + unit * o for o in off]
        if not (0 <= min(index[d]) and max(index[d]) < chi_source.axes[d].size):
            raise ValidationError("stencil exits the grid; shrink h or widen the grid")
    values = chi_source.values[tuple(index)]
    if np.any(np.isnan(values)):
        raise ValidationError("stencil touches an unmeasured point")
    error = None
    if chi_source.stderr is not None:
        err = chi_source.stderr[tuple(index)]
        error = scale * math.sqrt(float(np.sum(np.abs(weights) ** 2 * err**2)))

    # each node summed with its mirror -xi, whose weight has the stencil's
    # parity (-1)^(p+q)
    half = (nodes.size + 1) // 2
    pairs = values[:half] + (-1) ** (p + q) * values[::-1][:half]
    if nodes.size % 2:  # the origin is its own mirror
        pairs[-1] = values[half - 1]
    total = (-1) ** q * scale * (weights[:half] @ pairs)
    # adding +0.0 to each part turns the sign-flipped zero of an exactly zero
    # part into +0.0 and leaves every other value as it is
    value = complex(total.real + 0.0, total.imag + 0.0)

    if error is not None and error > abs(value):
        warnings.warn(
            f"moment ({p},{q}) = {value:.3e} is below its shot-noise error bar "
            f"{error:.3e}; decrease the noise or increase h",
            stacklevel=2,
        )
    return (value, error) if with_error else value


# --------------------------------------------------------------------------
# Gaussian covariance fit

@dataclass(frozen=True, eq=False)
class GaussianFit:
    """Weighted least-squares covariance recovered from -2 ln|chi|.

    covariance is block diagonal per mode (the model is a product state);
    psd_ok flags positive definiteness, uncertainty_ok the symplectic bound
    det V >= 1 per mode; nbar is the per-mode occupation (sqrt(det V) - 1)/2.
    residual is the weighted rms misfit of the quadratic form.
    """

    covariance: NDArray[np.float64]
    residual: float
    psd_ok: bool
    uncertainty_ok: bool
    nbar: tuple[float, ...]
    n_points: int

    def mode_block(self, mode: int) -> NDArray[np.float64]:
        i = 2 * _check_mode(mode, self.covariance.shape[0] // 2)
        return self.covariance[i : i + 2, i : i + 2]

    def to_state(self, modes: ModeSet) -> GaussianFieldState:
        """Nearest product state: each block read as V = nu S(r, theta) S^T
        with nu = 2n + 1, and a parameter within rounding of 0 taken as 0."""
        n = self.covariance.shape[0] // 2
        if modes.n_modes != n:
            raise ValidationError("mode count does not match the fitted covariance")
        states = []
        for m in range(n):
            V = self.mode_block(m)
            det = float(np.linalg.det(V))
            # det alone misses negative-definite blocks (det = product of two
            # negative eigenvalues is positive), so check the trace too
            if det <= 0 or V[0, 0] + V[1, 1] <= 0:
                raise ValidationError("fitted covariance block is not positive definite")
            nu = math.sqrt(det)
            n_th = max((nu - 1.0) / 2.0, 0.0)
            evals = np.linalg.eigvalsh(V / nu)
            r = 0.25 * math.log(evals[-1] / evals[0])
            if r <= 1e-6:
                states.append(Vacuum() if n_th <= 1e-9 else Thermal(n=n_th))
                continue
            sinh2r = math.sinh(2.0 * r)
            theta = math.atan2(-V[0, 1] / (nu * sinh2r), (V[1, 1] - V[0, 0]) / (2.0 * nu * sinh2r))
            states.append(Squeezed(r, theta) if n_th <= 1e-6 else SqueezedThermal(n_th, r, theta))
        return GaussianFieldState(modes, tuple(states))


# |chi| at or below which a cell says too little about the exponent to be fit
FIT_MIN_ABS = 1e-3


def gaussian_fit(grid: ChiGrid) -> GaussianFit:
    """Fit -2 ln|chi| = sum_m v_m^T (Omega V_m Omega^T) v_m by weighted lstsq.

    Weights are |chi|^2 (points near the noise floor say little about the
    exponent and get masked at or below FIT_MIN_ABS entirely). Returns the full
    block-diagonal covariance; flags, never repairs, unphysical results.
    """
    n = grid.n_modes
    absval = np.abs(grid.values)
    mask = np.isfinite(absval) & (absval > FIT_MIN_ABS)
    # the kept cells in C order, with their coordinates read off the axes
    kept = np.nonzero(mask)
    w = absval[kept]
    if w.size < 3 * n + 1:
        raise ValidationError("too few usable grid points for the fit")
    y = -2.0 * np.log(w)
    cols = []
    for m in range(n):
        xr = grid.axes[2 * m][kept[2 * m]]
        xi = grid.axes[2 * m + 1][kept[2 * m + 1]]
        cols += [xr**2, 2.0 * xr * xi, xi**2]
    A = np.stack(cols, axis=1)
    beta, *_ = np.linalg.lstsq(A * w[:, None], y * w, rcond=None)

    cov = np.zeros((2 * n, 2 * n))
    psd_ok = True
    uncertainty_ok = True
    nbar = []
    for m in range(n):
        G = np.array(
            [[beta[3 * m], beta[3 * m + 1]], [beta[3 * m + 1], beta[3 * m + 2]]]
        )
        V = OMEGA_2X2.T @ G @ OMEGA_2X2
        cov[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = V
        det = float(np.linalg.det(V))
        if not (V[0, 0] > 0 and det > 0):
            psd_ok = False
        if det < 1.0 - 1e-9:
            uncertainty_ok = False
        nbar.append((math.sqrt(det) - 1.0) / 2.0 if det > 0 else float("nan"))
    fitted = (A * w[:, None]) @ beta
    residual = float(np.sqrt(np.mean((fitted - y * w) ** 2)))
    return GaussianFit(
        covariance=cov,
        residual=residual,
        psd_ok=psd_ok,
        uncertainty_ok=uncertainty_ok,
        nbar=tuple(nbar),
        n_points=int(w.size),
    )
