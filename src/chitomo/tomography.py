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

The core transforms real parity parts, one parity per mode. The input's
real and imaginary parts are each even, odd, or split into an even and an
odd part under the inversion R_m of each mode m, which reverses that mode's
two axes (Re xi_m, Im xi_m) -> (-Re xi_m, -Im xi_m); a part odd under k of
the modes transforms to i^k times a real array of the same parities. Mode by
mode, each part is contracted only on its rows Im xi_m >= 0, the parity
giving the rest, and evaluated only on the rows >= 0 of the mode's first
output axis, its realness giving the rest, so every stage has a real input
or a real output and runs on a quarter of the grid's rows. For one mode R_0
inverts all axes at once. Every chi is Hermitian, chi(-xi) = conj chi(xi),
and leaves no imaginary part in W. An exact chi is a product of per-mode
factors, each even in its own plane, so it is one real part even under
each R_m; a filled two-mode chi takes four parts (ee and oo from its real
part, eo and oe from its imaginary part), each a quarter of the work.

Moments of symmetric-ordered operator products come from Wirtinger
derivatives at the origin,

    <[(a+)^p a^q]_S> = (-1)^q  d^{p+q} chi / d xi^p d conj(xi)^q | 0,

evaluated by Richardson-extrapolated central finite differences, as one
array of weights on the lattice of half-steps. The source is one of two
kinds: a ChiGrid, whose stencil nodes are gathered from its cells at h = 2
steps, or a GaussianFieldState, whose closed form is evaluated once on the
stencil's own 9 x 9 lattice at h = 0.01 and then read as a grid in the same
way. Each node is summed together with its mirror -xi, whose weight carries
the stencil's parity (-1)^(p+q); a p = q stencil has exactly real weights,
so on a Hermitian source, where chi(-xi) = conj chi(xi) holds to the bit, a
p = q moment is exactly real. For sampled grids the per-point binomial
errors are pushed through the same weights, as if the nodes were
independent, to an error bar on the moment.

Exact grids are stored real: a mean-zero Gaussian chi is real on every cell,
so chi_grid_from_state keeps float64 values, and every layer tells a real
input from its dtype. Sampled grids are complex, and so are reconstructed
ones, but for the chi of a W even to the bit, which is real.

The dense layers allocate no full-size array that their result does not
need. Their peak allocation, counted in complex grids of the input's shape
(16 bytes a cell; an exact real grid is 0.5 of one), the input itself not
counted (tracemalloc on exact two-mode grids):

    chi_grid_from_state       0.5   the real exponent, which becomes the
                                    result
    hermitian_fill            0.1   on a complete Hermitian grid, which it
                                    returns as it is (nothing kept); else the
                                    mirrored partner, which becomes the
                                    result, and masks: 0.8 on a real grid,
                                    1.3 on a complex one; 2.1 on a sampled
                                    grid (stderr's buffer and one squared
                                    temporary)
    gaussian_fit              0.2   the masks, then only the kept cells'
                                    rows (0.7 on a complex chi: |chi| too)
    wigner_transform          0.64  an exact chi: quarter-size stages, the
                                    first on the part's rows Im xi_m >= 0 of
                                    each mode (0.14), then the last stage's
                                    input and the result, a contiguous real
                                    array (0.5); 1.4 on a filled chi, whose
                                    parts' results are added to the first's,
                                    2.0 on an unfilled complex one
    inverse_wigner_transform  0.64  the same on the even W of an exact chi,
                                    whose chi is real; 2.0 with an imaginary
                                    part, which a complex result then joins
"""
from __future__ import annotations

import math
import warnings
from functools import partial
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    NumericalCheckError, Record, ValidationError, converted, integer, positive, real,
)
from .gaussian_field import (
    OMEGA_2X2,
    GaussianFieldState,
    _check_mode,
    _moment_order,
    char_analytic_grid,
)
from .ramsey_readout import _readout_args, _sin_theta, readout_chi

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


def _axis_points(value) -> int:
    """An axis's point count, odd so that the origin is its middle point."""
    if (n := integer(value)) < 3 or n % 2 == 0:
        raise ValueError("an odd integer >= 3 is expected")
    return n


def grid_axis(extent: float, points: int) -> NDArray[np.float64]:
    """Symmetric axis [-extent, extent] of an odd number of points, the
    middle one the origin (exact 0.0).

    Built by mirroring the positive half, so ax == -ax[::-1] bitwise; paired
    with the even quadratic forms this makes Hermitian symmetry of exact
    grids exact in floating point too, not just up to rounding.
    """
    converted(positive, extent, "extent")
    points = converted(_axis_points, points, "points")
    half = np.linspace(0.0, extent, points // 2 + 1)
    return np.concatenate((-half[:0:-1], half))


# rounding allowed in an axis's steps and mirror symmetry, relative to its extent
_AXIS_RTOL = 1e-9
# the (chi, stderr) that sampled_chi_grid stores at a point it does not
# measure; a chi file may leave out a leading run of such points
_UNMEASURED = (complex(math.nan, 0.0), math.nan)


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


class _Grid(Record, eq=False):
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


class ChiGrid(_Grid, eq=False):
    """chi values on a uniform symmetric grid; NaN marks unmeasured points.

    axes holds (Re xi_0, Im xi_0, Re xi_1, ...); values has one axis per
    entry, same order: float64 on exact grids, complex otherwise. provenance
    is "exact", "sampled" or "reconstructed"; sampled grids carry per-point
    combined standard errors and the preparation angle theta of their
    readout, from which, with shots, a chi file derives those errors.
    """

    provenance: str = "exact"
    shots: int = 0
    stderr: NDArray[np.float64] | None = None
    theta: float | None = None

    @staticmethod
    def _cast(values) -> NDArray:
        """A float64 array is kept real, as exact chi is stored; anything else
        is cast to complex."""
        values = np.asarray(values)
        return values if values.dtype == np.float64 else values.astype(complex, copy=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.provenance not in ("exact", "sampled", "reconstructed"):
            raise ValidationError(
                f"provenance {self.provenance!r} is not exact, sampled or reconstructed")
        if self.stderr is not None:
            err = np.asarray(self.stderr, dtype=float)
            if err.shape != self.values.shape:
                raise ValidationError("stderr shape does not match the grid")
            object.__setattr__(self, "stderr", err)
        if self.theta is not None:
            _sin_theta(self.theta)  # a theta that reads out nothing is refused
            object.__setattr__(self, "theta", float(self.theta))

    @property
    def origin_value(self) -> complex:
        center = tuple(a.size // 2 for a in self.axes)
        return complex(self.values[center])


class WignerGrid(_Grid, eq=False):
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


def _state_axes(state: GaussianFieldState, axes: Sequence[np.ndarray]):
    """Checked axes for a grid of state, one (Re xi, Im xi) pair per mode; a
    grid above MAX_GRID_CELLS is refused before it exists."""
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


def chi_grid_from_state(state: GaussianFieldState, axes: Sequence[np.ndarray]) -> ChiGrid:
    """Exact chi on a grid, straight from the closed form."""
    axes = _state_axes(state, axes)
    return ChiGrid(axes=axes, values=char_analytic_grid(state, axes), provenance="exact")


def sampled_chi_grid(
    state: GaussianFieldState,
    axes: Sequence[np.ndarray],
    theta: float = np.pi / 2,
    shots: int = 10_000,
    seed: int = 0,
    half: bool = False,
) -> ChiGrid:
    """Simulated finite-shot chi grid via the qubit readout.

    Each grid point is an independent two-basis measurement; stderr combines
    the two binomial errors, sqrt(sx^2 + sy^2)/|sin theta|, and the grid
    keeps theta. The measured points are read out in C order by one
    readout_chi call. With half=True only the canonical half-space is
    measured (NaN elsewhere), ready for hermitian_fill: first nonzero
    coordinate positive, plus the origin. On odd axes mirror-symmetric about
    an exact 0, C order is the coordinates' lexicographic order, so that half
    is the flat indices from size // 2 on.
    theta, shots and seed are checked before chi is evaluated.
    """
    axes = _state_axes(state, axes)
    _readout_args(theta, shots, seed)
    chi = char_analytic_grid(state, axes)
    measured = slice(chi.size // 2 if half else 0, None)  # of the flat C order
    readout = readout_chi(chi.reshape(-1)[measured], theta, shots, seed)
    values = np.full(chi.shape, _UNMEASURED[0])
    stderr = np.full(chi.shape, _UNMEASURED[1])
    values.reshape(-1)[measured] = readout.chi_est
    stderr.reshape(-1)[measured] = readout.chi_stderr
    return ChiGrid(
        axes=axes,
        values=values,
        provenance="sampled",
        shots=int(shots),
        stderr=stderr,
        theta=theta,
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
    if np.iscomplexobj(flat):
        mirrored = np.array_equal(head.real, mirror.real) and np.array_equal(
            head.imag, np.negative(mirror.imag))
    else:
        mirrored = np.array_equal(head, mirror)
    return mirrored and not np.any(flat.view(np.int64) == np.iinfo(np.int64).min)


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
        theta=grid.theta,
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


def _parity_parts(values: np.ndarray):
    """The real parity parts of values, each as (a view of its rows p_m >= 0
    of every mode m, p_m the mode's second axis; its parity under each
    mode's inversion, True for odd; imaginary).

    values is read as real arrays: itself if real, else its real and its
    imaginary part, the latter left out when it is all zero. Each is split
    mode by mode (_mode_parts).
    """
    arrays = [values]
    if np.iscomplexobj(values):
        arrays = [values.real] + ([values.imag] if np.any(values.imag) else [])
    for imag, a in enumerate(arrays):
        for head, odd in _mode_parts(a, 0):
            yield head, odd, bool(imag)


def _mode_parts(a: np.ndarray, m: int):
    """The parts of a of one parity under the inversion R_m of each mode from
    m on, which reverses both of that mode's axes, as (a view of the rows
    p >= 0 of each of those modes, the parities).

    An array that equals R_m v or -R_m v to the bit is one even or odd part
    under R_m; any other splits into (v + R_m v)/2 and (v - R_m v)/2. The
    test compares the rows p_m >= 0 of v and of R_m v, views of half the
    array, and a split builds only those rows.
    """
    if 2 * m == a.ndim:
        yield a, ()
        return
    rows = (slice(None),) * (2 * m + 1) + (slice(a.shape[2 * m + 1] // 2, None),)
    rev = (slice(None),) * (2 * m) + (slice(None, None, -1),) * 2
    head, mirror = a[rows], a[rev][rows]
    if np.array_equal(head, mirror):
        splits = ((False, None),)
    elif np.array_equal(head, np.negative(mirror)):
        splits = ((True, None),)
    else:
        splits = ((False, np.add), (True, np.subtract))
    for odd, combine in splits:
        part = head
        if combine is not None:
            part = combine(head, mirror)
            part *= 0.5
        for rest, odds in _mode_parts(part, m + 1):
            yield rest, (odd,) + odds
        del part


def _upper(halves) -> tuple:
    """The index of the rows from halves[m] on of each mode m's first axis."""
    return sum(((slice(h, None), slice(None)) for h in halves), ())


def _transform_part(head, odd, axes, steps, out_axes, halves, phase: complex, measure):
    """The transform of a real part from its rows p_m >= 0 of every mode m,
    as the real array of which it is i^k times, k the number of modes under
    whose inversion the part is odd (odd[m]), on the rows y_m >=
    out_axes[2m][halves[m]] of every mode of a full-size array whose other
    rows are left unset.

    Axis x is contracted, in order, with exp(phase * outer(y, x)) *
    measure(step of x) onto output axis y, one matrix product on transposed
    views per stage, so that only a stage's input and output live. A mode
    takes two stages, each on a quarter of the grid's rows when its halves
    are kept. The first contracts its Re xi axis over all its rows into the
    rows y_m kept, one real product against the kernel's (Re, Im) pairs. The
    parity under R_m stands in for the rows p_m < 0: the second weights the
    rows p_m >= 0 (1, 2, 2, ...) and keeps the Re of its sum for an even
    part, the Im for an odd one, one real product of its input's (Re, Im)
    pairs against the kernel's (Re, -Im) columns. The last stage writes
    straight into the result.
    """
    out = np.ascontiguousarray(head)
    for m, h in enumerate(halves):
        d = 2 * m
        y = out_axes[d][h:]
        kernel = np.exp(phase * np.outer(axes[d], y)) * measure(steps[d])
        shape = out.shape[1:] + y.shape
        out = (out.reshape(out.shape[0], -1).T @ kernel.view(float)).view(complex).reshape(shape)
        x, y = axes[d + 1][axes[d + 1].size // 2 :], out_axes[d + 1]
        weights = np.full((x.size, 1), 2.0 * measure(steps[d + 1]))
        weights[0] /= 2.0  # the rows p_m = 0 are their own mirror
        kernel = np.exp(phase * np.outer(x, y)) * weights
        if odd[m]:
            kernel *= -1j  # Im z = Re(-i z)
        pairs = np.stack((kernel.real, -kernel.imag), axis=1).reshape(2 * x.size, y.size)
        shape = out.shape[1:] + y.shape
        rows = np.ascontiguousarray(out.reshape(out.shape[0], -1).T).view(float)
        del out
        if m + 1 < len(halves):
            out = (rows @ pairs).reshape(shape)
            del rows
    result = np.empty(tuple(a.size for a in out_axes))
    target = result[_upper(halves)]
    np.matmul(rows.reshape(target.shape[:-1] + (-1,)), pairs, out=target)
    return result


def _unfold(out: np.ndarray, odd) -> None:
    """Complete, in place, the rows y_m < 0 of every mode m of a transform
    even or odd under each mode's inversion R_m (odd[m]) from its rows
    y_m > 0, by out(R_m y) = +-out(y) on output axes mirror-symmetric to the
    bit. The modes are unfolded from the last, each on the rows y_k >= 0 of
    the modes k before it. A mode's slab y_m = 0 is first averaged with its
    mirror p_m -> -p_m, so that the whole array has each parity to the bit.
    """
    for m in reversed(range(len(odd))):
        view = out[_upper(s // 2 for s in out.shape[: 2 * m : 2])]
        pre = (slice(None),) * (2 * m)
        h = view.shape[2 * m] // 2
        slab = view[pre + (h,)]
        mirror = slab[pre + (slice(None, None, -1),)]
        slab[...] = ((slab - mirror) if odd[m] else (slab + mirror)) * 0.5
        rows = view[pre + (slice(h + 1, None),)][pre + (slice(None, None, -1),) * 2]
        if odd[m]:
            np.negative(rows, out=view[pre + (slice(None, h),)])
        else:
            view[pre + (slice(None, h),)] = rows


def _fourier(grid: _Grid, out_axes, phase: complex, measure, guard=None):
    """The transform behind wigner_transform and its inverse, onto out_axes
    (by default the dual axes of the grid's), as its real and imaginary
    parts, None for a part that nothing contributes to.

    More than two modes are refused ahead of every other check; guard() runs
    next. The grid's values are split into real parts of one parity under
    each mode's inversion R_m (_parity_parts), and each is transformed on
    its own (_transform_part): a real part odd under k of the modes to i^k
    times a real array, an imaginary one to i^(k+1) times it. Every part of
    a Hermitian grid, chi(-xi) = conj chi(xi), has a real power, so its
    transform is real with no rounding left in an imaginary part. On output
    axes mirror-symmetric to the bit each part is computed on the rows
    y_m >= 0 of every mode only and unfolded by its parities (_unfold); on
    any other axes every row is computed.
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
    symmetric = all(np.array_equal(y, -y[::-1]) for y in out_axes)
    halves = tuple(y.size // 2 if symmetric else 0 for y in out_axes[::2])
    sums = [None, None]  # the real and the imaginary part of the transform
    for head, odd, imag in _parity_parts(grid.values):
        part = _transform_part(head, odd, grid.axes, grid.steps, out_axes, halves, phase, measure)
        if symmetric:
            _unfold(part, odd)
        k = sum(odd) + imag  # the part's transform is i^k part
        if k % 4 >= 2:
            np.negative(part, out=part)
        if sums[k % 2] is None:
            sums[k % 2] = part
        else:
            sums[k % 2] += part
        del part
    return out_axes, *sums


def _boundary_tol(boundary_tol) -> float:
    boundary_tol = converted(real, boundary_tol, "boundary_tol")
    if not boundary_tol > 0:
        raise ValidationError(
            f"boundary_tol = {boundary_tol!r} must be > 0, or inf for no aliasing guard"
        )
    return boundary_tol


def _check_decay(grid: ChiGrid, boundary_tol) -> None:
    """The aliasing guard: boundary_tol > 0 (inf for none) bounds |chi| on
    every face of a grid that has no unmeasured point."""
    boundary_tol = _boundary_tol(boundary_tol)
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

    chi is transformed by its real parity parts: the even part of Re chi
    and the odd part of Im chi give W, and the two others give an imaginary
    part, which is dropped; imag_residual is its largest magnitude. A
    Hermitian chi, chi(-xi) = conj chi(xi) to the bit as on exact and
    hermitian_fill-ed grids, has no such parts, and its imag_residual is
    exactly 0.0. When every alpha axis is mirror-symmetric to the bit, as
    the default ones are, W of a real even chi is even to the bit, and W of
    a real chi even under each mode's inversion, as an exact chi is, is even
    to the bit under each.
    """
    alpha_axes, re, im = _fourier(
        grid, alpha_axes, 2j, lambda step: step / (2.0 * np.pi),
        guard=lambda: _check_decay(grid, boundary_tol),
    )
    shape = tuple(a.size for a in alpha_axes)
    return WignerGrid(
        axes=alpha_axes,
        values=np.zeros(shape) if re is None else re,
        normalization=float(4.0 ** (-grid.n_modes) * np.real(grid.origin_value)),
        imag_residual=0.0 if im is None else float(np.max(np.abs(im))),
    )


def inverse_wigner_transform(
    wgrid: WignerGrid, xi_axes: Sequence[np.ndarray] | None = None
) -> ChiGrid:
    """chi(xi) = 4^n integral d^2n alpha exp[-2i sum Re(conj(xi) alpha)] W.

    W is real, so chi(-xi) = conj chi(xi): its even part gives Re chi and
    its odd part Im chi. A W even to the bit, as the W of an exact chi is,
    has no odd part, and its chi is returned float64, as exact grids are
    stored; any other W gives a complex chi.
    """
    xi_axes, re, im = _fourier(wgrid, xi_axes, -2j, lambda step: 2.0 * step)
    values = np.zeros(tuple(a.size for a in xi_axes)) if re is None else re
    if im is not None:
        values = values.astype(complex)
        values.imag = im
    return ChiGrid(axes=xi_axes, values=values, provenance="reconstructed")


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


def _stencil(p: int, q: int) -> NDArray[np.complex128]:
    """Weights of (2h)^{p+q} d^{p+q} / d xi^p d conj(xi)^q at 0 on the 9 x 9
    lattice of half-steps h/2 about the origin, Re xi along axis 0: the
    Richardson extrapolation (4 A(h/2) - A(h)) / 3 of the central stencil A.

    Wirtinger: d/dxi = (d/dx - i d/dy)/2, d/dconj(xi) = (d/dx + i d/dy)/2;
    expanding binomially gives mixed (x, y) partials of total order p + q,
    each an outer product of two 1-D stencils. Before the division by 3
    every weight is a small dyadic number, so the imaginary parts of a p = q
    stencil cancel exactly.
    """
    unit = sum(
        math.comb(p, i) * math.comb(q, j) * (-1j) ** (p - i) * 1j ** (q - j)
        * np.outer(_CENTRAL[i + j], _CENTRAL[p + q - i - j])
        for i in range(p + 1)
        for j in range(q + 1)
    )
    weights = np.zeros((9, 9), dtype=complex)
    weights[2:7, 2:7] = 4.0 * 2.0 ** (p + q) * unit  # the step h/2 scales A by 2^(p+q)
    weights[::2, ::2] -= unit
    weights /= 3.0
    return weights


def _stencil_nodes(axes, mode: int, p: int, q: int):
    """(weights, index) of the (p, q) stencil at h = 2 steps in mode's plane
    of a grid on axes, every other mode at the origin: the nonzero weights,
    and the grid index of their nodes, each inside the grid, row-major in the
    9 x 9 lattice of half-steps (grid steps), so node k mirrors node K - 1 - k."""
    step_r, step_i = (float(a[1] - a[0]) for a in axes[2 * mode : 2 * mode + 2])
    if abs(step_r - step_i) > 1e-12 * max(step_r, step_i):
        raise ValidationError("mode axes must share one step for the stencil")
    weights = _stencil(p, q).ravel()
    nodes = np.flatnonzero(weights)
    offsets = np.stack(np.divmod(nodes, 9)) - 4  # (Re, Im) in half-steps
    index = [a.size // 2 for a in axes]
    for d, off in zip((2 * mode, 2 * mode + 1), offsets.tolist()):
        index[d] = [index[d] + o for o in off]
        if not (0 <= min(index[d]) and max(index[d]) < axes[d].size):
            raise ValidationError("stencil exits the grid; widen the grid")
    return weights[nodes], tuple(index)

_STATE_H = 0.01  # h on a state, read on its lattice of half-steps grid_axis(2 h, 9)


def moments_fd(
    chi_source: ChiGrid | GaussianFieldState,
    mode: int,
    p: int,
    q: int,
    with_error: bool = False,
):
    """Symmetric-ordered moment <[(a+)^p a^q]_S> for one mode, p + q <= 4.

    chi_source is a ChiGrid or a GaussianFieldState; every other mode is held
    at the origin. On a grid the stencil is taken at h = 2 steps. A state is
    evaluated once, in closed form, on the stencil's own 9 x 9 lattice of
    half-steps at h = 0.01 in the mode's plane, and that lattice is then read
    as a grid. Sampled grids propagate their binomial errors through the
    stencil, as if its nodes were independent; a warning is raised when the
    moment is smaller than its error bar. With with_error=True returns
    (value, error) instead of the bare value.
    """
    p, q = _moment_order(p, q)
    if not isinstance(chi_source, (ChiGrid, GaussianFieldState)):
        raise ValidationError("chi_source must be a ChiGrid or a GaussianFieldState")
    mode = _check_mode(mode, chi_source.n_modes)
    if isinstance(chi_source, GaussianFieldState):
        h = _STATE_H
        axis = grid_axis(2.0 * h, 9)
        axes = [np.zeros(1)] * (2 * chi_source.n_modes)
        axes[2 * mode] = axes[2 * mode + 1] = axis
        values = char_analytic_grid(chi_source, axes).reshape(9, 9)
        chi_source, mode = ChiGrid(axes=(axis, axis), values=values), 0
    else:
        h = 2.0 * chi_source.steps[2 * mode]
    weights, index = _stencil_nodes(chi_source.axes, mode, p, q)
    scale = (0.5 / h) ** (p + q)
    values = chi_source.values[index]
    if np.any(np.isnan(values)):
        raise ValidationError("stencil touches an unmeasured point")
    error = None
    if chi_source.stderr is not None:
        err = chi_source.stderr[index]
        error = scale * math.sqrt(float(np.sum(np.abs(weights) ** 2 * err**2)))

    # each node summed with its mirror -xi, whose weight has the stencil's
    # parity (-1)^(p+q)
    half = (weights.size + 1) // 2
    pairs = values[:half] + (-1) ** (p + q) * values[::-1][:half]
    if weights.size % 2:  # the origin is its own mirror
        pairs[-1] = values[half - 1]
    total = (-1) ** q * scale * (weights[:half] @ pairs)
    # adding +0.0 to each part turns the sign-flipped zero of an exactly zero
    # part into +0.0 and leaves every other value as it is
    value = complex(total.real + 0.0, total.imag + 0.0)

    if error is not None and error > abs(value):
        warnings.warn(f"moment ({p},{q}) = {value:.3e} is below its shot-noise error bar "
                      f"{error:.3e}; take more shots", stacklevel=2)
    return (value, error) if with_error else value


# --------------------------------------------------------------------------
# Gaussian covariance fit

class GaussianFit(Record, eq=False):
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


# |chi| at or below which a cell says too little about the exponent to be fit
FIT_MIN_ABS = 1e-3


def gaussian_fit(grid: ChiGrid) -> GaussianFit:
    """Fit -2 ln|chi| = sum_m v_m^T (Omega V_m Omega^T) v_m by weighted lstsq.

    Weights are |chi|^2 (points near the noise floor say little about the
    exponent and get masked at or below FIT_MIN_ABS entirely). Returns the full
    block-diagonal covariance; flags, never repairs, unphysical results.
    """
    n = grid.n_modes
    values = grid.values
    # a real chi is masked by comparing it with +-FIT_MIN_ABS, so |chi| is
    # taken on the kept cells only; a complex one needs its full |chi|
    real = values.dtype == np.float64
    mag = values if real else np.abs(values)
    mask = mag > FIT_MIN_ABS
    if real:
        mask |= mag < -FIT_MIN_ABS
    mask &= np.isfinite(mag)
    # the kept cells in C order, with their coordinates read off the axes;
    # flat indices unravelled are np.nonzero(mask), found without an N-D scan
    kept = np.unravel_index(np.flatnonzero(mask), mask.shape)
    w = np.abs(mag[kept])
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
