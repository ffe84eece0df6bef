"""Mean-zero Gaussian states of a free scalar field on an n-torus.

The field is expanded in discrete modes k = 2*pi*j/L, j in Z^n, with
dispersion omega_k = sqrt(m^2 + |k|^2). Each mode is an independent harmonic
oscillator prepared in one of three mean-zero Gaussian states: vacuum, thermal
with occupation n_k, or squeezed with zeta_k = r_k * exp(i*theta_k).

The central object is the symmetric characteristic function

    chi(xi) = Tr[rho D(xi)],    D(xi) = exp(xi a^dag - conj(xi) a),

which for a product of mean-zero Gaussian modes is the Gaussian

    chi(xi) = prod_k exp(-1/2 v_k^T (Omega V_k Omega^T) v_k),
    v_k = (Re xi_k, Im xi_k)^T,   Omega = [[0, 1], [-1, 0]],

where V_k is the mode's 2x2 covariance matrix in the convention

    V = [[<X^2>, <{X,P}>/2], [<{X,P}>/2, <P^2>]],
    X = a + a^dag,   P = i(a^dag - a),

so the vacuum has V = I, a thermal mode has V = (2 n + 1) I, and a squeezed
mode has

    V = [[cosh 2r - cos(theta) sinh 2r,  -sin(theta) sinh 2r],
         [-sin(theta) sinh 2r,  cosh 2r + cos(theta) sinh 2r]].

The equivalent per-mode exponential closed forms are

    vacuum:   exp(-|xi|^2 / 2)
    thermal:  exp(-(2n+1) |xi|^2 / 2)
    squeezed: exp(-[cosh(2r) |xi|^2 + sinh(2r) Re(e^{i theta} conj(xi)^2)] / 2)

The sign of the sinh term is the one validated against the truncated-Fock
oracle (see fock_oracle.chi_fock); it also follows from the covariance matrix
above. Displacement vectors are plain complex arrays ordered like the mode
list; there is no wrapper class. One exponent expression serves a batch of
points (char_points, shape (P, n_modes)), a single point (char_analytic) and
a separable grid (char_analytic_grid), so all three agree bit for bit.

Symmetric-ordered moments are generated by Wirtinger derivatives at the
origin,

    <[(a^dag)^p a^q]_S> = (-1)^q d^{p+q} chi / (d xi^p d conj(xi)^q) | 0,

which for these Gaussian chi reduce to Wick pairings of the quadratic
exponent; moments_analytic implements the pairing sum up to p + q = 4.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np
from numpy.typing import NDArray

from .errors import ValidationError, converted, integer, listed, read_field

__all__ = [
    "ModeSet",
    "Vacuum",
    "Thermal",
    "Squeezed",
    "GaussianFieldState",
    "covariance",
    "char_points",
    "char_analytic",
    "char_analytic_grid",
    "moments_analytic",
    "n_from_beta",
    "beta_from_n",
    "state_to_dict",
    "state_from_dict",
]

OMEGA_2X2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class ModeSet:
    """Discrete modes j in Z^n on a torus of side L with mass m.

    Wave vectors are k = 2*pi*j/L exactly; frequencies omega_k =
    sqrt(m^2 + |k|^2). The massless zero mode is rejected (omega = 0 has no
    oscillator vacuum).
    """

    spatial_dim: int
    box_side: float
    mass: float
    mode_indices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.spatial_dim not in (1, 2, 3):
            raise ValidationError(f"spatial_dim must be 1, 2 or 3, got {self.spatial_dim}")
        if not self.box_side > 0:
            raise ValidationError("box_side must be positive")
        if self.mass < 0:
            raise ValidationError("mass must be nonnegative")
        idx = tuple(tuple(int(c) for c in j) for j in self.mode_indices)
        object.__setattr__(self, "mode_indices", idx)
        for j in idx:
            if len(j) != self.spatial_dim:
                raise ValidationError(f"mode index {j} has wrong dimension")
        if len(set(idx)) != len(idx):
            raise ValidationError("duplicate mode indices")
        if self.mass == 0 and any(all(c == 0 for c in j) for j in idx):
            raise ValidationError("zero mode with zero mass has omega = 0")

    @property
    def n_modes(self) -> int:
        return len(self.mode_indices)

    @property
    def wavevectors(self) -> NDArray[np.float64]:
        """Array of shape (n_modes, spatial_dim), k = 2*pi*j/L."""
        j = np.array(self.mode_indices, dtype=float).reshape(self.n_modes, self.spatial_dim)
        return 2.0 * np.pi * j / self.box_side

    @property
    def omegas(self) -> NDArray[np.float64]:
        k = self.wavevectors
        return np.sqrt(self.mass**2 + np.sum(k * k, axis=1))


@dataclass(frozen=True)
class Vacuum:
    pass


@dataclass(frozen=True)
class Thermal:
    n: float

    def __post_init__(self) -> None:
        if not self.n >= 0:
            raise ValidationError("thermal occupation must be >= 0")


@dataclass(frozen=True)
class Squeezed:
    r: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not self.r >= 0:
            raise ValidationError("squeezing modulus must be >= 0")
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * np.pi))


ModeState = Union[Vacuum, Thermal, Squeezed]


@dataclass(frozen=True)
class GaussianFieldState:
    """Product of independent mean-zero Gaussian modes over a ModeSet."""

    modes: ModeSet
    mode_states: tuple[ModeState, ...] = field(default=())

    def __post_init__(self) -> None:
        states = tuple(self.mode_states) if self.mode_states is not None else ()
        if not states:
            states = tuple(Vacuum() for _ in range(self.modes.n_modes))
        object.__setattr__(self, "mode_states", states)
        if len(states) != self.modes.n_modes:
            raise ValidationError(
                f"{len(states)} mode states for {self.modes.n_modes} modes"
            )
        for s in states:
            if not isinstance(s, (Vacuum, Thermal, Squeezed)):
                raise ValidationError(f"unknown mode state {s!r}")

    @property
    def n_modes(self) -> int:
        return self.modes.n_modes


def _check_mode(mode: int, n_modes: int) -> int:
    mode = converted(integer, mode, "mode")
    if not 0 <= mode < n_modes:
        raise ValidationError(f"mode index {mode} out of range 0..{n_modes - 1}")
    return mode


def covariance(state: GaussianFieldState, mode: int) -> NDArray[np.float64]:
    """2x2 covariance matrix V of one mode.

    Vacuum gives the identity, thermal (2n+1)*I, squeezed the closed form in
    the module docstring. det V >= 1 always; equality for pure modes.
    """
    s = state.mode_states[_check_mode(mode, state.n_modes)]
    if isinstance(s, Vacuum):
        return np.eye(2)
    if isinstance(s, Thermal):
        return (2.0 * s.n + 1.0) * np.eye(2)
    c, sh = np.cosh(2.0 * s.r), np.sinh(2.0 * s.r)
    ct, st = np.cos(s.theta), np.sin(s.theta)
    return np.array([[c - ct * sh, -st * sh], [-st * sh, c + ct * sh]])


def _chi_coeffs(state: GaussianFieldState, mode: int) -> tuple[float, float, float]:
    """(Gxx, Gxy, Gyy) of G = Omega V Omega^T, the form acting on (Re xi, Im xi),
    read off V exactly: Omega only permutes and negates its entries."""
    V = covariance(state, mode)
    return V[1, 1], -V[0, 1], V[0, 0]


def _exponent(g: tuple[float, float, float], x, y):
    """One mode's exponent -1/2 (Gxx x^2 + 2 Gxy x y + Gyy y^2), broadcast over
    x = Re xi and y = Im xi; points and grids share it, so they agree exactly."""
    gxx, gxy, gyy = g
    return -0.5 * (gxx * x**2 + 2.0 * gxy * x * y + gyy * y**2)


def char_points(state: GaussianFieldState, xi) -> NDArray[np.complex128]:
    """chi at P displacement points; xi has shape (P, n_modes)."""
    try:
        pts = np.asarray(xi, dtype=complex)
    except (TypeError, ValueError):
        raise ValidationError("displacement points must be a complex array") from None
    if pts.ndim != 2 or pts.shape[1] != state.n_modes:
        raise ValidationError(f"points have shape {pts.shape}, need (P, {state.n_modes})")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("displacement points contain non-finite entries")
    expo = np.zeros(len(pts))
    for k in range(state.n_modes):
        expo += _exponent(_chi_coeffs(state, k), pts[:, k].real, pts[:, k].imag)
    return np.exp(expo, out=expo).astype(complex)


def char_analytic(state: GaussianFieldState, xi) -> complex:
    """chi(xi) at one point: char_points on a single row.

    xi is a complex scalar (single mode) or a length-n_modes sequence.
    """
    vec = np.atleast_1d(np.asarray(xi, dtype=complex))
    if vec.ndim != 1 or vec.size != state.n_modes:
        raise ValidationError(f"displacement has {vec.size} entries for {state.n_modes} modes")
    return complex(char_points(state, vec[None, :])[0])


def char_analytic_grid(
    state: GaussianFieldState, axes: Sequence[NDArray[np.float64]]
) -> NDArray[np.complex128]:
    """chi over a separable grid, as an outer sum of the per-mode exponents.

    axes holds 2*n_modes 1-D arrays ordered (re_0, im_0, re_1, im_1, ...);
    the result has shape (len(re_0), len(im_0), ...).
    """
    if len(axes) != 2 * state.n_modes:
        raise ValidationError(
            f"{len(axes)} axes for {state.n_modes} modes (need 2 per mode)"
        )
    shape = tuple(len(a) for a in axes)
    expo = np.zeros(shape)
    for k in range(state.n_modes):
        x = np.asarray(axes[2 * k], dtype=float)
        y = np.asarray(axes[2 * k + 1], dtype=float)
        new_shape = [1] * (2 * state.n_modes)
        new_shape[2 * k : 2 * k + 2] = len(x), len(y)
        expo += _exponent(_chi_coeffs(state, k), x[:, None], y[None, :]).reshape(new_shape)
    # exp in place: one real and one complex grid alive, not a second real one
    return np.exp(expo, out=expo).astype(complex)


def _pairings(slots: list[str]) -> Iterable[list[tuple[str, str]]]:
    if not slots:
        yield []
        return
    first, rest = slots[0], slots[1:]
    for i in range(len(rest)):
        pair = (first, rest[i])
        remaining = rest[:i] + rest[i + 1 :]
        for tail in _pairings(remaining):
            yield [pair] + tail


def moments_analytic(state: GaussianFieldState, mode: int, p: int, q: int) -> complex:
    """Symmetric-ordered moment <[(a^dag)^p a^q]_S> of one mode, p + q <= 4.

    Implemented as the Wick pairing sum over the derivative slots of the
    Gaussian exponent: each (xi, xi) pair contributes -B, (xi, conj xi)
    contributes -A/2, (conj xi, conj xi) contributes -C, and the moment is
    (-1)^q times the sum over perfect matchings.
    """
    mode = _check_mode(mode, state.n_modes)
    p, q = converted(integer, p, "p"), converted(integer, q, "q")
    if p < 0 or q < 0:
        raise ValidationError("moment orders must be nonnegative")
    if p + q > 4:
        raise ValidationError(f"moment order p + q = {p + q} beyond the implemented table (4)")
    if p + q == 0:
        return 1.0 + 0.0j
    if (p + q) % 2 == 1:
        return 0.0 + 0.0j
    # chi = exp(-Q/2) with Q = A xi conj(xi) + B xi^2 + C conj(xi)^2, the
    # quadratic form in (Re xi, Im xi) rewritten in xi and conj(xi)
    gxx, gxy, gyy = _chi_coeffs(state, mode)
    A = (gxx + gyy) / 2.0
    B = complex((gxx - gyy) / 4.0, -gxy / 2.0)
    C = B.conjugate()
    pair_value = {
        ("d", "d"): -B,
        ("d", "c"): -A / 2.0,
        ("c", "d"): -A / 2.0,
        ("c", "c"): -C,
    }
    slots = ["d"] * p + ["c"] * q
    total = 0.0j
    for matching in _pairings(slots):
        prod = 1.0 + 0.0j
        for pair in matching:
            prod *= pair_value[pair]
        total += prod
    return complex((-1.0) ** q * total)


def n_from_beta(beta: float, omega: float) -> float:
    """Bose occupation n = 1/(exp(beta*omega) - 1)."""
    if beta <= 0 or omega <= 0:
        raise ValidationError("beta and omega must be positive")
    return 1.0 / math.expm1(beta * omega)


def beta_from_n(n: float, omega: float) -> float:
    if n <= 0 or omega <= 0:
        raise ValidationError("n and omega must be positive")
    return math.log1p(1.0 / n) / omega


_KIND_NAMES = {Vacuum: "vacuum", Thermal: "thermal", Squeezed: "squeezed"}


def state_to_dict(state: GaussianFieldState) -> dict:
    modes = []
    for j, s in zip(state.modes.mode_indices, state.mode_states):
        if isinstance(s, Vacuum):
            params: dict = {}
        elif isinstance(s, Thermal):
            params = {"n": s.n}
        else:
            params = {"r": s.r, "theta": s.theta}
        modes.append({"j": list(j), "kind": _KIND_NAMES[type(s)], "params": params})
    return {
        "spatial_dim": state.modes.spatial_dim,
        "box_side": state.modes.box_side,
        "mass": state.modes.mass,
        "modes": modes,
    }


def state_from_dict(doc: dict) -> GaussianFieldState:
    entries = read_field(doc, "modes", listed(dict), "state")
    where = [f"state.modes[{i}]" for i in range(len(entries))]
    modeset = ModeSet(
        spatial_dim=read_field(doc, "spatial_dim", integer, "state"),
        box_side=read_field(doc, "box_side", float, "state"),
        mass=read_field(doc, "mass", float, "state"),
        mode_indices=tuple(read_field(e, "j", listed(integer), w) for e, w in zip(entries, where)),
    )
    states: list[ModeState] = []
    for e, w in zip(entries, where):
        kind = read_field(e, "kind", None, w, "vacuum")
        params = read_field(e, "params", dict, w, {})
        at = f"{w}.params"
        if kind == "vacuum":
            states.append(Vacuum())
        elif kind == "thermal":
            states.append(Thermal(n=read_field(params, "n", float, at)))
        elif kind == "squeezed":
            r = read_field(params, "r", float, at)
            states.append(Squeezed(r=r, theta=read_field(params, "theta", float, at, 0.0)))
        else:
            raise ValidationError(f"unknown mode kind {kind!r}")
    return GaussianFieldState(modes=modeset, mode_states=tuple(states))
