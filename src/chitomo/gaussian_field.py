"""Mean-zero Gaussian states of a free scalar field on an n-torus.

The field is expanded in discrete modes k = 2*pi*j/L, j in Z^n, with
dispersion omega_k = sqrt(m^2 + |k|^2). Each mode is an independent harmonic
oscillator in a mean-zero Gaussian state. By Williamson's theorem every such
single-mode state is a thermal state squeezed by zeta = r e^(i theta), so each
mode carries the same three parameters (n, r, theta): the thermal occupation
n >= 0, the squeezing modulus r >= 0 and its phase theta. SqueezedThermal
takes all three; Vacuum (0, 0, 0), Thermal(n) (n, 0, 0) and Squeezed(r, theta)
(0, r, theta) are its special cases, and no formula branches on them.

The central object is the symmetric characteristic function

    chi(xi) = Tr[rho D(xi)],    D(xi) = exp(xi a^dag - conj(xi) a),

which for a product of mean-zero Gaussian modes is the Gaussian

    chi(xi) = prod_k exp(-1/2 v_k^T (Omega V_k Omega^T) v_k),
    v_k = (Re xi_k, Im xi_k)^T,   Omega = [[0, 1], [-1, 0]],

where V_k is the mode's 2x2 covariance matrix in the convention

    V = [[<X^2>, <{X,P}>/2], [<{X,P}>/2, <P^2>]],
    X = a + a^dag,   P = i(a^dag - a).

One formula gives V = (2n + 1) S S^T for every mode, S = S(r, theta) the
squeezer acting on (X, P) (Weedbrook et al., RMP 84, 621 (2012)), with no
cancellation of cosh 2r against sinh 2r at large squeezing:

    V = (2n + 1) [[e^(-2r) c^2 + e^(2r) s^2,  -sin(theta) sinh 2r],
                  [-sin(theta) sinh 2r,  e^(2r) c^2 + e^(-2r) s^2]],

c = cos(theta/2), s = sin(theta/2). The vacuum has V = I, a thermal mode
(2n + 1) I, and det V = (2n + 1)^2, so det V = 1 marks a pure mode.
The per-mode closed form is

    chi(xi) = exp(-(2n+1) [cosh(2r) |xi|^2 + sinh(2r) Re(e^{i theta} conj(xi)^2)] / 2).

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
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ValidationError,
    converted,
    dimension,
    integer,
    known_fields,
    listed,
    read_field,
    read_object,
)

__all__ = [
    "ModeSet",
    "Vacuum",
    "Thermal",
    "Squeezed",
    "SqueezedThermal",
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


def _kmag(k):
    """|k| of one wave vector (a scalar or 1-D k) or of each row of an (M, n)
    stack, by one rule: the root of the row's sum of squares. (np.linalg.norm
    of a single vector is a dot product, which can differ in the last bit.)"""
    return np.sqrt(np.sum(np.square(np.atleast_1d(np.asarray(k, dtype=float))), axis=-1))


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
        dim = converted(dimension, self.spatial_dim, "spatial_dim")
        object.__setattr__(self, "spatial_dim", dim)
        if not self.box_side > 0:
            raise ValidationError("box_side must be positive")
        if self.mass < 0:
            raise ValidationError("mass must be nonnegative")
        idx = tuple(tuple(converted(listed(integer), j, "mode index")) for j in self.mode_indices)
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
    def wavenumbers(self) -> NDArray[np.float64]:
        """|k| per mode, by the rule every displacement of a mode reads."""
        return _kmag(self.wavevectors)

    @property
    def omegas(self) -> NDArray[np.float64]:
        k = self.wavevectors
        return np.sqrt(self.mass**2 + np.sum(k * k, axis=1))


@dataclass(frozen=True)
class SqueezedThermal:
    """Thermal occupation n squeezed by zeta = r e^(i theta); Vacuum, Thermal
    and Squeezed are this mode with their other parameters pinned at 0."""

    n: float
    r: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        # finite, or V and chi turn NaN
        if not 0 <= self.n < math.inf:
            raise ValidationError(f"thermal occupation must be finite and >= 0, got {self.n}")
        if not 0 <= self.r < math.inf or not math.isfinite(self.theta):
            raise ValidationError(
                f"squeezing must be finite with r >= 0, got r = {self.r}, theta = {self.theta}"
            )
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * np.pi))
        # a finite r can still overflow V: e^(2r) = inf, and inf * 0 is NaN
        if not np.all(np.isfinite(_covariance(self))):
            raise ValidationError(f"covariance overflows at n = {self.n}, r = {self.r}")


def _fixed():  # a parameter a special case pins at 0
    return field(default=0.0, init=False, repr=False)


@dataclass(frozen=True)
class Vacuum(SqueezedThermal):
    n: float = _fixed()
    r: float = _fixed()
    theta: float = _fixed()


@dataclass(frozen=True)
class Thermal(SqueezedThermal):
    r: float = _fixed()
    theta: float = _fixed()


@dataclass(frozen=True)
class Squeezed(SqueezedThermal):
    n: float = _fixed()


@dataclass(frozen=True)
class GaussianFieldState:
    """Product of independent mean-zero Gaussian modes over a ModeSet."""

    modes: ModeSet
    mode_states: tuple[SqueezedThermal, ...] = field(default=())

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
            if not isinstance(s, SqueezedThermal):
                raise ValidationError(f"unknown mode state {s!r}")

    @property
    def n_modes(self) -> int:
        return self.modes.n_modes


def _check_mode(mode: int, n_modes: int) -> int:
    mode = converted(integer, mode, "mode")
    if not 0 <= mode < n_modes:
        raise ValidationError(f"mode index {mode} out of range 0..{n_modes - 1}")
    return mode


def _covariance(s: SqueezedThermal) -> NDArray[np.float64]:
    with np.errstate(over="ignore", invalid="ignore"):  # SqueezedThermal refuses a non-finite V
        grow, shrink = np.exp(2.0 * s.r), np.exp(-2.0 * s.r)
        c2, s2 = np.cos(0.5 * s.theta) ** 2, np.sin(0.5 * s.theta) ** 2
        xy = -np.sin(s.theta) * np.sinh(2.0 * s.r)  # both slots: V exactly symmetric
        return (2.0 * s.n + 1.0) * np.array([[shrink * c2 + grow * s2, xy],
                                             [xy, grow * c2 + shrink * s2]])


def covariance(state: GaussianFieldState, mode: int) -> NDArray[np.float64]:
    """2x2 covariance V = (2n+1) S S^T of one mode; det V = (2n+1)^2 >= 1."""
    return _covariance(state.mode_states[_check_mode(mode, state.n_modes)])


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


def moments_analytic(state: GaussianFieldState, mode: int, p: int, q: int) -> complex:
    """Symmetric-ordered moment <[(a^dag)^p a^q]_S> of one mode, p + q <= 4.

    The Wick (Isserlis) sum over perfect matchings of the derivative slots of
    the Gaussian exponent: a (xi, xi) pair gives -B, (xi, conj xi) -A/2 and
    (conj xi, conj xi) -C; the moment is (-1)^q times the sum. The matchings
    with m mixed pairs, m = p mod 2, ..., min(p, q) in steps of 2, number
    C(p,m) C(q,m) m! (p-m-1)!! (q-m-1)!!, with (-1)!! = 1.
    """
    mode = _check_mode(mode, state.n_modes)
    p, q = converted(integer, p, "p"), converted(integer, q, "q")
    if p < 0 or q < 0:
        raise ValidationError("moment orders must be nonnegative")
    if p + q > 4:
        raise ValidationError(f"moment order p + q = {p + q} beyond the implemented table (4)")
    if (p + q) % 2 == 1:
        return 0.0 + 0.0j
    # chi = exp(-Q/2) with Q = A xi conj(xi) + B xi^2 + C conj(xi)^2, the
    # quadratic form in (Re xi, Im xi) rewritten in xi and conj(xi)
    gxx, gxy, gyy = _chi_coeffs(state, mode)
    A = (gxx + gyy) / 2.0
    B = complex((gxx - gyy) / 4.0, -gxy / 2.0)
    C = B.conjugate()
    total = sum(
        math.comb(p, m) * math.comb(q, m) * math.factorial(m)
        * math.prod(range(p - m - 1, 0, -2)) * math.prod(range(q - m - 1, 0, -2))
        * (-A / 2.0) ** m * (-B) ** ((p - m) // 2) * (-C) ** ((q - m) // 2)
        for m in range(p % 2, min(p, q) + 1, 2)
    )
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


# state-document kind name -> class; each kind's params are its init fields
_KINDS = {"vacuum": Vacuum, "thermal": Thermal, "squeezed": Squeezed,
          "squeezed_thermal": SqueezedThermal}
_KIND_NAMES = {cls: name for name, cls in _KINDS.items()}


def _params(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.init)


def state_to_dict(state: GaussianFieldState) -> dict:
    modes = [
        {"j": list(j), "kind": _KIND_NAMES[type(s)],
         "params": {name: getattr(s, name) for name in _params(type(s))}}
        for j, s in zip(state.modes.mode_indices, state.mode_states)
    ]
    return {
        "spatial_dim": state.modes.spatial_dim,
        "box_side": state.modes.box_side,
        "mass": state.modes.mass,
        "modes": modes,
    }


def state_from_dict(doc: dict) -> GaussianFieldState:
    known_fields(doc, ("spatial_dim", "box_side", "mass", "modes"), "state")
    entries = read_field(doc, "modes", listed(dict), "state")
    where = [f"state.modes[{i}]" for i in range(len(entries))]
    modeset = ModeSet(
        spatial_dim=read_field(doc, "spatial_dim", integer, "state"),
        box_side=read_field(doc, "box_side", float, "state"),
        mass=read_field(doc, "mass", float, "state"),
        mode_indices=tuple(read_field(e, "j", listed(integer), w) for e, w in zip(entries, where)),
    )
    states = []
    for e, w in zip(entries, where):
        known_fields(e, ("j", "kind", "params"), w)
        kind = read_field(e, "kind", None, w, "vacuum")
        if kind not in _KINDS:
            raise ValidationError(f"unknown mode kind {kind!r}")
        cls, params = _KINDS[kind], read_field(e, "params", None, w, {})
        states.append(read_object(params, cls, dict.fromkeys(_params(cls), float), f"{w}.params"))
    return GaussianFieldState(modes=modeset, mode_states=tuple(states))
