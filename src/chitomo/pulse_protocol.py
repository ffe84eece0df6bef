"""Displacements generated by a [tau - pi - tau - pi]^N Ramsey pulse sequence.

A two-level probe coupled to one field mode through a smearing profile F(x)
and a switching profile eta(t) picks up, conditional on its internal state, a
coherent displacement of the mode. For N pulse cycles of free-evolution time
tau the net displacement of mode k is

    xi_k(tau, N) = -4 lambda eta_k(tau) conj(F(k)) / (omega_k tau)
                   * sin(N omega_k tau) tan(omega_k tau / 2)
                   * exp(i N omega_k tau),

where F(k) is the spatial Fourier transform of the smearing and

    eta_k(tau) = integral_0^tau eta(s) ds / sqrt(2 L^n omega_k)

is the switching integral over one segment window carrying the mode
normalization. The product sin(N u) tan(u/2) has removable singularities at
u = omega tau = (2m+1) pi, where it tends to -2N(-1)^N; there the magnitude
attains its maximum 8 lambda N eta_k |F(k)| / pi. Both are handled
analytically, never through floating-point tan near a pole.

One probe (lam, the smearing and the switching) displaces every field mode
at once, so displacement_surface takes the probe alone and gives xi of all
modes over an N x tau grid, its two axes; a single displacement, a manifold
curve, a manifold scan and the condensate map are calls into it and agree
bit for bit. The switching window integrals over [0, tau] are exact and take
tau arrays: erf/erfc for the Gaussian window, a cumulative table for
tabulated switching. For tau scans the Gaussian window can be given
fractionally (relative=True) so that it keeps its shape inside each segment.

erf and erfc come from libm through the math module, element by element over
the tau array (the window is never evaluated over modes). The one user of
scipy.special is the 2-D radial table transform (Bessel j0).
"""
from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np
from numpy.typing import NDArray

from .errors import (
    Record,
    ValidationError,
    at_least,
    boolean,
    converted,
    dimension,
    finite,
    known_fields,
    listed,
    named,
    nonnegative,
    positive,
    read_field,
    read_object,
    real_array,
)
from .gaussian_field import _kmag

__all__ = [
    "SphericalGaussian",
    "Delta",
    "CustomRadial",
    "Constant",
    "GaussianWindow",
    "CustomSwitching",
    "PulseSchedule",
    "Curve",
    "smearing_ft",
    "switching_integral",
    "displacement_surface",
    "displacement_param",
    "reachable_manifold",
    "smearing_from_dict",
    "switching_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
]


# --------------------------------------------------------------------------
# smearing functions (spatial profiles)

class SphericalGaussian(Record):
    """Normalized isotropic Gaussian profile, F(x) = exp(-|x|^2/(2 sigma^2))
    / (2 pi sigma^2)^(n/2). Its transform is exp(-sigma^2 k^2 / 2) in any n."""

    sigma: float
    _rules = {"sigma": positive}

    def ft(self, kmag, n: int):
        return np.exp(-0.5 * self.sigma**2 * np.square(kmag))


class Delta(Record):
    """Point-like profile at the origin; F(k) = 1 for all k."""

    def ft(self, kmag, n: int) -> complex:
        return 1.0 + 0.0j


class CustomRadial(Record):
    """Tabulated radial profile F(|x|); transformed by the radial quadrature
    appropriate to the spatial dimension (cosine, Hankel J0, spherical sinc)."""

    r: tuple[float, ...]
    f: tuple[float, ...]
    _rules = {"r": listed(finite), "f": listed(finite)}

    def __post_init__(self) -> None:
        r, f = self.r, self.f
        if len(r) != len(f) or len(r) < 2:
            raise ValidationError("radial table needs matching r/f arrays, length >= 2")
        if any(b <= a for a, b in zip(r, r[1:])) or r[0] < 0:
            raise ValidationError("radial grid must be ascending and nonnegative")

    def ft(self, kmag, n: int):
        r = np.asarray(self.r)
        f = np.asarray(self.f)
        kr = np.multiply.outer(kmag, r)
        if n == 1:
            integrand = 2.0 * f * np.cos(kr)
        elif n == 2:
            from scipy.special import j0

            integrand = 2.0 * np.pi * f * j0(kr) * r
        elif n == 3:
            # np.sinc(x) = sin(pi x)/(pi x), so sin(kr)/(kr) = np.sinc(kr/pi)
            integrand = 4.0 * np.pi * f * np.sinc(kr / np.pi) * r**2
        else:
            raise ValidationError(f"unsupported spatial dimension {n} for radial table")
        return np.trapezoid(integrand, r, axis=-1)


SmearingFunction = Union[SphericalGaussian, Delta, CustomRadial]


def _wave_number(k, n: int) -> float:
    """|k| of a wave vector (length n) or of a scalar magnitude."""
    kv = np.atleast_1d(converted(real_array, k, "k"))
    if kv.ndim != 1 or kv.size not in (1, n):
        raise ValidationError(f"wave vector of length {kv.size} in dimension {n}")
    return converted(finite, float(_kmag(kv)) if kv.size == n else abs(float(kv[0])), "|k|")


def _transform(f, kmag, n: int):
    """The profile's own ft(kmag, n), always complex: a complex F divided by a
    real u is not bitwise a real F divided by u."""
    try:
        ft = f.ft
    except AttributeError:
        raise ValidationError(f"unsupported smearing object {f!r}") from None
    return np.asarray(ft(kmag, n), dtype=complex)


def smearing_ft(f, k, n: int) -> complex:
    """Spatial Fourier transform F(k) = integral d^n x F(x) exp(i k x).

    k may be a wave vector (length n) or a scalar magnitude; every supported
    profile is radial so only |k| enters. Real and positive for centered
    nonnegative profiles; F(0) equals the profile's total integral. A
    profile's own ft(kmag, n) also takes an array of magnitudes.
    """
    n = converted(dimension, n, "spatial dimension")
    return complex(_transform(f, _wave_number(k, n), n))


# --------------------------------------------------------------------------
# switching functions (temporal profiles over one segment window)

class Constant(Record):
    value: float = 1.0
    _rules = {"value": nonnegative}

    def window_integral(self, tau):
        return self.value * tau


# the 8-point Gauss-Legendre rule on [-1, 1]: positive nodes, their weights
_GL_NODES = (0.1834346424956498, 0.525532409916329, 0.7966664774136267, 0.9602898564975363)
_GL_WEIGHTS = (0.362683783378362, 0.31370664587788727, 0.22238103445337448, 0.10122853629037626)


def _erf_pair(a: float, b: float, d: float) -> float:
    """erf(a) + erf(b), given d = a + b computed without cancellation.

    With one of a, b negative it is the equal erfc(-min) - erfc(max), which
    does not cancel in the far tail. It cancels when the interval [-min, max]
    is short against the scale 1/(1 + |a| + |b|) on which e^(-u^2) varies;
    there (2/sqrt(pi)) times the integral of e^(-u^2) over it is summed
    directly, which the 8-point rule gives to rounding.
    """
    lo, hi = (a, b) if a < b else (b, a)
    if lo < 0.0 and d * (1.0 + hi - lo) < 1.0:
        h = 0.5 * d
        mid = h - lo
        total = sum(w * (math.exp(-(mid - h * x) ** 2) + math.exp(-(mid + h * x) ** 2))
                    for x, w in zip(_GL_NODES, _GL_WEIGHTS))
        return d * total / math.sqrt(math.pi)
    return math.erfc(-lo) - math.erfc(hi) if lo < 0.0 else math.erf(a) + math.erf(b)


_erf_sum = np.frompyfunc(_erf_pair, 3, 1)


class GaussianWindow(Record):
    """eta(s) = exp(-((s - center)/width)^2) integrated over [0, tau].

    With relative=True, center and width are fractions of the segment length
    tau, so the window shape travels with the segment during tau scans.
    """

    center: float
    width: float
    relative: bool = False
    _rules = {"center": finite, "width": positive, "relative": boolean}

    def window_integral(self, tau):
        # (w sqrt(pi)/2) [erf(a) + erf(b)], element by element
        c = self.center * tau if self.relative else self.center
        w = self.width * tau if self.relative else self.width
        both = _erf_sum((tau - c) / w, c / w, tau / w)
        return 0.5 * math.sqrt(math.pi) * w * np.asarray(both, dtype=float)


class CustomSwitching(Record):
    """Tabulated eta(t) on an ascending grid; zero outside the table."""

    t: tuple[float, ...]
    eta: tuple[float, ...]
    _rules = {"t": listed(finite), "eta": listed(nonnegative)}

    def __post_init__(self) -> None:
        t, e = self.t, self.eta
        if len(t) != len(e) or len(t) < 2:
            raise ValidationError("switching table needs matching t/eta arrays, length >= 2")
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValidationError("switching time grid must be strictly ascending")

    def window_integral(self, tau):
        # the interpolant's exact integral from a cumulative table; nodes before
        # 0 collapse onto 0, so no integral is formed as a difference
        t = np.asarray(self.t)
        e = np.asarray(self.eta)
        ts = np.maximum(t, 0.0)
        es = np.interp(ts, t, e)
        table = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(ts) * (es[1:] + es[:-1]))))
        x = np.clip(tau, ts[0], ts[-1])
        i = np.clip(np.searchsorted(ts, x, side="right") - 1, 0, ts.size - 2)
        return table[i] + 0.5 * (x - ts[i]) * (es[i] + np.interp(x, t, e))


SwitchingFunction = Union[Constant, GaussianWindow, CustomSwitching]


def switching_integral(eta, tau, omega_k, L: float, n: int):
    """eta_k(tau) = integral_0^tau eta(s) ds / sqrt(2 L^n omega_k).

    tau and omega_k may be arrays; they broadcast against each other.
    """
    tau, omega_k = converted(real_array, tau, "tau"), converted(real_array, omega_k, "omega_k")
    for name, a in (("tau", tau), ("omega", omega_k)):  # NaN spreads to min and max
        for bound in (a.min(), a.max()) if a.size else ():
            converted(positive, float(bound), name)
    converted(positive, L, "L")
    n = converted(dimension, n, "spatial dimension")
    try:
        window = eta.window_integral
    except AttributeError:
        raise ValidationError(f"unsupported switching object {eta!r}") from None
    return window(tau) / np.sqrt(2.0 * L**n * omega_k)


# --------------------------------------------------------------------------
# pulse schedule and the displacement closed form

def _segment_count(N) -> int:
    return converted(at_least(1), N, "segment count N")


class PulseSchedule(Record):
    """N cycles of [tau - pi - tau - pi] at coupling lam, total time 2 N tau."""

    lam: float
    tau: float
    N: int
    smearing: SmearingFunction
    switching: SwitchingFunction
    _rules = {"lam": positive, "tau": positive, "N": _segment_count}


def _sin_tan_product(u, N):
    """sin(N u) * tan(u/2) with the poles at u = (2m+1) pi removed.

    Near an odd multiple of pi, with d = u - (2m+1) pi,
    sin(N u) tan(u/2) = -(-1)^N sin(N d) cos(d/2) / sin(d/2),
    which tends to -2N(-1)^N as d -> 0; that limit is used exactly at d == 0.
    """
    m = np.round((u / np.pi - 1.0) / 2.0)
    d = u - (2.0 * m + 1.0) * np.pi
    safe = np.where(d == 0.0, 1.0, d)
    near = np.sin(N * safe) * np.cos(0.5 * safe) / np.sin(0.5 * safe)
    near = -((-1.0) ** N) * np.where(d == 0.0, 2.0 * N, near)
    return np.where(np.abs(d) < 0.5, near, np.sin(N * u) * np.tan(0.5 * u))


def displacement_surface(lam, smearing, switching, Ns, taus, kmag, omega, L: float, n: int):
    """xi of M modes (|k| = kmag, omega_k = omega) on Ns x taus, shape
    (len(Ns), len(taus), M), for the probe of coupling lam > 0 through the
    smearing F and the switching eta: one switching integral over taus x
    omega and one F(k) over kmag."""
    lam = converted(positive, lam, "lam")
    n = converted(dimension, n, "spatial dimension")
    taus, kmag, omega = (converted(real_array, a, name) for a, name in
                         ((taus, "taus"), (kmag, "kmag"), (omega, "omega")))
    if taus.ndim != 1 or kmag.ndim != 1 or kmag.shape != omega.shape:
        raise ValidationError("need a 1-D tau array and one |k| per omega")
    if len(Ns) == 0:
        raise ValidationError("empty N list")
    N = np.array([_segment_count(v) for v in Ns]).reshape(-1, 1, 1)
    eta_k = switching_integral(switching, taus[:, None], omega, L, n)
    ft = _transform(smearing, kmag, n)
    u = omega * taus[:, None]
    return (-4.0 * lam * eta_k * np.conj(ft) / u * _sin_tan_product(u, N)
            * np.exp(1j * N * u))


def displacement_param(
    sched: PulseSchedule, k, omega_k: float, L: float, n: int
) -> complex:
    """Net displacement xi_k(tau, N) of the mode (k, omega_k).

    Evaluates the closed form in the module docstring; linear in lam, periodic
    in tau with period 2 pi / omega_k for constant switching, and continuous
    through the removable singularities at omega_k tau = (2m+1) pi, where
    |xi| = 8 lam N eta_k |F(k)| / pi is the per-mode maximum.
    """
    kmag = _wave_number(k, converted(dimension, n, "spatial dimension"))
    return complex(displacement_surface(sched.lam, sched.smearing, sched.switching, [sched.N],
                                        [sched.tau], [kmag], [omega_k], L, n)[0, 0, 0])


class Curve(Record):
    """One reachable-manifold curve: xi(tau) at fixed pulse number N."""

    N: int
    taus: NDArray[np.float64]
    xis: NDArray[np.complex128]


def reachable_manifold(
    sched_template: PulseSchedule,
    N_list: Sequence[int],
    tau_grid: Sequence[float],
    k,
    omega_k: float,
    L: float,
    n: int,
) -> list[Curve]:
    """Evaluate xi(tau, N) curves over a tau grid for each N.

    Each curve is a closed loop in the complex plane: it returns to the
    origin at tau = 2 pi m / omega_k and at every tau = m pi / (N omega_k)
    that is not an odd multiple of pi / omega_k.
    """
    taus = converted(real_array, list(tau_grid), "tau_grid")
    if taus.size == 0:
        raise ValidationError("empty tau grid")
    if np.any(taus <= 0) or np.any(np.diff(taus) <= 0):
        raise ValidationError("tau grid must be positive and strictly increasing")
    counts = [_segment_count(N) for N in N_list]
    kmag = _wave_number(k, converted(dimension, n, "spatial dimension"))
    xis = displacement_surface(sched_template.lam, sched_template.smearing,
                               sched_template.switching, counts, taus, [kmag], [omega_k], L, n)
    return [Curve(N=N, taus=taus.copy(), xis=x[:, 0]) for N, x in zip(counts, xis)]


# --------------------------------------------------------------------------
# serialization

# kind name -> class; a document holds "kind" and the class's __init__
# fields, each read by the class's own rule and defaulting to its default.
# One entry both reads and writes a kind.
_SMEARING_KINDS = {"spherical_gaussian": SphericalGaussian, "delta": Delta,
                   "custom_radial": CustomRadial}
_SWITCHING_KINDS = {"constant": Constant, "gaussian": GaussianWindow,
                    "custom": CustomSwitching}


def _read_kind(doc: dict, kinds: dict, what: str):
    cls = read_field(doc, "kind", named(kinds), what)
    return read_object(doc, cls, what, also=("kind",))


def _write_kind(obj, kinds: dict, what: str) -> dict:
    """The document _read_kind reads back as obj: the kind of its class, then
    each __init__ field from the attribute of the same name, a tuple as a
    list and a nested kind (an object of a class in kinds, such as a weighted
    smearing's base) through the same table."""
    for kind, cls in kinds.items():
        if type(obj) is cls:
            doc = {"kind": kind}
            for name in cls._args:
                value = getattr(obj, name)
                if isinstance(value, tuple):
                    value = list(value)
                elif type(value) in kinds.values():
                    value = _write_kind(value, kinds, what)
                doc[name] = value
            return doc
    raise ValidationError(f"unsupported {what} object {obj!r}")


def _smearing(value):
    """A smearing field: a profile (an object with ft) as it is, anything
    else as a document the smearing table reads."""
    return value if hasattr(value, "ft") else smearing_from_dict(value)


def smearing_from_dict(doc: dict):
    return _read_kind(doc, _SMEARING_KINDS, "smearing")


def switching_from_dict(doc: dict):
    return _read_kind(doc, _SWITCHING_KINDS, "switching")


def schedule_to_dict(sched: PulseSchedule) -> dict:
    return {
        "lambda": sched.lam,
        "tau": sched.tau,
        "N": sched.N,
        "smearing": _write_kind(sched.smearing, _SMEARING_KINDS, "smearing"),
        "switching": _write_kind(sched.switching, _SWITCHING_KINDS, "switching"),
    }


def schedule_from_dict(doc: dict) -> PulseSchedule:
    known_fields(doc, ("lambda", "tau", "N", "smearing", "switching"), "schedule")
    rules = PulseSchedule._rules
    return PulseSchedule(
        lam=read_field(doc, "lambda", rules["lam"], "schedule"),
        tau=read_field(doc, "tau", rules["tau"], "schedule"),
        N=read_field(doc, "N", None, "schedule"),
        smearing=read_field(doc, "smearing", smearing_from_dict, "schedule"),
        switching=read_field(doc, "switching", switching_from_dict, "schedule"),
    )
