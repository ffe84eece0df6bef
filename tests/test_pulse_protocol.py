"""Smearing transforms, switching windows, and the displacement closed form."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from chitomo.errors import Record, ValidationError, positive
from chitomo import pulse_protocol
from chitomo.fileio import read_json, write_json
from chitomo.pulse_protocol import (
    Constant,
    CustomRadial,
    CustomSwitching,
    Delta,
    GaussianWindow,
    PulseSchedule,
    SphericalGaussian,
    _sin_tan_product,
    displacement_param,
    displacement_surface,
    reachable_manifold,
    schedule_from_dict,
    schedule_to_dict,
    smearing_ft,
    switching_integral,
)

L = 2.0 * np.pi
ETA_CONST = 0.28209479177387814    # tau / sqrt(2 L omega) at tau=om=1, L=2pi, n=1
XI_CANONICAL = 0.0008612093470813497 - 0.00012276241528970229j  # lam=.01 tau=1 N=3


def canonical(lam=0.01, tau=1.0, N=3, smearing=None, switching=None):
    return PulseSchedule(
        lam=lam,
        tau=tau,
        N=N,
        smearing=Delta() if smearing is None else smearing,
        switching=Constant(1.0) if switching is None else switching,
    )


def xi_of(sched, k=1.0, omega=1.0, box=L, n=1):
    return displacement_param(sched, k, omega, box, n)


# ------------------------------------------------- per-tau scalar reference
# Scalar reference: the closed form one tau at a time, with the switching
# windows integrated numerically (quad, trapezoid); the array path must agree.

def sin_tan_reference(u, N):
    m = round((u / math.pi - 1.0) / 2.0)
    d = u - (2 * m + 1) * math.pi
    if abs(d) < 0.5:
        sign = -(-1.0) ** N
        if d == 0.0:
            return sign * 2.0 * N
        return sign * math.sin(N * d) * math.cos(0.5 * d) / math.sin(0.5 * d)
    return math.sin(N * u) * math.tan(0.5 * u)


def window_reference(eta, tau):
    if isinstance(eta, Constant):
        return eta.value * tau
    if isinstance(eta, GaussianWindow):
        c = eta.center * tau if eta.relative else eta.center
        w = eta.width * tau if eta.relative else eta.width
        fn = lambda s: math.exp(-(((s - c) / w) ** 2))
        pts = [c] if 0.0 < c < tau else None
        val, _ = quad(fn, 0.0, tau, epsabs=1e-12, epsrel=1e-12, limit=200, points=pts)
        return val
    t, e = np.asarray(eta.t), np.asarray(eta.eta)
    hi, lo = min(tau, t[-1]), max(0.0, t[0])
    if hi <= lo:
        return 0.0
    ts = np.concatenate(([lo], t[(t > lo) & (t < hi)], [hi]))
    return float(np.trapezoid(np.interp(ts, t, e), ts))


def xi_reference(sched, k=1.0, omega=1.0, box=L, n=1):
    """xi and its envelope 8 lam N eta_k |F| / u, the bound on |xi| at this tau."""
    eta_k = window_reference(sched.switching, sched.tau) / math.sqrt(2.0 * box**n * omega)
    ft = smearing_ft(sched.smearing, k, n)
    u = omega * sched.tau
    pre = -4.0 * sched.lam * eta_k * np.conj(ft) / u
    xi = pre * sin_tan_reference(u, sched.N) * np.exp(1j * sched.N * u)
    return xi, abs(pre) * 2.0 * sched.N


# ---------------------------------------------------------------- smearing

def test_delta_profile_is_flat():
    assert smearing_ft(Delta(), 0.0, 1) == 1.0
    assert smearing_ft(Delta(), [0.3, -0.4, 1.0], 3) == 1.0


def test_gaussian_profile_normalization_and_width():
    g = SphericalGaussian(sigma=1.0)
    assert smearing_ft(g, 0.0, 3) == 1.0
    assert smearing_ft(g, 1.0, 3) == pytest.approx(math.exp(-0.5), abs=1e-15)
    # same radial transform in every dimension for the normalized profile
    assert smearing_ft(g, 1.0, 1) == smearing_ft(g, 1.0, 3)
    assert smearing_ft(SphericalGaussian(sigma=2.0), 1.0, 3) == pytest.approx(
        math.exp(-2.0), abs=1e-15
    )


def test_wave_vector_forms():
    g = SphericalGaussian(sigma=1.0)
    # vector and magnitude agree; only |k| enters
    assert smearing_ft(g, [0.6, 0.8], 2) == pytest.approx(smearing_ft(g, 1.0, 2), abs=1e-15)
    with pytest.raises(ValidationError):
        smearing_ft(g, [1.0, 0.0], 3)
    with pytest.raises(ValidationError):
        smearing_ft(g, 1.0, 4)
    with pytest.raises(ValidationError):
        smearing_ft(object(), 1.0, 1)


@pytest.mark.parametrize("n,norm,npts", [(1, math.sqrt(2 * math.pi), 200_001),
                                         (2, 2 * math.pi, 800_001),
                                         (3, (2 * math.pi) ** 1.5, 200_001)])
def test_radial_table_reproduces_gaussian_transform(n, norm, npts):
    # tabulated normalized Gaussian against the closed form, per dimension
    r = np.linspace(0.0, 10.0, npts)
    tab = CustomRadial(r=tuple(r), f=tuple(np.exp(-0.5 * r * r) / norm))
    assert smearing_ft(tab, 1.0, n) == pytest.approx(math.exp(-0.5), abs=1e-10)


def test_radial_table_validation():
    with pytest.raises(ValidationError):
        CustomRadial(r=(0.0, 1.0), f=(1.0,))
    with pytest.raises(ValidationError):
        CustomRadial(r=(1.0, 0.5), f=(1.0, 1.0))
    with pytest.raises(ValidationError):
        CustomRadial(r=(0.0, 1.0), f=(1.0, math.nan))
    with pytest.raises(ValidationError):
        SphericalGaussian(sigma=0.0)


# ---------------------------------------------------------------- switching

def test_constant_window_and_integral():
    assert Constant(1.0).window_integral(2.5) == 2.5
    assert switching_integral(Constant(1.0), 1.0, 1.0, L, 1) == pytest.approx(
        ETA_CONST, abs=1e-16
    )
    assert switching_integral(Constant(0.0), 1.0, 1.0, L, 1) == 0.0


def test_switching_integral_validation():
    with pytest.raises(ValidationError):
        switching_integral(Constant(1.0), 0.0, 1.0, L, 1)
    with pytest.raises(ValidationError):
        switching_integral(Constant(1.0), np.array([0.5, 0.0]), 1.0, L, 1)
    with pytest.raises(ValidationError):
        switching_integral(Constant(1.0), np.array([0.5, np.nan]), 1.0, L, 1)
    with pytest.raises(ValidationError):
        switching_integral(Constant(1.0), 1.0, -1.0, L, 1)
    with pytest.raises(ValidationError):
        switching_integral(object(), 1.0, 1.0, L, 1)
    with pytest.raises(ValidationError):
        Constant(-0.2)


def test_gaussian_window_matches_erf():
    c, w, tau = 0.4, 0.15, 1.0
    win = GaussianWindow(center=c, width=w)
    want = w * math.sqrt(math.pi) / 2 * (math.erf((tau - c) / w) + math.erf(c / w))
    assert win.window_integral(tau) == pytest.approx(want, abs=1e-12)


def test_relative_gaussian_window_scales_with_tau():
    win = GaussianWindow(center=0.5, width=1.0 / math.sqrt(72.0), relative=True)
    one = win.window_integral(1.0)
    assert win.window_integral(2.0) == pytest.approx(2.0 * one, rel=1e-12)
    assert win.window_integral(0.25) == pytest.approx(0.25 * one, rel=1e-12)


def test_gaussian_window_far_tail_keeps_relative_accuracy():
    # a window centred far past the segment: erf(a) + erf(b) cancels to 0 here
    win = GaussianWindow(center=9.0, width=0.25)
    taus = np.linspace(3.0, 2.0 * math.pi, 64)  # values from 1e-250 to 1e-53
    got = win.window_integral(taus)
    for tau, value in zip(taus, got):
        want = 0.125 * math.sqrt(math.pi) * (math.erfc((9.0 - tau) / 0.25) - math.erfc(36.0))
        assert want > 0.0
        assert value == pytest.approx(want, rel=1e-14)


# the window integral to 35 digits: mpmath's erfc(-min) - erfc(max) (or
# erf(a) + erf(b)) at 80 digits on the exact binary inputs, which mpmath's
# quadrature of exp(-((s - center)/width)^2) over [0, tau] matches to 1e-59
_WINDOW_REFERENCES = [
    # tau far below the width, where the erf difference cancels
    ((150.0, 100.0, 1e-3), 1.0540080556252938266585900308427221e-4),
    ((5.0, 2.0, 1e-4), 1.9306954614958784770886006733867493e-7),
    # short segments far out in the tails, past and before the center
    ((8.0, 1.0, 1e-3), 1.6167095404730328328727398271024034e-31),
    ((-10.0, 1.0, 1e-3), 3.6831207646714256602575898738198635e-47),
    # tau about the width
    ((5.0, 2.0, 2.0), 5.9355759985259818763708391916972399e-2),
]


@pytest.mark.parametrize("window,want", _WINDOW_REFERENCES)
def test_gaussian_window_matches_high_precision_references(window, want):
    center, width, tau = window
    got = GaussianWindow(center=center, width=width).window_integral(tau)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    assert GaussianWindow(center=center, width=width).window_integral(np.array([tau]))[0] == got


def _scipy_window_integral(win, tau):
    """The erf/erfc branch formula on scipy.special's erf and erfc; on the
    short intervals where its erfc difference cancels, scipy.integrate.quad."""
    from scipy.integrate import quad
    from scipy.special import erf, erfc

    c = win.center * tau if win.relative else win.center
    w = win.width * tau if win.relative else win.width
    a, b = (tau - c) / w, c / w
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    both = np.where(lo < 0.0, erfc(-lo) - erfc(hi), erf(a) + erf(b))
    out = 0.5 * math.sqrt(math.pi) * w * both
    c, w = np.broadcast_to(c, tau.shape), np.broadcast_to(w, tau.shape)
    for i in np.flatnonzero((lo < 0.0) & (tau / w * (1.0 + hi - lo) < 1.0)):
        out[i] = quad(lambda s: math.exp(-(((s - c[i]) / w[i]) ** 2)), 0.0, tau[i],
                      epsabs=0.0, epsrel=1e-13)[0]
    return out


@pytest.mark.parametrize("relative,centers,widths", [
    (False, (-5.0, -1.0, 0.0, 0.3, 1.0, 5.0, 50.0, 150.0), (0.01, 0.1, 1.0, 10.0)),
    (True, (-0.5, 0.0, 0.2, 0.5, 0.9, 1.5), (0.05, 0.2, 1.0)),
])
def test_gaussian_window_matches_scipy_reference(relative, centers, widths):
    # libm's erf/erfc against scipy's, and the library's short-interval sum
    # against scipy's quadrature; the largest gap, 9.4e-14 at center 150 and
    # width 10, is the rounding of a = (tau - c)/w grown by a^2 in the tail.
    # Below the normal range scipy flushes to 0 where libm keeps subnormals.
    taus = np.geomspace(1e-3, 200.0, 801)
    for c in centers:
        for w in widths:
            win = GaussianWindow(center=c, width=w, relative=relative)
            got = win.window_integral(taus)
            assert got.dtype == np.float64 and got.shape == taus.shape
            np.testing.assert_allclose(got, _scipy_window_integral(win, taus),
                                       rtol=1e-12, atol=1e-300)
            assert win.window_integral(float(taus[400])) == got[400]


def test_custom_switching_tables():
    # trapezoid is exact on piecewise-linear tables
    ramp = CustomSwitching(t=(0.0, 1.0), eta=(0.0, 1.0))
    assert ramp.window_integral(1.0) == pytest.approx(0.5, abs=1e-15)
    assert ramp.window_integral(0.5) == pytest.approx(0.125, abs=1e-15)
    flat = CustomSwitching(t=(0.0, 2.0), eta=(1.0, 1.0))
    assert flat.window_integral(1.5) == pytest.approx(1.5, abs=1e-15)
    assert flat.window_integral(5.0) == pytest.approx(2.0, abs=1e-15)  # zero past the table
    late = CustomSwitching(t=(1.0, 2.0, 4.0), eta=(2.0, 0.0, 1.0))  # starts after 0
    np.testing.assert_allclose(
        late.window_integral(np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0])),
        [0.0, 0.0, 0.75, 1.0, 1.25, 2.0, 2.0],
        rtol=0, atol=1e-15,
    )
    with pytest.raises(ValidationError):
        CustomSwitching(t=(0.0, 0.0), eta=(1.0, 1.0))
    with pytest.raises(ValidationError):
        CustomSwitching(t=(0.0, 1.0), eta=(1.0, -1.0))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_tables_refuse_a_non_finite_entry(bad):
    # an infinite radius made the transform NaN with a RuntimeWarning, and
    # infinite times were taken as they were
    with pytest.raises(ValidationError, match=r"^r = \(0.0, 1.0, .*a finite number is expected"):
        CustomRadial(r=(0.0, 1.0, bad), f=(1.0, 0.5, 0.0))
    with pytest.raises(ValidationError, match=r"^f = .*a finite number is expected"):
        CustomRadial(r=(0.0, 1.0, 2.0), f=(1.0, bad, 0.0))
    with pytest.raises(ValidationError, match=r"^t = .*a finite number is expected"):
        CustomSwitching(t=(bad, 1.0), eta=(1.0, 1.0))
    with pytest.raises(ValidationError, match=r"^eta = .*a finite number >= 0 is expected"):
        CustomSwitching(t=(0.0, 1.0), eta=(1.0, bad))


# ----------------------------------------------------------- pulse schedule

def test_schedule_validation():
    with pytest.raises(ValidationError):
        canonical(lam=0.0)
    with pytest.raises(ValidationError):
        canonical(lam=-0.01)
    with pytest.raises(ValidationError):
        canonical(tau=0.0)
    with pytest.raises(ValidationError):
        canonical(N=0)
    with pytest.raises(ValidationError):
        canonical(N=2.5)
    assert canonical(N=2.0).N == 2


# --------------------------------------------------- displacement parameter

def test_displacement_canonical_value():
    assert xi_of(canonical()) == pytest.approx(XI_CANONICAL, abs=1e-18)


def test_displacement_zeros_at_full_periods():
    for m in (1, 2, 3):
        for N in (1, 2, 5):
            xi = xi_of(canonical(tau=2.0 * math.pi * m, N=N))
            assert abs(xi) < 1e-12


def test_displacement_maximum_law():
    # |xi| at tau = pi/omega equals 8 lam N eta / pi
    for N in (1, 3, 7):
        sched = canonical(tau=math.pi, N=N)
        eta = switching_integral(Constant(1.0), math.pi, 1.0, L, 1)
        want = 8.0 * sched.lam * N * eta / math.pi
        assert abs(xi_of(sched)) == pytest.approx(want, rel=1e-12)


def test_displacement_continuous_through_odd_pi():
    # tan(u/2) poles cancel; step 1e-8 across them moves xi by O(1e-9)
    for tau0 in (math.pi, 3.0 * math.pi):
        x0 = xi_of(canonical(tau=tau0))
        assert abs(xi_of(canonical(tau=tau0 + 1e-8)) - x0) < 1e-7
        assert abs(xi_of(canonical(tau=tau0 - 1e-8)) - x0) < 1e-7


def test_displacement_periodic_in_tau():
    # constant switching: eta grows like tau but the prefactor divides it out
    for tau in (0.3, 1.7, 2.9):
        a = xi_of(canonical(tau=tau))
        b = xi_of(canonical(tau=tau + 2.0 * math.pi))
        assert a == pytest.approx(b, abs=1e-12)


def test_displacement_linear_in_lambda():
    # scaling lam by a power of two scales xi exactly
    a = xi_of(canonical(lam=0.005))
    b = xi_of(canonical(lam=0.01))
    assert b == 2.0 * a


def test_displacement_phase_locked_to_segments():
    # with a real profile, xi e^{-i N omega tau} is real up to sign
    for tau, N in ((0.9, 2), (2.2, 5), (4.0, 3)):
        xi = xi_of(canonical(tau=tau, N=N))
        folded = xi * np.exp(-1j * N * tau)
        assert abs(folded.imag) <= 1e-14 * abs(xi)


def test_displacement_smearing_weight_multiplies():
    plain = xi_of(canonical())
    weighted = xi_of(canonical(smearing=SphericalGaussian(sigma=1.0)))
    assert weighted == pytest.approx(plain * math.exp(-0.5), rel=1e-14)


# ----------------------------------------------------------------- manifold

def test_manifold_curves():
    taus = np.linspace(0.05, 2.0 * math.pi, 200)
    curves = reachable_manifold(canonical(), [1, 4], taus, 1.0, 1.0, L, 1)
    assert [c.N for c in curves] == [1, 4]
    for c in curves:
        assert c.taus.shape == c.xis.shape == (200,)
    # endpoint tau = 2 pi closes every curve
    for c in curves:
        assert abs(c.xis[-1]) < 1e-12


def test_manifold_peak_scales_with_N():
    taus = np.sort(np.append(np.linspace(0.5, 5.0, 451), math.pi))
    curves = reachable_manifold(canonical(), [1, 4], taus, 1.0, 1.0, L, 1)
    r1 = np.abs(curves[0].xis).max()
    r4 = np.abs(curves[1].xis).max()
    assert r4 == pytest.approx(4.0 * r1, rel=1e-10)


def test_manifold_scales_with_lambda():
    taus = np.linspace(0.3, 6.0, 25)
    base = reachable_manifold(canonical(lam=0.01), [2], taus, 1.0, 1.0, L, 1)
    twice = reachable_manifold(canonical(lam=0.02), [2], taus, 1.0, 1.0, L, 1)
    np.testing.assert_array_equal(twice[0].xis, 2.0 * base[0].xis)


def test_manifold_validation():
    with pytest.raises(ValidationError):
        reachable_manifold(canonical(), [], [1.0], 1.0, 1.0, L, 1)
    with pytest.raises(ValidationError):
        reachable_manifold(canonical(), [0], [1.0], 1.0, 1.0, L, 1)
    with pytest.raises(ValidationError):
        reachable_manifold(canonical(), [1], [], 1.0, 1.0, L, 1)
    with pytest.raises(ValidationError):
        reachable_manifold(canonical(), [1, 2.5], [1.0], 1.0, 1.0, L, 1)  # not truncated
    assert reachable_manifold(canonical(), [2.0], [1.0], 1.0, 1.0, L, 1)[0].N == 2


# ------------------------------------------------------------------ surface

def profile_pairs():
    """The smearing/switching pairs of the displacement benchmark: flat, a
    Gaussian with a relative window, and tabulated profiles."""
    rng = np.random.default_rng(3)
    r = np.linspace(0.0, 3.0, 257)
    f = np.exp(-((r / 0.5) ** 2)) * (1.0 + 0.2 * rng.uniform(size=r.size))
    t = np.linspace(0.0, 2.0 * math.pi, 129)
    eta = np.sin(0.5 * t) ** 2 * (1.0 + 0.2 * rng.uniform(size=t.size))
    return [
        (Delta(), Constant(1.0)),
        (SphericalGaussian(sigma=0.3), GaussianWindow(center=0.5, width=0.25, relative=True)),
        (CustomRadial(r=tuple(r), f=tuple(f)), CustomSwitching(t=tuple(t), eta=tuple(eta))),
    ]


SURFACE_NS = [1, 4, 7]
SURFACE_TAUS = np.array([0.02, 0.37, 1.0, math.pi / 1.7, math.pi, 4.0, 5.1, 2.0 * math.pi])
SURFACE_KMAG = np.array([0.0, 1.0, 2.5, 0.3])
SURFACE_OMEGA = np.array([1.0, 1.7, 0.6, 1.0])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("pair", range(3))
def test_surface_is_displacement_param_elementwise(pair, n):
    smearing, switching = profile_pairs()[pair]
    sched = canonical(lam=0.01, smearing=smearing, switching=switching)
    xi = displacement_surface(0.01, smearing, switching, SURFACE_NS, SURFACE_TAUS, SURFACE_KMAG,
                              SURFACE_OMEGA, L, n)
    assert xi.shape == (len(SURFACE_NS), len(SURFACE_TAUS), len(SURFACE_OMEGA))
    for (i, j, m), got in np.ndenumerate(xi):
        one = canonical(lam=0.01, tau=float(SURFACE_TAUS[j]), N=SURFACE_NS[i],
                        smearing=smearing, switching=switching)
        want = displacement_param(one, SURFACE_KMAG[m], SURFACE_OMEGA[m], L, n)
        assert np.complex128(got).tobytes() == np.complex128(want).tobytes()
    # each mode's manifold curves are slices of the one surface
    for m in range(len(SURFACE_OMEGA)):
        curves = reachable_manifold(sched, SURFACE_NS, SURFACE_TAUS, SURFACE_KMAG[m],
                                    SURFACE_OMEGA[m], L, n)
        for i, curve in enumerate(curves):
            assert curve.xis.tobytes() == xi[i, :, m].tobytes()


def test_surface_validation():
    probe = (0.01, Delta(), Constant(1.0))
    for Ns, taus, kmag, omega in (
        ([], [1.0], [1.0], [1.0]),            # no N
        ([0], [1.0], [1.0], [1.0]),           # N < 1
        ([2.5], [1.0], [1.0], [1.0]),         # N not an integer
        ([1], [[1.0]], [1.0], [1.0]),         # tau not 1-D
        ([1], [1.0], [1.0, 2.0], [1.0]),      # one |k| per omega
        ([1], [0.0], [1.0], [1.0]),           # tau > 0
        ([1], [1.0], [1.0], [0.0]),           # omega > 0
    ):
        with pytest.raises(ValidationError):
            displacement_surface(*probe, Ns, taus, kmag, omega, L, 1)
    with pytest.raises(ValidationError):
        displacement_surface(*probe, [1], [1.0], [1.0], [1.0], L, 4)
    # the probe is refused by name: lam here (and in tests/test_errors.py), the
    # profiles by the calls that read them
    for lam in (0.0, -0.01):
        with pytest.raises(ValidationError, match="^lam = "):
            displacement_surface(lam, Delta(), Constant(1.0), [1], [1.0], [1.0], [1.0], L, 1)
    with pytest.raises(ValidationError, match="unsupported smearing object"):
        displacement_surface(0.01, Constant(1.0), Constant(1.0), [1], [1.0], [1.0], [1.0], L, 1)
    with pytest.raises(ValidationError, match="unsupported switching object"):
        displacement_surface(0.01, Delta(), Delta(), [1], [1.0], [1.0], [1.0], L, 1)


# ------------------------------------------------ array path vs reference

SWITCHINGS = st.one_of(
    st.builds(Constant, st.floats(0.1, 3.0)),
    st.builds(GaussianWindow, center=st.floats(0.1, 0.9), width=st.floats(0.1, 0.5),
              relative=st.just(True)),
    st.builds(GaussianWindow, center=st.floats(0.0, 2.0), width=st.floats(0.5, 2.0),
              relative=st.just(False)),
    st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)), min_size=3, max_size=12).flatmap(
        lambda eta: st.floats(-1.0, 2.0).map(
            lambda t0: CustomSwitching(
                t=tuple(t0 + 0.7 * i for i in range(len(eta))), eta=tuple(eta)
            )
        )
    ),
)
# free values plus neighbourhoods of the poles at odd multiples of pi / omega
TAUS = st.one_of(
    st.floats(0.05, 20.0),
    st.tuples(st.integers(0, 5), st.sampled_from([0.0, 1e-12, -1e-9, 3e-7, -0.4, 0.49])).map(
        lambda md: (2 * md[0] + 1) * math.pi + md[1]
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    switching=SWITCHINGS,
    taus=st.lists(TAUS, min_size=1, max_size=8, unique=True),
    N=st.integers(1, 10),
    omega=st.sampled_from([1.0, 0.5, 2.0]),
)
def test_array_path_matches_per_tau_reference(switching, taus, N, omega):
    sched = canonical(N=N, switching=switching, smearing=SphericalGaussian(sigma=0.7))
    taus = np.sort(np.asarray(taus)) / omega
    curve = reachable_manifold(sched, [N], taus, 1.3, omega, L, 1)[0]
    for tau, xi in zip(taus, curve.xis):
        one = canonical(tau=float(tau), N=N, switching=switching,
                        smearing=SphericalGaussian(sigma=0.7))
        want, envelope = xi_reference(one, k=1.3, omega=omega)
        assert abs(xi - want) <= 1e-12 * envelope
        assert abs(xi_of(one, k=1.3, omega=omega) - want) <= 1e-12 * envelope
        u = omega * float(tau)
        core = float(_sin_tan_product(u, N))
        assert abs(core - sin_tan_reference(u, N)) <= 1e-12 * 2.0 * N


# ------------------------------------------------------------ serialization

@pytest.mark.parametrize(
    "smearing",
    [Delta(), SphericalGaussian(sigma=0.4), CustomRadial(r=(0.0, 0.5, 1.0), f=(1.0, 0.5, 0.0))],
)
@pytest.mark.parametrize(
    "switching",
    [Constant(2.0), GaussianWindow(center=0.5, width=0.1, relative=True),
     CustomSwitching(t=(0.0, 1.0), eta=(1.0, 1.0))],
)
def test_schedule_roundtrip(smearing, switching):
    sched = canonical(smearing=smearing, switching=switching)
    doc = schedule_to_dict(sched)
    assert doc["lambda"] == sched.lam
    assert schedule_from_dict(doc) == sched


def test_schedule_file_roundtrip(tmp_path):
    sched = canonical(lam=0.015, tau=2.2, N=6)
    path = tmp_path / "sched.json"
    write_json(path, schedule_to_dict(sched))
    assert schedule_from_dict(read_json(path)) == sched


class _TopHat(Record):
    """A smearing kind known only to its table entry: no reader or writer of
    its own, and its field rules only on the class."""

    half_width: float
    scale: float = 1.0
    _rules = {"half_width": positive, "scale": positive}


def test_a_kind_registered_on_its_table_round_trips(monkeypatch):
    monkeypatch.setitem(pulse_protocol._SMEARING_KINDS, "top_hat", _TopHat)
    sched = canonical(smearing=_TopHat(half_width=0.5, scale=2))
    doc = schedule_to_dict(sched)
    assert doc["smearing"] == {"kind": "top_hat", "half_width": 0.5, "scale": 2.0}
    assert schedule_from_dict(doc) == sched
    # the reader takes the class's rules and defaults
    doc["smearing"] = {"kind": "top_hat", "half_width": 1}
    assert repr(schedule_from_dict(doc).smearing) == "_TopHat(half_width=1.0, scale=1.0)"
    doc["smearing"]["scale"] = True
    with pytest.raises(ValidationError, match=r"^smearing\.scale = True is not usable"):
        schedule_from_dict(doc)


def test_schedule_unknown_kind_rejected():
    doc = schedule_to_dict(canonical())
    doc["smearing"] = {"kind": "nope"}
    with pytest.raises(ValidationError):
        schedule_from_dict(doc)


@pytest.mark.parametrize(
    "field,value,named",
    [("N", 2.5, "segment count N"), ("N", "2", "segment count N"),
     ("N", None, "segment count N"), ("lambda", "a", "schedule.lambda"),
     ("tau", [1.0], "schedule.tau"),
     ("smearing", {"kind": "spherical_gaussian", "sigma": "x"}, "smearing.sigma"),
     ("smearing", {"sigma": 1.0}, "missing field 'kind'"),
     ("switching", {"kind": "custom", "t": "ab", "eta": [1.0, 1.0]}, "switching.t"),
     ("N", True, "segment count N"),
     ("smearing", {"kind": "bogoliubov_weighted", "base": 5, "m_B": 1.0, "g_rho0": 1.0},
      "^smearing must be an object, got 5$"),
     ("switching", {"kind": "gaussian", "center": 0.5, "width": 0.2, "relative": "false"},
      "switching.relative")],
)
def test_schedule_from_dict_names_the_bad_field(field, value, named):
    # N reaches PulseSchedule unconverted, so 2.5 is refused rather than read as 2
    doc = schedule_to_dict(canonical())
    doc[field] = value
    with pytest.raises(ValidationError, match=named):
        schedule_from_dict(doc)
    del doc[field]
    with pytest.raises(ValidationError, match=f"missing field '{field}'"):
        schedule_from_dict(doc)
