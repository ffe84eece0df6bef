"""Acceptance gate: one test per release criterion, each printing a verdict.

Every test computes its check at the advertised tolerance, prints a single
PASS/FAIL line with the measured numbers, and then asserts. Nothing here is
a unit test; the per-module files cover those. This file is the contract.
"""
from __future__ import annotations

import math
import time

import numpy as np

from chitomo.fock_oracle import (
    FieldMode,
    chi_fock,
    joint_bloch_oracle,
    run_displacement_draws,
)
from chitomo.gaussian_field import (
    GaussianFieldState,
    ModeSet,
    Squeezed,
    Thermal,
    Vacuum,
    char_analytic,
)
from chitomo.pulse_protocol import (
    Constant,
    Delta,
    PulseSchedule,
    displacement_param,
    reachable_manifold,
    smearing_ft,
    switching_integral,
)
from chitomo.ramsey_readout import (
    bloch_expectation,
    estimate_chi,
    final_qubit_state,
    required_shots,
    sample_shots,
    shot_rng,
)
from chitomo.tomography import (
    gaussian_fit,
    grid_axis,
    chi_grid_from_state,
    hermitian_fill,
    moments_fd,
    sampled_chi_grid,
    wigner_transform,
)

MODE = FieldMode(k=1.0, omega=1.0, box_side=2.0 * math.pi, spatial_dim=1)


def single_mode(mode_state) -> GaussianFieldState:
    return GaussianFieldState(
        modes=ModeSet(spatial_dim=1, box_side=2.0 * math.pi, mass=1.0, mode_indices=[[1]]),
        mode_states=[mode_state],
    )


def two_mode(a, b) -> GaussianFieldState:
    return GaussianFieldState(
        modes=ModeSet(
            spatial_dim=1, box_side=2.0 * math.pi, mass=1.0, mode_indices=[[1], [2]]
        ),
        mode_states=[a, b],
    )


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def wigner_variances(w) -> tuple[float, ...]:
    cell = math.prod(float(a[1] - a[0]) for a in w.axes)
    mesh = np.meshgrid(*w.axes, indexing="ij")
    total = float(np.sum(w.values)) * cell
    return tuple(float(np.sum(w.values * m**2)) * cell / total for m in mesh)


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    reports = run_displacement_draws(100, D=40, seed=11)
    elapsed = time.perf_counter() - t0
    defect = max(r["defect"] for r in reports)
    residual = max(r["residual"] for r in reports)
    ok = (
        len(reports) == 100
        and all(r["passed"] for r in reports)
        and defect <= 1e-5
        and residual <= 1e-6
        and elapsed < 60.0
    )
    verdict(
        1,
        "closed form vs Fock oracle",
        ok,
        f"100 draws, max |xi_c - xi_f| = {defect:.2e} (tol 1e-05), "
        f"max residual = {residual:.2e} (tol 1e-06), {elapsed:.1f} s",
    )


def test_criterion_2_maximum_displacement_law():
    base = PulseSchedule(
        lam=0.01, tau=math.pi, N=1, smearing=Delta(), switching=Constant(1.0)
    )
    eta = switching_integral(base.switching, base.tau, MODE.omega, MODE.box_side, 1)
    target = 8.0 * base.lam * eta * abs(smearing_ft(base.smearing, MODE.k, 1)) / math.pi
    per_n = []
    for N in range(1, 11):
        sched = PulseSchedule(
            lam=base.lam, tau=base.tau, N=N, smearing=base.smearing, switching=base.switching
        )
        per_n.append(abs(MODE.closed_form_xi(sched)) / N)
    spread = max(per_n) - min(per_n)
    gap = max(abs(v - target) for v in per_n)
    ok = spread <= 1e-12 and gap <= 1e-12
    verdict(
        2,
        "peak displacement linear in N",
        ok,
        f"|xi(N)|/N spread = {spread:.2e}, |.| - 8 lam eta |F| / pi = {gap:.2e} "
        f"(tol 1e-12, N = 1..10 at tau = pi)",
    )


def test_criterion_3_qubit_encoding_identity():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2026)))
    worst = 0.0
    for _ in range(1000):
        theta = float(rng.uniform(0.0, math.pi))
        while abs(math.sin(theta)) < 0.1:
            theta = float(rng.uniform(0.0, math.pi))
        re, im = rng.uniform(-1.0, 1.0, size=2)
        while re * re + im * im > 1.0:
            re, im = rng.uniform(-1.0, 1.0, size=2)
        chi = complex(re, im)
        qs = final_qubit_state(theta, chi)
        est = estimate_chi(
            bloch_expectation(qs, "x"), bloch_expectation(qs, "y"), theta
        )
        worst = max(worst, abs(est - chi))

    joint_worst = 0.0
    for _ in range(20):
        kind = rng.integers(0, 2)
        state = single_mode(
            Thermal(n=float(rng.uniform(0.1, 1.5)))
            if kind == 0
            else Squeezed(r=float(rng.uniform(0.05, 0.5)), theta=float(rng.uniform(0.0, 2.0 * math.pi)))
        )
        sched = PulseSchedule(
            lam=float(rng.uniform(0.005, 0.02)),
            tau=float(rng.uniform(0.3, 6.0)),
            N=int(rng.integers(1, 5)),
            smearing=Delta(),
            switching=Constant(1.0),
        )
        theta = float(rng.uniform(0.2, math.pi - 0.2))
        got = joint_bloch_oracle(state, sched, MODE, theta, D=60)
        qs = final_qubit_state(theta, char_analytic(state, MODE.closed_form_xi(sched)))
        want = tuple(bloch_expectation(qs, b) for b in ("x", "y", "z"))
        joint_worst = max(joint_worst, max(abs(g - w) for g, w in zip(got, want)))

    ok = worst <= 1e-12 and joint_worst <= 1e-6
    verdict(
        3,
        "chi in the qubit coherences",
        ok,
        f"1000 exact round trips, worst |est - chi| = {worst:.2e} (tol 1e-12); "
        f"20 joint-space draws at D = 60, worst Bloch gap = {joint_worst:.2e} (tol 1e-06)",
    )


def test_criterion_4_hermitian_symmetry_and_normalization():
    states = {
        "vacuum": single_mode(Vacuum()),
        "thermal": single_mode(Thermal(n=1.0)),
        "squeezed": single_mode(Squeezed(r=1.0, theta=0.7)),
        "squeezed tilted": single_mode(Squeezed(r=0.4, theta=4.0)),
        "two-mode": two_mode(Thermal(n=0.5), Squeezed(r=0.5, theta=0.3)),
    }
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
    origin_exact = True
    worst = 0.0
    for state in states.values():
        n = state.n_modes
        zero = np.zeros(n, dtype=complex) if n > 1 else 0.0 + 0.0j
        origin_exact &= char_analytic(state, zero) == 1.0 + 0.0j
        for _ in range(50):
            xi = rng.normal(0.0, 0.7, size=n) + 1j * rng.normal(0.0, 0.7, size=n)
            xi = xi if n > 1 else complex(xi[0])
            gap = abs(char_analytic(state, -xi) - np.conj(char_analytic(state, xi)))
            worst = max(worst, gap)
    ok = origin_exact and worst <= 1e-12
    verdict(
        4,
        "chi(0) = 1 and conjugate symmetry",
        ok,
        f"chi(0) == 1 exactly on {len(states)} states: {origin_exact}; "
        f"worst |chi(-xi) - conj chi(xi)| = {worst:.2e} (tol 1e-12, 50 draws each)",
    )


def test_criterion_5_shot_noise_scaling():
    state = single_mode(Thermal(n=1.0))
    truth = char_analytic(state, 0.5 + 0.0j)
    theta = math.pi / 2
    qs = final_qubit_state(theta, truth)
    shot_counts = [1_000, 10_000, 100_000]
    rmse = []
    for mi, M in enumerate(shot_counts):
        sq = 0.0
        for rep in range(200):
            rec_x = sample_shots(qs, "x", M, shot_rng(777, mi, rep, 0))
            rec_y = sample_shots(qs, "y", M, shot_rng(777, mi, rep, 1))
            sq += abs(estimate_chi(rec_x, rec_y, theta) - truth) ** 2
        rmse.append(math.sqrt(sq / 200))
    slope = float(np.polyfit(np.log(shot_counts), np.log(rmse), 1)[0])

    ratios = (
        required_shots(0.05) / required_shots(0.1),
        required_shots(0.01) / required_shots(0.02),
    )
    ok = abs(slope + 0.5) <= 0.1 and ratios == (4.0, 4.0)
    verdict(
        5,
        "error scales as 1/sqrt(M)",
        ok,
        f"log-log RMSE slope = {slope:+.3f} (target -0.5 +- 0.1, 200 repeats); "
        f"required_shots ratio at half precision = {ratios} (exactly 4)",
    )


def test_criterion_6_manifold_zeros_and_decay():
    template = PulseSchedule(
        lam=0.01, tau=1.0, N=1, smearing=Delta(), switching=Constant(1.0)
    )
    worst_zero = 0.0
    worst_closure = 0.0
    for N in (2, 3, 4, 5):
        taus = sorted(
            {m * math.pi / N for m in range(1, 2 * N) if m != N} | {2.0 * math.pi}
        )
        (curve,) = reachable_manifold(
            template, [N], taus, MODE.k, MODE.omega, MODE.box_side, 1
        )
        worst_closure = max(worst_closure, abs(curve.xis[-1]))
        worst_zero = max(worst_zero, float(np.max(np.abs(curve.xis[:-1]))))

    thermal = single_mode(Thermal(n=1.0))
    taus = np.linspace(0.05, 2.0 * math.pi, 400)
    (curve,) = reachable_manifold(
        template, [1], taus, MODE.k, MODE.omega, MODE.box_side, 1
    )
    chis = np.array([char_analytic(thermal, xi) for xi in curve.xis])
    order = np.argsort(np.abs(curve.xis))
    decreasing = bool(np.all(np.diff(chis.real[order]) <= 1e-12))
    peak_at_origin = (
        abs(char_analytic(thermal, 0j) - 1.0) == 0.0 and np.max(chis.real) <= 1.0
    )
    ok = worst_zero <= 1e-10 and worst_closure <= 1e-10 and decreasing and peak_at_origin
    verdict(
        6,
        "manifold closures and thermal decay",
        ok,
        f"worst |xi| at tau = m pi / N: {worst_zero:.2e}, at tau = 2 pi: "
        f"{worst_closure:.2e} (tol 1e-10); chi along the N = 1 loop peaks at 1 "
        f"and decays monotonically in |xi|: {decreasing}",
    )


def test_criterion_7_tomography_loop():
    thermal = single_mode(Thermal(n=1.0))

    exact = chi_grid_from_state(thermal, (grid_axis(2.5, 81), grid_axis(2.5, 81)))
    fit = gaussian_fit(exact)
    fit_gap = float(np.max(np.abs(fit.covariance - 3.0 * np.eye(2))))

    recovered = []
    axes = (grid_axis(2.0, 21), grid_axis(2.0, 21))
    for seed in range(20):
        grid = sampled_chi_grid(
            thermal, axes, theta=math.pi / 2, shots=100_000, seed=seed, half=True
        )
        recovered.append(gaussian_fit(hermitian_fill(grid)).nbar[0])
    n_gap = max(abs(n - 1.0) for n in recovered)

    moment = moments_fd(thermal, 0, 1, 1)
    moment_gap = abs(moment - 1.5)

    w_vac = wigner_transform(
        chi_grid_from_state(single_mode(Vacuum()), (grid_axis(6.0, 129),) * 2),
        alpha_axes=(grid_axis(4.0, 129),) * 2,
    )
    w_th = wigner_transform(
        chi_grid_from_state(thermal, (grid_axis(4.0, 129),) * 2),
        alpha_axes=(grid_axis(4.0, 129),) * 2,
    )
    thermal_ratio = wigner_variances(w_th)[0] / wigner_variances(w_vac)[0]

    squeezed = single_mode(Squeezed(r=1.0, theta=0.0))
    w_sq = wigner_transform(
        chi_grid_from_state(squeezed, (grid_axis(2.5, 201), grid_axis(18.0, 361))),
        alpha_axes=(grid_axis(8.0, 161), grid_axis(3.0, 121)),
    )
    vx, vp = wigner_variances(w_sq)
    sq_ratio = vx / vp

    ok = (
        fit_gap <= 1e-8
        and n_gap <= 0.05
        and moment_gap <= 1e-3
        and abs(thermal_ratio - 3.0) <= 3e-3
        and abs(sq_ratio - math.exp(4.0)) <= 1e-3 * math.exp(4.0)
    )
    verdict(
        7,
        "grid to state round trip",
        ok,
        f"exact fit |V - diag(3,3)| = {fit_gap:.2e} (tol 1e-08); sampled n within "
        f"{n_gap:.3f} of 1 over 20 seeds (tol 0.05); <[a+ a]_S> = 1.5 +- "
        f"{moment_gap:.2e} (tol 1e-03); Wigner variance ratios {thermal_ratio:.4f} "
        f"(2n+1 = 3) and {sq_ratio:.2f} (e^4 = {math.exp(4.0):.2f}), both to 1e-03 rel",
    )


def test_criterion_8_squeezed_sign_convention():
    squeezed = single_mode(Squeezed(r=1.0, theta=0.0))
    # same-convention targets and the opposite-sign impostors, both exact
    probes = {0.5 + 0.0j: 0.39707424035439476, 0.5j: 0.9832253770397565}
    pin_gap = 0.0
    cross_gap = math.inf
    for xi, want in probes.items():
        got = chi_fock(squeezed, xi, D=160)
        pin_gap = max(pin_gap, abs(got - want))
        other = probes[0.5j if xi == 0.5 else 0.5 + 0.0j]
        cross_gap = min(cross_gap, abs(got - other))

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(8)))
    worst = 0.0
    tilted = single_mode(Squeezed(r=1.0, theta=0.7))
    for _ in range(10):
        r = math.sqrt(float(rng.uniform(0.0, 1.0)))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        xi = r * complex(math.cos(phase), math.sin(phase))
        for state in (squeezed, tilted):
            gap = abs(chi_fock(state, xi, D=160) - char_analytic(state, xi))
            worst = max(worst, gap)

    ok = pin_gap <= 1e-8 and cross_gap > 0.5 and worst <= 1e-8
    verdict(
        8,
        "squeezed-state sign fixed by the oracle",
        ok,
        f"frozen probes match to {pin_gap:.2e} (tol 1e-08) and reject the flipped "
        f"sign by {cross_gap:.2f} (> 0.5); analytic vs oracle on |xi| <= 1: "
        f"worst gap {worst:.2e} (tol 1e-08, D = 160)",
    )
