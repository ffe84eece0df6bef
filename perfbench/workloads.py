"""The four benchmark workloads: inputs, one pass, and the checks on a pass.

A workload builds its inputs once from the run seed (`build`), then runs
passes. A pass is one full pipeline instance; it is a list of named
operations, and `Pass.op` records an operation that raises instead of
letting it end the run. `check` looks at a pass's outputs after the pass
has been timed and returns one verdict per operation: None when it is
correct, otherwise the reason it is not. Every tolerance below is one of the
repository's own test gates, cited where it is used.

The library receives only the generated inputs; nothing here changes how
chitomo computes. Library functions are looked up on their modules at call
time, so that the traced run sees the wrapped versions.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np

import chitomo
import chitomo.cli
from chitomo import bec_analogue, fileio, fock_oracle, pulse_protocol, ramsey_readout, tomography
from chitomo.pulse_protocol import (
    Constant,
    CustomRadial,
    CustomSwitching,
    Delta,
    GaussianWindow,
    PulseSchedule,
    SphericalGaussian,
)

from commands import CLI_COMMANDS, CLI_SMALL, KNOWN_REFUSAL

TWO_PI = 2.0 * math.pi
KNOWN = "known"  # verdict of an operation that fails in the documented way


def pass_seed(seed: int, pass_id: int) -> int:
    """Library seed of one pass: fixed by the run seed and the pass number."""
    return int(np.random.SeedSequence([int(seed), int(pass_id)]).generate_state(1)[0])


class Pass:
    """Outputs and raised errors of one pass, keyed by operation name."""

    def __init__(self) -> None:
        self.out: dict = {}
        self.err: dict[str, str] = {}
        self.info: dict = {}  # measurements that are not operations

    def op(self, name: str, fn, *args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # one failed operation must not end the run
            self.err[name] = f"raised {type(exc).__name__}: {exc}"
            value = None
        self.out[name] = value
        return value


def _single_mode(state) -> chitomo.GaussianFieldState:
    modes = chitomo.ModeSet(spatial_dim=1, box_side=TWO_PI, mass=1.0, mode_indices=[[1]])
    return chitomo.GaussianFieldState(modes=modes, mode_states=[state])


def _edge_stderr(grid) -> float:
    worst = 0.0
    for d in range(grid.stderr.ndim):
        for edge in (0, -1):
            face = [slice(None)] * grid.stderr.ndim
            face[d] = edge
            worst = max(worst, float(np.max(grid.stderr[tuple(face)])))
    return worst


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --------------------------------------------------------------------------
# sampled_1mode

class Sampled1Mode:
    name = "sampled_1mode"
    # criterion 7: fitted nbar within 0.05 of 1
    NBAR_TOL = 0.05
    # moment (1,1) of thermal n=1 is 1.5; the check allows 3 of its error bars
    M11, M11_PULLS = 1.5, 3.0
    # wigner_transform gets 5 x the largest edge stderr as its boundary tolerance,
    # the sampled-grid counterpart of test_wigner_from_sampled_half_grid
    EDGE_K = 5.0

    SHOTS = 100_000

    @staticmethod
    def _grid(small: bool) -> tuple[float, int]:
        # the reduced size is criterion 7's own sampled loop: 21x21 at extent 2
        return (2.0, 21) if small else (2.5, 101)

    def size(self, small: bool) -> dict:
        extent, points = self._grid(small)
        return {"state": "thermal n=1, one mode", "grid": f"{points}x{points} half-space",
                "extent": extent, "measured_points": (points * points + 1) // 2,
                "shots_per_basis": self.SHOTS}

    def build(self, seed: int, small: bool, workdir: str) -> dict:
        extent, points = self._grid(small)
        axis = tomography.grid_axis(extent, points)
        return {
            "seed": seed,
            "state": _single_mode(chitomo.Thermal(n=1.0)),
            "axes": (axis, axis),
            "measured": (points * points + 1) // 2,
            "path": os.path.join(workdir, "sampled_1mode_chi.csv"),
        }

    def run_pass(self, inp: dict, pass_id: int, ctx) -> Pass:
        p = Pass()
        grid = p.op("sampled_chi_grid", chitomo.sampled_chi_grid, inp["state"], inp["axes"],
                    shots=self.SHOTS, seed=pass_seed(inp["seed"], pass_id), half=True)
        filled = p.op("hermitian_fill", chitomo.hermitian_fill, grid)
        p.op("gaussian_fit", chitomo.gaussian_fit, filled)
        with warnings.catch_warnings():
            # (2,0) of a thermal state is 0, below its error bar by design
            warnings.simplefilter("ignore")
            p.op("moments_fd_11", chitomo.moments_fd, filled, 0, 1, 1, with_error=True)
            p.op("moments_fd_20", chitomo.moments_fd, filled, 0, 2, 0, with_error=True)
        tol = None if filled is None else self.EDGE_K * _edge_stderr(filled)
        p.op("wigner_transform", chitomo.wigner_transform, filled, boundary_tol=tol)
        p.op("save_chi_grid", fileio.save_chi_grid, grid, inp["path"])
        p.op("load_chi_grid", fileio.load_chi_grid, inp["path"])
        return p

    def check(self, inp: dict, p: Pass, first: Pass) -> dict:
        o = p.out
        v: dict = {}
        grid, filled = o["sampled_chi_grid"], o["hermitian_fill"]
        measured = int(np.count_nonzero(~np.isnan(grid.values)))
        v["sampled_chi_grid"] = (
            None if measured == inp["measured"]
            else f"{measured} measured points, expected {inp['measured']}"
        )
        # exact Hermitian symmetry; == rather than bits, as conj flips the sign of a zero
        rev = filled.values[::-1, ::-1].conj()
        v["hermitian_fill"] = None if np.array_equal(filled.values, rev) else "not Hermitian"
        fit = o["gaussian_fit"]
        gap = abs(fit.nbar[0] - 1.0)
        v["gaussian_fit"] = (
            None if gap <= self.NBAR_TOL and fit.psd_ok
            else f"nbar {fit.nbar[0]:.4f} (tol {self.NBAR_TOL}), psd_ok {fit.psd_ok}"
        )
        value, err = o["moments_fd_11"]
        v["moments_fd_11"] = (
            None if abs(value - self.M11) <= self.M11_PULLS * err
            else f"<[a+ a]_S> = {value:.4f} +- {err:.4f}, expected {self.M11}"
        )
        v["moments_fd_20"] = None
        v["wigner_transform"] = None
        v["save_chi_grid"] = None
        back = o["load_chi_grid"]
        same = (
            all(_same_bits(a, b) for a, b in zip(back.axes, grid.axes))
            and _same_bits(back.values, grid.values)
            and _same_bits(back.stderr, grid.stderr)
        )
        v["load_chi_grid"] = None if same else "load_chi_grid is not bit-identical to the saved grid"
        return v


# --------------------------------------------------------------------------
# exact_2mode

class Exact2Mode:
    name = "exact_2mode"
    EXTENT, POINTS = 7.0, 33
    ORDERS = ((1, 1), (2, 0))
    # criterion 7: exact fit covariance within 1e-8
    FIT_TOL = 1e-8
    # test_wigner_vacuum_profile: grid integral within 2% of the normalization
    INTEGRAL_RTOL = 0.02
    # test_transform_roundtrip: |chi back - chi| < 1e-4 where |coordinate| <= extent/2
    ROUNDTRIP_TOL = 1e-4
    # FD moments at h = 2 steps = 0.875 with Richardson extrapolation: the
    # leading truncation term is O(h^4); the largest deviation from
    # moments_analytic on this grid is 0.0194 (mode 0, order (1,1)), so the
    # stated tolerance is 0.03
    FD_TOL = 0.03

    def size(self, small: bool) -> dict:
        cells = self.POINTS**4
        return {"state": "thermal n=0.5 x squeezed r=0.3 theta=0.4",
                "grid": f"{self.POINTS}^4 exact", "extent": self.EXTENT, "cells": cells}

    def build(self, seed: int, small: bool, workdir: str) -> dict:
        modes = chitomo.ModeSet(spatial_dim=1, box_side=TWO_PI, mass=1.0,
                                mode_indices=[[1], [2]])
        state = chitomo.GaussianFieldState(
            modes=modes,
            mode_states=[chitomo.Thermal(n=0.5), chitomo.Squeezed(r=0.3, theta=0.4)],
        )
        axes = (tomography.grid_axis(self.EXTENT, self.POINTS),) * 4
        return {
            "state": state,
            "axes": axes,
            "cov": [chitomo.covariance(state, m) for m in range(2)],
            "moments": {(m, p, q): chitomo.moments_analytic(state, m, p, q)
                        for m in range(2) for p, q in self.ORDERS},
        }

    def run_pass(self, inp: dict, pass_id: int, ctx) -> Pass:
        p = Pass()
        chi = p.op("chi_grid_from_state", chitomo.chi_grid_from_state, inp["state"], inp["axes"])
        w = p.op("wigner_transform", chitomo.wigner_transform, chi)
        p.op("inverse_wigner_transform", tomography.inverse_wigner_transform, w)
        p.op("gaussian_fit", chitomo.gaussian_fit, chi)
        p.op("hermitian_fill", chitomo.hermitian_fill, chi)
        for m in range(2):
            for a, b in self.ORDERS:
                p.op(f"moments_fd_{m}_{a}{b}", chitomo.moments_fd, chi, m, a, b)
        return p

    def check(self, inp: dict, p: Pass, first: Pass) -> dict:
        o = p.out
        chi = o["chi_grid_from_state"]
        v: dict = {}
        v["chi_grid_from_state"] = None if chi.origin_value == 1.0 else "chi(0) != 1"
        w = o["wigner_transform"]
        rel = abs(tomography.grid_integral(w) / w.normalization - 1.0)
        v["wigner_transform"] = (
            None if rel <= self.INTEGRAL_RTOL
            else f"grid integral off its normalization by {rel:.2e} (tol {self.INTEGRAL_RTOL})"
        )
        mesh = np.meshgrid(*chi.axes, indexing="ij", sparse=True)
        interior = np.ones(chi.values.shape, dtype=bool)
        for c in mesh:
            interior = interior & (np.abs(c) <= self.EXTENT / 2.0)
        gap = float(np.max(np.abs(o["inverse_wigner_transform"].values - chi.values)[interior]))
        v["inverse_wigner_transform"] = (
            None if gap < self.ROUNDTRIP_TOL
            else f"round trip off by {gap:.2e} (tol {self.ROUNDTRIP_TOL})"
        )
        fit = o["gaussian_fit"]
        gap = max(float(np.max(np.abs(fit.mode_block(m) - inp["cov"][m]))) for m in range(2))
        v["gaussian_fit"] = (
            None if gap <= self.FIT_TOL else f"covariance off by {gap:.2e} (tol {self.FIT_TOL})"
        )
        v["hermitian_fill"] = (
            None if _same_bits(o["hermitian_fill"].values, chi.values)
            else "hermitian_fill changed an exact grid"
        )
        for (m, a, b), want in inp["moments"].items():
            got = o[f"moments_fd_{m}_{a}{b}"]
            v[f"moments_fd_{m}_{a}{b}"] = (
                None if abs(got - want) <= self.FD_TOL
                else f"mode {m} ({a},{b}): {got:.4f} vs {want:.4f} (tol {self.FD_TOL})"
            )
        return v


# --------------------------------------------------------------------------
# displacement_oracle

class DisplacementOracle:
    name = "displacement_oracle"
    N_LIST = (1, 4, 5, 6, 7, 8, 9, 10)
    TAU_POINTS = 315
    LAM = 0.25
    MODE = (1.0, 1.0, TWO_PI, 1)  # k, omega, L, spatial dimension
    SCAN_CURVE = 1  # index into N_LIST of the curve the readout scan follows
    # criterion 6: |xi| at tau = m pi / (N omega) and at 2 pi / omega below 1e-10
    ZERO_TOL = 1e-10

    def size(self, small: bool) -> dict:
        draws = 3 if small else 20
        return {"manifold": f"{len(self.N_LIST)} N x {self.TAU_POINTS} tau x 3 profile pairs",
                "readout": f"{self.TAU_POINTS} points at 10^4 shots",
                "bec_modes": 342, "oracle": f"n_draws={draws}, D=40"}

    def build(self, seed: int, small: bool, workdir: str) -> dict:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), 7])))
        r = np.linspace(0.0, 2.0, 65)
        f = np.exp(-((r / 0.5) ** 2)) * (1.0 + 0.2 * rng.uniform(size=r.size))
        t = np.linspace(0.0, TWO_PI, 129)
        eta = np.sin(0.5 * t) ** 2 * (1.0 + 0.2 * rng.uniform(size=t.size))
        pairs = [
            (Delta(), Constant(1.0)),
            (SphericalGaussian(sigma=0.3), GaussianWindow(center=0.5, width=0.25, relative=True)),
            (CustomRadial(r=tuple(r), f=tuple(f)), CustomSwitching(t=tuple(t), eta=tuple(eta))),
        ]
        templates = [PulseSchedule(lam=self.LAM, tau=1.0, N=1, smearing=s, switching=w)
                     for s, w in pairs]
        zeros = {
            N: sorted({m * math.pi / N for m in range(1, 2 * N) if m != N} | {TWO_PI})
            for N in self.N_LIST
        }
        box = [(a, b, c) for a in range(-3, 4) for b in range(-3, 4) for c in range(-3, 4)
               if (a, b, c) != (0, 0, 0)]
        defaults = chitomo.cli._DEFAULTS["bec-map"]["bec"]
        return {
            "seed": seed,
            "templates": templates,
            "taus": np.linspace(0.02, TWO_PI, self.TAU_POINTS),
            "zeros": zeros,
            "state": _single_mode(chitomo.Thermal(n=1.0)),
            "box": chitomo.ModeSet(spatial_dim=3, box_side=TWO_PI, mass=0.0, mode_indices=box),
            "bec": bec_analogue.BecParams(**defaults),
            "bec_template": PulseSchedule(lam=0.01, tau=1.0, N=1, smearing=Delta(),
                                          switching=Constant(1.0)),
            "n_draws": 3 if small else 20,
        }

    def run_pass(self, inp: dict, pass_id: int, ctx) -> Pass:
        p = Pass()
        k, omega, L, n = self.MODE
        for i, sched in enumerate(inp["templates"]):
            p.op(f"reachable_manifold_{i}", pulse_protocol.reachable_manifold,
                 sched, list(self.N_LIST), inp["taus"], k, omega, L, n)
            p.op(f"manifold_zeros_{i}", lambda s=sched: [
                pulse_protocol.reachable_manifold(s, [N], taus, k, omega, L, n)[0]
                for N, taus in inp["zeros"].items()
            ])
        curves = p.out["reachable_manifold_0"]
        points = None if curves is None else [[xi] for xi in curves[self.SCAN_CURVE].xis]
        p.op("run_readout_scan", ramsey_readout.run_readout_scan, inp["state"], points,
             theta=math.pi / 2, shots=10_000, seed=pass_seed(inp["seed"], pass_id))
        mapped = p.op("map_to_protocol", bec_analogue.map_to_protocol, inp["bec"], inp["box"],
                      inp["bec_template"])
        p.op("displacements", lambda: mapped.displacements())
        p.op("run_default_suite", fock_oracle.run_default_suite, n_draws=inp["n_draws"], D=40,
             seed=pass_seed(inp["seed"], pass_id))
        return p

    def check(self, inp: dict, p: Pass, first: Pass) -> dict:
        o = p.out
        v: dict = {}
        for i in range(len(inp["templates"])):
            curves = o[f"reachable_manifold_{i}"]
            ok = len(curves) == len(self.N_LIST) and all(
                c.xis.shape == (self.TAU_POINTS,) and np.all(np.isfinite(c.xis)) for c in curves
            )
            v[f"reachable_manifold_{i}"] = None if ok else "manifold has missing or non-finite xi"
            worst = max(float(np.max(np.abs(c.xis))) for c in o[f"manifold_zeros_{i}"])
            v[f"manifold_zeros_{i}"] = (
                None if worst <= self.ZERO_TOL
                else f"|xi| = {worst:.2e} at a manifold zero (tol {self.ZERO_TOL})"
            )
        records = o["run_readout_scan"]
        ok = len(records) == self.TAU_POINTS and all(np.isfinite(r.chi_est) for r in records)
        v["run_readout_scan"] = None if ok else "readout records missing or non-finite"
        v["map_to_protocol"] = None
        xis = o["displacements"]
        v["displacements"] = (
            None if xis.shape == (inp["box"].n_modes,) and np.all(np.isfinite(xis))
            else "mapped displacements missing or non-finite"
        )
        failed = [r["check"] for r in o["run_default_suite"] if not r["passed"]]
        v["run_default_suite"] = None if not failed else f"oracle checks failed: {failed}"
        return v


# --------------------------------------------------------------------------
# cli_defaults

class CliDefaults:
    name = "cli_defaults"

    def size(self, small: bool) -> dict:
        return {"invocations": len(CLI_COMMANDS),
                "grid": "33^2 (reduced)" if small else "129^2 defaults"}

    def build(self, seed: int, small: bool, workdir: str) -> dict:
        commands = []
        for name, argv, out in CLI_COMMANDS:
            extra = CLI_SMALL.get(name, []) if small else []
            commands.append((name, argv + extra + ["--out", out], out))
        return {"commands": commands, "workdir": workdir}

    def run_pass(self, inp: dict, pass_id: int, ctx) -> Pass:
        p = Pass()
        walls = {}
        for name, argv, out in inp["commands"]:
            path = os.path.join(inp["workdir"], out)
            if os.path.exists(path):
                os.remove(path)
            t0 = time.perf_counter()
            if ctx.rec is None:
                res = p.op(name, _run_cli, [sys.executable, "-m", "chitomo.cli", *argv],
                           inp["workdir"], ctx.deadline)
            else:
                res = p.op(name, ctx.traced_cli, name, argv, inp["workdir"])
            walls[name] = time.perf_counter() - t0
            if res is not None and os.path.exists(path):
                with open(path, "rb") as fh:
                    res["bytes"] = fh.read()
            ctx.tick()
        p.info["walls"] = walls
        p.info["nonzero_exits"] = sum(
            1 for res in p.out.values() if res is not None and res["code"] != 0
        )
        return p

    def check(self, inp: dict, p: Pass, first: Pass) -> dict:
        v: dict = {}
        for name, _argv, out in inp["commands"]:
            res = p.out[name]
            if res is None:  # raised; the error is this operation's verdict
                continue
            code, stderr = res["code"], res["stderr"]
            if (name, code) == KNOWN_REFUSAL[:2] and KNOWN_REFUSAL[2] in stderr:
                v[name] = KNOWN if "bytes" not in res else "refused but wrote an output file"
                continue
            if code != 0:
                v[name] = f"exit {code}: {stderr.strip()[-200:]}"
                continue
            if "bytes" not in res:
                v[name] = "no output file"
                continue
            path = os.path.join(inp["workdir"], out)
            try:
                if out.endswith(".json"):
                    fileio.read_json(path)
                else:
                    fileio.read_table(path)
            except Exception as exc:  # a parse failure is this operation's verdict
                v[name] = f"output does not parse: {exc}"
                continue
            ref = first.out[name]
            v[name] = (
                None if ref is not None and ref.get("bytes") == res["bytes"]
                else "output bytes differ from the first pass"
            )
        return v


def _run_cli(argv: list, cwd: str, deadline: float) -> dict:
    proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    return {"code": proc.returncode, "stderr": proc.stderr}


WORKLOADS = {w.name: w for w in (Sampled1Mode(), Exact2Mode(), DisplacementOracle(), CliDefaults())}
