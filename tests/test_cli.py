"""End-to-end command-line runs, exit codes, and output determinism."""
from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from chitomo.cli import main
from chitomo.fileio import _save_grid, load_chi_grid, load_wigner_grid, read_json, read_table
from chitomo.fock_oracle import FieldMode
from chitomo.gaussian_field import (
    GaussianFieldState,
    ModeSet,
    Squeezed,
    SqueezedThermal,
    Thermal,
    Vacuum,
    char_analytic,
    char_points,
    state_to_dict,
)
from chitomo.pulse_protocol import PulseSchedule, displacement_param, schedule_from_dict
from chitomo.tomography import chi_grid_from_state, grid_axis, hermitian_fill, moments_fd

THERMAL_MODES = '[{"j": [1], "kind": "thermal", "params": {"n": 1.0}}]'
# the fields of a Bogoliubov-weighted smearing without its optional sign
_WEIGHTED = '"kind": "bogoliubov_weighted", "base": {"kind": "delta"}, "m_B": 1.0, "g_rho0": 1.0'


def run(*argv):
    return main(list(argv))


def data_lines(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


# ---------------------------------------------------------------- manifold

def test_manifold_writes_curves(tmp_path):
    out = tmp_path / "manifold.csv"
    assert run("manifold", "--out", str(out)) == 0
    columns, rows, meta = read_table(out)
    assert columns == ["N", "tau", "re_xi", "im_xi"]
    assert meta["command"] == "manifold"
    assert meta["config"]["schedule"]["lambda"] == 0.01
    # default grid ends at tau = 2 pi where every curve closes
    by_n = {}
    for N, tau, re, im in rows:
        by_n.setdefault(N, []).append((tau, complex(re, im)))
    assert set(by_n) == {1, 4, 5, 6, 7, 8, 9, 10}
    for pts in by_n.values():
        assert abs(pts[-1][1]) < 1e-12


def test_manifold_scales_linearly_with_coupling(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("manifold", "--out", str(a)) == 0
    assert run("manifold", "--set", "schedule.lambda=0.02", "--out", str(b)) == 0
    _, rows_a, _ = read_table(a)
    _, rows_b, _ = read_table(b)
    for ra, rb in zip(rows_a, rows_b):
        assert rb[2] == 2.0 * ra[2]
        assert rb[3] == 2.0 * ra[3]


def test_manifold_rejects_bad_schedule(tmp_path):
    out = tmp_path / "x.csv"
    assert run("manifold", "--set", "schedule.N=0", "--out", str(out)) == 1
    assert not out.exists()


def test_manifold_rejects_non_integer_N(tmp_path):
    out = tmp_path / "x.csv"
    assert run("manifold", "--set", "N_list=[2.5]", "--out", str(out)) == 1
    assert not out.exists()


# ---------------------------------------------------------------- chi-scan

def test_chi_scan_exact_grid_matches_library(tmp_path):
    out = tmp_path / "chi.csv"
    code = run(
        "chi-scan",
        "--set", f"state.modes={THERMAL_MODES}",
        "--set", "grid.extent=4.0", "--set", "grid.points=41",
        "--out", str(out),
    )
    assert code == 0
    grid = load_chi_grid(out)
    state = GaussianFieldState(
        modes=ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=1.0, mode_indices=[[1]]),
        mode_states=[Thermal(n=1.0)],
    )
    want = chi_grid_from_state(state, (grid_axis(4.0, 41), grid_axis(4.0, 41)))
    np.testing.assert_array_equal(grid.values, want.values)
    mid = grid.values.shape[0] // 2
    assert grid.values[mid, mid] == 1.0


def test_chi_scan_outputs_are_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("chi-scan", "--set", "grid.points=11", "--shots", "200", "--seed", "7")
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert data_lines(a) == data_lines(b)


def test_sampled_outputs_are_byte_identical_on_rerun(tmp_path, monkeypatch):
    cases = {
        "simulate": ("simulate", "--set", "points=[[0.2, 0.0], [0.0, 0.4]]",
                     "--shots", "300", "--seed", "9"),
        "wigner": ("wigner", "--set", "grid.points=21", "--set", "boundary_tol=1.0",
                   "--shots", "300", "--seed", "9"),
        "oracle-check": ("oracle-check", "--set", "n_draws=3"),
    }
    # each rerun writes the same relative path from its own directory, so the
    # recorded config, headers included, is the same too
    for name, args in cases.items():
        for side in ("a", "b"):
            (tmp_path / side).mkdir(exist_ok=True)
            monkeypatch.chdir(tmp_path / side)
            assert run(*args, "--out", f"{name}.out") == 0
        assert (tmp_path / "a" / f"{name}.out").read_bytes() == (
            tmp_path / "b" / f"{name}.out"
        ).read_bytes()


def test_chi_scan_sampled_errors_cover_truth(tmp_path):
    out = tmp_path / "chi.csv"
    code = run(
        "chi-scan",
        "--set", f"state.modes={THERMAL_MODES}",
        "--set", "grid.extent=2.0", "--set", "grid.points=21",
        "--shots", "10000", "--seed", "12",
        "--out", str(out),
    )
    assert code == 0
    grid = load_chi_grid(out)
    state = GaussianFieldState(
        modes=ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=1.0, mode_indices=[[1]]),
        mode_states=[Thermal(n=1.0)],
    )
    truth = chi_grid_from_state(state, grid.axes).values
    pulls = np.abs(grid.values - truth) / np.maximum(grid.stderr, 1e-12)
    assert np.mean(pulls <= 3.0) >= 0.99


def test_chi_scan_manifold_mode(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "state": {
            "spatial_dim": 1, "box_side": 2 * math.pi, "mass": 1.0,
            "modes": [{"j": [1], "kind": "thermal", "params": {"n": 1.0}}],
        },
        "manifold": {
            "schedule": {"lambda": 0.01, "tau": 1.0, "N": 1,
                         "smearing": {"kind": "delta"},
                         "switching": {"kind": "constant", "value": 1.0}},
            "N_list": [1, 4],
            "tau": {"min": 0.1, "max": 6.0, "points": 40},
        },
    }))
    out = tmp_path / "scan.csv"
    assert run("chi-scan", "--config", str(cfg), "--out", str(out)) == 0
    columns, rows, _ = read_table(out)
    assert columns == ["N", "tau", "re_xi", "im_xi", "re_chi", "im_chi"]
    assert len(rows) == 80
    state = GaussianFieldState(
        modes=ModeSet(spatial_dim=1, box_side=2 * math.pi, mass=1.0, mode_indices=[[1]]),
        mode_states=[Thermal(n=1.0)],
    )
    for N, tau, re_xi, im_xi, re_chi, im_chi in rows[:10]:
        want = char_analytic(state, complex(re_xi, im_xi))
        assert complex(re_chi, im_chi) == pytest.approx(want, abs=1e-12)


def test_chi_scan_manifold_sampled_writes_stderr(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "state": {
            "spatial_dim": 1, "box_side": 2 * math.pi, "mass": 1.0,
            "modes": [{"j": [1], "kind": "thermal", "params": {"n": 1.0}}],
        },
        "manifold": {
            "schedule": {"lambda": 0.5, "tau": 1.0, "N": 1,
                         "smearing": {"kind": "delta"},
                         "switching": {"kind": "constant", "value": 1.0}},
            "N_list": [1, 4],
            "tau": {"min": 0.1, "max": 6.0, "points": 40},
        },
    }))
    out = tmp_path / "scan.csv"
    args = ("chi-scan", "--config", str(cfg), "--shots", "2000", "--seed", "4")
    assert run(*args, "--out", str(out)) == 0
    columns, rows, _ = read_table(out)
    assert columns == ["N", "tau", "re_xi", "im_xi", "re_chi", "im_chi", "stderr"]
    assert len(rows) == 80
    state = GaussianFieldState(
        modes=ModeSet(spatial_dim=1, box_side=2 * math.pi, mass=1.0, mode_indices=[[1]]),
        mode_states=[Thermal(n=1.0)],
    )
    pulls = []
    for N, tau, re_xi, im_xi, re_chi, im_chi, err in rows:
        assert 0.0 <= err <= math.sqrt(2.0 / 2000) + 1e-12
        want = char_analytic(state, complex(re_xi, im_xi))
        pulls.append(abs(complex(re_chi, im_chi) - want) / max(err, 1e-12))
    assert np.mean(np.array(pulls) <= 3.0) >= 0.95
    again = tmp_path / "again.csv"
    assert run(*args, "--out", str(again)) == 0
    assert data_lines(out) == data_lines(again)


def test_chi_scan_manifold_reads_every_mode_of_the_state(tmp_path):
    # one probe displaces both modes at once: xi columns per mode, chi of the pair
    modes = ModeSet(spatial_dim=1, box_side=2 * math.pi, mass=1.0, mode_indices=[[1], [2]])
    state = GaussianFieldState(modes=modes, mode_states=[Thermal(n=1.0), Squeezed(r=0.3)])
    schedule = {"lambda": 0.5, "tau": 1.0, "N": 1,
                "smearing": {"kind": "spherical_gaussian", "sigma": 0.3},
                "switching": {"kind": "constant", "value": 1.0}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "state": state_to_dict(state),
        "manifold": {"schedule": schedule, "N_list": [1, 4],
                     "tau": {"min": 0.1, "max": 6.0, "points": 40}},
    }))
    out = tmp_path / "scan.csv"
    assert run("chi-scan", "--config", str(cfg), "--out", str(out)) == 0
    columns, rows, _ = read_table(out)
    assert columns == ["N", "tau", "re_xi0", "im_xi0", "re_xi1", "im_xi1", "re_chi", "im_chi"]
    assert len(rows) == 80
    sched = schedule_from_dict(schedule)
    for N, tau, re0, im0, re1, im1, re_chi, im_chi in rows:
        one = PulseSchedule(lam=sched.lam, tau=tau, N=int(N), smearing=sched.smearing,
                            switching=sched.switching)
        xi = []
        for m, (re, im) in enumerate(((re0, im0), (re1, im1))):
            want = displacement_param(one, modes.wavevectors[m], modes.omegas[m],
                                      modes.box_side, modes.spatial_dim)
            assert (re, im) == (want.real, want.imag)  # bitwise, through repr
            xi.append(want)
        chi = char_points(state, np.array([xi]))[0]
        assert (re_chi, im_chi) == (chi.real, chi.imag)
    args = ("chi-scan", "--config", str(cfg), "--shots", "1000", "--seed", "2")
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert run(*args, "--out", str(first)) == 0
    assert run(*args, "--out", str(again)) == 0
    assert read_table(first)[0] == columns + ["stderr"]
    assert data_lines(first) == data_lines(again)


@pytest.mark.parametrize("box", [5.3, 7.1, 3.3])
def test_chi_scan_manifold_xi_is_displacement_param_of_the_wave_vector(tmp_path, box):
    # 728 modes of a 3-D box with |j_i| <= 4: the scan's |k| is the one that
    # displacement_param takes of each mode's wave vector, to the last bit
    idx = [list(j) for j in itertools.product(range(-4, 5), repeat=3) if any(j)]
    modes = ModeSet(spatial_dim=3, box_side=box, mass=0.5, mode_indices=idx)
    state = GaussianFieldState(modes=modes, mode_states=[Vacuum()] * len(idx))
    schedule = {"lambda": 0.5, "tau": 1.0, "N": 1,
                "smearing": {"kind": "spherical_gaussian", "sigma": 0.3},
                "switching": {"kind": "constant", "value": 1.0}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "state": state_to_dict(state),
        "manifold": {"schedule": schedule, "N_list": [3],
                     "tau": {"min": 0.4, "max": 2.3, "points": 2}},
    }))
    out = tmp_path / "scan.csv"
    assert run("chi-scan", "--config", str(cfg), "--out", str(out)) == 0
    _, rows, _ = read_table(out)
    sched = schedule_from_dict(schedule)
    for N, tau, *cells in rows:
        one = PulseSchedule(lam=sched.lam, tau=tau, N=int(N), smearing=sched.smearing,
                            switching=sched.switching)
        want = [displacement_param(one, k, omega, box, 3)
                for k, omega in zip(modes.wavevectors, modes.omegas)]
        got = np.array(cells[:-2]).reshape(-1, 2)
        assert got.tolist() == [[xi.real, xi.imag] for xi in want]


def test_chi_scan_manifold_takes_no_mode_of_its_own(tmp_path, capsys):
    # the scanned modes are the state's; a separate manifold mode is refused
    out = tmp_path / "scan.csv"
    assert run("chi-scan", "--set",
               'manifold={"schedule": {"lambda": 0.01, "tau": 1.0, "N": 1, '
               '"smearing": {"kind": "delta"}, "switching": {"kind": "constant"}}, '
               '"mode": {"k": 1.0, "omega": 1.0, "L": 6.283185307179586, "n": 1}, '
               '"N_list": [1], "tau": {"min": 0.1, "max": 6.0, "points": 5}}',
               "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown field(s) 'mode'" in err
    assert not out.exists()


# ---------------------------------------------------------------- simulate

def test_simulate_records(tmp_path):
    out = tmp_path / "records.csv"
    code = run(
        "simulate",
        "--set", 'points=[[0.2, 0.0], [0.0, 0.4]]',
        "--shots", "500", "--seed", "3",
        "--out", str(out),
    )
    assert code == 0
    columns, rows, meta = read_table(out)
    assert {"re_xi", "im_xi", "est_sx", "est_sy", "re_chi", "im_chi", "M"} <= set(columns)
    assert len(rows) == 2
    assert meta["config"]["shots"] == 500
    row = dict(zip(columns, rows[0]))
    assert row["M"] == 500
    assert abs(complex(row["re_chi"], row["im_chi"])) <= 1.0 / abs(math.sin(math.pi / 2)) + 1e-9


def test_simulate_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("simulate", "--shots", "100", "--seed", "1", "--out", str(a)) == 0
    assert run("simulate", "--shots", "100", "--seed", "2", "--out", str(b)) == 0
    assert data_lines(a) != data_lines(b)


def test_simulate_validates_point_width(tmp_path):
    out = tmp_path / "x.csv"
    assert run("simulate", "--set", "points=[[0.1]]", "--out", str(out)) == 1
    assert run("simulate", "--set", "points=[]", "--out", str(out)) == 1
    assert not out.exists()


def test_simulate_two_mode_columns(tmp_path):
    out = tmp_path / "records.csv"
    modes = ('[{"j": [1], "kind": "thermal", "params": {"n": 1.0}},'
             ' {"j": [2], "kind": "vacuum", "params": {}}]')
    code = run(
        "simulate",
        "--set", f"state.modes={modes}",
        "--set", "points=[[0.2, 0.1, -0.3, 0.4], [0.0, 0.0, 0.0, 0.0]]",
        "--shots", "0",
        "--out", str(out),
    )
    assert code == 0
    columns, rows, _ = read_table(out)
    assert columns == ["re_xi0", "im_xi0", "re_xi1", "im_xi1", "theta", "M",
                       "est_sx", "est_sy", "re_chi", "im_chi", "seed"]
    row = dict(zip(columns, rows[0]))
    assert (row["re_xi0"], row["im_xi0"], row["re_xi1"], row["im_xi1"]) == (0.2, 0.1, -0.3, 0.4)
    assert (row["theta"], row["M"], row["seed"]) == (math.pi / 2, 0, 0)
    state = GaussianFieldState(
        modes=ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=1.0, mode_indices=[[1], [2]]),
        mode_states=[Thermal(n=1.0), Vacuum()],
    )
    want = char_analytic(state, [0.2 + 0.1j, -0.3 + 0.4j])
    assert complex(row["re_chi"], row["im_chi"]) == pytest.approx(want, abs=1e-15)
    assert dict(zip(columns, rows[1]))["re_chi"] == 1.0


@pytest.mark.parametrize(
    "argv", [("simulate",), ("chi-scan", "--set", "grid.points=5")], ids=["simulate", "chi-scan"]
)
def test_theta_at_a_multiple_of_pi_is_exit_1(tmp_path, capsys, argv):
    # sin(pi) is 1.2e-16 in floats, not 0; dividing by it scaled chi by 1e16
    out = tmp_path / "x.csv"
    for theta in (math.pi, -math.pi, 2.0 * math.pi):
        assert run(*argv, "--shots", "100", "--theta", repr(theta), "--out", str(out)) == 1
        assert "sin(theta)" in capsys.readouterr().err
        assert not out.exists()
    assert run(*argv, "--shots", "100", "--theta", repr(math.pi / 2), "--out", str(out)) == 0


# ------------------------------------------------------------------ wigner

def test_wigner_vacuum_output(tmp_path):
    out = tmp_path / "w.csv"
    assert run("wigner", "--out", str(out)) == 0
    w = load_wigner_grid(out)
    assert w.normalization == 0.25
    cell = np.prod([a[1] - a[0] for a in w.axes])
    total = w.values.sum() * cell
    mid = tuple(s // 2 for s in w.values.shape)
    assert w.values[mid] / total == pytest.approx(2.0 / math.pi, rel=1e-4)


def test_wigner_boundary_guard_exit_code(tmp_path):
    out = tmp_path / "w.csv"
    assert run("wigner", "--set", "grid.extent=2.0", "--out", str(out)) == 2
    assert not out.exists()


def test_wigner_boundary_refusal_on_a_sampled_grid_states_the_stderr(tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert run("wigner", "--shots", "1000", "--set", "grid.points=33", "--out", str(out)) == 2
    err = capsys.readouterr().err
    # the leading text is the one the benchmark's known refusal matches
    assert "at the grid boundary exceeds 1.0e-06; the largest stderr on the boundary is" in err
    assert "enlarge" not in err
    assert not out.exists()


def test_wigner_from_sampled_half_grid(tmp_path):
    chi_out = tmp_path / "chi.csv"
    code = run(
        "chi-scan",
        "--set", "grid.extent=6.0", "--set", "grid.points=33", "--set", "half=true",
        "--shots", "20000", "--seed", "5",
        "--out", str(chi_out),
    )
    assert code == 0
    w_out = tmp_path / "w.csv"
    code = run(
        "wigner",
        "--set", f'chi_file="{chi_out}"',
        # shot noise at the grid edge sits far above the exact-decay default
        "--set", "boundary_tol=0.1",
        "--out", str(w_out),
    )
    assert code == 0
    w = load_wigner_grid(w_out)
    cell = np.prod([a[1] - a[0] for a in w.axes])
    assert w.values.sum() * cell == pytest.approx(0.25, rel=0.05)


def test_wigner_missing_chi_file(tmp_path):
    out = tmp_path / "w.csv"
    assert run("wigner", "--set", 'chi_file="/nonexistent/chi.csv"', "--out", str(out)) == 1


@pytest.mark.parametrize("command,value", [("wigner", "7"), ("moments", "0"), ("wigner", '""')])
def test_chi_file_that_is_not_a_path_is_exit_1(tmp_path, capsys, monkeypatch, command, value):
    # 7 would open file descriptor 7, and 0 would fall back to the state
    monkeypatch.setattr("chitomo.cli.load_chi_grid", None)  # nothing may be opened
    out = tmp_path / "x.csv"
    assert run(command, "--set", f"chi_file={value}", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "chi_file" in err
    assert not out.exists()


@pytest.mark.parametrize("damage", ["cell", "short_row"])
def test_wigner_corrupt_chi_file_is_exit_1(tmp_path, capsys, damage):
    chi = tmp_path / "chi.csv"
    assert run("chi-scan", "--set", "grid.points=9", "--out", str(chi)) == 0
    lines = chi.read_text().splitlines(keepends=True)
    cells = lines[-5].rstrip("\n").split(",")
    cells = ["abc"] + cells[1:] if damage == "cell" else cells[:-1]
    lines[-5] = ",".join(cells) + "\n"
    chi.write_text("".join(lines))
    out = tmp_path / "w.csv"
    assert run("wigner", "--set", f'chi_file="{chi}"', "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_wigner_refuses_a_chi_file_whose_coordinates_are_not_its_axes(tmp_path, capsys):
    chi = tmp_path / "chi.csv"
    assert run("chi-scan", "--set", "grid.points=9", "--out", str(chi)) == 0
    lines = chi.read_text().splitlines(keepends=True)
    cells = lines[-5].rstrip("\n").split(",")
    cells[1] = repr(float(np.nextafter(float(cells[1]), np.inf)))  # one ulp off
    lines[-5] = ",".join(cells) + "\n"
    chi.write_text("".join(lines))
    out = tmp_path / "w.csv"
    assert run("wigner", "--set", f'chi_file="{chi}"', "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "column im_xi does not match" in err
    assert not out.exists()


def test_wigner_refuses_a_chi_file_with_a_non_uniform_axis(tmp_path, capsys):
    # odd, increasing and centred on 0, but neither uniform nor symmetric
    axes = (np.array([-1.0, -0.4, 0.0, 0.5, 2.0]), grid_axis(1.0, 5))
    chi = tmp_path / "chi.csv"
    _save_grid(chi, "chi_grid", SimpleNamespace(axes=axes, n_modes=1), ("re_xi", "im_xi"),
               {"re_chi": np.ones((5, 5)), "im_chi": np.zeros((5, 5))},
               {"provenance": "exact", "shots": 0}, None, False)
    out = tmp_path / "w.csv"
    assert run("wigner", "--set", f'chi_file="{chi}"', "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "axis 0 is not uniform and symmetric" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["wigner", "moments"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_chi_file_with_a_non_finite_axis_is_exit_1(tmp_path, capsys, command, bad):
    # the meta axes and coordinate columns agree, so only the axis check sees it
    axes = (grid_axis(1.0, 5), np.array([-bad, -1.0, 0.0, 1.0, bad]))
    chi = tmp_path / "chi.csv"
    _save_grid(chi, "chi_grid", SimpleNamespace(axes=axes, n_modes=1), ("re_xi", "im_xi"),
               {"re_chi": np.ones((5, 5)), "im_chi": np.zeros((5, 5))},
               {"provenance": "exact", "shots": 0}, None, False)
    out = tmp_path / "out.csv"
    assert run(command, "--set", f'chi_file="{chi}"', "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "axis 1 holds the non-finite value" in err
    assert not out.exists()


# ----------------------------------------------------------------- moments

def test_moments_thermal_table(tmp_path):
    out = tmp_path / "m.csv"
    code = run(
        "moments",
        "--set", f"state.modes={THERMAL_MODES}",
        "--out", str(out),
    )
    assert code == 0
    columns, rows, _ = read_table(out)
    assert columns == ["p", "q", "re_moment", "im_moment", "error"]
    table = {(int(r[0]), int(r[1])): r[2] for r in rows}
    assert table[(0, 0)] == 1.0
    assert table[(1, 1)] == pytest.approx(1.5, abs=1e-3)
    assert table[(1, 0)] == pytest.approx(0.0, abs=1e-8)
    assert all(math.isnan(r[4]) for r in rows)  # exact source: no error bars


def test_moments_from_grid_file(tmp_path):
    chi_out = tmp_path / "chi.csv"
    assert run(
        "chi-scan",
        "--set", f"state.modes={THERMAL_MODES}",
        "--set", "grid.extent=3.0", "--set", "grid.points=65",
        "--out", str(chi_out),
    ) == 0
    out = tmp_path / "m.csv"
    assert run(
        "moments",
        "--set", f'chi_file="{chi_out}"',
        "--set", "orders=[[1, 1]]",
        "--out", str(out),
    ) == 0
    _, rows, _ = read_table(out)
    assert rows[0][2] == pytest.approx(1.5, abs=2e-3)


def test_moments_of_a_complete_sampled_file_read_the_filled_grid(tmp_path):
    # a complete sampled grid is not Hermitian to the bit; it is filled like
    # any other grid source, so every p = q moment is exactly real
    chi_out = tmp_path / "chi.csv"
    assert run("chi-scan", "--shots", "1000", "--set", "grid.points=65",
               "--out", str(chi_out)) == 0
    out = tmp_path / "m.csv"
    orders = [[0, 0], [1, 0], [0, 1], [1, 1], [2, 2]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # odd orders of the vacuum are noise only
        assert run("moments", "--set", f'chi_file="{chi_out}"',
                   "--set", f"orders={json.dumps(orders)}", "--out", str(out)) == 0
        filled = hermitian_fill(load_chi_grid(chi_out))
        want = [moments_fd(filled, 0, p, q, with_error=True) for p, q in orders]
    _, rows, _ = read_table(out)
    for (p, q), row, (value, error) in zip(orders, rows.tolist(), want):
        assert row == [p, q, value.real, value.imag, error]
        if p == q:
            assert row[3] == 0.0
    assert rows[1][2:4].tolist() == [rows[2][2], -rows[2][3]]  # (1,0) = conj (0,1)


# ------------------------------------------------------------- oracle-check

def test_oracle_check_passes(tmp_path, capsys):
    report = tmp_path / "oracle.json"
    code = run("oracle-check", "--set", "n_draws=3", "--out", str(report))
    assert code == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("ok")]
    doc = read_json(report)
    assert doc["all_passed"] is True
    assert len(lines) == len(doc["reports"])
    assert {r["check"] for r in doc["reports"]} >= {
        "displacement_identity", "chi_closed_form", "joint_qubit_bloch",
    }


# ---------------------------------------------------------------- bec-map

def test_bec_map_output(tmp_path):
    out = tmp_path / "bec.json"
    assert run("bec-map", "--out", str(out)) == 0
    doc = read_json(out)
    assert doc["lambda_eff"] == pytest.approx(0.01)
    assert doc["no_signal"] is False
    assert len(doc["per_mode"]) == 3
    for pm in doc["per_mode"]:
        assert 0.0 < pm["weight"] < 1.0
        assert pm["omega"] > 0.0
    # the emitted schedule is loadable and carries the weighted profile
    sched = schedule_from_dict(doc["schedule"])
    assert sched.lam == pytest.approx(0.01)
    assert doc["schedule"]["smearing"]["kind"] == "bogoliubov_weighted"


def test_bec_map_kmag_is_the_wave_number_of_every_other_layer(tmp_path):
    idx = [list(j) for j in itertools.product(range(-4, 5), repeat=3) if any(j)]
    modes = ModeSet(spatial_dim=3, box_side=7.1, mass=0.0, mode_indices=idx)
    out = tmp_path / "bec.json"
    spec = json.dumps({"spatial_dim": 3, "box_side": 7.1, "indices": idx})
    assert run("bec-map", "--set", f"modes={spec}", "--out", str(out)) == 0
    kmag = [pm["kmag"] for pm in read_json(out)["per_mode"]]
    assert kmag == modes.wavenumbers.tolist()
    assert kmag == [FieldMode.from_mode_set(modes, m).k for m in range(len(idx))]


def test_bec_map_no_signal_flag(tmp_path):
    out = tmp_path / "bec.json"
    assert run("bec-map", "--set", "bec.g_e=0.0", "--out", str(out)) == 0
    doc = read_json(out)
    assert doc["no_signal"] is True
    assert doc["schedule"] is None
    assert all(pm["re_xi"] == 0.0 and pm["im_xi"] == 0.0 for pm in doc["per_mode"])


# ------------------------------------------------------------ config merge

def test_config_file_and_set_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schedule": {"lambda": 0.02, "N": 2}}))
    out = tmp_path / "m.csv"
    code = run(
        "manifold", "--config", str(cfg),
        "--set", "schedule.N=3",
        "--set", "N_list=[2]", "--set", "tau.points=5",
        "--out", str(out),
    )
    assert code == 0
    _, _, meta = read_table(out)
    assert meta["config"]["schedule"]["lambda"] == 0.02  # from file
    assert meta["config"]["schedule"]["N"] == 3          # --set wins over file
    assert meta["config"]["schedule"]["tau"] == 1.0      # default survives


def test_malformed_config_is_exit_1(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run("manifold", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 1
    assert run("manifold", "--config", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "y.csv")) == 1


def test_missing_out_is_exit_1():
    assert run("manifold") == 1


@pytest.mark.parametrize(
    "argv,key",
    [(("--set", "grid.point=9"), "point"), (("--set", "bogus=1"), "bogus"),
     (("--config", '{"stat": {}}'), "stat")],
)
def test_unknown_config_key_is_exit_1(tmp_path, capsys, argv, key):
    if argv[0] == "--config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(argv[1])
        argv = ("--config", str(cfg))
    out = tmp_path / "chi.csv"
    assert run("chi-scan", *argv, "--out", str(out)) == 1
    assert not out.exists()
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,key",
    [(("chi-scan", "--set", 'grid.points="abc"'), "grid.points"),
     (("manifold", "--set", 'N_list=["x"]'), "N_list"),
     (("manifold", "--set", "tau.points=null"), "tau.points"),
     (("manifold", "--set", 'schedule.lambda="a"'), "schedule.lambda"),
     (("bec-map", "--set", 'bec.rho0="a"'), "bec.rho0"),
     (("chi-scan", "--set",
       'state.modes=[{"j": [1], "kind": "thermal", "params": {"n": "a"}}]'),
      "state.modes[0].params.n"),
     (("chi-scan", "--set", 'state.modes=[{"j": [1], "kind": "thermal", "params": {}}]'),
      "state.modes[0].params is missing field 'n'"),
     (("chi-scan", "--set",
       'state.modes=[{"j": [1], "kind": "thermal", "params": {"n": 1e400}}]'),
      "thermal occupation must be finite"),
     (("moments", "--set", "h=0"), "h = 0.0 "),
     (("moments", "--set", "h=1e-300"), "h = 1e-300 "),
     (("moments", "--set", "h=1e300"), "h = 1e+300 "),
     (("moments", "--set", "h=-0.01"), "h = -0.01 "),
     (("moments", "--shots", "100", "--set", "grid.points=17", "--set", "h=NaN"), "h = nan "),
     (("moments", "--shots", "100", "--set", "grid.points=17", "--set", "h=0"), "h = 0.0 "),
     # a non-finite theta, a negative seed or an int64-overflowing shot count
     # is refused before any draw, not written as NaN rows or escaping numpy
     (("simulate", "--theta", "nan", "--shots", "0"), "theta = nan "),
     (("simulate", "--theta", "nan"), "theta = nan "),
     (("simulate", "--theta", "inf"), "theta = inf "),
     (("chi-scan", "--theta", "nan", "--shots", "10"), "theta = nan "),
     (("simulate", "--seed", "-1"), "seed = -1 "),
     (("chi-scan", "--shots", "10", "--seed", "-3"), "seed = -3 "),
     (("oracle-check", "--set", "seed=-1"), "seed = -1 "),
     (("simulate", "--set", "shots=100000000000000000000000"),
      "shots = 100000000000000000000000 "),
     # NaN switched the aliasing guard off; -1 was reported as a failed check
     (("wigner", "--set", "boundary_tol=nan"), "boundary_tol = nan "),
     (("wigner", "--set", "boundary_tol=-1"), "boundary_tol = -1.0 ")],
)
def test_non_numeric_config_value_is_exit_1(tmp_path, capsys, argv, key):
    out = tmp_path / "x.csv"
    assert run(*argv, "--out", str(out)) == 1  # a ValidationError, not an escaping traceback
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,key",
    [(("chi-scan", "--set", "grid.points=9.7"), "grid.points"),
     (("chi-scan", "--set", 'state.modes=[{"j": [1.5]}]'), "state.modes[0].j"),
     (("chi-scan", "--set", "state.spatial_dim=true"), "state.spatial_dim"),
     (("moments", "--set", "mode=0.5"), "mode"),
     (("moments", "--set", "orders=[[1, 1.5]]"), "orders"),
     (("oracle-check", "--set", "n_draws=2.5"), "n_draws"),
     (("oracle-check", "--set", "D=40.5"), "D"),
     (("bec-map", "--set", "modes.spatial_dim=1.5"), "modes.spatial_dim"),
     (("chi-scan", "--shots", "100", "--set", 'half="false"'), "half"),
     (("moments", "--set", 'richardson="false"'), "richardson"),
     (("manifold", "--set", 'schedule.switching={"kind": "gaussian", "center": 0.5, '
       '"width": 0.2, "relative": "false"}'), "switching.relative"),
     (("bec-map", "--set", "modes.indices=[[1.5]]"), "modes.indices"),
     (("oracle-check", "--set", "seed=0.5"), "seed"),
     (("manifold", "--set", "timestamps=no"), "timestamps"),
     (("manifold", "--set", 'timestamps="false"'), "timestamps")],
)
def test_inexact_integer_or_boolean_is_exit_1(tmp_path, capsys, argv, key):
    # 9.7 is not truncated to 9, nor the string "false" read as true
    out = tmp_path / "x.csv"
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,field",
    [(("chi-scan", "--set",
       'state.modes=[{"j": [1], "kind": "thermal", "params": {"n": 0.5, "r": 0.3}}]'), "'r'"),
     (("chi-scan", "--set", 'state.modes=[{"j": [1], "kind": "vacuum", "parms": {}}]'),
      "'parms'"),
     (("chi-scan", "--set", "state.colour=1"), "'colour'"),
     (("manifold", "--set", "schedule.foo=1"), "'foo'"),
     (("manifold", "--set", 'schedule.switching={"kind": "constant", "width": 0.2}'),
      "'width'"),
     (("manifold", "--set", 'schedule.smearing={"kind": "delta", "sigma": 0.2}'), "'sigma'"),
     (("manifold", "--set", 'schedule.smearing={"kind": "spherical_gaussian", "sigma": 0.2, '
       '"width": 1.0}'), "'width'"),
     (("manifold", "--set", 'schedule.switching={"kind": "custom", "t": [0, 2], '
       '"eta": [1, 1], "dt": 0.1}'), "'dt'"),
     (("manifold", "--set", f'schedule.smearing={{{_WEIGHTED}, "weight": 2.0}}'), "'weight'"),
     (("chi-scan", "--set", 'state.modes=[{"j": [1], "params": {"n": 0.5}}]'), "'n'"),
     (("bec-map", "--set", "bec.rho=2"), "'rho'")],
)
def test_unknown_document_field_is_exit_1(tmp_path, capsys, argv, field):
    # a field the loader does not read is refused, not dropped
    out = tmp_path / "x.out"
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"unknown field(s) {field}" in err
    assert not out.exists()


def test_optional_document_fields_may_be_omitted(tmp_path):
    # kind, params, theta, relative, a constant's value and a weighted sign have defaults
    state = ('state.modes=[{"j": [1]}, {"j": [2], "kind": "squeezed", "params": {"r": 0.2}}, '
             '{"j": [3], "kind": "squeezed_thermal", "params": {"n": 0.1, "r": 0.2}}]')
    assert run("chi-scan", "--set", state, "--set", "grid.points=3",
               "--out", str(tmp_path / "chi.csv")) == 0
    for switching, smearing in (
        ('{"kind": "gaussian", "center": 0.5, "width": 0.2}', '{"kind": "delta"}'),
        ('{"kind": "constant"}', f"{{{_WEIGHTED}}}"),
    ):
        assert run("manifold", "--set", f"schedule.switching={switching}",
                   "--set", f"schedule.smearing={smearing}", "--set", "tau.points=5",
                   "--out", str(tmp_path / "m.csv")) == 0


def test_chi_scan_squeezed_thermal_state(tmp_path):
    out = tmp_path / "chi.csv"
    modes = ('[{"j": [1], "kind": "squeezed_thermal", '
             '"params": {"n": 0.5, "r": 0.3, "theta": 0.4}}]')
    assert run("chi-scan", "--set", f"state.modes={modes}", "--set", "grid.extent=4.0",
               "--set", "grid.points=21", "--out", str(out)) == 0
    grid = load_chi_grid(out)
    state = GaussianFieldState(
        modes=ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=1.0, mode_indices=[[1]]),
        mode_states=[SqueezedThermal(n=0.5, r=0.3, theta=0.4)],
    )
    want = chi_grid_from_state(state, (grid_axis(4.0, 21), grid_axis(4.0, 21)))
    np.testing.assert_array_equal(grid.values, want.values)
    # V = (2n+1) V_sq: chi is the pure squeezed chi to the power 2n + 1 = 2
    pure = GaussianFieldState(modes=state.modes, mode_states=[Squeezed(r=0.3, theta=0.4)])
    xi = complex(grid.axes[0][3], grid.axes[1][15])
    assert grid.values[3, 15] == pytest.approx(char_analytic(pure, xi) ** 2, rel=1e-13)


def test_chi_scan_overflowing_squeezing_is_exit_1(tmp_path, capsys):
    # a finite r whose covariance overflows would write an all-NaN grid
    out = tmp_path / "chi.csv"
    modes = '[{"j": [1], "kind": "squeezed", "params": {"r": 400}}]'
    assert run("chi-scan", "--set", f"state.modes={modes}", "--set", "grid.points=3",
               "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "covariance overflows" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [("manifold", "--seed", "1"), ("bec-map", "--shots", "5"), ("manifold", "--theta", "0.3"),
     ("oracle-check", "--timestamps"), ("bec-map", "--timestamps")],
)
def test_flag_of_another_subcommand_is_exit_1(tmp_path, argv):
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", str(out))
    assert exc.value.code == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", [("--threads", "4"), ("--no-such-flag",)])
def test_unknown_flag_is_exit_1(tmp_path, flag):
    out = tmp_path / "chi.csv"
    with pytest.raises(SystemExit) as exc:
        run("chi-scan", *flag, "--out", str(out))
    assert exc.value.code == 1
    assert not out.exists()


def test_cli_import_loads_no_heavy_scipy():
    # scipy.integrate, .linalg and .special load only where they are used,
    # while every layer module (fock_oracle too) is loaded by the cli
    code = (
        "import sys, chitomo.cli; "
        "print(sorted(m for m in ('chitomo.fock_oracle', 'scipy.integrate', 'scipy.linalg', "
        "'scipy.special') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.strip() == "['chitomo.fock_oracle']"


def test_oracle_check_loads_no_scipy_linalg(tmp_path):
    # every exponential of the oracle comes from numpy's Hermitian eigensolver
    argv = ["oracle-check", "--set", "n_draws=2", "--out", str(tmp_path / "o.json")]
    code = (
        "import sys; from chitomo.cli import main; "
        f"code = main({argv!r}); print(code, 'scipy.linalg' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.splitlines()[-1] == "0 False"


def test_gaussian_window_loads_no_scipy(tmp_path):
    # erf/erfc come from libm: a direct window integral and a manifold with a
    # Gaussian switching leave no scipy module loaded
    window = '{"kind": "gaussian", "center": 1.5, "width": 0.7}'
    argv = ["manifold", "--set", f"schedule.switching={window}",
            "--out", str(tmp_path / "m.csv")]
    code = (
        "import sys; from chitomo.cli import main; "
        "from chitomo.pulse_protocol import GaussianWindow; "
        "GaussianWindow(0.5, 0.2, relative=True).window_integral(1.3); "
        f"code = main({argv!r}); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.splitlines()[-1] == "0 []"


def test_oversized_grid_is_refused_before_allocation(tmp_path):
    # two modes at the default 129 points ask for 129^4 cells (4.4 GB); under a
    # 1 GB address-space limit a missing guard shows as a MemoryError
    out = tmp_path / "chi.csv"
    two_modes = 'state.modes=[{"j": [1], "kind": "vacuum"}, {"j": [2], "kind": "vacuum"}]'
    argv = ["chi-scan", "--set", two_modes, "--out", str(out)]
    code = (
        "import resource, sys\n"
        "from chitomo.cli import main\n"
        "from chitomo.errors import ValidationError\n"
        "from chitomo.gaussian_field import GaussianFieldState, ModeSet\n"
        "from chitomo.tomography import chi_grid_from_state, sampled_chi_grid\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "state = GaussianFieldState(ModeSet(1, 6.28, 1.0, ((1,), (2,))))\n"
        "for build in (chi_grid_from_state, sampled_chi_grid):\n"
        "    try:\n"
        "        build(state)\n"
        "    except ValidationError:\n"
        "        print('refused')\n"
        f"print(main({argv!r}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.stdout.splitlines() == ["refused", "refused", "1"], proc.stderr
    assert proc.stderr.startswith("error:") and "cells" in proc.stderr
    assert not out.exists()


def test_version_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "chitomo" in capsys.readouterr().out
