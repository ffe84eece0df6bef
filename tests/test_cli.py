"""End-to-end command-line runs, exit codes, and output determinism."""
from __future__ import annotations

import gc
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from chitomo.cli import entry, main
from chitomo.fileio import _save_grid, load_chi_grid, load_wigner_grid, read_json, read_table
from chitomo.gaussian_field import (
    GaussianFieldState,
    ModeSet,
    Squeezed,
    SqueezedThermal,
    Thermal,
    Vacuum,
    char_analytic,
    char_points,
    state_from_dict,
)
from chitomo.pulse_protocol import displacement_param, schedule_from_dict
from chitomo.ramsey_readout import _counts, readout_chi, shot_rng
from chitomo.tomography import (
    chi_grid_from_state, grid_axis, hermitian_fill, moments_fd, sampled_chi_grid,
)

from documents import state_to_dict, write_with_coordinates

THERMAL_MODES = '[{"j": [1], "kind": "thermal", "params": {"n": 1.0}}]'
# a surface scan of 3 N x 315 tau: the manifold defaults at coupling 0.5
_SCAN = ('{"schedule": {"lambda": 0.5, "smearing": {"kind": "delta"}, '
         '"switching": {"kind": "constant"}}, "N_list": [1, 4, 7], '
         '"tau": {"min": 0.02, "max": 6.283185307179586, "points": 315}}')
# a chi-scan along that surface, and a bad value of each kind of its spec's
# fields with the start of its error line, which names the field by its path
SPEC_SCAN = ("chi-scan", "--set", f"manifold={_SCAN}")
SPEC_FIELDS = [
    ("manifold.tau.points=1", "error: manifold.tau.points = 1 is not usable"),
    ("manifold.N_list=[0]", "error: manifold.N_list = [0] is not usable"),
    ("manifold.schedule.foo=1", "error: manifold.schedule has unknown field(s) 'foo'"),
    ("manifold.schedule.lambda=0", "error: manifold.schedule.lambda = 0 is not usable"),
]
# the fields of a Bogoliubov-weighted smearing without its optional sign
_WEIGHTED = '"kind": "bogoliubov_weighted", "base": {"kind": "delta"}, "m_B": 1.0, "g_rho0": 1.0'

# exit-1 argv with a piece of the refusal each, shared with
# test_bad_input_is_refused_before_any_layer_runs
NON_NUMERIC = [
    (("chi-scan", "--set", 'grid.points="abc"'), "grid.points"),
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
     "state.modes[0].params.n = inf is not usable: a finite number >= 0"),
    # a non-finite theta, a negative seed or an int64-overflowing shot count
    # is refused before any draw, not written as NaN rows or escaping numpy
    (("simulate", "--theta", "NaN", "--shots", "0"), "theta = nan "),
    (("simulate", "--theta", "NaN"), "theta = nan "),
    (("simulate", "--theta", "Infinity"), "theta = inf "),
    (("chi-scan", "--theta", "NaN", "--shots", "10"), "theta = nan "),
    (("simulate", "--seed", "-1"), "seed = -1 "),
    (("chi-scan", "--shots", "10", "--seed", "-3"), "seed = -3 "),
    (("oracle-check", "--set", "seed=-1"), "seed = -1 "),
    (("simulate", "--set", "shots=100000000000000000000000"),
     "shots = 100000000000000000000000 "),
    # NaN switched the aliasing guard off; -1 was reported as a failed check
    (("wigner", "--set", "boundary_tol=NaN"), "boundary_tol = nan "),
    (("wigner", "--set", "boundary_tol=-1"), "boundary_tol = -1.0 "),
    # a numeric string is not parsed as its number, nor a word that is no
    # JSON number, such as nan, read as text
    (("simulate", "--theta", "nan"), "theta = 'nan' is not usable"),
    (("chi-scan", "--set", 'grid.extent="2"'), "grid.extent = '2' is not usable"),
    (("wigner", "--set", 'boundary_tol="0.1"'), "boundary_tol = '0.1' is not usable"),
    # a readout point too: the first two wrote xi = 0.2 and 1.0
    (("simulate", "--set", 'points=[["0.2", "0"]]'),
     "points = [['0.2', '0']] is not usable: a real number is expected, not str"),
    (("simulate", "--set", "points=[[true, false]]"),
     "points = [[True, False]] is not usable: a real number is expected, not bool"),
    (("simulate", "--set", "points=[[NaN, 0]]"),
     "points = [[nan, 0]] is not usable: a finite number is expected"),
    # a list, an object or null where a number belongs was refused in
    # float()'s own words
    (("chi-scan", "--set", "grid.extent=null"),
     "grid.extent = None is not usable: a real number is expected, not NoneType"),
    (("chi-scan", "--set", "grid.extent=[1]"),
     "grid.extent = [1] is not usable: a real number is expected, not list"),
    (("chi-scan", "--set", 'grid.extent={"a":1}'),
     "grid.extent = {'a': 1} is not usable: a real number is expected, not dict"),
    (("chi-scan", "--shots", "10", "--set", "theta=[1.5]"),
     "theta = [1.5] is not usable: a real number is expected, not list"),
    (("simulate", "--set", "points=[[[0.2, 0]]]"),
     "points = [[[0.2, 0]]] is not usable: a real number is expected, not list"),
    # an empty object is read, and refused by its first missing field, not
    # taken as absent
    (("chi-scan", "--shots", "100", "--set", "manifold={}"),
     "manifold is missing field 'schedule'"),
    (("wigner", "--set", "alpha={}"), "alpha is missing field 'extent'"),
    # every physical parameter is a finite number; each of these exited 0 with
    # NaN rows, a NaN header, NaN displacements or all-zero xi
    (("manifold", "--set", "schedule.lambda=1e999"), "schedule.lambda = inf is not usable"),
    (("manifold", "--set", "schedule.switching.value=1e999"), "switching.value = inf "),
    (("manifold", "--set", "mode.omega=1e999"), "mode.omega = inf is not usable"),
    (("manifold", "--set", "mode.k=NaN"), "mode.k = nan is not usable"),
    (("manifold", "--set", 'schedule.smearing={"kind": "spherical_gaussian", "sigma": 1e999}'),
     "smearing.sigma = inf is not usable"),
    (("bec-map", "--set", "bec.rho0=1e999"), "bec.rho0 = inf is not usable"),
    # a table entry too: an infinite radius wrote NaN xi rows, an infinite time was taken
    (("manifold", "--set", 'schedule.smearing={"kind": "custom_radial", "r": [0, 1, 1e999], '
      '"f": [1, 0.5, 0]}'), "smearing.r = [0, 1, inf] is not usable"),
    (("manifold", "--set", 'schedule.switching={"kind": "custom", "t": [-1e999, 1], '
      '"eta": [1, 1]}'), "switching.t = [-inf, 1] is not usable"),
]
INEXACT = [
    (("chi-scan", "--set", "grid.points=9.7"), "grid.points"),
    (("chi-scan", "--set", 'state.modes=[{"j": [1.5]}]'), "state.modes[0].j"),
    (("chi-scan", "--set", "state.spatial_dim=true"), "state.spatial_dim"),
    (("moments", "--set", "mode=0.5"), "mode"),
    (("moments", "--set", "orders=[[1, 1.5]]"), "orders"),
    (("oracle-check", "--set", "n_draws=2.5"), "n_draws"),
    (("oracle-check", "--set", "D=40.5"), "D"),
    (("bec-map", "--set", "modes.spatial_dim=1.5"), "modes.spatial_dim"),
    (("chi-scan", "--shots", "100", "--set", 'half="false"'), "half"),
    (("manifold", "--set", 'schedule.switching={"kind": "gaussian", "center": 0.5, '
      '"width": 0.2, "relative": "false"}'), "switching.relative"),
    (("bec-map", "--set", "modes.indices=[[1.5]]"), "modes.indices"),
    (("oracle-check", "--set", "seed=0.5"), "seed"),
    (("chi-scan", "--shots", "100", "--set", "half=0"), "half"),
]
UNKNOWN_FIELD = [
    (("chi-scan", "--set",
      'state.modes=[{"j": [1], "kind": "thermal", "params": {"n": 0.5, "r": 0.3}}]'), "'r'"),
    (("chi-scan", "--set", 'state.modes=[{"j": [1], "kind": "vacuum", "parms": {}}]'),
     "'parms'"),
    (("chi-scan", "--set", "state.colour=1"), "'colour'"),
    # the stencil's step and its Richardson switch, retired: the stencil is fixed
    (("moments", "--set", "h=0.01"), "'h'"),
    (("moments", "--set", "richardson=false"), "'richardson'"),
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
    (("bec-map", "--set", "bec.rho=2"), "'rho'"),
    # fields no run reads, which older configs carry
    (("chi-scan", "--set", "timestamps=false"), "'timestamps'"),
    (("bec-map", "--set", "bec.omega0=1.0"), "'omega0'"),
    # a surface scan's tau and N are its own axes, not fields of its probe
    (("manifold", "--set", "schedule.tau=3.3"), "'tau'"),
    (("manifold", "--set", "schedule.N=7"), "'N'"),
    ((*SPEC_SCAN, "--set", "manifold.schedule.tau=3.3"), "'tau'"),
    ((*SPEC_SCAN, "--set", "manifold.schedule.N=7"), "'N'"),
]


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
    assert run("manifold", "--set", "schedule.lambda=0", "--out", str(out)) == 1
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
            "schedule": {"lambda": 0.01,
                         "smearing": {"kind": "delta"},
                         "switching": {"kind": "constant", "value": 1.0}},
            "N_list": [1, 4],
            "tau": {"min": 0.1, "max": 6.0, "points": 40},
        },
    }))
    out = tmp_path / "scan.csv"
    assert run("chi-scan", "--config", str(cfg), "--out", str(out)) == 0
    columns, rows, _ = read_table(out)
    assert columns == ["N", "tau", "re_xi", "im_xi", "re_chi", "im_chi"]  # exact: no stderr
    assert len(rows) == 80
    state = GaussianFieldState(
        modes=ModeSet(spatial_dim=1, box_side=2 * math.pi, mass=1.0, mode_indices=[[1]]),
        mode_states=[Thermal(n=1.0)],
    )
    for N, tau, re_xi, im_xi, re_chi, im_chi in rows[:10]:
        want = char_analytic(state, complex(re_xi, im_xi))
        assert complex(re_chi, im_chi) == pytest.approx(want, abs=1e-12)


def test_chi_scan_manifold_sampled_errors_derive_from_its_cells(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "state": {
            "spatial_dim": 1, "box_side": 2 * math.pi, "mass": 1.0,
            "modes": [{"j": [1], "kind": "thermal", "params": {"n": 1.0}}],
        },
        "manifold": {
            "schedule": {"lambda": 0.5,
                         "smearing": {"kind": "delta"},
                         "switching": {"kind": "constant", "value": 1.0}},
            "N_list": [1, 4],
            "tau": {"min": 0.1, "max": 6.0, "points": 40},
        },
    }))
    out = tmp_path / "scan.csv"
    args = ("chi-scan", "--config", str(cfg), "--shots", "2000", "--seed", "4")
    assert run(*args, "--out", str(out)) == 0
    columns, rows, meta = read_table(out)
    # the errors are written through the header: _counts derives them from
    # each row's chi and the config's theta and shots, as in a grid file
    assert columns == ["N", "tau", "re_xi", "im_xi", "re_chi", "im_chi"]
    assert len(rows) == 80
    config = meta["config"]
    stderr = _counts(rows[:, 4] + 1j * rows[:, 5], config["theta"], config["shots"]).chi_stderr
    state = GaussianFieldState(
        modes=ModeSet(spatial_dim=1, box_side=2 * math.pi, mass=1.0, mode_indices=[[1]]),
        mode_states=[Thermal(n=1.0)],
    )
    pulls = []
    for (N, tau, re_xi, im_xi, re_chi, im_chi), err in zip(rows, stderr):
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
    schedule = {"lambda": 0.5,
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
    for N, tau, re0, im0, re1, im1, re_chi, im_chi in rows:
        one = schedule_from_dict({**schedule, "tau": tau, "N": int(N)})
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
    assert read_table(first)[0] == columns  # the errors derive from chi and the config
    assert data_lines(first) == data_lines(again)


@pytest.mark.parametrize("box", [5.3, 7.1, 3.3])
def test_chi_scan_manifold_xi_is_displacement_param_of_the_wave_vector(tmp_path, box):
    # 728 modes of a 3-D box with |j_i| <= 4: the scan's |k| is the one that
    # displacement_param takes of each mode's wave vector, to the last bit
    idx = [list(j) for j in itertools.product(range(-4, 5), repeat=3) if any(j)]
    modes = ModeSet(spatial_dim=3, box_side=box, mass=0.5, mode_indices=idx)
    state = GaussianFieldState(modes=modes, mode_states=[Vacuum()] * len(idx))
    schedule = {"lambda": 0.5,
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
    for N, tau, *cells in rows:
        one = schedule_from_dict({**schedule, "tau": tau, "N": int(N)})
        want = [displacement_param(one, k, omega, box, 3)
                for k, omega in zip(modes.wavevectors, modes.omegas)]
        got = np.array(cells[:-2]).reshape(-1, 2)
        assert got.tolist() == [[xi.real, xi.imag] for xi in want]


def test_chi_scan_manifold_takes_no_mode_of_its_own(tmp_path, capsys):
    # the scanned modes are the state's; a separate manifold mode is refused
    out = tmp_path / "scan.csv"
    assert run("chi-scan", "--set",
               'manifold={"schedule": {"lambda": 0.01, '
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
    # theta, M and the seed are the header's config; the errors and both
    # Bloch estimates derive from chi and the config through _counts
    assert columns == ["re_xi", "im_xi", "re_chi", "im_chi"]
    assert len(rows) == 2
    assert (meta["config"]["theta"], meta["config"]["shots"], meta["config"]["seed"]) == (
        math.pi / 2, 500, 3)
    row = dict(zip(columns, rows[0]))
    assert (row["re_xi"], row["im_xi"]) == (0.2, 0.0)
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
    columns, rows, meta = read_table(out)
    # shots 0 reads chi out exactly: no stderr column, not one of zeros
    assert columns == ["re_xi0", "im_xi0", "re_xi1", "im_xi1", "re_chi", "im_chi"]
    row = dict(zip(columns, rows[0]))
    assert (row["re_xi0"], row["im_xi0"], row["re_xi1"], row["im_xi1"]) == (0.2, 0.1, -0.3, 0.4)
    config = meta["config"]
    assert (config["theta"], config["shots"], config["seed"]) == (math.pi / 2, 0, 0)
    state = GaussianFieldState(
        modes=ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=1.0, mode_indices=[[1], [2]]),
        mode_states=[Thermal(n=1.0), Vacuum()],
    )
    want = char_analytic(state, [0.2 + 0.1j, -0.3 + 0.4j])
    assert complex(row["re_chi"], row["im_chi"]) == pytest.approx(want, abs=1e-15)
    assert dict(zip(columns, rows[1]))["re_chi"] == 1.0


# ---------------------------------------------------------------- points files

def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _readouts(path):
    """(columns, rows, config, readout) of the points file at path, where
    readout is readout_chi in process at its points on the run's draws: one
    call for simulate, one per curve N of a surface scan from seed + N."""
    columns, rows, meta = read_table(path)
    config = meta["config"]
    state = state_from_dict(config["state"])
    coords = [c for c in columns if c.startswith(("re_xi", "im_xi"))]
    xi = rows[:, [columns.index(c) for c in coords]].copy().view(complex)
    chi = char_points(state, xi)
    args = config["theta"], config["shots"]
    if "N" not in columns:
        return columns, rows, config, readout_chi(chi, *args, config["seed"])
    curves = [readout_chi(chi[rows[:, 0] == N], *args, config["seed"] + N)
              for N in config["manifold"]["N_list"]]
    return columns, rows, config, type(curves[0])(*map(np.concatenate, zip(*curves)))


@pytest.mark.parametrize("theta", [math.pi / 2, 0.3])
def test_a_points_file_rebuilds_its_readout_from_its_cells_and_config(tmp_path, theta):
    # a sampled points file leaves out the errors and both Bloch means:
    # _counts rebuilds them from its chi cells and its config's theta and
    # shots, bit for bit those of readout_chi on the same seeds
    state = ("--set", f"state.modes={THERMAL_MODES}", "--theta", repr(theta), "--seed", "6")
    scan, sim = tmp_path / "scan.csv", tmp_path / "sim.csv"
    assert run("chi-scan", *state, "--set", f"manifold={_SCAN}", "--set", "manifold.tau.points=40",
               "--shots", "10000", "--out", str(scan)) == 0
    assert run("simulate", *state, "--set", "points=[[0.2, -0.0], [0.0, 0.4], [-1.1, 0.3]]",
               "--shots", "777", "--out", str(sim)) == 0
    for path, points in ((scan, 3 * 40), (sim, 3)):
        columns, rows, config, want = _readouts(path)
        assert columns[-2:] == ["re_chi", "im_chi"] and len(rows) == points
        re, im = rows[:, -2], rows[:, -1]
        assert (_bits(re), _bits(im)) == (_bits(want.chi_est.real), _bits(want.chi_est.imag))
        got = _counts(re + 1j * im, config["theta"], config["shots"])
        for name in ("est_sx", "est_sy", "chi_stderr"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), (path.name, name)
    assert read_table(sim)[1][0, 1].hex() == "-0x0.0p+0"  # a point's -0.0 is written as given


@pytest.mark.parametrize("shots,kept", [(10_000, False), (2**53, False), (2**60, True)])
def test_a_scan_keeps_its_stderr_only_where_counts_cannot_rebuild_it(tmp_path, shots, kept):
    # above 2**53 shots the count ratios are no longer exact, so _counts does
    # not give the errors back and the column stays, as readout_chi gave it
    out = tmp_path / "scan.csv"
    assert run("chi-scan", "--set", f"manifold={_SCAN}", "--shots", str(shots), "--seed", "2",
               "--out", str(out)) == 0
    columns, rows, config, want = _readouts(out)
    assert len(rows) == 3 * 315
    assert columns[-1] == ("stderr" if kept else "im_chi")
    chi = rows[:, columns.index("re_chi")] + 1j * rows[:, columns.index("im_chi")]
    rebuilt = _counts(chi, config["theta"], shots).chi_stderr
    assert (_bits(rebuilt) == _bits(want.chi_stderr)) is not kept
    if kept:
        assert _bits(rows[:, -1]) == _bits(want.chi_stderr)


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


def _fresh_run(cwd, *argv, code=0):
    """python -m chitomo.cli argv as a fresh process in the directory cwd,
    which must exit with code; its stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "chitomo.cli", *argv], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == code, proc.stderr
    return proc.stderr


def _wigner_of_file_twice(tmp_path, chi_file) -> list:
    """The bytes two fresh wigner runs, each in a directory of its own, write
    from chi_file."""
    written = []
    for d in ("run1", "run2"):
        (tmp_path / d).mkdir()
        _fresh_run(tmp_path / d, "wigner", "--set", f"chi_file={json.dumps(str(chi_file))}",
                   "--out", "w.csv")
        written.append((tmp_path / d / "w.csv").read_bytes())
    return written


def test_wigner_of_an_exact_chi_file_reruns_byte_for_byte(tmp_path):
    # an exact grid is Hermitian to the bit, so hermitian_fill passes it
    # through unchanged; both runs read the same file
    _fresh_run(tmp_path, "chi-scan", "--out", "exact_chi.csv")
    first, second = _wigner_of_file_twice(tmp_path, tmp_path / "exact_chi.csv")
    assert first == second


def test_wigner_of_an_exact_squeezed_thermal_chi_file_mirrors_its_rows(tmp_path):
    # a real chi is transformed on the rows x >= 0 and the rows x < 0 are
    # copied from them, so W(-x, -p) == W(x, p) bit for bit on every row x > 0
    state = '[{"j": [1], "kind": "squeezed_thermal", "params": {"n": 0.5, "r": 0.3, "theta": 0.4}}]'
    _fresh_run(tmp_path, "chi-scan", "--set", f"state.modes={state}", "--out", "st_chi.csv")
    first, second = _wigner_of_file_twice(tmp_path, tmp_path / "st_chi.csv")
    assert first == second
    w = load_wigner_grid(tmp_path / "run1" / "w.csv").values
    h = w.shape[0] // 2
    assert w[h + 1 :].tobytes() == w[:h][::-1, ::-1].tobytes()


def test_wigner_of_the_state_and_of_its_chi_file_write_the_same_rows(tmp_path):
    # the file's chi is complex with no imaginary part, and is transformed as
    # the real exact grid the state gives
    _fresh_run(tmp_path, "chi-scan", "--out", "chi.csv")
    _fresh_run(tmp_path, "wigner", "--out", "w_state.csv")
    _fresh_run(tmp_path, "wigner", "--set", 'chi_file="chi.csv"', "--out", "w_file.csv")
    assert data_lines(tmp_path / "w_state.csv") == data_lines(tmp_path / "w_file.csv")


def test_oracle_check_reruns_byte_for_byte(tmp_path):
    # two fresh runs on the cached eigenbases write the same bytes; the config
    # records --out, so both runs write the same file name
    written = []
    for d in ("first", "second"):
        (tmp_path / d).mkdir()
        _fresh_run(tmp_path / d, "oracle-check", "--out", "oracle.json")
        written.append((tmp_path / d / "oracle.json").read_bytes())
    assert written[0] == written[1]


def test_bec_map_reruns_byte_for_byte_and_its_schedule_reads_back(tmp_path):
    # the package registers the bogoliubov_weighted smearing kind itself, so
    # the written schedule reads back after importing only pulse_protocol
    written = []
    for d in ("bec1", "bec2"):
        (tmp_path / d).mkdir()
        _fresh_run(tmp_path / d, "bec-map", "--out", "bec.json")
        written.append((tmp_path / d / "bec.json").read_bytes())
    assert written[0] == written[1]
    code = (
        "import json; from chitomo.pulse_protocol import schedule_from_dict; "
        "print(schedule_from_dict(json.load(open('bec1/bec.json'))['schedule']))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    sched = schedule_from_dict(read_json(tmp_path / "bec1" / "bec.json")["schedule"])
    assert out.strip() == repr(sched)
    assert out.startswith("PulseSchedule(lam=") and "BogoliubovWeighted(base=" in out


def test_moments_of_a_sampled_half_plane_chi_file_rerun_byte_for_byte(tmp_path):
    # the half grid is filled through chi(-xi) = conj chi(xi), and each
    # stencil node is summed with its mirror; both runs read the same file
    _fresh_run(tmp_path, "chi-scan", "--shots", "1000", "--set", "half=true",
               "--out", "half_chi.csv")
    chi_file = json.dumps(str(tmp_path / "half_chi.csv"))
    written = []
    for d in ("moments1", "moments2"):
        (tmp_path / d).mkdir()
        _fresh_run(tmp_path / d, "moments", "--set", f"chi_file={chi_file}", "--out", "m.csv")
        written.append((tmp_path / d / "m.csv").read_bytes())
    assert written[0] == written[1]


def test_moments_of_a_complete_sampled_chi_file_read_the_filled_grid(tmp_path):
    # every grid source is filled through chi(-xi) = conj chi(xi), so the
    # p = q moment (1,1) is exactly real
    _fresh_run(tmp_path, "chi-scan", "--shots", "1000", "--out", "full_chi.csv")
    _fresh_run(tmp_path, "moments", "--set", 'chi_file="full_chi.csv"', "--out", "full_m.csv")
    _, rows, _ = read_table(tmp_path / "full_m.csv")
    (row,) = [r for r in rows.tolist() if r[:2] == [1, 1]]
    assert row[3] == 0


def test_chi_file_with_a_nan_meta_axis_exits_1_and_names_the_axis(tmp_path):
    axes = (np.array([np.nan, -1.0, 0.0, 1.0, np.nan]), grid_axis(1.0, 5))
    _save_grid(tmp_path / "nan_chi.csv", "chi_grid", axes,
               {"re_chi": np.ones((5, 5)), "im_chi": np.zeros((5, 5))},
               {"provenance": "exact", "shots": 0}, None)
    err = _fresh_run(tmp_path, "wigner", "--set", 'chi_file="nan_chi.csv"', "--out", "nan_w.csv",
                     code=1)
    assert "axis 0 holds the non-finite value nan" in err
    assert not (tmp_path / "nan_w.csv").exists()


def test_moments_of_a_sampled_chi_file_read_its_derived_errors(tmp_path):
    # the file records theta instead of a stderr column, and a fresh process
    # derives the errors that the moments' error bars are pushed from
    _fresh_run(tmp_path, "chi-scan", "--shots", "10000", "--set", "half=true", "--out", "s.csv")
    _fresh_run(tmp_path, "moments", "--set", 'chi_file="s.csv"', "--out", "m.csv")
    columns, _, meta = read_table(tmp_path / "s.csv")
    assert columns[-1] == "im_chi" and meta["theta"] == math.pi / 2
    back = load_chi_grid(tmp_path / "s.csv")
    sampled = sampled_chi_grid(state_from_dict(meta["config"]["state"]), back.axes,
                               shots=10_000, seed=0, half=True)
    assert back.stderr.tobytes() == sampled.stderr.tobytes()
    grid = hermitian_fill(back)
    _, rows, _ = read_table(tmp_path / "m.csv")
    assert len(rows) > 0
    for p, q, re_m, im_m, error in rows.tolist():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # (2,0) of the vacuum is noise only
            value, err = moments_fd(grid, 0, int(p), int(q), with_error=True)
        assert (re_m, im_m, error) == (value.real, value.imag, err) and math.isfinite(error)


# the last is a JSON string, which is not parsed as its number
@pytest.mark.parametrize("theta", ["NaN", "Infinity", "true", "0", "3.141592653589793",
                                   '"1.5707963267948966"'])
def test_a_chi_file_whose_theta_reads_out_nothing_exits_1(tmp_path, capsys, theta):
    chi = tmp_path / "chi.csv"
    assert run("chi-scan", "--shots", "100", "--set", 'grid={"extent":2,"points":9}',
               "--out", str(chi)) == 0
    text = chi.read_text()
    old = '"theta": 1.5707963267948966}\n'  # the meta's own, its last field
    assert text.count(old) == 1
    chi.write_text(text.replace(old, f'"theta": {theta}}}\n'))
    capsys.readouterr()
    assert run("wigner", "--set", f"chi_file={json.dumps(str(chi))}",
               "--out", str(tmp_path / "w.csv")) == 1
    assert "meta.theta" in capsys.readouterr().err
    assert not (tmp_path / "w.csv").exists()


def test_sampled_two_mode_manifold_scan_reruns_byte_for_byte(tmp_path):
    # the probe displaces both modes of the state at once; curve N draws from
    # seed + N, so two fresh runs write the same bytes
    modes = ('[{"j": [1], "kind": "thermal", "params": {"n": 1.0}}, '
             '{"j": [2], "kind": "squeezed", "params": {"r": 0.3}}]')
    manifold = ('{"schedule": {"lambda": 0.5, "smearing": {"kind": "delta"}, '
                '"switching": {"kind": "constant"}}, "N_list": [1, 4], '
                '"tau": {"min": 0.1, "max": 6.0, "points": 40}}')
    written = []
    for d in ("scan1", "scan2"):
        (tmp_path / d).mkdir()
        _fresh_run(tmp_path / d, "chi-scan", "--shots", "1000", "--seed", "3",
                   "--set", f"state.modes={modes}", "--set", f"manifold={manifold}",
                   "--out", "scan.csv")
        written.append((tmp_path / d / "scan.csv").read_bytes())
    assert written[0] == written[1]
    assert len(data_lines(tmp_path / "scan1" / "scan.csv")) == 2 * 40


@pytest.mark.parametrize("argv", [(), ("--shots", "10000", "--set", "half=true")],
                         ids=["exact", "sampled-half"])
def test_every_chi_file_cell_is_the_repr_of_its_value(tmp_path, argv):
    # the writer formats each distinct value once and reuses its text, so
    # re-rendering each data cell with repr(float(cell)) rewrites the file
    # byte for byte; a half grid lists only its (n^2 + 1) / 2 measured points
    _fresh_run(tmp_path, "chi-scan", *argv, "--out", "chi.csv")
    text = (tmp_path / "chi.csv").read_text(encoding="utf-8")
    rerendered = "".join(
        line if line.startswith("#")
        else ",".join(repr(float(c)) for c in line.rstrip("\n").split(",")) + "\n"
        for line in text.splitlines(keepends=True)
    )
    assert rerendered == text
    rows = data_lines(tmp_path / "chi.csv")
    assert len(rows) == ((129**2 + 1) // 2 if argv else 129**2)
    assert not any("nan" in line for line in rows)


def test_a_sampled_chi_file_holds_each_shot_mean_as_its_exact_count_ratio(tmp_path):
    # at theta = pi/2 (sin exactly 1) a re_chi or im_chi cell is the mean
    # (2k - M)/M of its basis's count k; at M = 10**4 that is a decimal of at
    # most four places, and the cell's text is that decimal
    chi = tmp_path / "chi.csv"
    assert run("chi-scan", "--shots", "10000", "--set", "half=true", "--out", str(chi)) == 0
    assert chi.stat().st_size <= 250_000  # no stderr column: it is derived on load
    _, _, meta = read_table(chi)
    M, seed = meta["shots"], meta["config"]["seed"]
    assert (M, meta["config"]["theta"]) == (10_000, math.pi / 2)
    exact = chi_grid_from_state(state_from_dict(meta["config"]["state"]),
                                load_chi_grid(chi).axes).values.reshape(-1)
    exact = exact[exact.size // 2:]  # the measured half, in row order
    counts = [shot_rng(seed, basis).binomial(M, (1.0 + part) / 2.0)
              for basis, part in enumerate((exact.imag, exact.real))]
    cells = [line.split(",") for line in data_lines(chi)]
    assert len(cells) == exact.size
    columns = read_table(chi)[0]
    for column, k in ((columns.index("im_chi"), counts[0]), (columns.index("re_chi"), counts[1])):
        for row, count in zip(cells, k.tolist()):
            assert re.fullmatch(r"-?[01]\.\d{1,4}", row[column]), row
            assert Fraction(row[column]) == Fraction(2 * count - M, M), row


# exit-1 argv, each with the piece of its one error line that names the field
BAD_INPUT = [
    # a non-finite theta, a negative seed, a NaN aliasing tolerance, a
    # negative alpha extent, a moment order that is not a pair, a half value
    # that is not a boolean, an infinite coupling or condensate density, and
    # an output or input path through a regular file
    (("simulate", "--theta", "nan", "--shots", "0"), "theta"),
    (("simulate", "--seed", "-1"), "seed"),
    (("wigner", "--set", "boundary_tol=nan"), "boundary_tol"),
    (("wigner", "--set", 'alpha={"extent":-1,"points":5}'), "alpha.extent"),
    (("moments", "--shots", "1000", "--set", "orders=[[1]]"), "moment order"),
    (("chi-scan", "--shots", "100", "--set", 'half="no"'), "half"),
    (("manifold", "--set", "schedule.lambda=1e999"), "schedule.lambda"),
    (("bec-map", "--set", "bec.rho0=1e999"), "bec.rho0"),
    (("chi-scan", "--set", "grid.points=5", "--out", "afile/x.csv"), "afile/x.csv"),
    (("wigner", "--set", 'chi_file="afile/x.csv"'), "afile/x.csv"),
    # a JSON boolean for a number was read as 1.0
    (("manifold", "--set", "schedule.lambda=true"), "schedule.lambda"),
    (("bec-map", "--set", "bec.rho0=true"), "bec.rho0"),
    (("wigner", "--set", "grid.extent=true"), "grid.extent"),
    # a mode kind that is no string raised TypeError
    (("chi-scan", "--set", 'state.modes=[{"j":[0],"kind":[1]}]'), "state.modes[0].kind"),
    (("chi-scan", "--set", 'state.modes=[{"j":[0],"kind":{"a":1}}]'), "state.modes[0].kind"),
    # a mode entry that is a list of pairs was read as the object of those pairs
    (("chi-scan", "--set", 'state.modes=[[["j",[1]]]]', "--set", "grid.points=5"),
     "state.modes[0]"),
    # retired fields, and an even count that wrote a 5 x 5 grid under "points": 4
    (("moments", "--set", "h=0.01"), "unknown field(s) 'h'"),
    (("moments", "--set", "richardson=false"), "unknown field(s) 'richardson'"),
    (("chi-scan", "--set", "grid.points=4"), "grid.points = 4"),
    # a list or null for a number, in the field rule's words
    (("chi-scan", "--set", "grid.extent=null"), "not NoneType"),
    (("simulate", "--set", "points=[[[0.2, 0]]]"), "not list"),
    # a tau spec whose points repeat: the chi-scan wrote three identical rows
    *(((*argv, "--set", f"{key}.min=1.0", "--set", f"{key}.max=1.0000000000000002",
        "--set", f"{key}.points=5"), f"error: {key} needs min < max and points that do not repeat")
      for argv, key in ((("manifold",), "tau"),
                        (SPEC_SCAN, "manifold.tau"))),
    # a manifold spec's fields are named by their path
    *(((*SPEC_SCAN, "--set", assignment), named) for assignment, named in SPEC_FIELDS),
]


@pytest.mark.parametrize("argv,named", BAD_INPUT, ids=[" ".join(argv) for argv, _ in BAD_INPUT])
def test_bad_input_exits_1_with_an_error_line_and_writes_nothing(tmp_path, argv, named):
    (tmp_path / "afile").write_text("a regular file\n")
    out = () if "--out" in argv else ("--out", "bad.csv")
    err = _fresh_run(tmp_path, *argv, *out, code=1)
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


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
    write_with_coordinates(chi)  # the older layout, which lists them
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


@pytest.mark.parametrize("change, message", [
    (lambda m: dict(m, axes=[["a"] * 5] * 2), "meta.axes"),
    (lambda m: dict(m, axes=5), "meta.axes"),
    (lambda m: [1], "meta must be an object"),
    (lambda m: dict(m, provenance="banana"), "provenance 'banana'"),
    (lambda m: dict(m, shots=-3), "meta.shots"),
], ids=["axes-strings", "axes-number", "meta-list", "provenance", "shots"])
def test_wigner_refuses_a_chi_file_with_a_malformed_header(tmp_path, capsys, change, message):
    chi = tmp_path / "chi.csv"
    assert run("chi-scan", "--set", "grid.points=5", "--out", str(chi)) == 0
    lines = chi.read_text().splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines) if ln.startswith("# meta: "))
    meta = json.loads(lines[at][len("# meta: "):])
    lines[at] = f"# meta: {json.dumps(change(meta))}\n"
    chi.write_text("".join(lines))
    out = tmp_path / "w.csv"
    assert run("wigner", "--set", f'chi_file="{chi}"', "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not out.exists()


def test_a_refused_chi_file_axis_gives_one_short_error_line(tmp_path, capsys, monkeypatch):
    # the refused value is shown through reprlib, so a default 129-point axis
    # pair with one entry "x" is cut to its first entries
    monkeypatch.chdir(tmp_path)
    assert run("chi-scan", "--out", "chi.csv") == 0
    lines = Path("chi.csv").read_text().splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines) if ln.startswith("# meta: "))
    meta = json.loads(lines[at][len("# meta: "):])
    meta["axes"][1][3] = "x"
    lines[at] = f"# meta: {json.dumps(meta)}\n"
    Path("chi.csv").write_text("".join(lines))
    capsys.readouterr()
    assert run("wigner", "--set", 'chi_file="chi.csv"', "--out", "w.csv") == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and len(line.encode()) < 200, line
    assert "meta.axes" in line and "a real number is expected, not str" in line
    assert not Path("w.csv").exists()


def test_wigner_refuses_a_chi_file_with_a_non_uniform_axis(tmp_path, capsys):
    # odd, increasing and centred on 0, but neither uniform nor symmetric
    axes = (np.array([-1.0, -0.4, 0.0, 0.5, 2.0]), grid_axis(1.0, 5))
    chi = tmp_path / "chi.csv"
    _save_grid(chi, "chi_grid", axes,
               {"re_chi": np.ones((5, 5)), "im_chi": np.zeros((5, 5))},
               {"provenance": "exact", "shots": 0}, None)
    out = tmp_path / "w.csv"
    assert run("wigner", "--set", f'chi_file="{chi}"', "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "axis 0 is not uniform and symmetric" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["wigner", "moments"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_chi_file_with_a_non_finite_axis_is_exit_1(tmp_path, capsys, command, bad):
    # the file is the meta axes' own, so only the axis check sees it
    axes = (grid_axis(1.0, 5), np.array([-bad, -1.0, 0.0, 1.0, bad]))
    chi = tmp_path / "chi.csv"
    _save_grid(chi, "chi_grid", axes,
               {"re_chi": np.ones((5, 5)), "im_chi": np.zeros((5, 5))},
               {"provenance": "exact", "shots": 0}, None)
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
    # each identity check reports its segment's leak beside the guard on it
    for r in doc["reports"]:
        if r["check"] == "displacement_identity":
            assert 0.0 <= r["leak"] <= r["leak_tolerance"] == 1e-8


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
    cfg.write_text(json.dumps({"schedule": {"lambda": 0.02, "switching": {"value": 2.0}}}))
    out = tmp_path / "m.csv"
    code = run(
        "manifold", "--config", str(cfg),
        "--set", "schedule.switching.value=3.0",
        "--set", "N_list=[2]", "--set", "tau.points=5",
        "--out", str(out),
    )
    assert code == 0
    _, rows, meta = read_table(out)
    schedule = meta["config"]["schedule"]
    assert schedule["lambda"] == 0.02                                   # from file
    assert schedule["switching"] == {"kind": "constant", "value": 3.0}  # --set wins over file
    assert schedule["smearing"] == {"kind": "delta"}                    # default survives
    # and the run read them: xi is linear in lam and in a constant switching
    assert run("manifold", "--set", "N_list=[2]", "--set", "tau.points=5",
               "--out", str(tmp_path / "d.csv")) == 0
    _, base, _ = read_table(tmp_path / "d.csv")
    np.testing.assert_allclose(rows[:, 2:], 6.0 * base[:, 2:], rtol=1e-14, atol=0.0)


# (flag, value, the other argv of the run), each run as chi-scan on 5 points
_FLAG_RUNS = [
    ("--shots", "1e3", ()),
    ("--seed", "2.0", ("--set", "shots=100")),
    ("--theta", "1.2", ("--set", "shots=100")),
    ("--theta", "nan", ("--set", "shots=100")),
    ("--seed", "-1", ("--set", "shots=100")),
    ("--shots", "many", ()),
]


@pytest.mark.parametrize("flag,value,rest", _FLAG_RUNS)
def test_a_flag_runs_as_its_set_spelling(tmp_path, monkeypatch, capsys, flag, value, rest):
    # --shots 1e3 ran 1000 shots only as --set shots=1e3, and was refused as a flag
    outcomes = []
    for side, spelling in (("flag", (flag, value)), ("set", ("--set", f"{flag[2:]}={value}"))):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        code = run("chi-scan", "--set", "grid.points=5", *rest, *spelling, "--out", "chi.csv")
        out = Path("chi.csv")
        outcomes.append((code, capsys.readouterr(), out.read_bytes() if out.exists() else None))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (1 if value in ("nan", "-1", "many") else 0)


def test_a_flag_wins_over_set_wherever_it_stands(tmp_path):
    out = tmp_path / "chi.csv"
    for argv in (("--set", "seed=5", "--seed", "3"), ("--seed", "3", "--set", "seed=5")):
        assert run("chi-scan", "--set", "grid.points=5", "--shots", "10", *argv,
                   "--out", str(out)) == 0
        assert read_table(out)[2]["config"]["seed"] == 3


# each subcommand at a reduced size, and the chi files wigner and moments read
_RERUNS = {
    "manifold": ("manifold", "--set", "tau.points=63"),
    "chi-scan": ("chi-scan", "--set", "grid.points=33"),
    "chi-scan-half": ("chi-scan", "--shots", "10000", "--set", "half=true",
                      "--set", "grid.points=33"),
    "simulate": ("simulate",),
    "wigner": ("wigner", "--set", "grid.points=33"),
    "wigner-of-file": ("wigner", "--set", 'chi_file="chi-scan.out"'),
    "moments": ("moments",),
    "moments-of-half-file": ("moments", "--set", 'chi_file="chi-scan-half.out"'),
    "oracle-check": ("oracle-check", "--set", "n_draws=2"),
    "bec-map": ("bec-map",),
}


def test_every_output_reruns_from_its_own_config(tmp_path, monkeypatch):
    # a result file is its own rerun recipe: the config its header (or its
    # JSON document) records, run with another out, writes the same bytes
    # but for the out value
    monkeypatch.chdir(tmp_path)
    for name, argv in _RERUNS.items():
        first, second = f"{name}.out", f"{name}.rerun"
        assert run(*argv, "--out", first) == 0
        text = Path(first).read_bytes()
        doc = read_json(first) if text.startswith(b"{") else read_table(first)[2]
        Path(f"{name}.json").write_text(json.dumps(doc["config"]))
        assert run(argv[0], "--config", f"{name}.json", "--out", second) == 0
        out = f'"out": "{first}"'.encode()
        assert text.count(out) == 1, name
        assert Path(second).read_bytes() == text.replace(out, f'"out": "{second}"'.encode()), name


def test_malformed_config_is_exit_1(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run("manifold", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 1
    assert run("manifold", "--config", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "y.csv")) == 1


def test_missing_out_is_exit_1(capsys):
    assert run("manifold") == 1
    assert "out must be a file path, got None" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv,key", NON_NUMERIC)
def test_non_numeric_config_value_is_exit_1(tmp_path, capsys, argv, key):
    out = tmp_path / "x.csv"
    assert run(*argv, "--out", str(out)) == 1  # a ValidationError, not an escaping traceback
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize("argv,key", INEXACT)
def test_inexact_integer_or_boolean_is_exit_1(tmp_path, capsys, argv, key):
    # 9.7 is not truncated to 9, nor the string "false" read as true
    out = tmp_path / "x.csv"
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize("argv,field", UNKNOWN_FIELD)
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
     ("oracle-check", "--shots", "5"), ("bec-map", "--seed", "1")],
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
    # scipy.special loads only where a 2-D radial table uses it, and the
    # package uses scipy.integrate and .linalg nowhere, so importing the cli
    # loads none of them, while it loads every layer module (fock_oracle too)
    # and the records build without the stdlib dataclasses module
    code = (
        "import sys, numpy; bare = set(sys.modules); import chitomo.cli; "
        "print(sorted(m for m in ('chitomo.fock_oracle', 'scipy.integrate', 'scipy.linalg', "
        "'scipy.special') if m in sys.modules)); print('dataclasses' in set(sys.modules) - bare)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.split() == ["['chitomo.fock_oracle']", "False"]


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
        "from chitomo.gaussian_field import GaussianFieldState, ModeSet, Vacuum\n"
        "from chitomo.tomography import chi_grid_from_state, grid_axis, sampled_chi_grid\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "state = GaussianFieldState(ModeSet(1, 6.28, 1.0, ((1,), (2,))), (Vacuum(), Vacuum()))\n"
        "axes = (grid_axis(6.0, 129),) * 4\n"
        "for build in (chi_grid_from_state, sampled_chi_grid):\n"
        "    try:\n"
        "        build(state, axes)\n"
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


# ------------------------------------------------------- refusal before work

_SIN_PI = "rounding of 0 at theta = "
# every exit-1 argv of this file that the config alone refuses, with a piece of
# its refusal; an argv gets --out x.out unless it sets out itself, and a
# --config value that starts with "{" is written to a file
REFUSED = [
    (("manifold", "--set", "schedule.lambda=0"), "schedule.lambda = 0 is not usable"),
    (("manifold", "--set", "N_list=[2.5]"), "N_list = [2.5] is not usable"),
    (("chi-scan", "--set", 'manifold={"schedule": {"lambda": 0.01, '
      '"smearing": {"kind": "delta"}, "switching": {"kind": "constant"}}, '
      '"mode": {"k": 1.0, "omega": 1.0, "L": 6.283185307179586, "n": 1}, '
      '"N_list": [1], "tau": {"min": 0.1, "max": 6.0, "points": 5}}'),
     "manifold has unknown field(s) 'mode'"),
    (("simulate", "--set", "points=[[0.1]]"), "points must be one or more lists of 2 reals"),
    (("simulate", "--set", "points=[]"), "points must be one or more lists of 2 reals"),
    *(((*argv, "--shots", "100", "--theta", repr(theta)), _SIN_PI + repr(theta))
      for argv in (("simulate",), ("chi-scan", "--set", "grid.points=5"))
      for theta in (math.pi, -math.pi, 2.0 * math.pi)),
    (("wigner", "--set", "chi_file=7"), "chi_file must be null or a file path, got 7"),
    (("moments", "--set", "chi_file=0"), "chi_file must be null or a file path, got 0"),
    (("wigner", "--set", 'chi_file=""'), "chi_file must be null or a file path, got ''"),
    (("chi-scan", "--set", "grid.point=9"), "grid has unknown field(s) 'point'"),
    (("chi-scan", "--set", "bogus=1"), "the chi-scan config has unknown field(s) 'bogus'"),
    (("chi-scan", "--config", '{"stat": {}}'), "unknown field(s) 'stat'"),
    (("manifold", "--config", "{not json"), "bad JSON in input file"),
    (("manifold", "--config", "missing.json"), "No such file or directory: 'missing.json'"),
    (("chi-scan", "--set", 'state.modes=[{"j": [1], "kind": "squeezed", "params": {"r": 400}}]',
      "--set", "grid.points=3"), "covariance overflows"),
    (("chi-scan", "--set", 'state.modes=[{"j": [1], "kind": "vacuum"}, {"j": [2], "kind": '
      '"vacuum"}]'), "a 129x129x129x129 grid has 276922881 cells, above the budget"),
    # each of these used to be refused only after the work ahead of it
    (("wigner", "--set", "grid.points=9", "--set", "boundary_tol=NaN"), "boundary_tol = nan "),
    (("wigner", "--set", "grid.points=9", "--set", 'alpha={"extent": -1, "points": 5}'),
     "alpha.extent = -1 is not usable: a finite number > 0"),
    (("chi-scan", "--shots", "100", "--set", "grid.points=9", "--set", 'half="no"'),
     "half = 'no' is not usable"),
    (("moments", "--shots", "1000", "--set", "grid.points=9", "--set", "orders=[[1]]"),
     "each moment order is a pair [p, q], got [1]"),
    (("manifold", "--seed", "1"), "unrecognized arguments: --seed 1"),
    (("bec-map", "--shots", "5"), "unrecognized arguments: --shots 5"),
    (("manifold", "--theta", "0.3"), "unrecognized arguments: --theta 0.3"),
    (("oracle-check", "--shots", "5"), "unrecognized arguments: --shots 5"),
    (("bec-map", "--seed", "1"), "unrecognized arguments: --seed 1"),
    (("chi-scan", "--timestamps"), "unrecognized arguments: --timestamps"),
    (("chi-scan", "--threads", "4"), "unrecognized arguments: --threads 4"),
    (("chi-scan", "--no-such-flag"), "unrecognized arguments: --no-such-flag"),
    # out=1 wrote to file descriptor 1 and closed it; out=null failed after the work
    (("chi-scan", "--set", "out=1", "--set", "grid.points=3"), "out must be a file path, got 1"),
    (("manifold", "--set", "out=null"), "out must be a file path, got None"),
    (("oracle-check", "--set", 'out=""'), "out must be null or a file path, got ''"),
    (("moments", "--shots", "1000", "--set", "mode=1", "--set", "grid.points=513"),
     "mode index 1 out of range 0..0"),
    # each stencil is checked on the planned grid before it is sampled: a
    # (2, 2) stencil reaches 4 steps out, past a 7-point grid's 3
    (("moments", "--shots", "1000", "--set", "grid.points=7", "--set", "orders=[[2, 2]]"),
     "stencil exits the grid"),
    # an even count has no middle point for the origin; it was bumped to odd
    # while the header kept the count asked for
    (("chi-scan", "--set", "grid.points=4"),
     "grid.points = 4 is not usable: an odd integer >= 3 is expected"),
    (("wigner", "--set", "grid.points=9", "--set", 'alpha={"extent": 2, "points": 4}'),
     "alpha.points = 4 is not usable: an odd integer >= 3 is expected"),
    (("oracle-check", "--set", "D=20000", "--set", "n_draws=1"),
     "D = 20000 is not usable: an integer <= 1024 is expected"),
    (("oracle-check", "--set", "D=5"), "D = 5 is not usable: an integer >= 8 is expected"),
    *NON_NUMERIC,
    *INEXACT,
    *(((argv, f"unknown field(s) {field}") for argv, field in UNKNOWN_FIELD)),
    *(((*argv, "--shots", "100", "--theta", "1e308"),
       "theta = 1e+308 fixes no angle: its float spacing, 2e+292, is 1 radian or more")
      for argv in (("simulate",), ("chi-scan", "--set", "grid.points=5"))),
    *(((*SPEC_SCAN, "--set", assignment), named) for assignment, named in SPEC_FIELDS),
    # bec-map's schedule is a whole pulse schedule, its tau and N included
    (("bec-map", "--set", 'schedule={"lambda": 0.01, "N": 1, "smearing": {"kind": "delta"}, '
      '"switching": {"kind": "constant"}}'), "error: schedule is missing field 'tau'"),
]

# the layers a run does its work in, as chitomo.cli names them
_LAYERS = ("readout_chi", "sampled_chi_grid", "chi_grid_from_state", "hermitian_fill",
           "wigner_transform", "moments_fd", "displacement_surface", "save_chi_points",
           "run_default_suite", "map_to_protocol", "write_table")


@pytest.mark.parametrize("argv,message", REFUSED)
def test_bad_input_is_refused_before_any_layer_runs(tmp_path, capsys, monkeypatch, argv, message):
    def work(*args, **kwargs):
        raise AssertionError("a layer ran before the config was refused")

    for name in _LAYERS:
        monkeypatch.setattr(f"chitomo.cli.{name}", work)
    monkeypatch.setattr("chitomo.tomography.char_analytic_grid", work)
    monkeypatch.chdir(tmp_path)
    argv = list(argv)
    if "--config" in argv and argv[argv.index("--config") + 1].startswith("{"):
        (tmp_path / "cfg.json").write_text(argv[argv.index("--config") + 1])
        argv[argv.index("--config") + 1] = "cfg.json"
    out = [] if any(a.startswith("out=") for a in argv) else ["--out", "x.out"]
    try:
        code = main([*argv, *out])
    except SystemExit as exc:  # argparse's refusal of a flag
        code = exc.code
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("argv", [("chi-scan", "--theta", "nan"), ("wigner", "--seed", "-1")])
def test_a_bad_field_the_run_never_reads_is_not_refused(tmp_path, argv):
    # at shots 0 nothing is read out, so theta and seed are never read
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    assert run(*argv, "--shots", "0", "--set", "grid.points=9", "--out", str(bad)) == 0
    assert run(argv[0], "--shots", "0", "--set", "grid.points=9", "--out", str(good)) == 0
    assert data_lines(bad) == data_lines(good)


def test_main_in_process_freezes_nothing(tmp_path):
    before = gc.get_freeze_count()
    assert run("bec-map", "--out", str(tmp_path / "bec.json")) == 0
    assert gc.get_freeze_count() == before


def _outcome(call, argv):
    try:
        return call(argv)
    except SystemExit as exc:
        return f"SystemExit({exc.code})"


@pytest.mark.parametrize("argv,expected", [
    (("bec-map",), 0), (("simulate", "--seed", "-1"), 1), (("wigner", "--shots", "10000"), 2),
    (("--help",), "SystemExit(0)"), (("--version",), "SystemExit(0)"),
    (("--no-such-flag",), "SystemExit(1)"),
], ids=["exit 0", "exit 1", "exit 2", "help", "version", "usage error"])
def test_the_process_entry_is_main_then_a_freeze(tmp_path, monkeypatch, capsys, argv, expected):
    argv = list(argv) if argv[0].startswith("-") else [*argv, "--out", str(tmp_path / "out")]
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
    assert _outcome(main, argv) == expected and freezes == []
    assert _outcome(entry, argv) == expected and freezes == [1]
    assert (tmp_path / "out").exists() == (expected == 0)


def test_the_chitomo_script_is_the_process_entry():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts.splitlines() == ['chitomo = "chitomo.cli:entry"']


def test_version_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "chitomo" in capsys.readouterr().out
