"""Batch command-line front-end emitting plot-ready data files.

Subcommands: manifold | chi-scan | simulate | wigner | moments |
oracle-check | bec-map. Each takes a JSON config file (--config), dotted
--set key=value overrides, and a few dedicated flags, each read as the
--set of its key; the fully resolved config is embedded in every output
header, so a result file is sufficient to rerun itself. Identical config +
seed gives byte-identical output. Every field a run reads is converted and
checked once, by _spec, before any grid is built, sampled, transformed or
written. A grid is written by fileio.save_chi_grid or save_wigner_grid as
value columns on the header's axes (a permutation of its rows goes unseen;
files of the older layout, with coordinate columns, still load), and chi or
xi at listed points (manifold, a manifold chi-scan, simulate) by
fileio.save_chi_points.
A surface scan's schedule (manifold, a manifold chi-scan) is its probe alone,
lambda, smearing and switching; bec-map's is a whole pulse schedule.

Exit codes: 0 success, 1 bad input (an unusable input or output path too),
2 failed numerical safeguard.
"""
from __future__ import annotations

import argparse
import copy
import gc
import json
import math
import sys
from functools import partial

import numpy as np

from . import __version__
from .bec_analogue import map_to_protocol, params_from_dict
from .errors import (
    NumericalCheckError, ValidationError, at_least, boolean, converted, dimension, finite, integer,
    known_fields, listed, positive, read_field, real,
)
from .fileio import (
    load_chi_grid, read_json, save_chi_grid, save_chi_points, save_wigner_grid, write_json,
    write_table,
)
from .fock_oracle import _cutoff, run_default_suite
from .gaussian_field import ModeSet, _check_mode, _moment_order, char_points, state_from_dict
from .pulse_protocol import (
    PulseSchedule, _wave_number, displacement_surface, schedule_from_dict, schedule_to_dict,
    smearing_from_dict, switching_from_dict,
)
from .ramsey_readout import _readout_args, readout_chi
from .tomography import (
    _axis_points, _boundary_tol, _state_axes, _stencil_nodes, chi_grid_from_state, grid_axis,
    hermitian_fill, moments_fd, sampled_chi_grid, wigner_transform,
)

_TWO_PI = 2.0 * math.pi

_VACUUM_STATE = {
    "spatial_dim": 1,
    "box_side": _TWO_PI,
    "mass": 1.0,
    "modes": [{"j": [0], "kind": "vacuum", "params": {}}],
}

_BASE_PROBE = {
    "lambda": 0.01,
    "smearing": {"kind": "delta"},
    "switching": {"kind": "constant", "value": 1.0},
}

_BASE_MODE = {"k": 1.0, "omega": 1.0, "L": _TWO_PI, "n": 1}

_DEFAULTS: dict[str, dict] = {
    "manifold": {
        "schedule": _BASE_PROBE,
        "mode": _BASE_MODE,
        "N_list": [1, 4, 5, 6, 7, 8, 9, 10],
        "tau": {"min": 0.02, "max": _TWO_PI, "points": 315},
    },
    "chi-scan": {
        "state": _VACUUM_STATE,
        "grid": {"extent": 6.0, "points": 129},
        "manifold": None,
        "theta": math.pi / 2,
        "shots": 0,
        "half": False,
        "seed": 0,
    },
    "simulate": {
        "state": _VACUUM_STATE,
        "points": [[0.2, 0.0]],
        "theta": math.pi / 2,
        "shots": 10_000,
        "seed": 0,
    },
    "wigner": {
        "state": _VACUUM_STATE,
        "chi_file": None,
        "grid": {"extent": 6.0, "points": 129},
        "alpha": None,
        "boundary_tol": 1e-6,
        "theta": math.pi / 2,
        "shots": 0,
        "seed": 0,
    },
    "moments": {
        "state": _VACUUM_STATE,
        "chi_file": None,
        "orders": [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]],
        "mode": 0,
        "grid": {"extent": 6.0, "points": 129},
        "theta": math.pi / 2,
        "shots": 0,
        "seed": 0,
    },
    "oracle-check": {
        "n_draws": 20,
        "D": 40,
        "seed": 0,
    },
    "bec-map": {
        "bec": {
            "rho0": 1.0,
            "g_g": 0.0,
            "g_e": 0.02,
            "g_rho0": 1.0,
            "m_B": 1.0,
        },
        "modes": {"spatial_dim": 1, "box_side": _TWO_PI, "indices": [[1], [2], [3]]},
        "schedule": {**_BASE_PROBE, "tau": 1.0, "N": 1},
    },
}


# dedicated flags and their help; a subcommand takes one only when its
# defaults carry the key, and --flag value is read as --set flag=value
_FLAGS = {
    "seed": "RNG seed recorded in the output",
    "shots": "measurements per point (0 = exact)",
    "theta": "preparation angle",
}


# --------------------------------------------------------------------------
# config plumbing

def _deep_update(dst: dict, src: dict) -> dict:
    for key, value in src.items():
        if isinstance(value, dict) and isinstance(dst.get(key), dict):
            _deep_update(dst[key], value)
        else:
            dst[key] = value
    return dst


def _apply_set(config: dict, assignments) -> None:
    for item in assignments or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValidationError(f"--set needs key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value


def _resolve_config(args) -> dict:
    config = copy.deepcopy(_DEFAULTS[args.command])
    if args.config:
        doc = read_json(args.config)
        if not isinstance(doc, dict):
            raise ValidationError(f"{args.config} must hold a JSON object")
        _deep_update(config, doc)
    _apply_set(config, args.set)
    _apply_set(config, getattr(args, "flags", None))  # after --set, so a flag wins
    if args.out is not None:
        config["out"] = args.out
    known_fields(config, (*_DEFAULTS[args.command], "out"), f"the {args.command} config")
    return config


def _inline_or_file(value, loader, what):
    if isinstance(value, dict):
        return loader(value)
    if isinstance(value, str):
        doc = read_json(value)
        if not isinstance(doc, dict):
            raise ValidationError(f"{what} file {value} must hold a JSON object")
        return loader(doc)
    raise ValidationError(f"{what} must be an inline object or a file path")


def _fields(doc, fields: dict, key: str) -> list:
    """The values of the config object at key, which must hold exactly the
    given fields; a field mapped to a converter (not None) is converted."""
    known_fields(doc, fields, key)
    return [read_field(doc, name, kind, key) for name, kind in fields.items()]


def _tau_grid(doc, key: str) -> np.ndarray:
    lo, hi, points = _fields(doc, {"min": positive, "max": positive, "points": at_least(2)}, key)
    taus = np.linspace(lo, hi, points)
    if not np.all(np.diff(taus) > 0):
        raise ValidationError(f"{key} needs min < max and points that do not repeat")
    return taus


def _axis(doc, key: str) -> np.ndarray:
    return grid_axis(*_fields(doc, {"extent": positive, "points": _axis_points}, key))


def _path(path, key: str, optional: bool = False) -> str | None:
    if not (isinstance(path, str) and path or optional and path is None):
        raise ValidationError(f"{key} must be {'null or ' * optional}a file path, got {path!r}")
    return path


def _orders(value, key: str) -> list:
    orders = converted(listed(listed(integer)), value, key)
    for order in orders:
        if len(order) != 2:
            raise ValidationError(f"each moment order is a pair [p, q], got {list(order)}")
        _moment_order(*order)
    return orders


def _mode_set(doc, key: str) -> ModeSet:
    rules = ModeSet._rules
    fields = {"spatial_dim": rules["spatial_dim"], "box_side": rules["box_side"],
              "indices": rules["mode_indices"]}
    spatial_dim, box_side, indices = _fields(doc, fields, key)
    return ModeSet(spatial_dim, box_side, 0.0, indices)


_SURFACE = ("schedule", "N_list", "tau")
# a surface scan's schedule: the probe, displacement_surface's arguments before N and tau
_PROBE = {"lambda": PulseSchedule._rules["lam"], "smearing": smearing_from_dict,
          "switching": switching_from_dict}

# the converter of each config field, called with its value and name; a name
# that means one thing per subcommand is keyed by (subcommand, name)
_CONVERT = {
    **dict.fromkeys(("shots", "n_draws", ("moments", "mode")), partial(converted, integer)),
    "half": partial(converted, boolean),
    "theta": partial(converted, real),
    "seed": partial(converted, at_least(0)),
    "D": lambda D, key: _cutoff(D, 8, key),
    "N_list": partial(converted, listed(at_least(1))),
    "points": partial(converted, listed(listed(finite))),
    "boundary_tol": lambda tol, key: _boundary_tol(tol),
    "orders": _orders,
    "chi_file": partial(_path, optional=True),
    "out": _path,
    ("oracle-check", "out"): partial(_path, optional=True),
    "state": lambda doc, key: _inline_or_file(doc, state_from_dict, key),
    "bec": lambda doc, key: _inline_or_file(doc, params_from_dict, "bec parameters"),
    "schedule": lambda doc, key: _fields(doc, _PROBE, key),
    ("bec-map", "schedule"): lambda doc, key: schedule_from_dict(doc),
    "tau": _tau_grid,
    "grid": _axis,
    "alpha": lambda doc, key: None if doc is None else _axis(doc, key),
    "manifold": lambda doc, key: None if doc is None else dict(
        zip(_SURFACE, _fields(doc, dict.fromkeys(_SURFACE), key))),
    "modes": _mode_set,
    ("manifold", "mode"): lambda doc, key: _fields(
        doc, {"k": finite, "omega": positive, "L": positive, "n": dimension}, key),
}

# the fields a run reads whatever the values; _spec reads the others where the run does
_READS = {
    "manifold": (*_SURFACE, "mode"),
    "chi-scan": ("manifold",),
    "simulate": ("state", "points", "shots", "theta", "seed"),
    "wigner": ("chi_file", "alpha", "boundary_tol"),
    "moments": ("mode", "chi_file", "orders"),
    "oracle-check": ("n_draws", "D", "seed"),
    "bec-map": ("bec", "modes", "schedule"),
}


def _spec(command: str, config: dict) -> dict:
    """The checked value of every field a run of command reads, beside the raw
    config, the meta of a table's header (the command and config) and out
    (chi_file and manifold are None where not read). A field
    is read only where the run reads it: theta only with shots > 0, say. The
    readout arguments, the grid budget, each moment order's stencil on a
    planned grid, the moment orders and a state's moment mode go through
    their layer's own check, so bad input is refused before any work."""
    spec = {"config": config, "meta": {"command": command, "config": config},
            "chi_file": None, "manifold": None}

    def read(*keys, doc=config, path=""):  # the value of the last key
        for key in keys:
            spec[key] = (_CONVERT.get((command, key)) or _CONVERT[key])(doc.get(key), path + key)
        return spec[keys[-1]]

    read("out", *_READS[command])
    if spec["manifold"]:  # chi along the displacement surface, not on a grid
        read(*_SURFACE, doc=spec["manifold"], path="manifold.")
    if command == "simulate":
        n = spec["state"].n_modes
        if not spec["points"] or any(len(point) != 2 * n for point in spec["points"]):
            raise ValidationError(f"points must be one or more lists of {2 * n} reals (re, im)")
    elif command in ("chi-scan", "wigner", "moments") and spec["chi_file"] is None:
        state, shots = read("state"), read("shots")
        if command == "moments":
            _check_mode(spec["mode"], state.n_modes)
        on_grid = not spec["manifold"] and (command != "moments" or shots > 0)
        if shots > 0:
            read("theta", "seed", *(("half",) if on_grid and command == "chi-scan" else ()))
        if on_grid:
            spec["grid"] = _state_axes(state, (read("grid"),) * (2 * state.n_modes))
    if "theta" in spec:  # read only where chi is read out
        _readout_args(spec["theta"], spec["shots"], spec["seed"])
    if command == "moments" and "grid" in spec:  # each order's stencil on the planned grid
        for p, q in spec["orders"]:
            _stencil_nodes(spec["grid"], spec["mode"], p, q)
    return spec


# --------------------------------------------------------------------------
# subcommands

def _surface(spec: dict, kmag, omega, L: float, n: int) -> tuple:
    """xi of the modes |k| = kmag, omega_k = omega at each (N, tau) of a surface
    scan, as (points x modes) in N-major order, and the scan's N and tau columns."""
    counts, taus = spec["N_list"], spec["tau"]
    xis = displacement_surface(*spec["schedule"], counts, taus, kmag, omega, L, n)
    return xis.reshape(-1, len(kmag)), {"N": np.repeat(counts, taus.size),
                                        "tau": np.tile(taus, len(counts))}


def cmd_manifold(spec: dict) -> None:
    k, omega, L, n = spec["mode"]
    xi, lead = _surface(spec, [_wave_number(k, n)], [omega], L, n)
    save_chi_points(spec["out"], xi, meta=spec["meta"], lead=lead)
    print(f"wrote {len(xi)} manifold points to {spec['out']}")


def cmd_chi_scan(spec: dict) -> None:
    if not spec["manifold"]:
        grid = _chi_grid_for(spec)
        save_chi_grid(grid, spec["out"], spec["meta"])
        print(f"wrote a {grid.values.shape} chi grid to {spec['out']}")
        return
    # chi along xi(tau, N) of every mode of the state, which the probe
    # displaces at once; the modes' |k|, omega_k and box come from the state
    state, shots, counts = spec["state"], spec["shots"], spec["N_list"]
    modes = state.modes
    xi, lead = _surface(spec, modes.wavenumbers, modes.omegas, modes.box_side, modes.spatial_dim)
    chi, stderr = char_points(state, xi), None
    if shots > 0:  # curve N reads out from seed + N
        readouts = [readout_chi(c, spec["theta"], shots, spec["seed"] + N)
                    for N, c in zip(counts, chi.reshape(len(counts), -1))]
        chi = np.concatenate([r.chi_est for r in readouts])
        stderr = np.concatenate([r.chi_stderr for r in readouts])
    save_chi_points(spec["out"], xi, chi, stderr, spec.get("theta"), shots, spec["meta"], lead)
    print(f"wrote {len(xi)} chi values to {spec['out']}")


def cmd_simulate(spec: dict) -> None:
    xi, shots = np.array(spec["points"]).view(complex), spec["shots"]  # a -0.0 stays -0.0
    r = readout_chi(char_points(spec["state"], xi), spec["theta"], shots, spec["seed"])
    save_chi_points(spec["out"], xi, r.chi_est, r.chi_stderr, spec["theta"], shots, spec["meta"])
    print(f"wrote {len(xi)} readout records to {spec['out']}")


def _chi_grid_for(spec: dict):
    if spec["chi_file"] is not None:
        return load_chi_grid(spec["chi_file"])
    if spec["shots"] > 0:
        return sampled_chi_grid(spec["state"], spec["grid"], spec["theta"], spec["shots"],
                                spec["seed"], spec.get("half", False))
    return chi_grid_from_state(spec["state"], spec["grid"])


def cmd_wigner(spec: dict) -> None:
    grid = hermitian_fill(_chi_grid_for(spec))
    alpha = None if spec["alpha"] is None else (spec["alpha"],) * (2 * grid.n_modes)
    wgrid = wigner_transform(grid, alpha, boundary_tol=spec["boundary_tol"])
    save_wigner_grid(wgrid, spec["out"], spec["meta"])
    print(f"wrote a {wgrid.values.shape} Wigner grid to {spec['out']} "
          f"(integral target {wgrid.normalization:.6g})")


def cmd_moments(spec: dict) -> None:
    # a chi file or a sampled state is read as a filled grid, an exact state as it is
    grid = spec["chi_file"] is not None or "grid" in spec
    source = hermitian_fill(_chi_grid_for(spec)) if grid else spec["state"]
    rows = []
    for p, q in spec["orders"]:
        value, error = moments_fd(source, spec["mode"], p, q, with_error=True)
        rows.append([p, q, value.real, value.imag, float("nan") if error is None else error])
    write_table(spec["out"], ["p", "q", "re_moment", "im_moment", "error"], rows, spec["meta"])
    print(f"wrote {len(rows)} moments to {spec['out']}")


def cmd_oracle_check(spec: dict) -> int:
    reports = run_default_suite(n_draws=spec["n_draws"], D=spec["D"], seed=spec["seed"])
    all_passed = all(r["passed"] for r in reports)
    for r in reports:
        status = "ok  " if r["passed"] else "FAIL"
        print(f"{status} {r['check']:<26} defect {r['defect']:.3e} "
              f"(tol {r['tolerance']:.1e}) D={r['D']}")
    if spec["out"]:
        write_json(spec["out"], {"config": spec["config"], "reports": reports,
                                 "all_passed": all_passed})
        print(f"wrote {len(reports)} oracle reports to {spec['out']}")
    if not all_passed:
        print("oracle suite FAILED", file=sys.stderr)
        return 2
    return 0


def cmd_bec_map(spec: dict) -> None:
    modes = spec["modes"]
    mapped = map_to_protocol(spec["bec"], modes, spec["schedule"])
    per_mode = [
        {"j": list(j), "kmag": float(k), "omega": float(omega), "weight": float(weight),
         "re_xi": float(xi.real), "im_xi": float(xi.imag)}
        for j, k, omega, weight, xi in zip(modes.mode_indices, modes.wavenumbers, mapped.omegas,
                                           mapped.weights, mapped.displacements())
    ]
    schedule = None if mapped.no_signal else schedule_to_dict(mapped.schedule)
    write_json(spec["out"], {"config": spec["config"], "lambda_eff": mapped.lambda_eff,
                             "no_signal": mapped.no_signal, "schedule": schedule,
                             "per_mode": per_mode})
    flag = " (no signal: g_e = g_g)" if mapped.no_signal else ""
    print(f"wrote the mapped protocol for {len(per_mode)} modes to {spec['out']}{flag}")


# --------------------------------------------------------------------------
# argument parsing

_COMMANDS = {
    "manifold": (cmd_manifold, "tabulate reachable displacement curves xi(tau, N)"),
    "chi-scan": (cmd_chi_scan, "evaluate chi on a grid or along the manifold"),
    "simulate": (cmd_simulate, "finite-shot qubit readout records at chosen points"),
    "wigner": (cmd_wigner, "Fourier-transform a chi grid to the quasiprobability"),
    "moments": (cmd_moments, "finite-difference symmetric-ordered moments"),
    "oracle-check": (cmd_oracle_check, "run the truncated-Fock verification suite"),
    "bec-map": (cmd_bec_map, "map condensate-impurity parameters onto the protocol"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input and exit 1; argparse's own 2 would read as
    a refused numerical check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chitomo", description="characteristic-function readout protocol: "
                     "simulation and validation")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file merged over the defaults")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted config override, value parsed as JSON (repeatable)")
        p.add_argument("--out", help="output file path")
        for flag, help_text in _FLAGS.items():
            if flag in _DEFAULTS[name]:
                p.add_argument(f"--{flag}", dest="flags", action="append", metavar=flag.upper(),
                               type=f"{flag}={{}}".format, help=help_text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_spec(args.command, _resolve_config(args))) or 0
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalCheckError as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON in input file: {exc}", file=sys.stderr)
        return 1


def entry(argv=None) -> int:
    """main as the entry of a fresh process (python -m chitomo.cli and the
    chitomo script). On every way out, argparse's own exits included, it
    freezes the objects the process holds, so that the interpreter's last
    collections skip its module, class and function objects, which the OS
    reclaims anyway; atexit handlers and the std-stream flushes still run."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
