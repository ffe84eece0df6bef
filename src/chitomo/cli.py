"""Batch command-line front-end emitting plot-ready data files.

Subcommands: manifold | chi-scan | simulate | wigner | moments |
oracle-check | bec-map. Each takes a JSON config file (--config), dotted
--set key=value overrides, and a few dedicated flags; the fully resolved
config is embedded in every output header, so a result file is sufficient to
rerun itself. Identical config + seed gives byte-identical output; headers
carry timestamps only behind --timestamps, on the subcommands that write
tables.

Exit codes: 0 success, 1 bad input, 2 failed numerical safeguard.
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import sys

import numpy as np

from . import __version__
from .bec_analogue import map_to_protocol, params_from_dict
from .errors import (
    NumericalCheckError,
    ValidationError,
    at_least,
    boolean,
    converted,
    integer,
    known_fields,
    listed,
    read_field,
)
from .fileio import (
    _CHI_COORDS,
    _coordinate_names,
    load_chi_grid,
    read_json,
    save_chi_grid,
    save_wigner_grid,
    write_json,
    write_table,
)
from .fock_oracle import run_default_suite
from .gaussian_field import GaussianFieldState, ModeSet, char_points, state_from_dict
from .pulse_protocol import (
    displacement_surface,
    reachable_manifold,
    schedule_from_dict,
    schedule_to_dict,
)
from .ramsey_readout import readout_chi
from .tomography import (
    chi_grid_from_state,
    grid_axis,
    hermitian_fill,
    moments_fd,
    sampled_chi_grid,
    wigner_transform,
)

_TWO_PI = 2.0 * math.pi

_VACUUM_STATE = {
    "spatial_dim": 1,
    "box_side": _TWO_PI,
    "mass": 1.0,
    "modes": [{"j": [0], "kind": "vacuum", "params": {}}],
}

_BASE_SCHEDULE = {
    "lambda": 0.01,
    "tau": 1.0,
    "N": 1,
    "smearing": {"kind": "delta"},
    "switching": {"kind": "constant", "value": 1.0},
}

_BASE_MODE = {"k": 1.0, "omega": 1.0, "L": _TWO_PI, "n": 1}

_DEFAULTS: dict[str, dict] = {
    "manifold": {
        "schedule": _BASE_SCHEDULE,
        "mode": _BASE_MODE,
        "N_list": [1, 4, 5, 6, 7, 8, 9, 10],
        "tau": {"min": 0.02, "max": _TWO_PI, "points": 315},
        "timestamps": False,
    },
    "chi-scan": {
        "state": _VACUUM_STATE,
        "grid": {"extent": 6.0, "points": 129},
        "manifold": None,
        "theta": math.pi / 2,
        "shots": 0,
        "half": False,
        "seed": 0,
        "timestamps": False,
    },
    "simulate": {
        "state": _VACUUM_STATE,
        "points": [[0.2, 0.0]],
        "theta": math.pi / 2,
        "shots": 10_000,
        "seed": 0,
        "timestamps": False,
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
        "timestamps": False,
    },
    "moments": {
        "state": _VACUUM_STATE,
        "chi_file": None,
        "orders": [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]],
        "mode": 0,
        "h": None,
        "richardson": True,
        "grid": {"extent": 6.0, "points": 129},
        "theta": math.pi / 2,
        "shots": 0,
        "seed": 0,
        "timestamps": False,
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
            "omega0": 1.0,
        },
        "modes": {"spatial_dim": 1, "box_side": _TWO_PI, "indices": [[1], [2], [3]]},
        "schedule": _BASE_SCHEDULE,
    },
}


# dedicated flags; a subcommand takes one only when its defaults carry the key
# (timestamps: the subcommands that write tables)
_FLAGS = {
    "seed": {"type": int, "help": "RNG seed recorded in the output"},
    "shots": {"type": int, "help": "measurements per point (0 = exact)"},
    "theta": {"type": float, "help": "preparation angle"},
    "timestamps": {"action": "store_true", "default": None,
                   "help": "stamp table headers with the generation time"},
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
    for flag in (*_FLAGS, "out"):
        value = getattr(args, flag, None)
        if value is not None:
            config[flag] = value
    known_fields(config, (*_DEFAULTS[args.command], "out"), f"the {args.command} config")
    if "out" not in config and args.command != "oracle-check":
        raise ValidationError("an output path is required (--out or config key 'out')")
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


def _state(config) -> GaussianFieldState:
    return _inline_or_file(config["state"], state_from_dict, "state")


def _get(config: dict, key: str, kind):
    return converted(kind, config[key], key)


def _fields(doc, fields: dict, key: str) -> list:
    """The values of the config object at key, which must hold exactly the
    given fields; a field mapped to a converter (not None) is converted."""
    known_fields(doc, fields, key)
    return [read_field(doc, name, kind, key) for name, kind in fields.items()]


def _tau_grid(doc, key: str) -> np.ndarray:
    lo, hi, points = _fields(doc, {"min": float, "max": float, "points": integer}, key)
    if not (0 < lo < hi and points >= 2):
        raise ValidationError("tau grid needs 0 < min < max and >= 2 points")
    return np.linspace(lo, hi, points)


def _grid_axes(config: dict, key: str, n_modes: int):
    extent, points = _fields(config[key], {"extent": float, "points": integer}, key)
    return tuple(grid_axis(extent, points) for _ in range(2 * n_modes))


def _header(command: str, config: dict) -> dict:
    """The meta and timestamps arguments of a table writer."""
    return {"meta": {"command": command, "config": config},
            "timestamps": _get(config, "timestamps", boolean)}


def _manifold_spec(schedule, N_list, tau) -> tuple:
    counts = converted(listed(at_least(1)), N_list, "N_list")
    return schedule_from_dict(schedule), counts, _tau_grid(tau, "tau")


# --------------------------------------------------------------------------
# subcommands

def _surface_rows(counts, taus, xis, *values) -> list:
    """One row per (N, tau) of a displacement surface xis: N, tau, Re and Im
    of xi per mode, then each of values (arrays of shape (N, tau)) there."""
    cells = np.stack([xis.real, xis.imag], axis=-1).reshape(len(counts), len(taus), -1)
    cells = np.concatenate([cells, *(v[..., None] for v in values)], axis=-1).tolist()
    return [[N, tau, *row] for N, block in zip(counts, cells)
            for tau, row in zip(taus.tolist(), block)]


def cmd_manifold(config: dict) -> None:
    sched, counts, taus = _manifold_spec(config["schedule"], config["N_list"], config["tau"])
    mode = _fields(config["mode"], {"k": float, "omega": float, "L": float, "n": integer}, "mode")
    curves = reachable_manifold(sched, counts, taus, *mode)
    rows = _surface_rows(counts, taus, np.array([c.xis for c in curves])[..., None])
    write_table(config["out"], ["N", "tau", "re_xi", "im_xi"], rows, **_header("manifold", config))
    print(f"wrote {len(rows)} manifold points to {config['out']}")


def _chi_scan_manifold(config: dict, state: GaussianFieldState) -> None:
    """chi along xi(tau, N) of every mode of the state, which the probe
    displaces at once; the modes' |k|, omega_k and box come from the state."""
    spec = _fields(config["manifold"], dict.fromkeys(("schedule", "N_list", "tau")), "manifold")
    sched, counts, taus = _manifold_spec(*spec)
    modes = state.modes
    xis = displacement_surface(sched, counts, taus, modes.wavenumbers, modes.omegas,
                               modes.box_side, modes.spatial_dim)
    chis = char_points(state, xis.reshape(-1, state.n_modes)).reshape(xis.shape[:2])
    columns = ["N", "tau", *_coordinate_names(_CHI_COORDS, state.n_modes), "re_chi", "im_chi"]
    shots, stderr = _get(config, "shots", integer), []
    if shots > 0:  # curve N reads out from seed + N
        theta, seed = _get(config, "theta", float), _get(config, "seed", at_least(0))
        readouts = [readout_chi(chi, theta, shots, seed + N) for N, chi in zip(counts, chis)]
        chis = np.array([r.chi_est for r in readouts])
        stderr = [np.array([r.chi_stderr for r in readouts])]
        columns.append("stderr")
    rows = _surface_rows(counts, taus, xis, chis.real, chis.imag, *stderr)
    write_table(config["out"], columns, rows, **_header("chi-scan", config))
    print(f"wrote {len(rows)} chi values to {config['out']}")


def cmd_chi_scan(config: dict) -> None:
    if config.get("manifold"):
        _chi_scan_manifold(config, _state(config))
        return
    grid = _chi_grid_for(config)
    save_chi_grid(grid, config["out"], **_header("chi-scan", config))
    print(f"wrote a {grid.values.shape} chi grid to {config['out']}")


def cmd_simulate(config: dict) -> None:
    state = _state(config)
    n = state.n_modes
    reals = listed(lambda entry: np.asarray(entry, dtype=float).reshape(-1))
    points = _get(config, "points", reals)
    if not points or any(flat.size != 2 * n for flat in points):
        raise ValidationError(f"points must be one or more lists of {2 * n} reals (re, im)")
    flat = np.array(points)
    theta = _get(config, "theta", float)
    shots = _get(config, "shots", integer)
    seed = _get(config, "seed", at_least(0))
    r = readout_chi(char_points(state, flat[:, 0::2] + 1j * flat[:, 1::2]), theta, shots, seed)
    columns = _coordinate_names(_CHI_COORDS, n)
    columns += ["theta", "M", "est_sx", "est_sy", "re_chi", "im_chi", "seed"]
    rows = [
        [*xi, theta, shots, sx, sy, chi.real, chi.imag, seed]
        for xi, sx, sy, chi in zip(
            flat.tolist(), r.est_sx.tolist(), r.est_sy.tolist(), r.chi_est.tolist()
        )
    ]
    write_table(config["out"], columns, rows, **_header("simulate", config))
    print(f"wrote {len(rows)} readout records to {config['out']}")


def _chi_file(config: dict) -> str | None:
    """The chi_file path, or None to compute the grid from the state."""
    path = config.get("chi_file")
    if path is not None and not (isinstance(path, str) and path):
        raise ValidationError(f"chi_file must be null or a file path, got {path!r}")
    return path


def _chi_grid_for(config: dict):
    path = _chi_file(config)
    if path is not None:
        return load_chi_grid(path)
    state = _state(config)
    axes = _grid_axes(config, "grid", state.n_modes)
    shots = _get(config, "shots", integer)
    if shots > 0:
        return sampled_chi_grid(
            state, axes,
            theta=_get(config, "theta", float),
            shots=shots,
            seed=_get(config, "seed", at_least(0)),
            half=converted(boolean, config.get("half", False), "half"),
        )
    return chi_grid_from_state(state, axes)


def cmd_wigner(config: dict) -> None:
    grid = hermitian_fill(_chi_grid_for(config))
    alpha_axes = _grid_axes(config, "alpha", grid.n_modes) if config.get("alpha") else None
    wgrid = wigner_transform(grid, alpha_axes, boundary_tol=_get(config, "boundary_tol", float))
    save_wigner_grid(wgrid, config["out"], **_header("wigner", config))
    print(
        f"wrote a {wgrid.values.shape} Wigner grid to {config['out']} "
        f"(integral target {wgrid.normalization:.6g})"
    )


def cmd_moments(config: dict) -> None:
    mode = _get(config, "mode", integer)
    h = None if config["h"] is None else _get(config, "h", float)
    if _chi_file(config) is not None or _get(config, "shots", integer) > 0:
        source = hermitian_fill(_chi_grid_for(config))
    else:
        source = _state(config)
    rows = []
    for order in _get(config, "orders", listed(listed(integer))):
        if len(order) != 2:
            raise ValidationError(f"each moment order is a pair [p, q], got {order}")
        p, q = order
        value, error = moments_fd(
            source, mode, p, q,
            h=h,
            richardson=_get(config, "richardson", boolean),
            with_error=True,
        )
        rows.append([p, q, value.real, value.imag, float("nan") if error is None else error])
    write_table(config["out"], ["p", "q", "re_moment", "im_moment", "error"], rows,
                **_header("moments", config))
    print(f"wrote {len(rows)} moments to {config['out']}")


def cmd_oracle_check(config: dict) -> int:
    reports = run_default_suite(
        n_draws=_get(config, "n_draws", integer), D=_get(config, "D", integer),
        seed=_get(config, "seed", at_least(0)),
    )
    all_passed = all(r["passed"] for r in reports)
    for r in reports:
        status = "ok  " if r["passed"] else "FAIL"
        print(
            f"{status} {r['check']:<26} defect {r['defect']:.3e} "
            f"(tol {r['tolerance']:.1e}) D={r['D']}"
        )
    if config.get("out"):
        write_json(
            config["out"],
            {"config": config, "reports": reports, "all_passed": all_passed},
        )
        print(f"wrote {len(reports)} oracle reports to {config['out']}")
    if not all_passed:
        print("oracle suite FAILED", file=sys.stderr)
        return 2
    return 0


def cmd_bec_map(config: dict) -> None:
    params = _inline_or_file(config["bec"], params_from_dict, "bec parameters")
    spatial_dim, box_side, indices = _fields(
        config["modes"],
        {"spatial_dim": integer, "box_side": float, "indices": listed(listed(integer))},
        "modes",
    )
    modes = ModeSet(
        spatial_dim=spatial_dim,
        box_side=box_side,
        mass=0.0,
        mode_indices=tuple(map(tuple, indices)),
    )
    template = schedule_from_dict(config["schedule"])
    mapped = map_to_protocol(params, modes, template)
    xis = mapped.displacements()
    per_mode = []
    for m, j in enumerate(modes.mode_indices):
        per_mode.append(
            {
                "j": list(j),
                "kmag": float(modes.wavenumbers[m]),
                "omega": float(mapped.omegas[m]),
                "weight": float(mapped.weights[m]),
                "re_xi": float(xis[m].real),
                "im_xi": float(xis[m].imag),
            }
        )
    write_json(
        config["out"],
        {
            "config": config,
            "lambda_eff": mapped.lambda_eff,
            "no_signal": mapped.no_signal,
            "schedule": None if mapped.no_signal else schedule_to_dict(mapped.schedule),
            "per_mode": per_mode,
        },
    )
    flag = " (no signal: g_e = g_g)" if mapped.no_signal else ""
    print(f"wrote the mapped protocol for {len(per_mode)} modes to {config['out']}{flag}")


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
    parser = _Parser(
        prog="chitomo",
        description="characteristic-function readout protocol: simulation and validation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file merged over the defaults")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="dotted config override, value parsed as JSON (repeatable)",
        )
        p.add_argument("--out", help="output file path")
        for flag, spec in _FLAGS.items():
            if flag in _DEFAULTS[name]:
                p.add_argument(f"--{flag}", **spec)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        result = args.func(config)
        return int(result) if result is not None else 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalCheckError as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON in input file: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
