"""Documents written from records for the readers to read back: a record's
document holds its __init__ fields under their own names. Also the older
layout of grid files, which listed each row's coordinates beside its values."""
from __future__ import annotations

import numpy as np

from chitomo.fileio import read_table, write_table
from chitomo.gaussian_field import _KINDS

_KIND_NAMES = {cls: name for name, cls in _KINDS.items()}


def fields_of(record) -> dict:
    """The document params_from_dict (or read_object) reads back as record."""
    return {name: getattr(record, name) for name in record._args}


def state_to_dict(state) -> dict:
    """The document state_from_dict reads back as state."""
    modes = state.modes
    return {
        "spatial_dim": modes.spatial_dim,
        "box_side": modes.box_side,
        "mass": modes.mass,
        "modes": [{"j": list(j), "kind": _KIND_NAMES[type(s)], "params": fields_of(s)}
                  for j, s in zip(modes.mode_indices, state.mode_states)],
    }


# the coordinate pair of each mode in a grid file of the older layout
_COORDINATES = {"chi_grid": ("re_xi", "im_xi"), "wigner_grid": ("x", "p")}


def write_with_coordinates(path, out=None) -> None:
    """Write the grid file at path to out (path itself by default) in the
    older layout, through write_table: each row's coordinates on the meta
    axes, each mode's pair suffixed by the mode index when there are
    several, then the file's value columns."""
    columns, data, meta = read_table(path)
    axes = [np.array(a, dtype=float) for a in meta["axes"]]
    pair = _COORDINATES[meta["kind"]]
    names = list(pair) if len(axes) == 2 else [
        f"{c}{m}" for m in range(len(axes) // 2) for c in pair]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.reshape(-1) for m in mesh], axis=1)[mesh[0].size - len(data):]
    write_table(path if out is None else out, names + columns, np.hstack([coords, data]), meta)
