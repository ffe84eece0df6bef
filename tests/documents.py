"""Documents written from records for the readers to read back: a record's
document holds its __init__ fields under their own names."""
from __future__ import annotations

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
