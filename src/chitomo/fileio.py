"""Structured-text data files: '#'-prefixed header, CSV payload.

Every file opens with a format tag line, a meta line holding one JSON object
(axes, provenance, resolved configuration, ...) and a columns line, followed
by plain CSV rows. Columns are typed: each is written whole, as integers if
its cells convert to an integer array and with repr if they convert to a float
array (any other dtype is refused). repr round-trips exactly, and read_table
parses the data block into one 2-D float64 array, so loading a grid
reproduces the saved arrays bit for bit. Headers carry no timestamp unless
explicitly requested, keeping identical runs byte-identical.
"""
from __future__ import annotations

import json
import math
import warnings
from datetime import datetime, timezone

import numpy as np

from .errors import ValidationError, integer, read_field
from .tomography import ChiGrid, WignerGrid

__all__ = [
    "write_table",
    "read_table",
    "save_chi_grid",
    "load_chi_grid",
    "save_wigner_grid",
    "load_wigner_grid",
    "write_json",
    "read_json",
]

_TAG = "chitomo-table v1"
_BLOCK = 4096  # rows formatted and written at a time


def _typed_columns(rows, width: int) -> list:
    """(formatter, 1-D array) per column of rows, a 2-D array or a list of
    rows of width cells, each column converted once."""
    if hasattr(rows, "shape"):  # an array's columns are views sharing its dtype
        ok, cols = rows.shape[1:] == (width,), list(rows.T)
    else:
        ok, cols = all(len(row) == width for row in rows), [np.asarray(c) for c in zip(*rows)]
    if not ok:
        raise ValidationError("row width does not match the column list")
    if any(col.dtype.kind not in "iuf" for col in cols):
        raise ValidationError("table columns must convert to integer or float arrays")
    # the cells of .tolist() are Python ints and floats; their str and repr are the format
    return [(str, c) if c.dtype.kind in "iu" else (repr, c.astype(float, copy=False))
            for c in cols]


def write_table(path, columns, rows, meta: dict | None = None, timestamps: bool = False) -> None:
    """CSV with a '#' header: tag, optional timestamp, meta JSON, column names."""
    columns = list(columns)
    typed = _typed_columns(rows, len(columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {_TAG}\n")
        if timestamps:
            stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
            fh.write(f"# generated: {stamp}\n")
        fh.write(f"# meta: {json.dumps(meta or {}, sort_keys=True)}\n")
        fh.write(f"# columns: {','.join(columns)}\n")
        for start in range(0, len(rows), _BLOCK):
            cells = [map(fmt, col[start:start + _BLOCK].tolist()) for fmt, col in typed]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_table(path) -> tuple[list[str], np.ndarray, dict]:
    """Inverse of write_table: column names, the cells as a 2-D float64 array
    (one row per data line) and the meta object."""
    meta: dict = {}
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != f"# {_TAG}":
            raise ValidationError(f"{path} is not a {_TAG} file")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if not line.startswith("#"):
                raise ValidationError(f"{path} has data before a columns header")
            key, _, value = line[1:].lstrip().partition(":")
            if key == "meta":
                meta = json.loads(value)
            elif key == "columns":
                columns = [c.strip() for c in value.split(",")]
                break
        else:
            raise ValidationError(f"{path} has no columns header")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty data block
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:  # a malformed cell or a row of another width
                raise ValidationError(f"{path}: {str(exc).split(';')[0]}") from None
    if data.size == 0:
        data = data.reshape(0, len(columns))
    if data.shape[1] != len(columns):
        raise ValidationError(f"{path}: row width does not match columns")
    return columns, data, meta


def _save_grid(path, kind: str, grid, coords, values: dict, fields: dict, meta, timestamps):
    """One row per grid point, C order: the coordinate pair coords of each
    mode (suffixed by the mode index when there are several), then values."""
    n = grid.n_modes
    names = list(coords) if n == 1 else [f"{c}{m}" for m in range(n) for c in coords]
    doc = dict(meta or {})
    doc.update(fields, kind=kind, axes=[np.asarray(a, dtype=float).tolist() for a in grid.axes])
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    table = np.stack(
        [m.reshape(-1) for m in mesh] + [v.reshape(-1) for v in values.values()], axis=1
    )
    write_table(path, names + list(values), table, doc, timestamps)


def _load_grid(path, kind: str, required: tuple, optional: tuple = ()):
    """(axes, the required then the optional columns on the axes' shape, with
    None for an absent optional one, meta) of a grid file of the given kind."""
    columns, data, meta = read_table(path)
    if meta.get("kind") != kind:
        raise ValidationError(f"{path} is not a {kind.replace('_', ' ')} file")
    try:
        axes = tuple(np.array(a, dtype=float) for a in meta["axes"])
    except KeyError:
        raise ValidationError("grid file carries no axes in its meta header") from None
    shape = tuple(a.size for a in axes)
    if data.shape[0] != math.prod(shape):
        raise ValidationError(f"{path}: row count does not match the axes")
    if not set(required) <= set(columns):
        raise ValidationError(f"{path} lacks one of the columns {', '.join(required)}")
    values = [
        data[:, columns.index(name)].reshape(shape) if name in columns else None
        for name in required + optional
    ]
    return axes, values, meta


def save_chi_grid(
    grid: ChiGrid, path, meta: dict | None = None, timestamps: bool = False
) -> None:
    """One row per grid point, C order: coordinates, Re chi, Im chi[, stderr]."""
    values = {"re_chi": grid.values.real, "im_chi": grid.values.imag}
    if grid.stderr is not None:
        values["stderr"] = grid.stderr
    fields = {"provenance": grid.provenance, "shots": grid.shots}
    _save_grid(path, "chi_grid", grid, ("re_xi", "im_xi"), values, fields, meta, timestamps)


def load_chi_grid(path) -> ChiGrid:
    axes, (re, im, stderr), meta = _load_grid(path, "chi_grid", ("re_chi", "im_chi"), ("stderr",))
    return ChiGrid(
        axes=axes,
        values=re + 1j * im,
        provenance=str(meta.get("provenance", "exact")),
        shots=read_field(meta, "shots", integer, f"{path} meta", 0),
        stderr=stderr,
    )


def save_wigner_grid(
    grid: WignerGrid, path, meta: dict | None = None, timestamps: bool = False
) -> None:
    fields = {"normalization": grid.normalization, "imag_residual": grid.imag_residual}
    _save_grid(path, "wigner_grid", grid, ("x", "p"), {"w": grid.values}, fields, meta, timestamps)


def load_wigner_grid(path) -> WignerGrid:
    axes, (values,), meta = _load_grid(path, "wigner_grid", ("w",))
    return WignerGrid(
        axes=axes,
        values=values,
        normalization=float(meta.get("normalization", float("nan"))),
        imag_residual=float(meta.get("imag_residual", 0.0)),
    )


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
