"""Structured-text data files: '#'-prefixed header, CSV payload.

Every file opens with a format tag line, a meta line holding one JSON object
(axes, provenance, resolved configuration, ...) and a columns line, followed
by plain CSV rows. Columns are typed: each is written as integers if its
cells convert to an integer array and with repr if they convert to a float
array (any other dtype is refused). Rows are formatted and written a block
at a time. Each column is formatted as a dictionary: each distinct key (the
bit pattern of a float, the value of an integer) is passed to repr once and
its text reused for every cell that holds it, and a column's dictionary
carries into the next block, so a value recurring across blocks is formatted
once. Beyond the table, memory is bounded by one block's cell labels plus
the previous block's keys and labels per column. Equal bits give equal
text, so the bytes are those of formatting every cell; -0.0 and 0.0 stay
distinct, and every NaN prints as nan. repr round-trips exactly, and
read_table parses the data block into one 2-D float64 array.
A grid file has one rule: its rows are grid points in C order, each
coordinate bitwise on its meta axis, and only a leading run of unmeasured
points may be left out; a file that breaks it is refused. An unmeasured
point holds what sampled_chi_grid stores there (Re chi NaN, Im chi +0.0,
stderr NaN or no stderr column), so only a chi file leaves points out: a
half-plane scan's lower half is such a run, so it writes and parses only
its upper half, and loading gives the run that value back. A file that
leaves points out counts its rows in the meta field rows, and any other
grid file must list every point, so a file that lost a row is refused.
Loading a grid therefore reproduces the saved arrays bit for bit, signed
zeros and NaN or infinite parts included, and a chi file that lists every
point, as files written before the rule did, loads as before.
A sampled chi file records its readout's theta in the meta beside shots,
and its stderr column is derived data: each point's error is a function of
its own chi, theta and shots (ramsey_readout._counts), so the column is
left out wherever that derivation gives the grid's errors back bit for bit,
and loading derives them. A file with a stderr column, such as one written
before theta was recorded, is read as it is.
A points file (save_chi_points) has a row per point: lead columns such as N
and tau, each mode's coordinates, re_chi, im_chi and stderr by that rule.
Headers carry no timestamp, so identical runs write identical bytes;
read_table skips a '#' line it does not know, such as the generated:
stamp of older files.
"""
from __future__ import annotations

import json
import math
import warnings

import numpy as np

from .errors import ValidationError, at_least, integer, listed, read_field, real
from .ramsey_readout import _counts, _sin_theta
from .tomography import _UNMEASURED, ChiGrid, WignerGrid

__all__ = [
    "write_table",
    "read_table",
    "save_chi_grid",
    "load_chi_grid",
    "save_chi_points",
    "save_wigner_grid",
    "load_wigner_grid",
    "write_json",
    "read_json",
]

_TAG = "chitomo-table v1"
_BLOCK = 1024  # rows formatted and written at a time
_CHI_COORDS = ("re_xi", "im_xi")  # the coordinate pair of each mode in a grid file
_WIGNER_COORDS = ("x", "p")
# a chi file's cells at a point that sampled_chi_grid left unmeasured; a
# leading run of such points has no rows
_MISSING = {"re_chi": _UNMEASURED[0].real, "im_chi": _UNMEASURED[0].imag,
            "stderr": _UNMEASURED[1]}


def _typed_columns(rows, width: int) -> list:
    """The 1-D integer or float64 array of each column of rows, a 2-D array
    or a list of rows of width cells, each column converted once."""
    if hasattr(rows, "shape"):  # an array's columns are views sharing its dtype
        ok, cols = rows.shape[1:] == (width,), list(rows.T)
    else:
        ok, cols = all(len(row) == width for row in rows), [np.asarray(c) for c in zip(*rows)]
    if not ok:
        raise ValidationError("row width does not match the column list")
    if any(col.dtype.kind not in "iuf" for col in cols):
        raise ValidationError("table columns must convert to integer or float arrays")
    return [c.astype(float, copy=False) if c.dtype.kind == "f" else c for c in cols]


_NO_LABELS = (np.empty(0, np.int64), np.empty(0, object))  # the dictionary before block 0


def _cells(block, prev) -> tuple[list, tuple]:
    """(repr of each cell of block, the block's dictionary): keys are the bit
    patterns of a float column or the integers themselves (repr(int) is
    str(int)), and each distinct key is formatted once. prev, the previous
    block's (sorted keys, labels), carries into this block, so only keys new
    to it are formatted. Beyond the table this holds one block's labels plus
    the previous block's keys and labels. Equal bits give an equal repr, so
    the text is that of formatting every cell."""
    keys, where = np.unique(block.view(np.int64) if block.dtype.kind == "f" else block,
                            return_inverse=True)
    old_keys, old_labels = prev
    at = np.searchsorted(old_keys, keys)
    found = at < old_keys.size
    found[found] = old_keys[at[found]] == keys[found]
    labels = np.empty(keys.size, dtype=object)
    labels[found] = old_labels[at[found]]
    labels[~found] = list(map(repr, keys[~found].view(block.dtype).tolist()))
    return labels[where].tolist(), (keys, labels)


def write_table(path, columns, rows, meta: dict | None = None) -> None:
    """CSV with a '#' header: tag, meta JSON, column names."""
    columns = list(columns)
    cols = _typed_columns(rows, len(columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {_TAG}\n")
        fh.write(f"# meta: {json.dumps(meta or {}, sort_keys=True)}\n")
        fh.write(f"# columns: {','.join(columns)}\n")
        dicts = [_NO_LABELS] * len(cols)
        for start in range(0, len(rows), _BLOCK):
            cells = []
            for j, col in enumerate(cols):
                text, dicts[j] = _cells(col[start:start + _BLOCK], dicts[j])
                cells.append(text)
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


def _coordinate_names(coords, n_modes: int) -> list[str]:
    """The coordinate pair coords of each mode, suffixed by the mode index
    when there are several."""
    return list(coords) if n_modes == 1 else [f"{c}{m}" for m in range(n_modes) for c in coords]


def _along(axis, k: int, ndim: int):
    """axis shaped to vary along dimension k of an ndim-dimensional grid."""
    return axis.reshape((-1,) + (1,) * (ndim - 1 - k))


def _holds(column, value: float):
    """Where column holds value, bit for bit; any NaN holds a NaN value."""
    if math.isnan(value):
        return np.isnan(column)
    return np.asarray(column, dtype=float).view(np.int64) == np.float64(value).view(np.int64)


def _save_grid(path, kind: str, grid, coords, values: dict, fields: dict, meta, skip: int = 0):
    """One row per grid point in C order, the coordinates then values, but
    for the first skip points; the meta field rows then counts the rows."""
    names = _coordinate_names(coords, grid.n_modes) + list(values)
    axes = [np.asarray(a, dtype=float) for a in grid.axes]
    doc = {k: v for k, v in (meta or {}).items() if k != "rows"}  # the file's own field
    doc.update(fields, kind=kind, axes=[a.tolist() for a in axes])
    shape = tuple(a.size for a in axes)
    rows = math.prod(shape) - skip
    if skip:  # the header counts the rows, so a cut file is refused
        doc["rows"] = rows
    table = np.empty((rows, len(names)))
    columns = [_along(a, k, len(shape)) for k, a in enumerate(axes)] + list(values.values())
    for k, c in enumerate(columns):  # filled column by column, no mesh
        table[:, k] = np.broadcast_to(c, shape).reshape(-1)[skip:]
    write_table(path, names, table, doc)


def _load_grid(path, kind: str, coords, required: tuple, optional: tuple = (), missing=None):
    """(axes, the required then the optional columns on the axes' shape, with
    None for an absent optional one, meta) of a grid file of the given kind.
    Its coordinate columns must be, bit for bit, the last rows points of the
    C-order outer product of its meta axes. rows is every point unless
    missing maps each column to its cell at a point without a row; rows is
    then the meta field rows, every point if there is none, and each leading
    point left out gets those cells."""
    columns, data, meta = read_table(path)
    where = f"{path} meta"
    if read_field(meta, "kind", None, where, None) != kind:
        raise ValidationError(f"{path} is not a {kind.replace('_', ' ')} file")
    axes = tuple(map(np.array, read_field(meta, "axes", listed(listed(real)), where)))
    names = _coordinate_names(coords, len(axes) // 2)
    if not axes or len(names) != len(axes):
        raise ValidationError(f"{path}: meta axes are not one 1-D (Re, Im) pair per mode")
    shape = tuple(a.size for a in axes)
    cells = math.prod(shape)
    rows = cells if missing is None else read_field(meta, "rows", integer, where, cells)
    if data.shape[0] != rows or rows > cells:
        raise ValidationError(f"{path}: row count does not match the axes")
    needed = names + list(required)
    if not set(needed) <= set(columns):
        raise ValidationError(f"{path} lacks one of the columns {', '.join(needed)}")
    skip = cells - rows
    for k, (name, a) in enumerate(zip(names, axes)):
        want = np.broadcast_to(_along(a, k, len(shape)), shape).reshape(-1)[skip:]
        off = np.flatnonzero(data[:, columns.index(name)].view(np.int64) != want.view(np.int64))
        if off.size:
            raise ValidationError(
                f"{path}: column {name} does not match the meta axes at data row {off[0] + 1}")
    del want  # so that the value columns are built without it

    def column(name):
        col = data[:, columns.index(name)]
        if skip:
            col = np.concatenate((np.full(skip, missing[name]), col))
        return col.reshape(shape)

    values = [column(name) if name in columns else None for name in required + optional]
    return axes, values, meta


def _keeps_stderr(chi, stderr, theta, shots: int) -> bool:
    """Whether a table keeps the errors stderr of its chi (both flat) as a
    column: unless _counts gives them back bit for bit from chi, theta, shots."""
    return stderr is not None and not (theta is not None and shots >= 1 and np.array_equal(
        _counts(chi, theta, shots).chi_stderr.view(np.int64), stderr.view(np.int64)))


def save_chi_grid(grid: ChiGrid, path, meta: dict | None = None) -> None:
    """One row per grid point, C order: coordinates, Re chi, Im chi[, stderr].
    The leading run of points with Re chi NaN, Im chi +0.0 and stderr NaN or
    absent, as sampled_chi_grid leaves the points it did not measure, has no
    rows, so a half-plane grid writes its upper half and the meta field rows
    counts them. A real grid writes +0.0 as its Im chi, as its complex copy
    would. A grid with a theta records it in the meta; its stderr column
    goes by _keeps_stderr: left out on a grid that sampled_chi_grid returns,
    kept at shots = 0 or on a filled grid's averaged cells. A grid with a
    theta and shots >= 1 but no stderr is refused before anything is
    written: its file would load with the errors derived from them."""
    if grid.theta is not None and grid.shots >= 1 and grid.stderr is None:
        raise ValidationError(
            f"a grid with theta = {grid.theta} and shots = {grid.shots} but no stderr "
            f"would load with errors derived from them; give it its stderr or no theta"
        )
    im = grid.values.imag if np.iscomplexobj(grid.values) else 0.0  # no grid of zeros
    values = {"re_chi": grid.values.real, "im_chi": im}
    if grid.stderr is not None:
        values["stderr"] = grid.stderr
    unmeasured = True
    for name, column in values.items():
        unmeasured = unmeasured & _holds(column, _MISSING[name])
    skip = int(np.count_nonzero(np.logical_and.accumulate(unmeasured.reshape(-1))))
    del unmeasured  # so that the save holds no mask
    fields = {"provenance": grid.provenance, "shots": grid.shots}
    if grid.theta is not None:
        fields["theta"] = grid.theta
    stderr = None if grid.stderr is None else grid.stderr.reshape(-1)[skip:]
    if not _keeps_stderr(grid.values.reshape(-1)[skip:], stderr, grid.theta, grid.shots):
        values.pop("stderr", None)
    _save_grid(path, "chi_grid", grid, _CHI_COORDS, values, fields, meta, skip)


def save_chi_points(path, xi, chi=None, stderr=None, theta=None, shots: int = 0,
                    meta: dict | None = None, lead: dict | None = None) -> None:
    """One row per point: the lead columns (name -> 1-D array), Re and Im xi
    per mode (xi is points x modes), then, given chi, Re and Im chi and its
    errors stderr where _keeps_stderr keeps them for a readout at theta and
    shots >= 1; a readout at shots = 0 is exact and writes no errors."""
    coords = np.stack([xi.real, xi.imag], axis=-1).reshape(len(xi), -1).T
    cols = {**(lead or {}), **dict(zip(_coordinate_names(_CHI_COORDS, xi.shape[1]), coords))}
    if chi is not None:
        cols.update(re_chi=chi.real, im_chi=chi.imag)
        if shots and _keeps_stderr(chi, stderr, theta, shots):
            cols["stderr"] = stderr
    write_table(path, cols, list(zip(*(np.asarray(c).tolist() for c in cols.values()))), meta)


def _meta_theta(meta, where: str) -> float | None:
    """The theta field of a chi file's meta, None if it has none; a theta that
    readout_chi would refuse is refused by name."""
    if "theta" not in meta:
        return None
    theta = read_field(meta, "theta", real, where)
    try:
        _sin_theta(theta)
    except ValidationError as exc:
        raise ValidationError(f"{where}.theta: {exc}") from None
    return theta


def load_chi_grid(path) -> ChiGrid:
    """The grid save_chi_grid wrote, or any chi file of its layout: the
    leading points without a row hold the cells of _MISSING. A file without
    a stderr column whose meta has theta and shots >= 1 gets the errors
    _counts derives from its rows, as save_chi_grid checked they would be."""
    axes, (re, im, stderr), meta = _load_grid(
        path, "chi_grid", _CHI_COORDS, ("re_chi", "im_chi"), ("stderr",), _MISSING
    )
    # re + 1j * im would turn a -0.0 real part into 0.0 and 1j * inf into nan + infj
    values = np.empty(re.shape, dtype=complex)
    values.real, values.imag = re, im
    where = f"{path} meta"
    shots = read_field(meta, "shots", at_least(0), where, 0)
    theta = _meta_theta(meta, where)
    if stderr is None and theta is not None and shots >= 1:
        skip = values.size - read_field(meta, "rows", integer, where, values.size)
        stderr = np.full(values.shape, _MISSING["stderr"])
        stderr.reshape(-1)[skip:] = _counts(values.reshape(-1)[skip:], theta, shots).chi_stderr
    return ChiGrid(
        axes=axes,
        values=values,
        provenance=read_field(meta, "provenance", None, where, "exact"),
        shots=shots,
        stderr=stderr,
        theta=theta,
    )


def save_wigner_grid(grid: WignerGrid, path, meta: dict | None = None) -> None:
    fields = {"normalization": grid.normalization, "imag_residual": grid.imag_residual}
    _save_grid(path, "wigner_grid", grid, _WIGNER_COORDS, {"w": grid.values}, fields, meta)


def load_wigner_grid(path) -> WignerGrid:
    axes, (values,), meta = _load_grid(path, "wigner_grid", _WIGNER_COORDS, ("w",))
    return WignerGrid(
        axes=axes,
        values=values,
        normalization=read_field(meta, "normalization", real, f"{path} meta", math.nan),
        imag_residual=read_field(meta, "imag_residual", real, f"{path} meta", 0.0),
    )


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
