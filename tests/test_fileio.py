"""Table format and grid serialization round trips."""
from __future__ import annotations

import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chitomo import fileio
from chitomo.errors import ValidationError
from chitomo.fileio import (
    _BLOCK,
    _CHI_COORDS,
    _WIGNER_COORDS,
    _save_grid,
    load_chi_grid,
    load_wigner_grid,
    read_json,
    read_table,
    save_chi_grid,
    save_wigner_grid,
    write_json,
    write_table,
)
from chitomo.gaussian_field import GaussianFieldState, ModeSet, Squeezed, Thermal
from chitomo.tomography import (
    ChiGrid,
    chi_grid_from_state,
    grid_axis,
    hermitian_fill,
    sampled_chi_grid,
    wigner_transform,
)

MS1 = ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=1.0, mode_indices=[[1]])
MS2 = ModeSet(spatial_dim=1, box_side=2 * np.pi, mass=1.0, mode_indices=[[1], [2]])
THERMAL = GaussianFieldState(modes=MS1, mode_states=[Thermal(n=1.0)])
TWO_MODE = GaussianFieldState(modes=MS2, mode_states=[Thermal(n=0.5), Squeezed(r=0.4)])


# ------------------------------------------------------------------- tables

# The per-cell writer and reader that the columnar ones replaced, kept as the
# reference for their bytes and their parse.

def _reference_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        raise ValidationError("boolean cells are not part of the table format")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _reference_write_table(path, columns, rows, meta=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# chitomo-table v1\n")
        fh.write(f"# meta: {json.dumps(meta or {}, sort_keys=True)}\n")
        fh.write(f"# columns: {','.join(columns)}\n")
        for row in rows:
            if len(row) != len(columns):
                raise ValidationError("row width does not match the column list")
            fh.write(",".join(_reference_cell(v) for v in row) + "\n")


def _reference_read_rows(path) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        return [[float(c) for c in line.rstrip("\n").split(",")]
                for line in fh if line.strip() and not line.startswith("#")]


_INT64 = st.integers(-(2**63), 2**63 - 1)
_INTS = st.one_of(st.sampled_from([0, -1, 2**53 + 1, 2**63 - 1, -(2**63)]), _INT64)
_FLOATS = st.one_of(
    st.sampled_from([math.nan, 0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1, math.inf,
                     -math.inf, 1.7976931348623157e308, 2.2250738585072014e-308]),
    st.floats(),
)


@st.composite
def _tables(draw):
    """(columns, rows): int and float columns, as row lists or one 2-D array."""
    kinds = draw(st.lists(st.sampled_from("if"), min_size=1, max_size=5))
    n = draw(st.integers(0, 12))
    cols = [draw(st.lists(_INTS if k == "i" else _FLOATS, min_size=n, max_size=n))
            for k in kinds]
    rows = [list(r) for r in zip(*cols)]
    if draw(st.booleans()):
        dtype = np.int64 if set(kinds) == {"i"} else float
        rows = np.array(rows, dtype=dtype).reshape(n, len(kinds))
    return [f"c{j}" for j in range(len(kinds))], rows


@settings(max_examples=300, deadline=None)
@given(table=_tables())
def test_columnar_table_matches_per_cell_reference(tmp_path_factory, table):
    columns, rows = table
    d = tmp_path_factory.mktemp("t")
    new, ref = d / "new.csv", d / "ref.csv"
    write_table(new, columns, rows, meta={"k": 1})
    _reference_write_table(ref, columns, rows, meta={"k": 1})
    assert new.read_bytes() == ref.read_bytes()
    got_columns, data, meta = read_table(new)
    assert got_columns == columns and meta == {"k": 1}
    want = np.array(_reference_read_rows(ref), dtype=float).reshape(-1, len(columns))
    assert data.dtype == np.float64 and data.shape == want.shape
    assert data.view(np.uint64).tolist() == want.view(np.uint64).tolist()  # bitwise


# The columnar writer that formatted every cell with repr, a block of 4096
# rows at a time, kept as the reference for the dictionary-formatted one.

def _repr_reference_write_table(path, columns, rows, meta=None):
    cols = list(rows.T) if hasattr(rows, "shape") else [np.asarray(c) for c in zip(*rows)]
    typed = [(str, c) if c.dtype.kind in "iu" else (repr, c.astype(float)) for c in cols]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# chitomo-table v1\n")
        fh.write(f"# meta: {json.dumps(meta or {}, sort_keys=True)}\n")
        fh.write(f"# columns: {','.join(columns)}\n")
        for start in range(0, len(rows), 4096):
            cells = [map(fmt, col[start:start + 4096].tolist()) for fmt, col in typed]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def data_lines_of(path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def _bits(u: int) -> float:
    return float(np.frombuffer(np.uint64(u).tobytes(), dtype=np.float64)[0])


_SPECIAL = [0.0, -0.0, math.nan, _bits(0x7FF8000000000001), _bits(0xFFF8000000000000),
            math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 1e16, 1e-5,
            0.1, -2.5]


@st.composite
def _repetitive_tables(draw):
    """(columns, rows): int and float columns drawn from a few distinct values
    each, special floats included, at row counts around the block size."""
    kinds = draw(st.lists(st.sampled_from("iff"), min_size=1, max_size=4))
    n = draw(st.sampled_from([0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for k in kinds:
        values = _INTS if k == "i" else st.one_of(st.sampled_from(_SPECIAL), st.floats())
        pool = np.array(draw(st.lists(values, min_size=1, max_size=6)),
                        dtype=np.int64 if k == "i" else float)
        cols.append(pool[rng.integers(0, pool.size, n)])
    rows = np.column_stack(cols)  # int64 when every column is, else float64
    if draw(st.booleans()):  # a list of rows of Python ints and floats instead
        rows = [list(r) for r in zip(*(c.tolist() for c in cols))]
    return [f"c{j}" for j in range(len(kinds))], rows


def _returning_table():
    """A float and an int column whose values of block 0 vanish from block 1,
    which holds others, and return in block 2: a dictionary carried stale or
    out of step with its keys misprints them."""
    floats = ([0.1, -0.0, math.nan], [0.0, 2.5, -2.5, math.inf], [0.1, 2.5, -0.0, 0.0], [math.nan])
    ints = ([1, 2], [3, -1, 7], [1, 7, 2], [2])
    sizes = (_BLOCK, _BLOCK, _BLOCK, 7)
    f = np.concatenate([np.resize(v, n) for v, n in zip(floats, sizes)])
    i = np.concatenate([np.resize(v, n) for v, n in zip(ints, sizes)])
    return ["f", "i"], [list(r) for r in zip(f.tolist(), i.tolist())]


@settings(max_examples=120, deadline=None)
@given(table=_repetitive_tables())
@example(table=_returning_table())
def test_dictionary_formatting_matches_the_repr_reference(tmp_path_factory, table):
    columns, rows = table
    d = tmp_path_factory.mktemp("t")
    new, ref = d / "new.csv", d / "ref.csv"
    write_table(new, columns, rows, meta={"k": 1})
    _repr_reference_write_table(ref, columns, rows, meta={"k": 1})
    assert new.read_bytes() == ref.read_bytes()


def test_dictionary_formatting_keeps_signed_zeros_and_nan_payloads(tmp_path):
    col = np.array([0.0, -0.0, math.nan, _bits(0x7FF8000000000001), -0.0, 5e-324] * 300)
    path = tmp_path / "t.csv"
    write_table(path, ["x"], col[:, None])
    assert data_lines_of(path) == ["0.0", "-0.0", "nan", "nan", "-0.0", "5e-324"] * 300


def test_each_distinct_value_is_formatted_once_across_blocks(tmp_path, monkeypatch):
    n = 3 * _BLOCK + 7
    floats = np.linspace(-1.0, 1.0, 101)[np.arange(n) % 101]
    ints = np.arange(n) % 8 - 3
    calls = []

    def counting_repr(v):
        calls.append(v)
        return repr(v)

    monkeypatch.setattr(fileio, "repr", counting_repr, raising=False)
    write_table(tmp_path / "t.csv", ["f", "i"], list(zip(floats.tolist(), ints.tolist())))
    assert len(calls) == 101 + 8  # once per distinct value, not once per block


def test_table_roundtrip_exact(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[1, 0.1, math.pi], [2, -0.25, 1e-17], [3, math.nan, -0.0]]
    write_table(path, ["idx", "a", "b"], rows, meta={"kind": "demo", "seed": 7})
    columns, got, meta = read_table(path)
    assert columns == ["idx", "a", "b"]
    assert meta == {"kind": "demo", "seed": 7}
    for want_row, got_row in zip(rows, got):
        for w, g in zip(want_row, got_row):
            if isinstance(w, float) and math.isnan(w):
                assert math.isnan(g)
            else:
                assert g == w  # repr round trip is exact, not approximate


def test_table_is_deterministic_without_timestamps(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_table(a, ["x"], [[0.1]], meta={"s": 1})
    write_table(b, ["x"], [[0.1]], meta={"s": 1})
    assert a.read_bytes() == b.read_bytes()
    assert b"generated" not in a.read_bytes()


def test_table_timestamp_flag(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["x"], [[1.0]], timestamps=True)
    assert b"# generated:" in path.read_bytes()


def test_table_rejects_bad_cells(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValidationError):
        write_table(path, ["x"], [[True]])
    with pytest.raises(ValidationError):
        write_table(path, ["x", "y"], [[1.0]])
    with pytest.raises(ValidationError):
        write_table(path, ["x"], np.array([[True], [False]]))  # a bool array column
    with pytest.raises(ValidationError):
        write_table(path, ["x", "y"], [[1.0, 2.0], [1.0, 1 + 2j]])  # a complex cell
    with pytest.raises(ValidationError):
        write_table(path, ["x", "y"], [[1.0, 2.0], [1.0]])  # a ragged row


@pytest.mark.parametrize("damage", ["cell", "short_row"])
def test_read_rejects_corrupt_data(tmp_path, damage):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b", "c"], [[1, 0.5, 2.5], [2, 0.25, -1.0], [3, 0.0, 7.0]])
    lines = path.read_text().splitlines(keepends=True)
    lines[-2] = "2,abc,-1.0\n" if damage == "cell" else "2,0.25\n"
    path.write_text("".join(lines))
    with pytest.raises(ValidationError):
        read_table(path)


def test_read_empty_table_keeps_its_width(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], [])
    columns, data, _ = read_table(path)
    assert columns == ["a", "b"]
    assert data.shape == (0, 2)


def test_read_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValidationError):
        read_table(path)


# -------------------------------------------------------------------- grids

def test_chi_grid_roundtrip_bitwise(tmp_path):
    g = sampled_chi_grid(THERMAL, (grid_axis(2.0, 11), grid_axis(2.0, 11)),
                         shots=200, seed=5, half=True)
    path = tmp_path / "chi.csv"
    save_chi_grid(g, path, meta={"note": 1})
    back = load_chi_grid(path)
    np.testing.assert_array_equal(back.values, g.values)  # NaN half included
    np.testing.assert_array_equal(back.stderr, g.stderr)
    for a, b in zip(back.axes, g.axes):
        np.testing.assert_array_equal(a, b)
    assert back.provenance == g.provenance
    assert back.shots == g.shots


def test_chi_grid_roundtrip_keeps_signed_zeros_and_nonfinite_parts(tmp_path):
    values = np.array([complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0),
                       complex(1.0, math.nan), complex(1.0, math.inf), complex(math.inf, 1.0),
                       complex(math.nan, -2.0), complex(-math.inf, -math.inf), 1.0])
    g = ChiGrid(axes=(grid_axis(1.0, 3),) * 2, values=values.reshape(3, 3))
    path = tmp_path / "chi.csv"
    save_chi_grid(g, path)
    back = load_chi_grid(path)
    assert back.values.view(np.int64).tolist() == g.values.view(np.int64).tolist()


@pytest.mark.parametrize("shots", ['"abc"', "100.7", "true"])
def test_chi_grid_meta_shots_must_be_an_exact_integer(tmp_path, shots):
    g = sampled_chi_grid(THERMAL, (grid_axis(2.0, 5),) * 2, shots=100, seed=1)
    path = tmp_path / "chi.csv"
    save_chi_grid(g, path)
    text = path.read_text()
    assert text.count('"shots": 100') == 1
    path.write_text(text.replace('"shots": 100', f'"shots": {shots}'))
    with pytest.raises(ValidationError, match="meta.shots"):
        load_chi_grid(path)


def test_chi_grid_roundtrip_exact_and_two_mode(tmp_path):
    g = chi_grid_from_state(TWO_MODE, (grid_axis(2.0, 7),) * 4)
    path = tmp_path / "chi2.csv"
    save_chi_grid(g, path)
    back = load_chi_grid(path)
    np.testing.assert_array_equal(back.values, g.values)
    assert back.n_modes == 2
    assert back.stderr is None
    columns, _, _ = read_table(path)
    assert columns[:4] == ["re_xi0", "im_xi0", "re_xi1", "im_xi1"]


RAGGED_AXES = tuple(grid_axis(2.0 + 0.5 * k, n) for k, n in enumerate((9, 7, 9, 7)))


@pytest.mark.parametrize("sampled", [False, True])
def test_grid_rows_match_a_meshgrid_table(tmp_path, sampled):
    if sampled:
        g = sampled_chi_grid(TWO_MODE, RAGGED_AXES, shots=50, seed=3, half=True)
    else:
        g = chi_grid_from_state(TWO_MODE, RAGGED_AXES)
    path, ref = tmp_path / "chi.csv", tmp_path / "ref.csv"
    save_chi_grid(g, path)
    mesh = np.meshgrid(*g.axes, indexing="ij")
    values = [g.values.real, g.values.imag] + ([] if g.stderr is None else [g.stderr])
    table = np.stack([m.reshape(-1) for m in mesh] + [v.reshape(-1) for v in values], axis=1)
    columns, _, _ = read_table(path)
    _repr_reference_write_table(ref, columns, table)
    assert data_lines_of(path) == data_lines_of(ref)


def _save_peak(g, path) -> int:
    tracemalloc.start()
    try:
        save_chi_grid(g, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chi_grid_save_peak_memory(tmp_path):
    axes = (grid_axis(3.0, 17),) * 4
    g = chi_grid_from_state(TWO_MODE, axes)
    # one (cells x 6) float table is 3.0 grids; a meshgrid and a stack made 6.1
    assert _save_peak(g, tmp_path / "chi.csv") <= 4.0 * g.values.nbytes
    # a sampled half grid: a stderr column and a NaN half; its (cells x 7)
    # float table is 3.5 grids, and the allowance beyond it is the same 1.0
    g = sampled_chi_grid(TWO_MODE, axes, shots=100, seed=2, half=True)
    table = g.values.size * 7 * 8
    assert _save_peak(g, tmp_path / "sampled.csv") <= table + 1.0 * g.values.nbytes


def _damage_cell(path, row: int, col: int) -> None:
    """Move one cell of a table file by one unit in its last place."""
    lines = path.read_text().splitlines(keepends=True)
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    cells = lines[data[row]].rstrip("\n").split(",")
    cells[col] = repr(float(np.nextafter(float(cells[col]), np.inf)))
    lines[data[row]] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("column, col", [("re_xi0", 0), ("im_xi0", 1), ("re_xi1", 2),
                                         ("im_xi1", 3)])
def test_load_refuses_coordinates_that_are_not_the_axes(tmp_path, column, col):
    path = tmp_path / "chi.csv"
    save_chi_grid(chi_grid_from_state(TWO_MODE, RAGGED_AXES), path)
    load_chi_grid(path)
    _damage_cell(path, 1234, col)
    with pytest.raises(ValidationError, match=f"column {column} does not match"):
        load_chi_grid(path)


def test_load_refuses_meta_axes_that_are_not_the_coordinates(tmp_path):
    g = chi_grid_from_state(THERMAL, (grid_axis(2.0, 5), grid_axis(3.0, 5)))
    path = tmp_path / "chi.csv"
    save_chi_grid(g, path)
    text = path.read_text()
    _, _, meta = read_table(path)
    swapped = dict(meta, axes=meta["axes"][::-1])  # same shape, other order
    path.write_text(text.replace(json.dumps(meta, sort_keys=True),
                                 json.dumps(swapped, sort_keys=True)))
    with pytest.raises(ValidationError, match="column re_xi does not match"):
        load_chi_grid(path)


def test_load_refuses_an_axis_that_is_not_uniform_and_symmetric(tmp_path):
    # odd, increasing and centred on 0, but neither uniform nor mirror-symmetric
    bad = np.array([-1.0, -0.4, 0.0, 0.5, 2.0])
    grid = SimpleNamespace(axes=(bad, grid_axis(1.0, 5)), n_modes=1)
    ones = np.ones((5, 5))
    for kind, coords, values, fields, load in (
        ("chi_grid", _CHI_COORDS, {"re_chi": ones, "im_chi": 0.0 * ones},
         {"provenance": "exact", "shots": 0}, load_chi_grid),
        ("wigner_grid", _WIGNER_COORDS, {"w": ones}, {"normalization": 0.25}, load_wigner_grid),
    ):
        path = tmp_path / f"{kind}.csv"
        _save_grid(path, kind, grid, coords, values, fields, None, False)
        with pytest.raises(ValidationError, match="axis 0 is not uniform and symmetric"):
            load(path)


def test_load_refuses_a_non_finite_axis(tmp_path):
    # NaN and inf round-trip through the meta header and the coordinate columns
    grid = SimpleNamespace(axes=(np.array([math.nan, -1.0, 0.0, 1.0, math.nan]),
                                 np.array([-math.inf, -1.0, 0.0, 1.0, math.inf])), n_modes=1)
    path = tmp_path / "chi.csv"
    _save_grid(path, "chi_grid", grid, _CHI_COORDS,
               {"re_chi": np.ones((5, 5)), "im_chi": np.zeros((5, 5))},
               {"provenance": "exact", "shots": 0}, None, False)
    with pytest.raises(ValidationError, match="axis 0 holds the non-finite value nan"):
        load_chi_grid(path)


def test_load_refuses_a_grid_without_its_coordinates(tmp_path):
    g = chi_grid_from_state(THERMAL, (grid_axis(2.0, 5),) * 2)
    path = tmp_path / "chi.csv"
    save_chi_grid(g, path)
    meta = read_table(path)[2]
    values = np.stack([g.values.real.ravel(), g.values.imag.ravel()], axis=1)
    write_table(path, ["re_chi", "im_chi"], values, meta)
    with pytest.raises(ValidationError, match="lacks one of the columns"):
        load_chi_grid(path)


def test_wigner_grid_roundtrip(tmp_path):
    w = wigner_transform(chi_grid_from_state(THERMAL, (grid_axis(6.0, 65),) * 2))
    path = tmp_path / "w.csv"
    save_wigner_grid(w, path)
    back = load_wigner_grid(path)
    np.testing.assert_array_equal(back.values, w.values)
    assert back.normalization == w.normalization
    assert back.imag_residual == w.imag_residual
    with pytest.raises(ValidationError):
        load_chi_grid(path)  # wrong kind tag


def test_grid_kind_checked(tmp_path):
    g = chi_grid_from_state(THERMAL, (grid_axis(2.0, 5),) * 2)
    path = tmp_path / "chi.csv"
    save_chi_grid(g, path)
    with pytest.raises(ValidationError):
        load_wigner_grid(path)


# --------------------------------------------------------------------- json

def test_json_roundtrip(tmp_path):
    doc = {"b": [1, 2.5], "a": {"nested": True}, "s": "text"}
    path = tmp_path / "doc.json"
    write_json(path, doc)
    assert read_json(path) == doc
    # deterministic key order
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
