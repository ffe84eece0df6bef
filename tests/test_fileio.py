"""Table format and grid serialization round trips."""
from __future__ import annotations

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chitomo import fileio
from chitomo.cli import main
from chitomo.errors import ValidationError
from chitomo.fileio import (
    _BLOCK,
    _save_grid,
    load_chi_grid,
    load_wigner_grid,
    read_json,
    read_table,
    save_chi_grid,
    save_chi_points,
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

from documents import write_with_coordinates

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


def test_table_with_a_generated_stamp_still_loads(tmp_path):
    # files written before headers lost their timestamp carry a generated: line
    path = tmp_path / "t.csv"
    write_table(path, ["x"], [[1.0]], meta={"s": 1})
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([lines[0], "# generated: 2024-01-01T00:00:00+00:00\n", *lines[1:]]))
    columns, data, meta = read_table(path)
    assert columns == ["x"] and data.tolist() == [[1.0]] and meta == {"s": 1}


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
    columns, _, meta = read_table(path)
    # the errors are derived from chi, theta and shots on load
    assert "stderr" not in columns and meta["theta"] == math.pi / 2
    back = load_chi_grid(path)
    np.testing.assert_array_equal(back.values, g.values)  # NaN half included
    assert back.stderr.tobytes() == g.stderr.tobytes()
    for a, b in zip(back.axes, g.axes):
        np.testing.assert_array_equal(a, b)
    assert (back.provenance, back.shots, back.theta) == (g.provenance, g.shots, g.theta)


@pytest.mark.parametrize("theta", [0.3, -1.1])
def test_a_filled_sampled_grid_keeps_its_stderr_column(tmp_path, theta):
    # the fill averages the origin's two reads, an error no count gives
    g = hermitian_fill(sampled_chi_grid(THERMAL, (grid_axis(2.0, 11),) * 2, theta=theta,
                                        shots=300, seed=4, half=True))
    assert g.theta == theta
    path = tmp_path / "chi.csv"
    save_chi_grid(g, path)
    assert read_table(path)[0][-1] == "stderr"
    back = load_chi_grid(path)
    assert back.values.tobytes() == g.values.tobytes()
    assert back.stderr.tobytes() == g.stderr.tobytes()
    assert (back.shots, back.theta) == (300, theta)


def test_a_two_mode_sampled_half_grid_roundtrips_without_its_stderr_column(tmp_path):
    g = sampled_chi_grid(TWO_MODE, (grid_axis(3.0, 17),) * 4, theta=2.5, shots=1000, seed=6,
                         half=True)
    path = tmp_path / "chi.csv"
    save_chi_grid(g, path)
    columns, data, meta = read_table(path)
    assert "stderr" not in columns and len(data) == meta["rows"] == (17**4 + 1) // 2
    back = load_chi_grid(path)
    assert back.values.tobytes() == g.values.tobytes()
    assert back.stderr.tobytes() == g.stderr.tobytes()
    assert (back.shots, back.theta) == (1000, 2.5)


def test_a_chi_file_without_errors_or_shots_loads_without_stderr(tmp_path):
    g = ChiGrid(axes=(grid_axis(1.0, 3),) * 2, values=np.full((3, 3), 0.5 + 0.25j),
                provenance="sampled", theta=0.3)
    path = tmp_path / "chi.csv"
    save_chi_grid(g, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = load_chi_grid(path)
    assert back.stderr is None and (back.shots, back.theta) == (0, 0.3)
    # shots = 0 keeps a stderr column of zeros
    g = ChiGrid(axes=g.axes, values=g.values, provenance="sampled", theta=0.3,
                stderr=np.zeros((3, 3)))
    save_chi_grid(g, path)
    assert read_table(path)[0][-1] == "stderr"
    assert load_chi_grid(path).stderr.tobytes() == g.stderr.tobytes()


def test_a_grid_with_theta_and_shots_but_no_stderr_is_refused_before_writing(tmp_path):
    # its file would load with errors derived from theta and shots that the
    # grid never had
    g = ChiGrid(axes=(grid_axis(1.0, 3),) * 2, values=np.full((3, 3), 0.5 + 0.25j),
                provenance="sampled", shots=100, theta=0.3)
    path = tmp_path / "chi.csv"
    with pytest.raises(ValidationError, match="shots = 100 but no stderr"):
        save_chi_grid(g, path)
    assert not path.exists()


@pytest.mark.parametrize("case", ["drawn", "one ulp off", "no theta", "shots 0"])
def test_grid_and_points_files_keep_a_stderr_column_by_one_rule(tmp_path, case):
    # one readout written as a grid and as points: both leave the column out
    # exactly where _counts gives the errors back bit for bit, except that
    # points read out at shots = 0 are exact and write no errors at all
    g = sampled_chi_grid(THERMAL, (grid_axis(2.0, 7),) * 2, theta=0.3, shots=500, seed=3)
    stderr, theta, shots = g.stderr.copy(), g.theta, g.shots
    if case == "one ulp off":
        stderr[2, 3] = np.nextafter(stderr[2, 3], 1.0)
    theta = None if case == "no theta" else theta
    shots = 0 if case == "shots 0" else shots
    grid, points = tmp_path / "grid.csv", tmp_path / "points.csv"
    save_chi_grid(ChiGrid(axes=g.axes, values=g.values, provenance="sampled", shots=shots,
                          stderr=stderr, theta=theta), grid)
    xi = (g.axes[0][:, None] + 1j * g.axes[1]).reshape(-1, 1)
    save_chi_points(points, xi, g.values.reshape(-1), stderr.reshape(-1), theta, shots)
    for path, values in ((grid, ["re_chi", "im_chi"]),
                         (points, ["re_xi", "im_xi", "re_chi", "im_chi"])):
        columns, data, _ = read_table(path)
        assert columns[:len(values)] == values
        kept = case != "drawn" and not (path == points and case == "shots 0")
        assert (columns[-1] == "stderr") is kept
        if kept:
            assert data[:, -1].tobytes() == stderr.tobytes()
    assert load_chi_grid(grid).stderr.tobytes() == stderr.tobytes()


def test_a_points_file_lists_its_lead_columns_then_each_modes_coordinates(tmp_path):
    # integer lead cells stay integers, and every cell is bit for bit, -0.0 too
    path = tmp_path / "points.csv"
    xi = np.array([[0.5, -0.0, 1.0, 2.0], [-0.25, 1.5, 0.0, -1.0]]).view(complex)
    save_chi_points(path, xi, meta={"note": 1},
                    lead={"N": np.array([1, 4]), "tau": np.array([0.5, 0.75])})
    assert path.read_text().splitlines()[1:] == [
        '# meta: {"note": 1}', "# columns: N,tau,re_xi0,im_xi0,re_xi1,im_xi1",
        "1,0.5,0.5,-0.0,1.0,2.0", "4,0.75,-0.25,1.5,0.0,-1.0"]
    save_chi_points(path, xi[:, :1], np.array([0.5 + 0.25j, 1.0 + 0.0j]))
    assert read_table(path)[0] == ["re_xi", "im_xi", "re_chi", "im_chi"]


@pytest.mark.parametrize("half", [False, True])
def test_a_callers_rows_field_gives_way_to_the_files_own(tmp_path, half):
    g = sampled_chi_grid(THERMAL, (grid_axis(2.0, 11),) * 2, shots=200, seed=5, half=half)
    path = tmp_path / "chi.csv"
    save_chi_grid(g, path, meta={"note": 1, "rows": 3})
    assert read_table(path)[2].get("rows") == (61 if half else None)
    assert load_chi_grid(path).values.tobytes() == g.values.tobytes()


def test_chi_grid_roundtrip_keeps_signed_zeros_and_nonfinite_parts(tmp_path):
    # only the leading run of nan + 0.0j, what sampled_chi_grid leaves
    # unmeasured, loses its rows; nan - 0.0j, nan + 1j and a nan + 0.0j after
    # the first measured point keep theirs
    values = np.array([complex(math.nan, 0.0), complex(math.nan, 0.0), complex(-0.0, 1.0),
                       complex(1.0, -0.0), complex(-0.0, -0.0), complex(1.0, math.nan),
                       complex(1.0, math.inf), complex(math.inf, 1.0), complex(math.nan, -2.0),
                       complex(-math.inf, -math.inf), complex(math.nan, -0.0),
                       complex(math.nan, 1.0), complex(math.nan, 0.0), 2.0,
                       complex(math.nan, 0.0)])
    g = ChiGrid(axes=(grid_axis(1.0, 3), grid_axis(1.0, 5)), values=values.reshape(3, 5))
    path = tmp_path / "chi.csv"
    save_chi_grid(g, path)
    assert len(data_lines_of(path)) == 13
    back = load_chi_grid(path)
    assert back.values.view(np.int64).tolist() == g.values.view(np.int64).tolist()
    assert back.stderr is None
    # with a stderr column a point loses its row only where its stderr is NaN
    # too; a measured cell may carry a NaN stderr
    stderr = np.full(15, 0.5)
    stderr[[0, 1, 3, 12, 14]] = math.nan  # 0 and 1 lead: no rows
    g = ChiGrid(axes=g.axes, values=g.values, provenance="sampled", shots=10,
                stderr=stderr.reshape(3, 5))
    save_chi_grid(g, path)
    assert len(data_lines_of(path)) == 13
    back = load_chi_grid(path)
    assert back.values.view(np.int64).tolist() == g.values.view(np.int64).tolist()
    assert back.stderr.view(np.int64).tolist() == g.stderr.view(np.int64).tolist()
    # an unmeasured point that carries a stderr starts no run
    stderr[0] = 0.5
    g = ChiGrid(axes=g.axes, values=g.values, provenance="sampled", shots=10,
                stderr=stderr.reshape(3, 5))
    save_chi_grid(g, path)
    assert len(data_lines_of(path)) == 15
    back = load_chi_grid(path)
    assert back.values.view(np.int64).tolist() == g.values.view(np.int64).tolist()
    assert back.stderr.view(np.int64).tolist() == g.stderr.view(np.int64).tolist()


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
    columns, data, _ = read_table(path)  # value columns only, at every point
    assert columns == ["re_chi", "im_chi"] and len(data) == 7**4


def test_a_real_chi_grid_writes_the_bytes_of_its_complex_copy(tmp_path):
    g = chi_grid_from_state(TWO_MODE, (grid_axis(3.0, 7),) * 4)
    assert g.values.dtype == np.float64
    real, twin = tmp_path / "real.csv", tmp_path / "complex.csv"
    save_chi_grid(g, real)
    save_chi_grid(ChiGrid(axes=g.axes, values=g.values.astype(complex)), twin)
    assert real.read_bytes() == twin.read_bytes()
    # read back it is complex with no imaginary part, and transforms as the real grid
    back = load_chi_grid(real)
    assert back.values.dtype == complex and not np.any(back.values.imag)
    want = wigner_transform(g, boundary_tol=np.inf)
    got = wigner_transform(back, boundary_tol=np.inf)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.imag_residual == want.imag_residual


RAGGED_AXES = tuple(grid_axis(2.0 + 0.5 * k, n) for k, n in enumerate((9, 7, 9, 7)))


def _assert_same_grid(a, b) -> None:
    """Two chi or Wigner grids equal to the bit: axes, arrays and fields."""
    assert len(a.axes) == len(b.axes)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.axes, b.axes))
    assert a.values.dtype == b.values.dtype and a.values.tobytes() == b.values.tobytes()
    for name in ("stderr", "provenance", "shots", "theta", "normalization", "imag_residual"):
        x, y = getattr(a, name, None), getattr(b, name, None)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            assert x is not None and y is not None and x.tobytes() == y.tobytes(), name
        else:
            assert repr(x) == repr(y), name


@pytest.mark.parametrize("kind", ["exact", "sampled", "filled"])
def test_grid_rows_are_the_values_in_c_order(tmp_path, kind):
    # row i holds the point at flat C index skip + i; a file of the older
    # layout with the same rows beside meshgrid coordinates loads the same
    if kind == "exact":
        g = chi_grid_from_state(TWO_MODE, RAGGED_AXES)
    else:
        g = sampled_chi_grid(TWO_MODE, RAGGED_AXES, shots=50, seed=3, half=True)
    if kind == "filled":  # the averaged origin keeps the stderr column
        g = hermitian_fill(g)
    path, ref, old = tmp_path / "chi.csv", tmp_path / "ref.csv", tmp_path / "old.csv"
    save_chi_grid(g, path)
    mesh = np.meshgrid(*g.axes, indexing="ij")
    values = [g.values.real, g.values.imag] + ([g.stderr] if kind == "filled" else [])
    table = np.stack([m.reshape(-1) for m in mesh] + [v.reshape(-1) for v in values], axis=1)
    if kind == "sampled":  # a point the half-plane scan did not measure has no row
        unmeasured = np.isnan(table[:, 4]) & (table[:, 5].view(np.int64) == 0)
        table = table[~unmeasured]
        assert len(table) == (g.values.size + 1) // 2
    columns, _, meta = read_table(path)
    assert columns == ["re_chi", "im_chi"] + (["stderr"] if kind == "filled" else [])
    _repr_reference_write_table(ref, columns, table[:, 4:])
    assert data_lines_of(path) == data_lines_of(ref)
    _repr_reference_write_table(old, ["re_xi0", "im_xi0", "re_xi1", "im_xi1"] + columns, table,
                                meta)
    _assert_same_grid(load_chi_grid(old), load_chi_grid(path))


OLD_AND_NEW = {
    "exact": lambda: chi_grid_from_state(THERMAL, (grid_axis(2.0, 11),) * 2),
    "sampled": lambda: sampled_chi_grid(THERMAL, (grid_axis(2.0, 11),) * 2, shots=200, seed=5,
                                        half=True),
    "filled": lambda: hermitian_fill(sampled_chi_grid(THERMAL, (grid_axis(2.0, 11),) * 2,
                                                      theta=0.3, shots=300, seed=4, half=True)),
    "two-mode": lambda: sampled_chi_grid(TWO_MODE, RAGGED_AXES, theta=2.5, shots=50, seed=3,
                                         half=True),
}


@pytest.mark.parametrize("make", OLD_AND_NEW.values(), ids=OLD_AND_NEW)
def test_a_file_of_the_older_layout_loads_to_the_arrays_of_its_value_only_file(tmp_path, make):
    g = make()
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    save_chi_grid(g, new)
    write_with_coordinates(new, old)
    columns = read_table(old)[0]
    assert columns[:2 * g.n_modes] == (["re_xi", "im_xi"] if g.n_modes == 1 else
                                       ["re_xi0", "im_xi0", "re_xi1", "im_xi1"])
    assert columns[2 * g.n_modes:] == read_table(new)[0]
    back = load_chi_grid(new)
    if not np.iscomplexobj(g.values):  # an exact chi is stored real and loads complex
        g = ChiGrid(axes=g.axes, values=g.values.astype(complex))
    _assert_same_grid(back, g)
    _assert_same_grid(load_chi_grid(old), back)


def test_a_wigner_file_of_the_older_layout_loads_to_the_arrays_of_its_value_only_file(tmp_path):
    w = wigner_transform(chi_grid_from_state(TWO_MODE, (grid_axis(3.0, 9),) * 4),
                         boundary_tol=np.inf)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    save_wigner_grid(w, new)
    write_with_coordinates(new, old)
    assert read_table(new)[0] == ["w"]
    assert read_table(old)[0] == ["x0", "p0", "x1", "p1", "w"]
    back = load_wigner_grid(new)
    _assert_same_grid(back, w)
    _assert_same_grid(load_wigner_grid(old), back)


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
    grid = 16 * g.values.size  # the bytes of one complex grid; exact chi is stored real
    # one (cells x 6) float table is 3.0 grids; a meshgrid and a stack made 6.1
    assert _save_peak(g, tmp_path / "chi.csv") <= 4.0 * grid
    # a sampled half grid: no stderr column, as the errors are derived on
    # load, and an unmeasured half with no rows; its (measured points x 6)
    # float table is 1.5 grids, and the allowance beyond it is the same 1.0
    g = sampled_chi_grid(TWO_MODE, axes, shots=100, seed=2, half=True)
    table = np.count_nonzero(~np.isnan(g.values)) * 6 * 8
    assert _save_peak(g, tmp_path / "sampled.csv") <= table + 1.0 * grid
    assert "stderr" not in read_table(tmp_path / "sampled.csv")[0]


def test_chi_grid_load_peak_memory(tmp_path):
    # a complete exact two-mode file: the parsed (cells x 6) table is 3.0
    # grids and np.loadtxt peaks at 4.0; its coordinate check adds only a
    # boolean column
    g = chi_grid_from_state(TWO_MODE, (grid_axis(3.0, 17),) * 4)
    path = tmp_path / "chi.csv"
    save_chi_grid(g, path)
    tracemalloc.start()
    try:
        load_chi_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * 16 * g.values.size


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
    write_with_coordinates(path)
    load_chi_grid(path)
    _damage_cell(path, 1234, col)
    with pytest.raises(ValidationError, match=f"column {column} does not match"):
        load_chi_grid(path)


def test_load_refuses_meta_axes_that_are_not_the_coordinates(tmp_path):
    g = chi_grid_from_state(THERMAL, (grid_axis(2.0, 5), grid_axis(3.0, 5)))
    path = tmp_path / "chi.csv"
    save_chi_grid(g, path)
    write_with_coordinates(path)
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
    axes = (bad, grid_axis(1.0, 5))
    ones = np.ones((5, 5))
    for kind, values, fields, load in (
        ("chi_grid", {"re_chi": ones, "im_chi": 0.0 * ones},
         {"provenance": "exact", "shots": 0}, load_chi_grid),
        ("wigner_grid", {"w": ones}, {"normalization": 0.25}, load_wigner_grid),
    ):
        path = tmp_path / f"{kind}.csv"
        _save_grid(path, kind, axes, values, fields, None)
        with pytest.raises(ValidationError, match="axis 0 is not uniform and symmetric"):
            load(path)


def test_load_refuses_a_non_finite_axis(tmp_path):
    # NaN and inf round-trip through the meta header, and through the
    # coordinate columns of the older layout
    axes = (np.array([math.nan, -1.0, 0.0, 1.0, math.nan]),
            np.array([-math.inf, -1.0, 0.0, 1.0, math.inf]))
    path = tmp_path / "chi.csv"
    _save_grid(path, "chi_grid", axes, {"re_chi": np.ones((5, 5)), "im_chi": np.zeros((5, 5))},
               {"provenance": "exact", "shots": 0}, None)
    for _ in range(2):
        with pytest.raises(ValidationError, match="axis 0 holds the non-finite value nan"):
            load_chi_grid(path)
        write_with_coordinates(path)


@pytest.mark.parametrize("layout, column", [("older", "re_xi"), ("older", "im_xi"),
                                            ("older", "re_chi"), ("value-only", "re_chi"),
                                            ("value-only", "im_chi"), ("wigner", "w")])
def test_load_refuses_a_grid_without_one_of_its_columns(tmp_path, layout, column):
    # a file of the older layout must list every coordinate it lists any of
    path = tmp_path / "grid.csv"
    if layout == "wigner":
        save_wigner_grid(wigner_transform(chi_grid_from_state(THERMAL, (grid_axis(6.0, 9),) * 2),
                                          boundary_tol=np.inf), path)
    else:
        save_chi_grid(chi_grid_from_state(THERMAL, (grid_axis(2.0, 5),) * 2), path)
    if layout == "older":
        write_with_coordinates(path)
    columns, data, meta = read_table(path)
    keep = [k for k, c in enumerate(columns) if c != column]
    write_table(path, [columns[k] for k in keep], data[:, keep], meta)
    with pytest.raises(ValidationError, match="lacks one of the columns"):
        (load_wigner_grid if layout == "wigner" else load_chi_grid)(path)


def _half_plane_file(path, coordinates: bool = False):
    """A sampled half-plane chi file of 11 x 11 points: 61 data rows, with
    their coordinates beside them in the older layout if coordinates."""
    g = sampled_chi_grid(THERMAL, (grid_axis(2.0, 11),) * 2, shots=200, seed=5, half=True)
    save_chi_grid(g, path)
    if coordinates:
        write_with_coordinates(path)
    assert len(data_lines_of(path)) == 61
    return path.read_text().splitlines(keepends=True)


@pytest.mark.parametrize("damage, row", [("swap", 11), ("repeat", 12)])
def test_load_refuses_rows_that_are_not_in_increasing_c_order(tmp_path, damage, row):
    path = tmp_path / "chi.csv"
    lines = _half_plane_file(path, coordinates=True)
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 10  # data row 11
    if damage == "swap":
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
    else:  # the row count stays as the header says
        lines[first + 1] = lines[first]
    path.write_text("".join(lines))
    with pytest.raises(ValidationError,
                       match=f"column im_xi does not match the meta axes at data row {row}$"):
        load_chi_grid(path)


def test_load_refuses_a_chi_file_that_leaves_out_an_interior_point(tmp_path):
    # only a leading run of points may go without rows, even when the meta
    # field rows counts the rows that are there; only the coordinates of the
    # older layout show it
    path = tmp_path / "chi.csv"
    _half_plane_file(path, coordinates=True)
    _delete_data_row(path, 30)
    path.write_text(path.read_text().replace('"rows": 61', '"rows": 60'))
    # each row is one point early; re_xi first differs at the last point with Re xi = 0
    with pytest.raises(ValidationError,
                       match="column re_xi does not match the meta axes at data row 6$"):
        load_chi_grid(path)


@pytest.mark.parametrize("n", [(11, 9), (9, 7, 9, 7)], ids=["1mode", "2mode"])
def test_a_half_plane_file_is_the_tail_of_the_complete_file(tmp_path, n):
    # without shots both scans read chi exactly, so their common rows agree
    state = THERMAL if len(n) == 2 else TWO_MODE
    axes = tuple(grid_axis(2.0, k) for k in n)
    half, full = tmp_path / "half.csv", tmp_path / "full.csv"
    save_chi_grid(sampled_chi_grid(state, axes, shots=0, half=True), half)
    save_chi_grid(sampled_chi_grid(state, axes, shots=0), full)
    size = math.prod(n)
    rows = data_lines_of(half)
    assert len(rows) == size // 2 + 1 == read_table(half)[2]["rows"]
    assert rows[0] == "1.0,0.0,0.0"  # the origin, where chi is 1 alone, read without error
    assert rows == data_lines_of(full)[size // 2:]
    write_with_coordinates(half)  # whose coordinates show the origin
    assert data_lines_of(half)[0] == ",".join(["0.0"] * len(n)) + "," + rows[0]


@pytest.mark.parametrize("column, col", [("re_xi", 0), ("im_xi", 1)])
def test_load_refuses_a_half_plane_coordinate_one_ulp_off_its_axis(tmp_path, column, col):
    path = tmp_path / "chi.csv"
    _half_plane_file(path, coordinates=True)
    _damage_cell(path, 30, col)
    with pytest.raises(ValidationError,
                       match=f"column {column} does not match the meta axes at data row 31"):
        load_chi_grid(path)


def _delete_data_row(path, row: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    del lines[data[row]]
    path.write_text("".join(lines))


@pytest.mark.parametrize("kind", ["exact", "sampled", "half"])
@pytest.mark.parametrize("row", [0, 40, -1])
def test_load_refuses_a_chi_file_that_lost_a_row(tmp_path, kind, row):
    # a complete file lists every point; a half-plane one as many as its
    # meta field rows says; neither may load with a lost point unmeasured
    axes = (grid_axis(2.0, 11),) * 2
    path = tmp_path / "chi.csv"
    if kind == "exact":
        save_chi_grid(chi_grid_from_state(THERMAL, axes), path)
    else:
        save_chi_grid(sampled_chi_grid(THERMAL, axes, shots=200, seed=5, half=kind == "half"),
                      path)
    assert ('"rows": 61' in path.read_text()) == (kind == "half")
    _delete_data_row(path, row)
    with pytest.raises(ValidationError, match="row count does not match the axes"):
        load_chi_grid(path)


@pytest.mark.parametrize("change", ["short", "over"])
@pytest.mark.parametrize("kind", ["exact", "half", "wigner"])
def test_a_value_only_file_a_row_off_its_count_is_refused(tmp_path, kind, change):
    # the count is the meta field rows of a file that leaves points out,
    # else the axes' size
    path = tmp_path / "grid.csv"
    axes = (grid_axis(2.0, 11),) * 2
    if kind == "wigner":
        save_wigner_grid(wigner_transform(chi_grid_from_state(THERMAL, axes),
                                          boundary_tol=np.inf), path)
    else:
        save_chi_grid(sampled_chi_grid(THERMAL, axes, shots=0, half=kind == "half"), path)
    load = load_wigner_grid if kind == "wigner" else load_chi_grid
    load(path)
    lines = path.read_text().splitlines(keepends=True)
    assert len(data_lines_of(path)) == (61 if kind == "half" else 121)
    if change == "short":
        del lines[-1]
    else:
        lines.append(lines[-1])
    path.write_text("".join(lines))
    with pytest.raises(ValidationError, match="row count does not match the axes"):
        load(path)


@pytest.mark.parametrize("rows, message", [('"61"', "meta.rows"), ("60.5", "meta.rows"),
                                           ("true", "meta.rows"),
                                           ("122", "row count does not match the axes")])
def test_load_refuses_a_rows_field_that_is_not_the_row_count(tmp_path, rows, message):
    path = tmp_path / "chi.csv"
    _half_plane_file(path)
    path.write_text(path.read_text().replace('"rows": 61', f'"rows": {rows}'))
    with pytest.raises(ValidationError, match=message):
        load_chi_grid(path)


def _rewrite_meta(path, change) -> None:
    """Replace the meta object of a table file by change(meta)."""
    lines = path.read_text().splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines) if ln.startswith("# meta: "))
    lines[at] = f"# meta: {json.dumps(change(read_table(path)[2]), sort_keys=True)}\n"
    path.write_text("".join(lines))


MALFORMED_HEADERS = {
    "axes-strings": (lambda m: dict(m, axes=[["a"] * 5] * 2), "meta.axes"),
    "axes-number": (lambda m: dict(m, axes=5), "meta.axes"),
    "meta-list": (lambda m: [1], "meta must be an object"),
    "provenance": (lambda m: dict(m, provenance="banana"), "provenance 'banana' is not exact"),
    "shots": (lambda m: dict(m, shots=-3), "meta.shots"),
    "theta-nan": (lambda m: dict(m, theta=math.nan), "meta.theta: theta = nan"),
    "theta-inf": (lambda m: dict(m, theta=-math.inf), "meta.theta: theta = -inf"),
    "theta-bool": (lambda m: dict(m, theta=True), "meta.theta = True"),
    "theta-pi": (lambda m: dict(m, theta=math.pi), "meta.theta: sin.* is rounding of 0"),
    "theta-zero": (lambda m: dict(m, theta=0), "meta.theta: sin.* is rounding of 0"),
}


@pytest.mark.parametrize("change, message", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS)
def test_load_refuses_a_malformed_header_by_name(tmp_path, change, message):
    path = tmp_path / "chi.csv"
    save_chi_grid(sampled_chi_grid(THERMAL, (grid_axis(2.0, 5),) * 2, shots=100, seed=1), path)
    _rewrite_meta(path, change)
    with pytest.raises(ValidationError, match=message):
        load_chi_grid(path)


@pytest.mark.parametrize("field", ["normalization", "imag_residual"])
def test_load_refuses_a_wigner_header_field_that_is_not_a_number(tmp_path, field):
    path = tmp_path / "w.csv"
    save_wigner_grid(wigner_transform(chi_grid_from_state(THERMAL, (grid_axis(6.0, 17),) * 2)),
                     path)
    _rewrite_meta(path, lambda m: dict(m, **{field: "banana"}))
    with pytest.raises(ValidationError, match=f"meta.{field} = 'banana' is not usable"):
        load_wigner_grid(path)


def test_load_refuses_a_wigner_file_without_every_point(tmp_path):
    w = wigner_transform(chi_grid_from_state(THERMAL, (grid_axis(6.0, 17),) * 2))
    path = tmp_path / "w.csv"
    save_wigner_grid(w, path)
    lines = path.read_text().splitlines(keepends=True)
    del lines[-100]
    path.write_text("".join(lines))
    with pytest.raises(ValidationError, match="row count does not match the axes"):
        load_wigner_grid(path)


def test_a_half_plane_file_that_lists_every_point_loads_and_runs_the_same(tmp_path, monkeypatch):
    # a file written before unmeasured points lost their rows lists every
    # point, with a nan,0.0,nan row for each one the scan did not measure; a
    # file written before theta was recorded leaves them out but keeps its
    # stderr column
    g = sampled_chi_grid(THERMAL, (grid_axis(6.0, 33),) * 2, shots=20000, seed=5, half=True)
    dirs = new, parent, old = tmp_path / "new", tmp_path / "parent", tmp_path / "old"
    for d in dirs:
        d.mkdir()
    save_chi_grid(g, new / "chi.csv", meta={"note": 1})
    columns, _, meta = read_table(new / "chi.csv")
    assert "stderr" not in columns and meta.pop("theta") == g.theta == math.pi / 2
    columns = ["re_xi", "im_xi"] + columns + ["stderr"]  # the older layout's
    mesh = np.meshgrid(*g.axes, indexing="ij")
    values = [g.values.real, g.values.imag, g.stderr]
    table = np.stack([m.reshape(-1) for m in mesh] + [v.reshape(-1) for v in values], axis=1)
    _repr_reference_write_table(parent / "chi.csv", columns, table[544:], meta)
    assert meta.pop("rows") == 33**2 - 544  # only a file that leaves points out counts them
    _repr_reference_write_table(old / "chi.csv", columns, table, meta)
    full = data_lines_of(old / "chi.csv")
    assert len(full) == 33**2 and sum(ln.endswith(",nan,0.0,nan") for ln in full) == 544
    assert data_lines_of(parent / "chi.csv") == full[544:]
    # the value-only file: no coordinates, and its errors derived on load
    assert data_lines_of(new / "chi.csv") == [
        ",".join(ln.split(",")[2:4]) for ln in full[544:]]
    grids = [load_chi_grid(d / "chi.csv") for d in dirs]
    for b in grids:
        assert all(x.tobytes() == y.tobytes() for x, y in zip(b.axes, g.axes))
        assert b.values.tobytes() == g.values.tobytes()
        assert b.stderr.tobytes() == g.stderr.tobytes()
        assert (b.provenance, b.shots) == ("sampled", 20000)
    assert [b.theta for b in grids] == [g.theta, None, None]
    for d in dirs:
        monkeypatch.chdir(d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # (2,0) of a thermal state is noise only
            assert main(["moments", "--set", 'chi_file="chi.csv"', "--out", "m.csv"]) == 0
        # shot noise at the grid edge sits far above the exact-decay default
        assert main(["wigner", "--set", 'chi_file="chi.csv"', "--set", "boundary_tol=0.1",
                     "--out", "w.csv"]) == 0
    for name in ("m.csv", "w.csv"):
        assert (new / name).read_bytes() == (parent / name).read_bytes() == (
            old / name).read_bytes()


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
