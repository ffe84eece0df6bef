"""Spans and counts at the layer boundaries of chitomo, for the traced run.

`install` wraps every public function, and every public method of a public
class, defined in the eight chitomo modules, then rebinds each `chitomo.*`
module attribute that refers to a wrapped function. Calls from one layer into
another therefore nest, e.g. tomography.sampled_chi_grid ->
ramsey_readout.run_readout_scan -> gaussian_field.char_analytic.

A span holds a name, a start and an end (CLOCK_MONOTONIC nanoseconds, shared
by every process on Linux, so spans from the CLI's child processes can be
merged), its parent span and its pass. Spans live in flat typed arrays in
memory and are written out once, when the run ends. Counts (cells, points,
shots, rows, bytes, errors) are taken at the same boundaries by small hooks.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "gaussian_field",
    "pulse_protocol",
    "ramsey_readout",
    "tomography",
    "fock_oracle",
    "bec_analogue",
    "fileio",
    "cli",
)
GLUE = "bench"  # layer name of the benchmark's own spans


class Recorder:
    """In-memory span store plus per-pass counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.pass_id = array("i")
        self._stack: list[tuple[int, str]] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.current_pass = -1
        self.enabled = False

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, layer: str) -> tuple[int, bool]:
        """Start a span; entry is True when the caller is in another layer."""
        idx = len(self.start)
        top = self._stack[-1] if self._stack else (-1, "")
        self.name_id.append(nid)
        self.parent.append(top[0])
        self.pass_id.append(self.current_pass)
        self.end.append(0)
        self._stack.append((idx, layer))
        self.start.append(time.monotonic_ns())
        return idx, top[1] != layer

    def close(self, idx: int) -> None:
        self.end[idx] = time.monotonic_ns()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        per_pass = self.counts.setdefault(self.current_pass, {})
        per_pass[key] = per_pass.get(key, 0) + value

    def add_span(self, name: str, start: int, end: int, parent: int) -> int:
        """Record a finished span, e.g. one measured outside the wrappers."""
        idx = len(self.start)
        self.name_id.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.pass_id.append(self.current_pass)
        return idx

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int32).copy(),
        }

    def merge(self, spans: dict, counts: dict, parent: int) -> None:
        """Append spans recorded by another process under span `parent`."""
        offset = len(self.start)
        for nid, s, e, par in zip(spans["name_id"], spans["start"], spans["end"], spans["parent"]):
            self.name_id.append(self.intern(str(spans["names"][nid])))
            self.start.append(int(s))
            self.end.append(int(e))
            self.parent.append(parent if par < 0 else int(par) + offset)
            self.pass_id.append(self.current_pass)
        for key, value in counts.items():
            self.count(key, value)


# --------------------------------------------------------------------------
# counting hooks: hook(rec, entry, args, kwargs, result), run inside the span

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _file_size(path) -> int:
    return os.path.getsize(path)


def _wigner_work(rec, entry, args, kwargs, result):
    # flops and bytes computed from the shapes of the per-axis contractions
    # tensordot(out, kernel, ([0], [1])): 8 real flops per complex
    # multiply-add; bytes are the input, kernel and output arrays, 16 B each
    shape = list(_arg(args, kwargs, 0, "grid").values.shape)
    flops = nbytes = 0
    for n_alpha in result.values.shape:
        cells = int(np.prod(shape))
        out_cells = cells // shape[0] * n_alpha
        flops += 8 * cells * n_alpha
        nbytes += 16 * (cells + shape[0] * n_alpha + out_cells)
        shape = shape[1:] + [n_alpha]
    rec.count("tomography.wigner_transform.flops", flops)
    rec.count("tomography.wigner_transform.bytes", nbytes)


def _grid_cells(rec, entry, args, kwargs, result):
    if entry:
        rec.count("tomography.cells", result.values.size)


def _sampled(rec, entry, args, kwargs, result):
    _grid_cells(rec, entry, args, kwargs, result)
    rec.count("tomography.sampled_chi_grid.measured", int(np.count_nonzero(~np.isnan(result.values))))
    rec.count("tomography.sampled_chi_grid.total", result.values.size)


def _fit(rec, entry, args, kwargs, result):
    rec.count("tomography.gaussian_fit.used", result.n_points)
    rec.count("tomography.gaussian_fit.total", _arg(args, kwargs, 0, "grid").values.size)


def _oracle(rec, entry, args, kwargs, result):
    rec.count("fock_oracle.checks", len(result))
    rec.count("fock_oracle.passed", sum(1 for r in result if r["passed"]))


def _manifold_points(rec, entry, args, kwargs, result):
    if entry:
        rec.count("pulse_protocol.points", sum(len(c.xis) for c in result))


def _xi_point(rec, entry, args, kwargs, result):
    if entry:
        rec.count("pulse_protocol.points", 1)


def _write(rec, entry, args, kwargs, result):
    rec.count("fileio.bytes_written", _file_size(_arg(args, kwargs, 0, "path")))


def _read(rec, entry, args, kwargs, result):
    rec.count("fileio.bytes_read", _file_size(_arg(args, kwargs, 0, "path")))


def _table_rows(rec, entry, args, kwargs, result):
    rec.count("fileio.rows_written", len(_arg(args, kwargs, 2, "rows")))
    _write(rec, entry, args, kwargs, result)


def _const(key, value=1):
    def hook(rec, entry, args, kwargs, result):
        rec.count(key, value)
    return hook


HOOKS = {
    "gaussian_field.char_analytic": _const("gaussian_field.cells"),
    "gaussian_field.char_analytic_grid":
        lambda rec, entry, a, k, r: rec.count("gaussian_field.cells", r.size),
    "pulse_protocol.reachable_manifold": _manifold_points,
    "pulse_protocol.displacement_param": _xi_point,
    "ramsey_readout.run_readout_scan":
        lambda rec, entry, a, k, r: rec.count("ramsey_readout.points", len(r)) if entry else None,
    "ramsey_readout.sample_shots":
        lambda rec, entry, a, k, r: rec.count("ramsey_readout.shots", int(_arg(a, k, 2, "M"))),
    "tomography.chi_grid_from_state": _grid_cells,
    "tomography.sampled_chi_grid": _sampled,
    "tomography.hermitian_fill": _grid_cells,
    "tomography.wigner_transform": lambda *a: (_grid_cells(*a), _wigner_work(*a)),
    "tomography.inverse_wigner_transform": _grid_cells,
    "tomography.gaussian_fit": _fit,
    "fock_oracle.run_default_suite": _oracle,
    "bec_analogue.map_to_protocol":
        lambda rec, entry, a, k, r: rec.count("bec_analogue.modes", _arg(a, k, 1, "modes").n_modes),
    "fileio.write_table": _table_rows,
    "fileio.write_json": _write,
    "fileio.read_table": _read,
    "fileio.read_json": _read,
}


def _wrap(rec: Recorder, fn, name: str, layer: str):
    nid = rec.intern(name)
    hook = HOOKS.get(name)
    errors = f"{layer}.errors"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        idx, entry = rec.open(nid, layer)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(rec, entry, args, kwargs, result)
            return result
        except BaseException:
            if entry:
                rec.count(errors, 1)
            raise
        finally:
            rec.close(idx)

    return traced


def install(rec: Recorder) -> int:
    """Wrap the public API of the eight modules; returns the number wrapped."""
    import chitomo.cli  # noqa: F401  (loads every layer)

    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"chitomo.{layer}"]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = _wrap(rec, obj, f"{layer}.{name}", layer)
            elif inspect.isclass(obj):
                for mname, meth in list(vars(obj).items()):
                    if not mname.startswith("_") and inspect.isfunction(meth):
                        setattr(obj, mname, _wrap(rec, meth, f"{layer}.{name}.{mname}", layer))
    for modname, mod in list(sys.modules.items()):
        if modname == "chitomo" or modname.startswith("chitomo."):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
    return len(wrapped)


# --------------------------------------------------------------------------
# self times and accounting

def self_times(spans: dict) -> np.ndarray:
    """Span duration minus the part of it that its child spans cover (ns)."""
    dur = spans["end"] - spans["start"]
    child = np.zeros(dur.size, dtype=np.int64)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    return dur - child


def per_pass_totals(spans: dict, passes: list[int]) -> dict:
    """{span name: (calls per pass, self seconds per pass)}, passes in order."""
    own = self_times(spans)
    pids = np.asarray(sorted(passes))
    keep = np.isin(spans["pass_id"], pids)
    row = np.searchsorted(pids, spans["pass_id"][keep])
    col = spans["name_id"][keep]
    shape = (pids.size, len(spans["names"]))
    calls = np.zeros(shape, dtype=np.int64)
    secs = np.zeros(shape, dtype=np.int64)
    np.add.at(calls, (row, col), 1)
    np.add.at(secs, (row, col), own[keep])
    return {
        str(name): (calls[:, i].tolist(), (secs[:, i] / 1e9).tolist())
        for i, name in enumerate(spans["names"])
    }
