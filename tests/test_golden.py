"""Fresh `python -m chitomo.cli` runs against the reference outputs in
tests/golden, which tests/golden/make.py writes.

Every header line, the whole sampled chi and simulate files, and every cell
but the moment values, a surface scan's or bec-map's xi, an exact chi and a
Wigner value compare byte for byte. The moment cells re_moment and
im_moment are the sum weights @ pairs over a stencil's K nodes taken in
mirror pairs, a dot product that BLAS sums in an order its build and the
CPU choose, so they may move in the last bits across machines. Each is
held to

    |fresh - reference| <= 4 K eps (1/(2h))^(p+q) sum|w|,   eps = 2^-52,

that is 4 K ulps of the stencil's scale: any summation order rounds a sum
of n terms within 2 (n - 1) eps times the sum of their magnitudes, here at
most sqrt(2) (1/(2h))^(p+q) sum|w| for |chi| <= sqrt(2), and the margin
covers complex products and the ulp that numpy's exp may differ by on a
state's chi. The error column is a numpy pairwise sum and a square root,
the same on every machine, so it compares exactly.

The xi cells of the surface scans (manifold.csv, chi_scan_manifold.csv)
and of bec_map.json are displacement_surface's products of numpy's sin,
cos, tan and exp, whose SIMD loops differ from libm and across CPUs in the
last bits: on an AVX-512 host numpy's tan and exp already differ from
libm's by an ulp. Allowing each implementation 4 ulps of the true value
per call, two runs differ by at most 8 ulps in each of the at most four
transcendental factors of a part of xi, and by an ulp in each of its few
rounded products, so each part is held to

    |fresh - reference| <= 64 eps |xi|,   eps = 2^-52,

with |xi| the reference modulus of that mode's xi. Their N, tau and chi
cells compare exactly: tau is linspace's exactly rounded arithmetic, and a
sampled chi cell is a count ratio, as in the chi files. The simulate file's
xi cells are its config's points, and its chi cells count ratios divided
by math.sin(theta), one libm call. bec_map.json's other numbers are square
roots and exactly rounded products, so they compare exactly.

An exact chi cell (chi_exact.csv) is one numpy exp of an exactly rounded
exponent, so by the same 4 ulps per implementation each part is held to
8 eps |chi|; its xi cells are grid coordinates and compare exactly. A
Wigner cell (wigner.csv, the transform of that chi file) is a sum over the
grid that BLAS orders as it chooses, which rounds within _ROUNDING_K eps
sum|chi| measure (see tests/test_tomography.py, measure the product of
step/(2 pi) over the axes), and the transform carries the 8 eps |chi| of
each chi cell, so each is held to

    |fresh - reference| <= (16 + 8) eps sum|chi| measure.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from chitomo.fileio import load_chi_grid
from chitomo.tomography import _stencil

from golden.make import RUNS, run_all

GOLDEN = Path(__file__).resolve().parent / "golden"
EPS = 2.0**-52

# the stencil's h in each moments run: 0.01 on the state, two steps of the
# 33-point grid at extent 6 on the sampled ones
MOMENT_H = {"moments.csv": 0.01, "moments_chi_file.csv": 0.75, "moments_shots.csv": 0.75}
XI_ULPS = 64
CHI_ULPS = 8
# file -> (the re/im column pair held to a bound, its ulps of the pair's modulus)
PAIRED = {"manifold.csv": ("xi", XI_ULPS), "chi_scan_manifold.csv": ("xi", XI_ULPS),
          "chi_exact.csv": ("chi", CHI_ULPS)}
W_ULPS = 16 + CHI_ULPS


def _moment_bound(p: int, q: int, h: float) -> float:
    weights = _stencil(p, q)
    weights = weights[weights != 0]
    return 4 * weights.size * EPS * (0.5 / h) ** (p + q) * float(np.abs(weights).sum())


def _w_bound() -> float:
    grid = load_chi_grid(GOLDEN / "chi_exact.csv")
    measure = math.prod(float(h) / (2.0 * math.pi) for h in grid.steps)
    return W_ULPS * EPS * float(np.sum(np.abs(grid.values))) * measure


@pytest.fixture(scope="module")
def fresh(tmp_path_factory) -> Path:
    """A directory holding every output of RUNS, run afresh."""
    directory = tmp_path_factory.mktemp("golden")
    run_all(directory)
    return directory


def _assert_within(a, b, bound, ref) -> None:
    assert math.isclose(float(a), float(b), rel_tol=0.0, abs_tol=bound), (ref, bound)


def _assert_pairs_within_bound(columns, cells, ref, part: str, ulps: int) -> None:
    """A row whose re_<part>/im_<part> pairs are each within ulps eps |pair|
    of the reference, with every other cell equal."""
    held = [k for k, c in enumerate(columns) if c.startswith((f"re_{part}", f"im_{part}"))]
    assert [c for k, c in enumerate(cells) if k not in held] == [
        c for k, c in enumerate(ref) if k not in held], ref
    for k in held[::2]:  # re, then im, per mode
        bound = ulps * EPS * math.hypot(float(ref[k]), float(ref[k + 1]))
        for a, b in zip(cells[k:k + 2], ref[k:k + 2]):
            _assert_within(a, b, bound, ref)


def _assert_json_within_bound(got: str, want: str) -> None:
    """bec_map.json: every line but the xi parts equal, each mode's xi parts
    within XI_ULPS eps |xi| of the reference."""
    is_xi = ('"re_xi"', '"im_xi"')
    assert [line for line in got.splitlines() if not line.strip().startswith(is_xi)] == [
        line for line in want.splitlines() if not line.strip().startswith(is_xi)]
    for a, b in zip(json.loads(got)["per_mode"], json.loads(want)["per_mode"]):
        bound = XI_ULPS * EPS * math.hypot(b["re_xi"], b["im_xi"])
        for part in ("re_xi", "im_xi"):
            _assert_within(a[part], b[part], bound, b)


@pytest.mark.parametrize("name", RUNS)
def test_a_fresh_run_matches_its_reference_output(fresh, name):
    if name.endswith(".json"):
        _assert_json_within_bound((fresh / name).read_text(), (GOLDEN / name).read_text())
        return
    got = (fresh / name).read_text().splitlines()
    want = (GOLDEN / name).read_text().splitlines()
    assert len(got) == len(want)
    columns = want[2].removeprefix("# columns: ").split(",")
    w_bound = _w_bound() if name == "wigner.csv" else None
    exact = name not in MOMENT_H and name not in PAIRED and w_bound is None
    for line, ref in zip(got, want):
        if exact or ref.startswith("#"):
            assert line == ref
            continue
        cells, ref = line.split(","), ref.split(",")
        if name in PAIRED:
            _assert_pairs_within_bound(columns, cells, ref, *PAIRED[name])
        elif w_bound is not None:
            assert cells[:2] == ref[:2], ref
            _assert_within(cells[2], ref[2], w_bound, ref)
        else:
            assert cells[:2] == ref[:2] and cells[4] == ref[4], ref
            bound = _moment_bound(int(ref[0]), int(ref[1]), MOMENT_H[name])
            for a, b in zip(cells[2:4], ref[2:4]):
                _assert_within(a, b, bound, ref)
