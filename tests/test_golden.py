"""Fresh `python -m chitomo.cli` runs against the reference outputs in
tests/golden, which tests/golden/make.py writes.

Every header line, the whole sampled chi and simulate files, and every cell
but the moment values and a surface scan's xi compare byte for byte. The
moment cells re_moment and im_moment are
the sum weights @ pairs over a stencil's K nodes taken in mirror pairs, a
dot product that BLAS sums in an order its build and the CPU choose, so they
may move in the last bits across machines. Each is held to

    |fresh - reference| <= 4 K eps (1/(2h))^(p+q) sum|w|,   eps = 2^-52,

that is 4 K ulps of the stencil's scale: any summation order rounds a sum
of n terms within 2 (n - 1) eps times the sum of their magnitudes, here at
most sqrt(2) (1/(2h))^(p+q) sum|w| for |chi| <= sqrt(2), and the margin
covers complex products and the ulp that numpy's exp may differ by on a
state's chi. The error column is a numpy pairwise sum and a square root,
the same on every machine, so it compares exactly.

The xi cells of the surface scans (manifold.csv, chi_scan_manifold.csv)
are displacement_surface's products of numpy's sin, cos, tan and exp, whose
SIMD loops differ from libm and across CPUs in the last bits: on an AVX-512
host numpy's tan and exp already differ from libm's by an ulp. Allowing
each implementation 4 ulps of the true value per call, two runs differ by
at most 8 ulps in each of the at most four transcendental factors of a part
of xi, and by an ulp in each of its few rounded products, so each part is
held to

    |fresh - reference| <= 64 eps |xi|,   eps = 2^-52,

with |xi| the reference modulus of that mode's xi. Their N, tau and chi
cells compare exactly: tau is linspace's exactly rounded arithmetic, and a
sampled chi cell is a count ratio, as in the chi files. The simulate file's
xi cells are its config's points, and its chi cells count ratios divided
by math.sin(theta), one libm call.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from chitomo.tomography import _stencil

from golden.make import RUNS, run_all

GOLDEN = Path(__file__).resolve().parent / "golden"

# the stencil's h in each moments run: 0.01 on the state, two steps of the
# 33-point grid at extent 6 on the sampled ones
MOMENT_H = {"moments.csv": 0.01, "moments_chi_file.csv": 0.75, "moments_shots.csv": 0.75}
XI_FILES = ("manifold.csv", "chi_scan_manifold.csv")
XI_ULPS = 64


def _moment_bound(p: int, q: int, h: float) -> float:
    weights = _stencil(p, q)
    weights = weights[weights != 0]
    return 4 * weights.size * 2.0**-52 * (0.5 / h) ** (p + q) * float(np.abs(weights).sum())


@pytest.fixture(scope="module")
def fresh(tmp_path_factory) -> Path:
    """A directory holding every output of RUNS, run afresh."""
    directory = tmp_path_factory.mktemp("golden")
    run_all(directory)
    return directory


def _assert_xi_within_bound(columns, cells, ref) -> None:
    """A surface scan's row: each part of a mode's xi within XI_ULPS eps |xi|
    of the reference, and every other cell equal."""
    xi = [k for k, c in enumerate(columns) if c.startswith(("re_xi", "im_xi"))]
    assert [c for k, c in enumerate(cells) if k not in xi] == [
        c for k, c in enumerate(ref) if k not in xi], ref
    for k in xi[::2]:  # re_xi, then im_xi, per mode
        bound = XI_ULPS * 2.0**-52 * math.hypot(float(ref[k]), float(ref[k + 1]))
        for a, b in zip(cells[k:k + 2], ref[k:k + 2]):
            assert math.isclose(float(a), float(b), rel_tol=0.0, abs_tol=bound), (ref, bound)


@pytest.mark.parametrize("name", RUNS)
def test_a_fresh_run_matches_its_reference_output(fresh, name):
    got = (fresh / name).read_text().splitlines()
    want = (GOLDEN / name).read_text().splitlines()
    assert len(got) == len(want)
    columns = want[2].removeprefix("# columns: ").split(",")
    for line, ref in zip(got, want):
        if ref.startswith("#") or name not in MOMENT_H and name not in XI_FILES:
            assert line == ref
            continue
        cells, ref = line.split(","), ref.split(",")
        if name in XI_FILES:
            _assert_xi_within_bound(columns, cells, ref)
            continue
        assert cells[:2] == ref[:2] and cells[4] == ref[4], ref
        bound = _moment_bound(int(ref[0]), int(ref[1]), MOMENT_H[name])
        for a, b in zip(cells[2:4], ref[2:4]):
            assert math.isclose(float(a), float(b), rel_tol=0.0, abs_tol=bound), (ref, bound)
