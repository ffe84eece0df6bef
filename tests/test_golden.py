"""Fresh `python -m chitomo.cli` runs against the reference outputs in
tests/golden, which tests/golden/make.py writes.

Every header line, the whole sampled chi file, and every cell but the moment
values compare byte for byte. The moment cells re_moment and im_moment are
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


@pytest.mark.parametrize("name", RUNS)
def test_a_fresh_run_matches_its_reference_output(fresh, name):
    got = (fresh / name).read_text().splitlines()
    want = (GOLDEN / name).read_text().splitlines()
    assert len(got) == len(want)
    for line, ref in zip(got, want):
        if RUNS[name][0] != "moments" or ref.startswith("#"):
            assert line == ref
            continue
        cells, ref = line.split(","), ref.split(",")
        assert cells[:2] == ref[:2] and cells[4] == ref[4], ref
        bound = _moment_bound(int(ref[0]), int(ref[1]), MOMENT_H[name])
        for a, b in zip(cells[2:4], ref[2:4]):
            assert math.isclose(float(a), float(b), rel_tol=0.0, abs_tol=bound), (ref, bound)
