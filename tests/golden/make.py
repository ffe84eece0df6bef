"""Write the reference outputs that tests/test_golden.py compares fresh runs
against.

    PYTHONPATH=src python tests/golden/make.py

Each run in RUNS is a fresh `python -m chitomo.cli` process, run in order in
one directory under relative paths, so that the outputs' headers (which
embed the config, out and chi_file included) are the same wherever the runs
happen. A change to a reference file is a declared output change.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# a surface scan of 3 N x 100 tau at coupling 0.5, of a thermal mode
_SCAN = ('{"schedule": {"lambda": 0.5, "smearing": {"kind": "delta"}, '
         '"switching": {"kind": "constant"}}, "N_list": [1, 4, 7], '
         '"tau": {"min": 0.1, "max": 6.0, "points": 100}}')
_THERMAL = '[{"j": [1], "kind": "thermal", "params": {"n": 1.0}}]'

# output name -> argv; a later run may read an earlier one's output
RUNS = {
    "chi_exact.csv": ("chi-scan", "--set", "grid.points=33"),
    "wigner.csv": ("wigner", "--set", 'chi_file="chi_exact.csv"'),
    "bec_map.json": ("bec-map",),
    "chi_half.csv": ("chi-scan", "--shots", "10000", "--set", "half=true",
                     "--set", "grid.points=33"),
    "moments.csv": ("moments",),
    "moments_chi_file.csv": ("moments", "--set", 'chi_file="chi_half.csv"'),
    "moments_shots.csv": ("moments", "--shots", "1000", "--set", "grid.points=33"),
    "manifold.csv": ("manifold", "--set", "tau.points=63"),
    "chi_scan_manifold.csv": ("chi-scan", "--shots", "10000", "--set", f"state.modes={_THERMAL}",
                              "--set", f"manifold={_SCAN}"),
    "simulate.csv": ("simulate", "--theta", "0.3", "--set",
                     "points=[[0.2, -0.0], [0.0, 0.4], [-1.1, 0.3], [0.7, -0.9]]"),
}


def run_all(directory) -> None:
    """Every run of RUNS as a fresh process in directory, with this process's
    import path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for name, argv in RUNS.items():
        proc = subprocess.run([sys.executable, "-m", "chitomo.cli", *argv, "--out", name],
                              cwd=directory, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr}")


if __name__ == "__main__":
    run_all(HERE)
