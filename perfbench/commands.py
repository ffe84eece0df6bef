"""The CLI invocations of the cli_defaults workload, as plain data.

Kept apart from the workloads so that the orchestrating process can name the
per-subcommand metrics without importing chitomo.
"""

# (metric name, argv after the subcommand's --out, output file); the output
# file names are relative to the pass's working directory
CLI_COMMANDS = (
    ("manifold", ["manifold"], "manifold.csv"),
    ("chi-scan", ["chi-scan"], "chi-scan.csv"),
    ("chi-scan-sampled-half", ["chi-scan", "--shots", "10000", "--set", "half=true"],
     "chi-scan-sampled-half.csv"),
    ("simulate", ["simulate"], "simulate.csv"),
    ("wigner", ["wigner"], "wigner.csv"),
    ("wigner-from-file", ["wigner", "--set", 'chi_file="chi-scan.csv"'], "wigner-from-file.csv"),
    ("wigner-sampled", ["wigner", "--shots", "10000"], "wigner-sampled.csv"),
    ("moments", ["moments"], "moments.csv"),
    ("oracle-check", ["oracle-check"], "oracle-check.json"),
    ("bec-map", ["bec-map"], "bec-map.json"),
)

# reduced sizes for the self-test; the full run uses every default unchanged
CLI_SMALL = {
    "manifold": ["--set", "tau.points=63"],
    "chi-scan": ["--set", "grid.points=33"],
    "chi-scan-sampled-half": ["--set", "grid.points=33"],
    "wigner": ["--set", "grid.points=33"],
    "wigner-sampled": ["--set", "grid.points=33"],
    "oracle-check": ["--set", "n_draws=2"],
}

# `wigner --shots 10000` exits 2 at its defaults: shot noise at the grid edge
# trips the exact-grid boundary tolerance. That is a known false alarm; it
# counts as a failed operation, and any other outcome is reported as is.
KNOWN_REFUSAL = ("wigner-sampled", 2, "at the grid boundary exceeds")
