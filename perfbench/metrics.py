"""Metric definitions and their computation from a child's raw result.

End-to-end metrics come from the untraced passes; per-layer metrics from
the traced ones. Every per-layer value is a per-pass median, so it
does not depend on how many passes fit in the run.
"""
from __future__ import annotations

from statistics import median

from tracer import GLUE, LAYERS
from commands import CLI_COMMANDS

# (name, unit, better): the end-to-end metrics that BENCHMARK.json bounds and
# the last JSON line carries with --trace 0. pass_cal is each pass's wall time
# over the wall time of a fixed calibration kernel run around it (see
# child.calibrate): on a shared host whose speed drifts by tens of percent
# over a minute, it follows the program while pass_s follows the host too.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_cal", "cal", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _layer_metrics() -> list[tuple]:
    """(name, unit, better, kind, source) for every per-layer metric."""
    rows: list[tuple] = []

    def self_s(span, name=None):
        rows.append((f"{name or span}.self_s", "s", "lower", "self", span))

    def calls(span):
        rows.append((f"{span}.calls", "count", "lower", "calls", span))

    def count(key, better="higher", unit="count"):
        rows.append((key, unit, better, "count", key))

    def ratio(name, num, den, better):
        rows.append((name, "ratio", better, "ratio", (num, den)))

    g = "gaussian_field"
    calls(f"{g}.char_analytic")
    self_s(f"{g}.char_analytic")
    self_s(f"{g}.char_analytic_grid")
    count(f"{g}.cells")
    count(f"{g}.errors", "lower")

    p = "pulse_protocol"
    self_s(f"{p}.reachable_manifold")
    calls(f"{p}.displacement_param")
    self_s(f"{p}.displacement_param")
    calls(f"{p}.switching_integral")
    self_s(f"{p}.switching_integral")
    self_s(f"{p}.smearing_ft")
    count(f"{p}.points")
    count(f"{p}.errors", "lower")

    r = "ramsey_readout"
    self_s(f"{r}.run_readout_scan")
    count(f"{r}.points")
    count(f"{r}.shots")
    calls(f"{r}.shot_rng")
    self_s(f"{r}.shot_rng")
    calls(f"{r}.sample_shots")
    self_s(f"{r}.sample_shots")
    calls(f"{r}.final_qubit_state")
    count(f"{r}.errors", "lower")

    t = "tomography"
    self_s(f"{t}.sampled_chi_grid")
    ratio(f"{t}.sampled_chi_grid.measured_frac", f"{t}.sampled_chi_grid.measured",
          f"{t}.sampled_chi_grid.total", "lower")
    self_s(f"{t}.chi_grid_from_state")
    self_s(f"{t}.hermitian_fill")
    self_s(f"{t}.wigner_transform")
    count(f"{t}.wigner_transform.flops", "lower", "flop")
    count(f"{t}.wigner_transform.bytes", "lower", "B")
    self_s(f"{t}.inverse_wigner_transform")
    calls(f"{t}.moments_fd")
    self_s(f"{t}.moments_fd")
    self_s(f"{t}.gaussian_fit")
    ratio(f"{t}.gaussian_fit.used_frac", f"{t}.gaussian_fit.used",
          f"{t}.gaussian_fit.total", "higher")
    count(f"{t}.cells")
    count(f"{t}.errors", "lower")

    f = "fock_oracle"
    self_s(f"{f}.run_default_suite")
    calls(f"{f}.build_segment")
    self_s(f"{f}.build_segment")
    self_s(f"{f}.verify_displacement_identity")
    self_s(f"{f}.chi_fock")
    self_s(f"{f}.joint_bloch_oracle")
    count(f"{f}.checks")
    ratio(f"{f}.passed_frac", f"{f}.passed", f"{f}.checks", "higher")

    b = "bec_analogue"
    self_s(f"{b}.map_to_protocol")
    self_s(f"{b}.MappedProtocol.displacements", f"{b}.displacements")
    count(f"{b}.modes")

    io = "fileio"
    calls(f"{io}.write_table")
    self_s(f"{io}.write_table")
    self_s(f"{io}.read_table")
    self_s(f"{io}.save_chi_grid")
    self_s(f"{io}.load_chi_grid")
    count(f"{io}.rows_written")
    count(f"{io}.bytes_written", "lower", "B")
    count(f"{io}.bytes_read", "lower", "B")

    rows.append(("cli.import_s", "s", "lower", "import", None))
    for name, _argv, _out in CLI_COMMANDS:
        rows.append((f"cli.{name}.wall_s", "s", "lower", "cli_wall", name))
    rows.append(("cli.nonzero_exits", "count", "lower", "nonzero", None))

    for layer in LAYERS:
        rows.append((f"{layer}.self_s", "s", "lower", "layer", layer))
    rows.append((f"{GLUE}.glue_s", "s", "lower", "layer", GLUE))
    rows.append(("trace.overhead_s", "s", "lower", "overhead", None))
    rows.append(("trace.residual_s", "s", "lower", "residual", None))
    return rows


PER_LAYER = tuple(_layer_metrics())


def pass_tail(walls: list[float]) -> tuple[float, float] | None:
    """Highest percentile of pass time with at least ten passes beyond it.

    Returns (value, percentile), or None when there are fewer than 11 passes.
    """
    n = len(walls)
    if n < 11:
        return None
    return sorted(walls)[n - 11], 100.0 * (n - 10) / n


def end_to_end(res: dict) -> dict:
    """Every end-to-end figure of one run: {name: (value, unit, note)}."""
    n = len(res["walls"])
    out = {
        "setup_s": (median(res["setup_samples"]), "s",
                    f"median of {len(res['setup_samples'])} fresh interpreters"),
        "pass_s": (median(res["walls"]), "s", f"median of {n} passes"),
        "pass_cal": (median(w / c for w, c in zip(res["walls"], res["cals"])), "cal",
                     f"median of {n} passes of pass time / calibration kernel time "
                     f"(kernel median {median(res['cals']):.4g} s)"),
    }
    tail = pass_tail(res["walls"])
    if tail is not None:
        out["pass_tail_s"] = (tail[0], "s", f"p{tail[1]:.1f} of {n} passes, 10 beyond it")
    out["peak_rss_mb"] = (res["peak_rss_mb"], "MB",
                          "the workload's child, or the largest process it ran")
    failed = res["failed"] + res["known"]
    out["fail_frac"] = (failed / res["attempted"], "ratio",
                        f"{failed} of {res['attempted']} operations, {res['known']} of them "
                        "the known refusal")
    out["warmup_s"] = (res["warmup_s"], "s", "the untimed warm-up pass, informational")
    return out


def per_layer(res: dict) -> dict:
    """Per-layer values from a traced result; per-pass medians throughout."""
    tr = res["trace"]
    totals, counts = tr["totals"], tr["counts"]
    n = len(tr["walls"])
    zero = [0] * n

    def layer_sum(layer):
        per = [0.0] * n
        for span, (_c, secs) in totals.items():
            if span.split(".")[0] == layer:
                per = [a + b for a, b in zip(per, secs)]
        return median(per)

    def counted(key):
        return [c.get(key, 0) for c in counts]

    out = {}
    for name, _unit, _better, kind, src in PER_LAYER:
        if kind == "self":
            value = median(totals.get(src, (zero, zero))[1])
        elif kind == "calls":
            value = median(totals.get(src, (zero, zero))[0])
        elif kind == "count":
            value = median(counted(src))
        elif kind == "ratio":
            value = median(a / b if b else 0.0 for a, b in zip(counted(src[0]), counted(src[1])))
        elif kind == "import":
            value = median(res["import_samples"])
        elif kind == "cli_wall":
            value = median(res["cli_walls"].get(src, [0.0]))
        elif kind == "nonzero":
            value = median(res["nonzero_exits"] or [0])
        elif kind == "layer":
            value = layer_sum(src)
        elif kind == "overhead":
            value = median(tr["walls"]) - median(res["walls"])
        elif kind == "residual":
            value = median(residuals(res))
        out[name] = value
    return out


def residuals(res: dict) -> list[float]:
    """Traced pass wall time minus the self times of all its spans, per pass."""
    tr = res["trace"]
    spent = [0.0] * len(tr["walls"])
    for _c, secs in tr["totals"].values():
        spent = [a + b for a, b in zip(spent, secs)]
    return [w - s for w, s in zip(tr["walls"], spent)]
