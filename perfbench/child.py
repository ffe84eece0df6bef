"""One fresh interpreter of the benchmark.

Roles:
  setup       import chitomo and chitomo.cli, build the workload's inputs,
              report when ready, exit;
  run         the same set-up, then one untimed warm-up pass and timed passes
              for --seconds (split between untraced and traced passes with
              --trace 1), then print one JSON result line;
  cli-traced  run `chitomo.cli.main(argv)` in-process under the tracer and
              save its spans, for the traced passes of cli_defaults.

Times that cross processes are CLOCK_MONOTONIC nanoseconds
(time.monotonic_ns), which every process on Linux shares.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time


def _cli_traced(argv: list[str], spans_path: str) -> int:
    t0 = time.monotonic_ns()
    import chitomo.cli
    t1 = time.monotonic_ns()
    import numpy as np

    import tracer

    rec = tracer.Recorder()
    tracer.install(rec)
    rec.current_pass = 0
    rec.add_span("cli.import", t0, t1, -1)
    rec.enabled = True
    try:
        code = chitomo.cli.main(argv)
    finally:
        rec.enabled = False
        np.savez(spans_path, counts=json.dumps(rec.counts.get(0, {})), **rec.arrays())
    return code


class Context:
    """What a pass may need besides its inputs."""

    def __init__(self, deadline: float, workdir: str) -> None:
        self.deadline = deadline
        self.workdir = workdir
        self.rec = None
        self.cals: list[float] = []  # calibration samples of the current pass
        self.excluded = 0.0  # time inside the pass spent on them

    def tick(self) -> None:
        """Take a calibration sample inside an untraced pass, off its clock."""
        if self.rec is None:
            t0 = time.perf_counter()
            self.cals.append(calibrate())
            self.excluded += time.perf_counter() - t0

    def traced_cli(self, name: str, argv: list[str], cwd: str) -> dict:
        """Run one CLI invocation in a fresh traced child; merge its spans."""
        import numpy as np

        import tracer

        spans_path = os.path.join(self.workdir, f"spans-{name}.npz")
        idx, _ = self.rec.open(self.rec.intern(f"{tracer.GLUE}.spawn"), tracer.GLUE)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--role", "cli-traced",
                 "--spans", spans_path, "--", *argv],
                cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        finally:
            self.rec.close(idx)
        with np.load(spans_path) as z:
            spans = {k: z[k] for k in ("names", "name_id", "start", "end", "parent")}
            counts = json.loads(str(z["counts"]))
        os.remove(spans_path)
        self.rec.merge(spans, counts, idx)
        return {"code": proc.returncode, "stderr": proc.stderr}


class Tally:
    """Operation outcomes over every pass of the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0  # unexpected failures: raised, non-zero exit, failed check
        self.known = 0  # failures of the documented kind (see commands.KNOWN_REFUSAL)
        self.statuses: list[str] = []  # "pass:op=status", for same-seed comparison
        self.first_failure: dict[str, str] = {}

    def add(self, wl, inp: dict, pass_id: int, p, first) -> None:
        import workloads

        try:
            verdicts = wl.check(inp, p, first)
        except Exception as exc:  # an output too broken to check fails its operations
            verdicts, broken = {}, f"check could not run: {type(exc).__name__}: {exc}"
        else:
            broken = "no verdict"
        for op in p.out:
            verdict = p.err.get(op) or verdicts.get(op, broken)
            self.attempted += 1
            if verdict == workloads.KNOWN:
                self.known += 1
                status = "known"
            elif verdict is None:
                status = "ok"
            else:
                self.failed += 1
                status = "fail"
                self.first_failure.setdefault(op, f"pass {pass_id}: {verdict}")
            self.statuses.append(f"{pass_id}:{op}={status}")


def calibrate() -> float:
    """Wall time of a fixed calibration kernel: the host's speed right now.

    A pure-Python loop plus many small numpy calls, the two kinds of work
    that dominate the workloads. Taken before and after every untraced pass,
    and between the CLI invocations of a cli_defaults pass (Context.tick); a
    pass's calibration is the mean of the samples taken around and inside it.
    """
    import numpy as np

    small = np.arange(64.0)
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i
    for _ in range(3_000):
        np.sqrt(small)
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _provenance() -> dict:
    import numpy as np
    import scipy

    def blas(mod):
        cfg = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: cfg.get(k) for k in ("name", "version", "openblas configuration")}

    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "threads_env": {k: os.environ.get(k) for k in pins},
        "clock": time.get_clock_info("monotonic").implementation,
    }


def _run(wl, inp: dict, args, deadline: float) -> dict:
    import numpy as np

    import tracer

    ctx = Context(deadline, args.workdir)
    tally = Tally()

    def out_of_time() -> bool:
        return time.monotonic() > deadline

    t0 = time.perf_counter()
    first = wl.run_pass(inp, 0, ctx)
    warmup_s = time.perf_counter() - t0
    tally.add(wl, inp, 0, first, first)
    pass_id = 0

    def phase(seconds: float, traced: bool) -> tuple[list[float], list[int], list]:
        nonlocal pass_id
        walls, ids, infos, cals = [], [], [], []
        end = time.perf_counter() + seconds
        cal = None if traced else calibrate()
        while True:
            pass_id += 1
            if traced:
                rec = ctx.rec
                rec.current_pass = pass_id
                rec.enabled = True
                t0 = time.monotonic_ns()
                root, _ = rec.open(rec.intern(f"{tracer.GLUE}.pass"), tracer.GLUE)
                p = wl.run_pass(inp, pass_id, ctx)
                rec.close(root)
                wall = (time.monotonic_ns() - t0) / 1e9
                rec.enabled = False
            else:
                ctx.cals, ctx.excluded = [cal], 0.0
                t0 = time.perf_counter()
                p = wl.run_pass(inp, pass_id, ctx)
                wall = time.perf_counter() - t0 - ctx.excluded
                cal = calibrate()
                ctx.cals.append(cal)
                cals.append(sum(ctx.cals) / len(ctx.cals))
            walls.append(wall)
            ids.append(pass_id)
            infos.append(p.info)
            tally.add(wl, inp, pass_id, p, first)
            if args.passes:
                if len(walls) >= args.passes:
                    break
            elif time.perf_counter() >= end or out_of_time():
                break
        return walls, ids, infos, cals

    seconds = args.seconds / 2 if args.trace else args.seconds
    walls, _ids, infos, cals = phase(seconds, traced=False)
    result = {
        "warmup_s": warmup_s,
        "walls": walls,
        "cals": cals,
        "cli_walls": {},
        "nonzero_exits": [i["nonzero_exits"] for i in infos if "nonzero_exits" in i],
    }
    for info in infos:
        for name, wall in info.get("walls", {}).items():
            result["cli_walls"].setdefault(name, []).append(wall)
    result["peak_rss_mb"] = _peak_rss_mb()

    if args.trace:
        ctx.rec = tracer.Recorder()
        tracer.install(ctx.rec)
        twalls, ids, _, _ = phase(seconds, traced=True)
        spans = ctx.rec.arrays()
        os.makedirs(args.outdir, exist_ok=True)
        spans_file = os.path.join(args.outdir, f"spans-{wl.name}-seed{args.seed}.npz")
        np.savez_compressed(spans_file, **spans)
        own = tracer.self_times(spans)
        result["trace"] = {
            "walls": twalls,
            "totals": tracer.per_pass_totals(spans, ids),
            "counts": [ctx.rec.counts.get(i, {}) for i in ids],
            "spans": int(spans["start"].size),
            "min_self_ns": int(own.min()) if own.size else 0,
            "spans_file": os.path.relpath(spans_file, args.root),
        }
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        known=tally.known,
        statuses=tally.statuses,
        first_failure=tally.first_failure,
        provenance=dict(_provenance(), input_size=wl.size(args.small)),
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--role", choices=("setup", "run", "cli-traced"), required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--passes", type=int, default=0, help="fixed pass count per phase")
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--workdir")
    ap.add_argument("--outdir")
    ap.add_argument("--root")
    ap.add_argument("--budget", type=float, default=150.0)
    ap.add_argument("--spans")
    ap.add_argument("argv", nargs="*")
    args = ap.parse_args(argv)

    if args.role == "cli-traced":
        return _cli_traced(args.argv, args.spans)

    deadline = time.monotonic() + args.budget
    t0 = time.monotonic_ns()
    import chitomo
    import chitomo.cli
    t1 = time.monotonic_ns()

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inp = wl.build(args.seed, args.small, args.workdir)
    ready = time.monotonic_ns()
    info = {
        "ready_ns": ready,
        "import_s": (t1 - t0) / 1e9,
        "build_s": (ready - t1) / 1e9,
        "chitomo_file": chitomo.__file__,
    }
    if args.role == "run":
        info.update(_run(wl, inp, args, deadline))
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main())
