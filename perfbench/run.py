"""chitomo benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # the four, one after another
    python3 perfbench/run.py --selftest              # reduced-size self-test

Run it from anywhere inside a checkout; it uses the checkout's own `src/`.
Each workload is a closed loop with one client: the next pass starts when the
previous one has finished. Every workload runs in fresh child interpreters
with BLAS/OpenMP threads pinned to 1. Several children only set up, so that
`setup_s` is a median over fresh starts; the last one also runs one untimed
warm-up pass and then timed passes for --seconds. With --trace 1 half of the
time runs untraced and half under the tracer, which gives the per-layer
metrics, the tracing overhead and the span-accounting residual.

The report goes to stdout, ending with one JSON line: with --trace 0 it holds
the end-to-end metrics, with --trace 1 the per-layer ones. The full result,
with provenance, goes to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("sampled_1mode", "exact_2mode", "displacement_oracle", "cli_defaults")
SETUP_STARTS = 5  # fresh interpreters behind setup_s, the timed one included
TIME_LIMIT = 170.0  # seconds for one workload, set-up included
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for key in THREAD_PINS:
        env[key] = "1"
    return env


def _spawn(role: str, name: str, args, workdir: str, deadline: float) -> dict:
    """Start one fresh child, wait for it, and return its JSON line."""
    cmd = [
        sys.executable, str(CHILD), "--role", role, "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--outdir", str(ROOT / ".bench_out"), "--root", str(ROOT),
        "--budget", str(max(1.0, deadline - time.monotonic() - 5.0)),
    ]
    if args.small:
        cmd.append("--small")
    if args.passes:
        cmd += ["--passes", str(args.passes)]
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{name}: {role} child did not finish within the time limit") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{name}: {role} child exited {proc.returncode}:\n{err[-2000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    src = ROOT / "src" / "chitomo"
    if Path(res["chitomo_file"]).resolve().parent != src.resolve():
        raise BenchError(f"child imported chitomo from {res['chitomo_file']}, not {src}")
    res["setup_s"] = (res["ready_ns"] - spawn_ns) / 1e9
    return res


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc})"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def _why(name: str) -> str:
    try:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return ""
    return next((w["why"] for w in doc.get("workloads", []) if w["name"] == name), "")


def run_workload(name: str, args) -> dict:
    """Set-up samples plus one timed child for one workload; returns the result."""
    deadline = time.monotonic() + TIME_LIMIT
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_work")
    try:
        starts = 2 if args.small else SETUP_STARTS
        setups = [_spawn("setup", name, args, workdir, deadline) for _ in range(starts - 1)]
        res = _spawn("run", name, args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:  # another run still uses it
            pass
    setups.append(res)
    res["setup_samples"] = [s["setup_s"] for s in setups]
    res["import_samples"] = [s["import_s"] for s in setups]
    res["build_samples"] = [s["build_s"] for s in setups]
    for key in ("ready_ns", "setup_s", "import_s", "build_s"):
        res.pop(key)
    res["workload"] = name
    res["provenance"].update(
        seed=args.seed,
        seconds=args.seconds,
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        git_sha=_git_sha(),
        loop="closed, one client",
        why=_why(name),
    )
    res["e2e"] = metrics.end_to_end(res)
    if args.trace:
        res["per_layer"] = metrics.per_layer(res)
        res["residuals"] = metrics.residuals(res)
        res["accounting_ok"] = _accounting_ok(res)
    return res


def _accounting_ok(res: dict) -> bool:
    """Layer self times plus glue must add up to each traced pass's time.

    Allowed: a residual of 1 ms or 1% of the pass, whichever is larger, and
    no span whose children cover more than the span itself by over 1 us.
    """
    ok_sum = all(
        abs(r) <= max(1e-3, 0.01 * w) for r, w in zip(res["residuals"], res["trace"]["walls"])
    )
    return ok_sum and res["trace"]["min_self_ns"] >= -1000


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(res: dict, trace: int) -> list[str]:
    e2e = res["e2e"]
    lines = [
        f"== {res['workload']}  seed {res['provenance']['seed']}  (closed loop, one client; "
        f"{len(res['walls'])} timed passes after 1 warm-up)"
    ]
    for name, (value, unit, note) in e2e.items():
        lines.append(f"  {name:<12} {_fmt(value):>10} {unit:<5} {note}")
    if "pass_tail_s" not in e2e:
        lines.append(f"  pass_tail_s  not defined: {len(res['walls'])} passes, 11 needed")
    for op, why in res["first_failure"].items():
        lines.append(f"  FAILED {op}: {why}")
    if trace:
        tr = res["trace"]
        lines.append(f"  traced: {len(tr['walls'])} passes, {tr['spans']} spans in "
                     f"{tr['spans_file']}; accounting {'ok' if res['accounting_ok'] else 'FAILED'}")
        for mname, unit, _better, _kind, _src in metrics.PER_LAYER:
            lines.append(f"    {mname:<44} {_fmt(res['per_layer'][mname])} {unit}")
    lines.append("  provenance " + json.dumps(res["provenance"], sort_keys=True))
    return lines


def final_line(results: list[dict], trace: int) -> dict:
    """The last stdout line: correct, attempted, failed and the metrics."""
    spec = [(m[0], m[1]) for m in (metrics.PER_LAYER if trace else metrics.END_TO_END)]
    values = {}
    for res in results:
        source = res["per_layer"] if trace else res["e2e"]
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        for name, unit in spec:
            value = source[name] if trace else source[name][0]
            values[prefix + name] = {"value": value, "unit": unit}
    correct = all(r["failed"] == 0 and r.get("accounting_ok", True) for r in results)
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": values,
    }


def _save(res: dict, trace: int) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{res['workload']}-seed{res['provenance']['seed']}-trace{trace}.json"
    path.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# self-test

def selftest(args) -> int:
    """Reduced-size runs that check the benchmark itself."""
    seed_b = args.seed2 if args.seed2 is not None else int.from_bytes(os.urandom(3), "big")
    print(f"self-test: seed {args.seed} twice, then seed {seed_b}", flush=True)
    ok = True

    def verdict(passed: bool, what: str) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {what}", flush=True)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"])
                for m in bench["end_to_end"] + bench["per_layer"]}
    emitted_spec = {m[0]: (m[1], m[2]) for m in metrics.END_TO_END + metrics.PER_LAYER}
    verdict(declared == emitted_spec, "BENCHMARK.json declares exactly the emitted metrics")

    for name in WORKLOADS:
        # exact_2mode gets enough passes for pass_tail_s to exist
        passes = 11 if name == "exact_2mode" else 2
        runs = []
        for seed in (args.seed, args.seed, seed_b):
            sub = argparse.Namespace(seed=seed, seconds=1.0, trace=1, small=True, passes=passes)
            runs.append(run_workload(name, sub))
        a, b, c = runs
        for trace in (0, 1):
            got = final_line([a], trace)["metrics"]
            spec = metrics.PER_LAYER if trace else metrics.END_TO_END
            verdict(
                all(got.get(m[0], {}).get("unit") == m[1] for m in spec) and len(got) == len(spec),
                f"{name}: trace {trace} line carries every metric with its unit",
            )
        reported = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
                         "fail_frac": "ratio", "warmup_s": "s"}
        if passes >= 11:
            reported["pass_tail_s"] = "s"
        verdict({k: v[1] for k, v in a["e2e"].items() if k in reported} == reported
                and ("pass_tail_s" in a["e2e"]) == (passes >= 11),
                f"{name}: the report carries every end-to-end metric with its unit, "
                "pass_tail_s exactly when 11 or more passes ran")
        counts = [m[0] for m in metrics.PER_LAYER if m[1] != "s"]
        same = (
            (a["attempted"], a["failed"], a["known"]) == (b["attempted"], b["failed"], b["known"])
            and a["statuses"] == b["statuses"]
            and all(a["per_layer"][m] == b["per_layer"][m] for m in counts)
        )
        verdict(same, f"{name}: same seed, identical counts and check results")
        verdict(c["failed"] == 0 and c["accounting_ok"],
                f"{name}: seed {seed_b} passes every check and the span accounting")
        for r in runs:
            for op, why in r["first_failure"].items():
                print(f"     {op}: {why}")
        share = c["e2e"]["fail_frac"][0]
        want = 1 / 10 if name == "cli_defaults" else 0.0
        verdict(share == want and c["known"] == (c["attempted"] // 10 if want else 0),
                f"{name}: fail_frac {share:g} equals the known share {want:g}")
    print(json.dumps({"selftest": "pass" if ok else "fail", "seed2": seed_b}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="chitomo benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true", help="run the reduced-size self-test")
    ap.add_argument("--seed2", type=int, help="second self-test seed (default: random)")
    ap.set_defaults(small=False, passes=0)  # the self-test's reduced, fixed-length runs
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "chitomo" / "__init__.py").is_file():
        print(f"error: no chitomo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest(args)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            res = run_workload(name, args)
            _save(res, args.trace)
            print("\n".join(report(res, args.trace)), flush=True)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final_line(results, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
