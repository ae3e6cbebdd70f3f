"""modsym benchmark: one closed-loop caller running one workload.

    python3 bench/run.py --workload relations|cli|reciprocity --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs ops until ``S`` seconds of op time have passed and
reports the end-to-end metrics: ops_per_s (correct ops that ended inside
the window, per second), latency_p50_ms, latency_tail_ms (the highest whole
percentile of the run's latencies with at least ten samples above it),
peak_rss_mb (of the CLI processes for cli) and setup_s (median of fresh
processes that import and set up the workload).  The line before the result
is a report with the same numbers, error_rate, and the tail's percentile and
the number of samples above it.

``--trace 1`` runs the first ops of the workload's schedule (a fixed number,
so every count repeats) once untraced and once traced, checks that both give
the same results, and reports the per-layer metrics.  Spans are written to
``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
CLI_PROBES = 5


def main():
    ap = argparse.ArgumentParser(description="modsym benchmark")
    ap.add_argument("--workload", required=True, choices=["reciprocity", "relations", "cli"])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order (and with it every count) must not vary by process
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    if not (SRC / "modsym" / "cli.py").is_file():
        print(f"error: no modsym sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    import workloads

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    wl = workloads.setup(args.workload)
    if args.trace:
        result = traced_run(args.workload, wl, seed, workloads.COMMANDS)
    else:
        result = timed_run(args.workload, wl, seed, args.seconds)
    print(json.dumps(result))
    return 0


def attempt(fn, x):
    """(correct, fingerprint); an exception counts as a failed op."""
    try:
        return fn(x)
    except Exception:
        traceback.print_exc()
        return False, None


def tail(latencies):
    """(percentile, value, samples above) of the highest whole percentile
    with at least ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return 0, xs[-1], 0


def setup_seconds(workload):
    """Median wall time of fresh processes that import and set up the workload."""
    code = (
        f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; "
        f"import workloads; workloads.setup({workload!r})"
    )
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_run(workload, wl, seed, seconds):
    ops = wl.ops(seed)
    latencies, failed, busy, done = [], 0, 0.0, 0
    while busy < seconds:
        x = next(ops)
        t0 = time.perf_counter()
        ok, _ = attempt(wl.run, x)
        dt = time.perf_counter() - t0
        busy += dt
        latencies.append(dt)
        failed += not ok
        # throughput counts the correct ops that ended inside the window; the
        # op running at its end would otherwise add up to seconds of overshoot
        done += ok and busy <= seconds
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setup_s = setup_seconds(workload)
    attempted = len(latencies)
    pct, tail_s, above = tail(latencies)
    metrics = {
        "ops_per_s": (done / seconds, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    report = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    report["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    report["latency_tail_ms"]["percentile"] = pct
    report["latency_tail_ms"]["samples_above"] = above
    print(json.dumps({"report": {"workload": workload, "seed": seed, "metrics": report}}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def traced_run(workload, wl, seed, commands):
    import tracer as tracing

    ops = wl.ops(seed)
    inputs = [next(ops) for _ in range(wl.trace_ops)]
    # traced first, so that the caches it fills favour the untraced pass and
    # the overhead ratio errs high
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        t0 = time.perf_counter()
        for i, x in enumerate(inputs):
            tracer.begin_op(i)
            traced.append(attempt(wl.run_traced, x))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.remove()
    tracer.write_spans(OUT / f"spans-{workload}-{seed}.jsonl")
    t0 = time.perf_counter()
    plain = [attempt(wl.run_traced, x) for x in inputs]
    untraced_s = time.perf_counter() - t0

    failed = sum(not (p[0] and t[0] and p[1] == t[1]) for p, t in zip(plain, traced))
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "x")
    metrics.update(cli_layer(commands, wl if workload == "cli" else None))
    return {
        "correct": failed == 0,
        "attempted": len(inputs),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def cli_layer(commands, wl):
    """Start-up, import and warm in-process ``main`` times of the CLI.

    Measured on the cli workload only; the other workloads report zeros."""
    from workloads import cli_env

    names = [name for name, _ in commands]
    if wl is None:
        zeros = {"cli.python_startup_ms": (0.0, "ms"), "cli.import_ms": (0.0, "ms"),
                 "cli.sympy_loaded": (0, "count")}
        zeros.update({f"cli.main_ms.{n}": (0.0, "ms") for n in names})
        return zeros
    startup = []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        startup.append((time.perf_counter() - t0) * 1000)
    imports = []
    timer = "import time; t0 = time.perf_counter(); import modsym.cli; print((time.perf_counter() - t0) * 1000)"
    for _ in range(CLI_PROBES):
        out = subprocess.run([sys.executable, "-c", timer], env=cli_env(), cwd=ROOT,
                             check=True, capture_output=True, timeout=60).stdout
        imports.append(float(out))
    probe = ("import sys; from modsym import cli; code = cli.main(sys.argv[1:]); "
             "sys.stderr.write('sympy=%d' % ('sympy' in sys.modules)); sys.exit(code)")
    sympy_loaded = 0
    for _, argv in commands:
        proc = subprocess.run([sys.executable, "-c", probe, "--json", *argv], env=cli_env(),
                              cwd=ROOT, capture_output=True, timeout=120)
        sympy_loaded += proc.stderr.endswith(b"sympy=1")
    m = {
        "cli.python_startup_ms": (statistics.median(startup), "ms"),
        "cli.import_ms": (statistics.median(imports), "ms"),
        "cli.sympy_loaded": (sympy_loaded, "count"),
    }
    for x in commands:
        wl.run_traced(x)  # warm
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            wl.run_traced(x)
            times.append((time.perf_counter() - t0) * 1000)
        m[f"cli.main_ms.{x[0]}"] = (statistics.median(times), "ms")
    return m


if __name__ == "__main__":
    sys.exit(main())
