"""Benchmark of the borelconv pipeline.

    python3 perfbench/run.py --workload probe_sweep --seed 0 --seconds 35 --trace 0

Runs from the root of a checkout and times the package in that checkout's
``src``.  Each workload is a closed loop: one op at a time, every op's
output checked.  With ``--trace 0`` the last line of standard output holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a separate traced run.  The line before it is a record of the run's
context.  See perfbench/README.md for the metrics and why each workload is
there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_STARTS = 9  # cold starts per run
SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.make(sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5]); "
    "print('ready', flush=True)"
)


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics, as numpy's default."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> dict:
    """Highest of the usual percentiles with at least ten samples beyond
    it; the maximum when there are too few samples for any."""
    n = len(values)
    for p in (99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return {"p": p, "value": quantile(values, p / 100.0), "n": n}
    return {"p": 100.0, "value": max(values), "n": n}


def host_reference_ms() -> float:
    """Best of three runs of a fixed loop, in ms: a gauge of how fast the
    host runs at the moment, recorded beside the results."""
    best = float("inf")
    a = np.linspace(0.0, 1.0, 40000).reshape(200, 200)
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200000):
            acc += i * i
        float((a @ a).sum())
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def cold_start(name, seed, size, workdir) -> float:
    """Seconds from starting a fresh interpreter to having the inputs of
    the workload built."""
    target = tempfile.mkdtemp(prefix="setup", dir=workdir)
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, BENCH_DIR, name, str(seed), size, target],
            cwd=workdir, env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE,
            text=True) as proc:  # waits for the child on leaving
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    return dt


class Ledger:
    """Runs and checks ops; counts attempted and failed ones.  A failed op
    is recorded, never retried."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, key):
        t0 = time.perf_counter()
        try:
            out = self.wl.run(key)
        except Exception as exc:  # any failure of the program is a failed op
            out = exc
        dt = time.perf_counter() - t0
        self.attempted += 1
        err = (f"{type(out).__name__}: {out}" if isinstance(out, Exception)
               else self.wl.check(key, out))
        if err is not None:
            self.failed += 1
            self.errors.append(err)
        return dt, out


def timed_run(args, workloads, workdir):
    """Untraced run: end-to-end metrics."""
    wl = workloads.make(args.workload, args.seed, args.size, os.path.join(workdir, "run"))
    ledger = Ledger(wl)
    first_s, _ = ledger.run(wl.keys[0])
    by_key = {k: [] for k in wl.keys}
    every, setup = [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while True:
        key = wl.keys[i % len(wl.keys)]
        i += 1
        dt, _ = ledger.run(key)
        by_key[key].append(dt)
        every.append(dt)
        # cold starts are spread over the run, so that a short slow phase
        # of the host does not meet all of them
        due = SETUP_STARTS * (time.perf_counter() - start) / args.seconds
        while len(setup) < min(SETUP_STARTS, int(due) + 1):
            setup.append(cold_start(args.workload, args.seed, args.size, workdir))
        # stop before an op that would end past the deadline, once every
        # key has been timed
        if i >= len(wl.keys) and time.perf_counter() + statistics.median(every) > deadline:
            break
    while len(setup) < SETUP_STARTS:
        setup.append(cold_start(args.workload, args.seed, args.size, workdir))
    who = resource.RUSAGE_CHILDREN if wl.runs_children else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    # each key weighs the same: the median of every key, averaged
    median = statistics.fmean(statistics.median(v) for v in by_key.values())
    metrics = {
        "op_s_median": {"value": median, "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    context = {
        "ops_timed": len(every),
        "first_op_s": first_s,
        "op_s_p10": {"value": statistics.fmean(quantile(v, 0.1) for v in by_key.values()),
                     "n": len(every)},
        "op_s_tail": tail(every),
        "op_s_median_by_key": ({str(k): statistics.median(v) for k, v in by_key.items()}
                               if len(by_key) > 1 else None),
        "setup_samples_s": setup,
    }
    return ledger, metrics, context


def traced_run(args, workloads, workdir):
    """Traced run: per-layer metrics.  Untraced and traced ops alternate
    over whole rotations of the workload's keys; for cli_batch each round
    also runs the batch as child processes, to measure their start-up."""
    import tracing

    wl = workloads.make(args.workload, args.seed, args.size, os.path.join(workdir, "run"))
    ledger = Ledger(wl)
    tracer = tracing.Tracer()
    ledger.run(wl.keys[0])
    if wl.runs_children:
        wl.in_process = True
        ledger.run(wl.keys[0])
    ratios, startups = [], []
    traced = rounds = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        for key in wl.keys:
            if wl.runs_children:
                wl.in_process = False
                _, child = ledger.run(key)
                wl.in_process = True
            plain_s, plain = ledger.run(key)
            with tracer:
                traced_s, _ = ledger.run(key)
            traced += 1
            ratios.append(traced_s / plain_s)
            if wl.runs_children and isinstance(child, list) and isinstance(plain, list):
                startups.append(statistics.fmean(
                    c[1] - p[1] for c, p in zip(child, plain)))
        rounds += 1
        now = time.perf_counter()
        if now + (now - start) / rounds > deadline:
            break

    def per_op(name, table):
        return None if name in tracer.missing else table[name] / traced

    def ratio(num, den, scale=1e6):
        return None if num is None or not den else num / den * scale

    s = {name: per_op(name, tracer.self_s) for name in tracing.SPANS}
    c = {name: per_op(name, tracer.counts) for name in tracing.COUNTERS}
    values = {
        "deformation.deform_s": (s["deformation.deform"], "s"),
        "deformation.field_evals": (c["deformation.field_evals"], "count"),
        "deformation.us_per_field_eval": (
            ratio(s["deformation.deform"], c["deformation.field_evals"]), "us"),
        "deformation.validate_s": (s["deformation.validate"], "s"),
        "germs.quadrature_s": (s["germs.convolve_along"], "s"),
        "germs.columns": (c["germs.columns"], "count"),
        "germs.quad_nodes": (c["germs.quad_nodes"], "count"),
        "germs.us_per_column": (ratio(s["germs.convolve_along"], c["germs.columns"]), "us"),
        "germs.local_radius_calls": (c["germs.local_radius_calls"], "count"),
        "paths.admissible_levels_s": (s["paths.admissible_levels"], "s"),
        "paths.distance_to_set_s": (s["paths.distance_to_set"], "s"),
        "filtered_set.fine_sum_s": (s["filtered_set.fine_sum"], "s"),
        "filtered_set.saturate_s": (s["filtered_set.saturate"], "s"),
        "filtered_set.saturated_entries": (c["filtered_set.saturated_entries"], "count"),
        "jsonio.write_s": (s["jsonio.write"], "s"),
        "jsonio.bytes_written": (c["jsonio.bytes_written"], "count"),
        "viz.overlay_s": (s["viz.overlay"], "s"),
        # only cli_batch starts processes for its ops
        "cli.startup_s": (statistics.fmean(startups) if startups else 0.0, "s"),
        "trace.overhead_frac": (statistics.median(ratios) - 1.0, "ratio"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    context = {"ops_traced": traced, "absent": sorted(tracer.missing)}
    return ledger, metrics, context


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["probe_sweep", "series_trace", "cli_batch"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: small grids, for the smoke test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "borelconv", "__init__.py")):
        print(f"error: no borelconv sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import borelconv
    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(borelconv.__file__))) != SRC:
        print(f"error: borelconv imported from {borelconv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    host_start = host_reference_ms()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = traced_run if args.trace else timed_run
        ledger, metrics, context = run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "git_sha": git_sha(), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "host_ref_ms": {"start": host_start, "end": host_reference_ms()},
        **context,
        "errors": ledger.errors[:5],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
