"""Steadiness check of the benchmark.

    python3 perfbench/steady.py --runs 10 [--workloads probe_sweep ...] [--out FILE]
    python3 perfbench/steady.py --trace [--workloads ...]

Untraced: runs each workload once per seed (first-seed onwards) and reports, for
every end-to-end metric, the median and the spread (first to third
quartile, as a share of the median) against the metric's bound from
BENCHMARK.json.  The check passes when every spread except that of
setup_s stays within its bound; spreads under a third of the bound are
the target.

Traced: runs the traced run twice on the same seed and passes only when
every exact work counter repeats identically.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

EXACT_COUNTERS = (
    "deformation.field_evals", "germs.columns", "germs.quad_nodes",
    "germs.local_radius_calls", "filtered_set.saturated_entries",
    "jsonio.bytes_written",
)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def check_untraced(spec, workloads, seeds):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # workloads take turns, so that every workload meets the same slow and
    # fast phases of the host
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(run_once(w, seed, spec["run_seconds"], False))
    ok = True
    report = {}
    for w, results in runs.items():
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for _, r in results]
            med, sp = spread(values)
            within = name == "setup_s" or sp <= bound
            ok = ok and within and all(r["correct"] for _, r in results)
            rows[name] = {"median": med, "spread": sp, "bound": bound,
                          "target_met": sp < bound / 3, "values": values}
            print(f"{w:13s} {name:12s} median {med:.5g}  spread {sp:.4f}  "
                  f"bound {bound}  {'ok' if within else 'TOO WIDE'}", flush=True)
        report[w] = {
            "metrics": rows,
            "failed": sum(r["failed"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "host_ref_ms": [rec["host_ref_ms"] for rec, _ in results],
        }
    return ok, report


def check_traced(spec, workloads):
    ok = True
    report = {}
    for w in workloads:
        a, b = (run_once(w, 1, spec["run_seconds"], True)[1] for _ in range(2))
        counters = {k: (a["metrics"][k]["value"], b["metrics"][k]["value"])
                    for k in EXACT_COUNTERS}
        same = all(x == y for x, y in counters.values())
        ok = ok and same and a["correct"] and b["correct"]
        report[w] = {"counters": counters, "repeat": same,
                     "metrics": [a["metrics"], b["metrics"]]}
        print(f"{w:13s} counters {'repeat' if same else 'DIFFER'}: "
              + ", ".join(f"{k}={x}" for k, (x, _) in counters.items()), flush=True)
    return ok, report


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default=None, help="write the full report as JSON")
    args = ap.parse_args(argv)
    if args.trace:
        ok, report = check_traced(spec, args.workloads)
    else:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        ok, report = check_untraced(spec, args.workloads, seeds)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
