"""Smoke test of the benchmark: every workload, untraced and traced, at
tiny sizes for one second each.

    python3 -m pytest -q perfbench/smoke.py

The file name does not match ``test_*.py``, so the repository's own test
run does not collect it and benchmark runs stay out of its timing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_checks(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0.0
    assert not any(os.path.basename(p).startswith(".perfbench-") for p in os.listdir(ROOT))


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_restores_wrapped_names():
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    try:
        import tracing
        from borelconv import cli, deformation, germs
        from borelconv.filtered_set import FilteredSet

        before = (germs.deform, cli.distance_to_set, FilteredSet.fine_sum,
                  deformation.FlowField.__call__)
        with tracing.Tracer() as tracer:
            assert germs.deform is not before[0]
            assert not tracer.missing
        after = (germs.deform, cli.distance_to_set, FilteredSet.fine_sum,
                 deformation.FlowField.__call__)
        assert after == before
    finally:
        del sys.path[:2]


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
