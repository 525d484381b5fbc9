"""Time two checkouts of borelconv against each other.

Usage:
    python tools/abtime.py OLD NEW [--workload probe|series|cli]

Runs one op of each checkout in turn, the side that goes first alternating
from pair to pair, for 60 pairs (20 of the slower cli op).  An op is the
workload of the benchmark of the same name at its full size:

* probe: the criterion-7 sweep, the pole pair pole(1), pole(2) probed at
  candidates 1.0 .. 3.0, radius 0.2, on `singularity_probe`'s default grid;
* series: `convolve_along` of two 48-term series along [0.25, 0.5] at
  64 x 64 x 8;
* cli: the commands of perfbench's `CliBatch` at seed 0 (the README
  command-line sequence without the probe, then `set-op saturate` of a
  lattice and `path-check` of a walk against it), each command a child
  `python -m borelconv.cli` run on OLD/src or NEW/src and waited for
  without a timeout.

For probe and series it imports the package from OLD/src and NEW/src under
two names of its own, side by side in this process, and counts each side's
field calls per op (the warm-up's calls of that side's
`FlowField.__call__`).  For cli it also prints each command's median time.

After one op of each as a warm-up, it prints each side's median op time,
the paired ratio NEW / OLD (its median and quartiles), the number of pairs
NEW was faster in, and a SHA-256 digest of every output of each side's ops
(the values' bytes and the reports' floats as exact hex, or the bytes of
every file the batch writes), equal when the two sides keep each other's
bits; when they differ, the files that differ are named.

Pairs run moments apart see the same phase of a host whose speed drifts,
so the ratio sizes a change on such a host; the benchmark's own pairs of
runs (perfbench) remain its proof.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 60
CLI_PAIRS = 20
CANDIDATES = (1.0, 1.5, 2.0, 2.5, 3.0)
SERIES_TERMS = 48
# (probe grid or None for the default, series grid) per size
SIZES = {"full": (None, (64, 64, 8)), "tiny": ((64, 64, 8), (16, 16, 4))}


def load(checkout: str, name: str):
    """The package in checkout/src/borelconv, imported afresh as `name`."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]  # an earlier load's modules, which the import would reuse
    pkg = os.path.join(os.path.abspath(checkout), "src", "borelconv")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _cfg(bc, dims):
    return None if dims is None else bc.ConvolveConfig(n_s=dims[0], n_t=dims[1], n_q=dims[2])


def probe_op(bc, size: str):
    """One probe sweep of package bc: returns the op and its output bytes."""
    a = bc.FilteredSet(0, [(1, 1.0)], 6.0)
    b = bc.FilteredSet(0, [(2, 2.0)], 6.0)
    phi, psi, cfg = bc.Germ.pole(1), bc.Germ.pole(2), _cfg(bc, SIZES[size][0])

    def op():
        out = []
        for c in CANDIDATES:
            rep = bc.singularity_probe(phi, psi, a, b, c, 0.2, cfg=cfg)
            out.append(rep.trace.values.tobytes())
            out.append(" ".join(float(x).hex() for x in (
                rep.defect_rel, rep.ring_rel, rep.cell_error_rel)).encode())
        return b"".join(out)

    return op


def series_op(bc, size: str):
    """One series convolution of package bc: returns the op and its output bytes."""
    a = bc.FilteredSet(0, [(1, 1.0)], 6.0)
    b = bc.FilteredSet(0, [(2, 2.0)], 6.0)
    phi = bc.Germ.series([1.0] * SERIES_TERMS, 1.0)
    psi = bc.Germ.series([0.5 ** (k + 1) for k in range(SERIES_TERMS)], 2.0)
    gamma, cfg = bc.Path([0.25, 0.5]), _cfg(bc, SIZES[size][1])

    def op():
        return bc.convolve_along(phi, psi, gamma, a, b, cfg).values.tobytes()

    return op


WORKLOADS = {"probe": probe_op, "series": series_op}


@functools.cache
def _workloads():
    """perfbench/workloads.py of this checkout, which imports borelconv
    from this checkout's src."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    spec = importlib.util.spec_from_file_location(
        "abtime_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _label(argv) -> str:
    """A command's name: its words up to its first file, and that file's name."""
    words = list(itertools.takewhile(lambda arg: not os.path.isabs(arg), argv))
    return " ".join(words + [os.path.basename(argv[len(words)])])


def cli_op(checkout: str, size: str, workdir: str):
    """One batch of checkout's command line, perfbench's `CliBatch` with its
    inputs in workdir and each command a child process: returns the op,
    which returns the SHA-256 digests of the files written, adds their bytes
    to the op's `digests` (one per file) and appends the commands' times to
    its `command_times`."""
    batch = _workloads().CliBatch(0, size, workdir)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))

    def op():
        for path in batch.outputs:  # a command that writes nothing must not pass
            if os.path.exists(path):
                os.remove(path)
        times = []
        for argv in batch.commands:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "borelconv.cli", *argv], env=env,
                           stdout=subprocess.DEVNULL, check=True)
            times.append(time.perf_counter() - t0)
        op.command_times.append(times)
        out = []
        for path, digest in zip(batch.outputs, op.digests.values()):
            with open(path, "rb") as f:
                blob = f.read()
            digest.update(blob)
            out.append(hashlib.sha256(blob).digest())
        return b"".join(out)

    op.names = [_label(argv) for argv in batch.commands]
    op.digests = {os.path.relpath(path, workdir): hashlib.sha256() for path in batch.outputs}
    op.command_times = []
    return op


def field_calls(bc, op) -> int:
    """Run op once, counting the calls of package bc's FlowField.__call__."""
    cls, calls = bc.deformation.FlowField, []
    call = cls.__call__

    def counted(self, *args, **kwargs):
        calls.append(1)
        return call(self, *args, **kwargs)

    cls.__call__ = counted
    try:
        op()
    finally:
        cls.__call__ = call
    return len(calls)


def compare(old: str, new: str, workload: str = "probe", pairs: int | None = None,
            size: str = "full") -> dict:
    """Alternate ops of the two checkouts, PAIRS pairs of them (CLI_PAIRS
    for cli) unless pairs is given; the times, ratios and digests."""
    if workload == "cli":
        return compare_cli(old, new, CLI_PAIRS if pairs is None else pairs, size)
    pairs = PAIRS if pairs is None else pairs
    packages = [load(path, f"borelconv_ab_{side}") for side, path in (("old", old), ("new", new))]
    ops = [WORKLOADS[workload](bc, size) for bc in packages]
    calls = [field_calls(bc, op) for bc, op in zip(packages, ops)]  # warm-up, not timed
    return dict(_alternate(ops, pairs), field_calls=calls)


def compare_cli(old: str, new: str, pairs: int, size: str) -> dict:
    """`compare` for the cli workload, with each command's median time and
    the output files whose bytes differ."""
    workdir = tempfile.mkdtemp(prefix="abtime-cli-")
    try:
        ops = [cli_op(path, size, os.path.join(workdir, side))
               for side, path in (("old", old), ("new", new))]
        for op in ops:  # warm-up, not timed
            op()
            op.command_times.clear()
        res = _alternate(ops, pairs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    medians = np.median([op.command_times for op in ops], axis=1)  # side x command
    res["commands"] = dict(zip(ops[0].names, medians.T.tolist()))
    res["files_differ"] = [name for name, d in ops[0].digests.items()
                           if d.digest() != ops[1].digests[name].digest()]
    return res


def _alternate(ops, pairs: int) -> dict:
    """Time `pairs` pairs of the two ops, the side that goes first
    alternating, and digest each side's outputs."""
    digests = [hashlib.sha256(), hashlib.sha256()]
    times = np.empty((pairs, 2))
    for k in range(pairs):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            t0 = time.perf_counter()
            out = ops[side]()
            times[k, side] = time.perf_counter() - t0
            digests[side].update(out)
    ratio = times[:, 1] / times[:, 0]
    return {
        "median_s": np.median(times, axis=0).tolist(),
        "ratio": np.percentile(ratio, [50, 25, 75]).tolist(),
        "wins": int(np.count_nonzero(ratio < 1.0)),
        "pairs": pairs,
        "digests": [d.hexdigest() for d in digests],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["cli"], default="probe")
    args = parser.parse_args(argv)
    print("\n".join(report(compare(args.old, args.new, args.workload))))
    return 0


def report(res: dict) -> list[str]:
    """The lines main prints for a result of `compare`."""
    lines = []
    for k, side in enumerate(("old", "new")):
        calls = f"  field calls per op {res['field_calls'][k]}" if "field_calls" in res else ""
        lines.append(f"{side}: median {res['median_s'][k] * 1e3:.3f} ms{calls}  "
                     f"digest {res['digests'][k]}")
    for name, (t_old, t_new) in res.get("commands", {}).items():
        lines.append(f"  {name}: old {t_old * 1e3:.1f} ms  new {t_new * 1e3:.1f} ms")
    mid, lo, hi = res["ratio"]
    lines.append(f"new/old: median {mid:.3f} (IQR {lo:.3f}-{hi:.3f}), "
                 f"new faster in {res['wins']} of {res['pairs']} pairs")
    if res["digests"][0] == res["digests"][1]:
        lines.append("digests equal")
    else:
        lines.append("digests DIFFER" + "".join(f" {name}" for name in res.get("files_differ", [])))
    return lines


if __name__ == "__main__":
    sys.exit(main())
