"""Time two checkouts of borelconv against each other in one process.

Usage:
    python tools/abtime.py OLD NEW [--workload probe|series]

Imports the package from OLD/src and NEW/src under two names of its own,
side by side in this process, and runs one op of each in turn, the side
that goes first alternating from pair to pair.  An op is the workload of
the benchmark of the same name at its full size:

* probe: the criterion-7 sweep, the pole pair pole(1), pole(2) probed at
  candidates 1.0 .. 3.0, radius 0.2, on `singularity_probe`'s default grid;
* series: `convolve_along` of two 48-term series along [0.25, 0.5] at
  64 x 64 x 8.

After one op of each as a warm-up, it prints each side's median op time,
its field calls per op (the warm-up's calls of that side's
`FlowField.__call__`, counted only then), the paired ratio NEW / OLD (its
median and quartiles), the number of pairs NEW was faster in, and a
SHA-256 digest of every output of each side's ops (the values' bytes and
the reports' floats as exact hex), equal when the two sides keep each
other's bits.

Pairs run moments apart see the same phase of a host whose speed drifts,
so the ratio sizes a change on such a host; the benchmark's own pairs of
runs (perfbench) remain its proof.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import sys
import time

import numpy as np

PAIRS = 60
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


def compare(old: str, new: str, workload: str = "probe", pairs: int = PAIRS,
            size: str = "full") -> dict:
    """Alternate ops of the two checkouts; the times, ratios and digests."""
    packages = [load(path, f"borelconv_ab_{side}") for side, path in (("old", old), ("new", new))]
    ops = [WORKLOADS[workload](bc, size) for bc in packages]
    digests = [hashlib.sha256(), hashlib.sha256()]
    calls = [field_calls(bc, op) for bc, op in zip(packages, ops)]  # warm-up, not timed
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
        "field_calls": calls,
        "ratio": np.percentile(ratio, [50, 25, 75]).tolist(),
        "wins": int(np.count_nonzero(ratio < 1.0)),
        "pairs": pairs,
        "digests": [d.hexdigest() for d in digests],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="probe")
    args = parser.parse_args(argv)
    print("\n".join(report(compare(args.old, args.new, args.workload))))
    return 0


def report(res: dict) -> list[str]:
    """The lines main prints for a result of `compare`."""
    lines = [f"{side}: median {median * 1e3:.3f} ms  field calls per op {calls}  digest {digest}"
             for side, median, calls, digest in zip(
                 ("old", "new"), res["median_s"], res["field_calls"], res["digests"])]
    mid, lo, hi = res["ratio"]
    lines.append(f"new/old: median {mid:.3f} (IQR {lo:.3f}-{hi:.3f}), "
                 f"new faster in {res['wins']} of {res['pairs']} pairs")
    lines.append("digests " + ("equal" if res["digests"][0] == res["digests"][1] else "DIFFER"))
    return lines


if __name__ == "__main__":
    sys.exit(main())
