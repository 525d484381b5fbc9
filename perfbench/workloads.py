"""Workloads of the borelconv benchmark.

Each workload builds its inputs from a seed, runs one op at a time and
checks the output of every op.  Seed 0 gives the reference inputs; any
other seed moves the end point of gamma and the probe radius by up to 5 %,
a range inside which every check below still holds.

The package is imported from the ``src`` directory of the checkout that
holds this benchmark (``run.py`` puts it first on ``sys.path``), never from
an installed copy.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time

import borelconv
from borelconv import ConvolveConfig, FilteredSet, Germ, Path, cli, germs

# Sizes of the full benchmark and of the smoke test.  The tiny probe grid
# is the smallest tried that still classifies every candidate correctly.
SIZES = {
    "full": {
        "probe_cfg": None,  # singularity_probe's default, 256 x 2048 x 8
        "series_cfg": (64, 64, 8),
        "deform": ("64", "512"),
        "convolve": ("128", "256", "16"),
        "lattice_horizon": 16.0,
        "saturated_entries": 1495,
    },
    "tiny": {
        "probe_cfg": (64, 256, 8),
        "series_cfg": (16, 16, 8),
        "deform": ("16", "32"),
        "convolve": ("16", "32", "8"),
        "lattice_horizon": 6.0,
        "saturated_entries": None,
    },
}

CANDIDATES = (1.0, 1.5, 2.0, 2.5, 3.0)
SINGULAR = {1.0, 2.0, 3.0}
SERIES_TERMS = 48
REL_TOL = 1e-6


def jitter(seed: int) -> tuple[float, float]:
    """Factors for gamma's end point and the probe radius; 1 for seed 0."""
    if seed == 0:
        return 1.0, 1.0
    rng = random.Random(seed)
    return 1.0 + rng.uniform(-0.05, 0.05), 1.0 + rng.uniform(-0.05, 0.05)


def _sets():
    a = FilteredSet(0, [(1, 1.0)], horizon=6.0)
    b = FilteredSet(0, [(2, 2.0)], horizon=6.0)
    return a, b


def _config(dims):
    if dims is None:
        return None
    n_s, n_t, n_q = dims
    return ConvolveConfig(n_s=n_s, n_t=n_t, n_q=n_q)


def _rel_err(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want)


class ProbeSweep:
    """Criterion-7 sweep: classify five candidates around small loops."""

    runs_children = False

    def __init__(self, seed: int, size: str, workdir: str):
        _, f_radius = jitter(seed)
        self.set_a, self.set_b = _sets()
        self.phi, self.psi = Germ.pole(1), Germ.pole(2)
        self.radius = 0.2 * f_radius
        self.cfg = _config(SIZES[size]["probe_cfg"])
        self.keys = CANDIDATES

    def run(self, candidate):
        # called through the module so that a traced run sees the wrapped
        # layer names
        rep = germs.singularity_probe(self.phi, self.psi, self.set_a, self.set_b,
                                      candidate, self.radius, cfg=self.cfg)
        return rep.classification

    def check(self, candidate, out):
        want = "singular-like" if candidate in SINGULAR else "regular"
        if out != want:
            return f"candidate {candidate}: {out}, expected {want}"
        return None


class SeriesTrace:
    """Convolution of two truncated series: the series re-expansion walk."""

    runs_children = False

    def __init__(self, seed: int, size: str, workdir: str):
        f_gamma, _ = jitter(seed)
        self.set_a, self.set_b = _sets()
        self.phi = Germ.series([1.0] * SERIES_TERMS, 1.0)
        self.psi = Germ.series([0.5 ** (k + 1) for k in range(SERIES_TERMS)], 2.0)
        self.gamma = Path([0.25, 0.5 * f_gamma])
        self.cfg = _config(SIZES[size]["series_cfg"])
        z = self.gamma.end
        self.expected = complex(math.log(2.0 / ((1.0 - z.real) * (2.0 - z.real)))
                                / (3.0 - z.real))
        self.keys = (None,)

    def run(self, key):
        trace = germs.convolve_along(self.phi, self.psi, self.gamma,
                                     self.set_a, self.set_b, self.cfg)
        return trace.end_value

    def check(self, key, out):
        err = _rel_err(out, self.expected)
        if not err <= REL_TOL:
            return f"end value {out} off by {err:.3e} relative"
        return None


def _write(path: str, doc):
    with open(path, "w") as f:
        json.dump(doc, f)


def _set_doc(entries, horizon):
    return {"centre": [0, 0],
            "entries": [{"z": [z.real, z.imag], "level": lv} for z, lv in entries],
            "horizon": horizon}


class CliBatch:
    """The README command-line sequence plus saturation, one command at a
    time, each as a child ``python -m borelconv.cli`` run against the
    checkout's sources (or in process through ``cli.main``)."""

    runs_children = True

    def __init__(self, seed: int, size: str, workdir: str):
        f_gamma, _ = jitter(seed)
        sz = SIZES[size]
        os.makedirs(workdir, exist_ok=True)
        w = lambda name: os.path.join(workdir, name)  # noqa: E731
        self.z_end = 0.5 * f_gamma
        _write(w("a.json"), _set_doc([(1, 1.0)], 6.0))
        _write(w("b.json"), _set_doc([(2, 2.0)], 6.0))
        _write(w("gamma.json"), {"vertices": [[0.25, 0], [self.z_end, 0]]})
        _write(w("lam.json"), {"vertices": [[0, 0], [0.5, 0]]})
        _write(w("phi.json"), {"kind": "pole", "a": [1, 0]})
        lattice = [(complex(math.cos(2 * math.pi * k / 3),
                            math.sin(2 * math.pi * k / 3)), 1.0) for k in range(3)]
        lattice.append((1.5j, 1.5))
        _write(w("lattice.json"), _set_doc(lattice, sz["lattice_horizon"]))
        _write(w("walk.json"), {"vertices": [[0, 0], [0.3, 0.1], [0.6, 0.45],
                                             [0.2, 0.7], [-0.3, 0.4]]})
        ns, nt = sz["deform"]
        cs, ct, cq = sz["convolve"]
        self.commands = [
            ["set-op", "fine-sum", w("a.json"), w("b.json"), "-o", w("fine.json")],
            ["path-check", w("lam.json"), w("fine.json"), "-o", w("check.json"),
             "--csv", w("lam.csv")],
            ["glimpse", w("a.json"), "--theta", "0", "--verify", "-o", w("glimpse.json")],
            ["deform", w("gamma.json"), w("a.json"), w("b.json"), "--level", "2.5",
             "--ns", ns, "--nt", nt, "-o", w("deform_out")],
            ["convolve", w("phi.json"), w("phi.json"), w("gamma.json"), w("a.json"),
             w("a.json"), "--ns", cs, "--nt", ct, "--nq", cq, "-o", w("conv_out")],
            ["set-op", "saturate", w("lattice.json"), "-o", w("saturated.json")],
            ["path-check", w("walk.json"), w("saturated.json"), "-o", w("walk_check.json")],
        ]
        self.outputs = [w(n) for n in (
            "fine.json", "check.json", "lam.csv", "glimpse.json",
            "deform_out/grid.csv", "deform_out/report.json", "deform_out/overlay.svg",
            "conv_out/trace.csv", "saturated.json", "walk_check.json")]
        self.saturated_entries = sz["saturated_entries"]
        self.src = os.path.dirname(os.path.dirname(os.path.abspath(borelconv.__file__)))
        self.in_process = False
        self.reference = None
        self.keys = (None,)

    def _child(self, argv):
        env = dict(os.environ, PYTHONPATH=self.src)
        proc = subprocess.run([sys.executable, "-m", "borelconv.cli", *argv],
                              env=env, stdout=subprocess.DEVNULL, timeout=120)
        return proc.returncode

    def run(self, key):
        """Returns (exit code, wall seconds) per command."""
        for path in self.outputs:  # a command that writes nothing must not pass
            if os.path.exists(path):
                os.remove(path)
        results = []
        for argv in self.commands:
            t0 = time.perf_counter()
            rc = cli.main(argv) if self.in_process else self._child(argv)
            results.append((rc, time.perf_counter() - t0))
        return results

    def check(self, key, out):
        bad = [(argv[0], rc) for argv, (rc, _) in zip(self.commands, out) if rc != 0]
        if bad:
            return f"non-zero exit codes {bad}"
        blobs = {}
        for path in self.outputs:
            with open(path, "rb") as f:
                blobs[path] = f.read()
        if self.reference is None:
            err = self._check_content()
            if err is None:
                self.reference = blobs
            return err
        diff = [os.path.basename(p) for p in self.outputs if blobs[p] != self.reference[p]]
        if diff:
            return f"outputs differ from the first batch: {diff}"
        return None

    def _check_content(self):
        """Semantic check of the first batch; later batches must match it
        byte for byte."""
        def load(i):
            with open(self.outputs[i]) as f:
                return json.load(f)

        if not load(1)["allowed"]:
            return "path-check: lam not allowed"
        if load(3).get("verified") is not True:
            return "glimpse not verified"
        if load(5).get("passed") is not True:
            return "deform report did not pass"
        with open(self.outputs[7]) as f:
            last = f.read().strip().splitlines()[-1].split(",")
        z = self.z_end
        want = -2.0 * math.log(1.0 - z) / (2.0 - z)
        got = complex(float(last[3]), float(last[4]))
        if not _rel_err(got, want) <= REL_TOL:
            return f"convolve end value {got}, expected {want}"
        n = len(load(8)["entries"])
        if self.saturated_entries is not None and n != self.saturated_entries:
            return f"saturation gave {n} entries, expected {self.saturated_entries}"
        walk = load(9)
        if not (walk["allowed"] and walk["distance_lower_bound"] > 0.0):
            return "path-check of the walk against the saturated set failed"
        return None


WORKLOADS = {"probe_sweep": ProbeSweep, "series_trace": SeriesTrace, "cli_batch": CliBatch}


def make(name: str, seed: int, size: str, workdir: str):
    return WORKLOADS[name](seed, size, workdir)
