"""Dump the raw bytes of borelconv's outputs, for a byte-identity check.

Usage:
    python tools/bytecheck.py OUTDIR [--src SRC]
    python tools/bytecheck.py --compare OLD NEW

Writes, one file per output, into OUTDIR:

* deform grids for a straight, a five-vertex and a curved gamma: the bytes
  of H and t_nodes, and min_chi, richardson_error, length_residual and
  eps_den as exact hex floats;
* the validate report of each grid (17-digit JSON);
* convolve_along values, times and radii for poly, pole, log_pole and
  series germs;
* continue_along values, radii and (for the log) windings for poly, pole
  and log_pole germs and for series of 64 and of 200 terms, each beside a
  file holding the error class raised, or "ok";
* the five criterion-7 probes at 64x256x8, and on singularity_probe's
  default grid (64x64x16) candidate 3.0 and, at the command line's default
  radius 0.1, candidate 2.0: the circle's values and times, defect_rel,
  ring_rel, the error estimate (`_estimate_lines`), scale, level,
  classification, and the loop grid's min_chi, richardson_error and a
  SHA-256 of its H; the default grid's n_s x n_t x n_q, as the probes report
  it, goes into `probe_default_grid.txt`;
* the same for exp, as a series of 40 terms with radius 8, against
  pole(2) on the default grid at candidates 1.5 and 2.0;
* the fifteen log-type probes (pole*log, log*pole and log*log of the pole
  pair's parameters, the five candidates, radius 0.2) on the default grid,
  one file each: the error class raised, or "ok" with the classification,
  defect_rel, ring_rel and the error estimate, and then the circle's values
  in a `.bin` file of their own;
* every file of the README command-line sequence (with `convolve --probe`),
  `set-op saturate` of a lattice and `path-check` of a walk against it
  (with the default and with 4096 samples), with the exit codes;
* the error class raised, or "ok", for inputs on which a guard trips or
  nearly trips, with a ChiGuardError's t, value and bound, a
  ToleranceError's stage, value and bound, or the min_chi of the grid a
  run returned, as exact hex floats;
* union, sum, fine_sum and saturate of sets holding near-duplicate points
  (closer than POINT_TOL, in both sort orders, with tied and untied
  levels), `level_of` and `entries_at` on the results, and the vertices of
  paths built by `concat` and `reverse`, all as exact hex floats.

The package is imported from SRC (default: the `src` directory of the
checkout holding this script), so a copy of the script can dump any
checkout.  Dump two checkouts and compare them with `diff -r`; an empty
diff means every output kept its bits.

`--compare OLD NEW` compares two dumps file by file and prints, for each,
"identical" or the largest relative difference of its floats.  A `.bin`
file is read as float64 (a complex array as its real and imaginary parts),
and its differences are relative to the largest magnitude among its old
floats.  Any other file is split into tokens: each hex or decimal float is
compared with its own old magnitude, integers are counted apart (so a count
that moves by one hides no float beside it), and every other token is
compared exactly.  The exit code is 1 when a file is in one dump only, 0
otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np

SETS = {"a": ([(1, 1.0)], 6.0), "b": ([(2, 2.0)], 6.0)}
FIVE_VERTEX = [0.25, 0.4 + 0.1j, 0.5 + 0.3j, 0.3 + 0.45j, 0.1 + 0.35j]
CANDIDATES = (1.0, 1.5, 2.0, 2.5, 3.0)
CIRCLE_SIDES = 16  # the probe circle's vertices end the loop


def _hex(x) -> str:
    return float(x).hex()


class Dump:
    def __init__(self, outdir: str):
        self.outdir = outdir
        os.makedirs(outdir, exist_ok=True)

    def raw(self, name: str, arr) -> None:
        with open(os.path.join(self.outdir, name), "wb") as f:
            f.write(np.ascontiguousarray(arr).tobytes())

    def text(self, name: str, lines) -> None:
        with open(os.path.join(self.outdir, name), "w") as f:
            f.write("\n".join(lines) + "\n")


def _deform_and_validate(bc, dump: Dump) -> None:
    from borelconv.jsonio import dumps

    a = bc.FilteredSet(0, *SETS["a"])
    b = bc.FilteredSet(0, *SETS["b"])
    cases = {
        "straight": (bc.Path([0.25, 0.5]), a, b, 2.5, 64, 256),
        "five_vertex": (bc.Path(FIVE_VERTEX), a, b, 2.5, 40, 128),
        "curved": (bc.Path([0.2 + 0.2j, 0.8 + 0.2j]),
                   bc.FilteredSet(0, [(0.26j, 0.3)], 3.0),
                   bc.FilteredSet(0, [(2.0, 2.0)], 3.0), 1.5, 16, 64),
    }
    for name, (gamma, sa, sb, level, n_s, n_t) in cases.items():
        grid = bc.deform(gamma, sa, sb, level, n_s=n_s, n_t=n_t)
        dump.raw(f"deform_{name}_H.bin", grid.H)
        dump.raw(f"deform_{name}_t_nodes.bin", grid.t_nodes)
        dump.text(f"deform_{name}_scalars.txt", [
            f"{k} {_hex(getattr(grid, k))}"
            for k in ("min_chi", "richardson_error", "length_residual", "eps_den")])
        dump.text(f"validate_{name}.json", [dumps(bc.validate(grid).to_dict())])
        if name == "five_vertex":
            rep = bc.validate(grid, delta_len=1e-3)
            dump.text(f"validate_{name}_delta.json", [dumps(rep.to_dict())])


def _convolutions(bc, dump: Dump) -> None:
    a = bc.FilteredSet(0, *SETS["a"])
    b = bc.FilteredSet(0, *SETS["b"])
    G = bc.Germ
    series_phi = G.series([1.0] * 48, 1.0)
    series_psi = G.series([0.5 ** (k + 1) for k in range(48)], 2.0)
    cases = {
        "poly": (G.poly([1.0, 2.0, 0.5j]), G.pole(2), bc.Path([0.25, 0.5 + 0.1j]), (32, 64, 8)),
        "pole": (G.pole(1), G.pole(2), bc.Path(FIVE_VERTEX[:3]), (32, 64, 16)),
        "log_pole": (G.log_pole(1), G.pole(2), bc.Path(FIVE_VERTEX), (32, 64, 8)),
        "series": (series_phi, series_psi, bc.Path([0.25, 0.5]), (16, 16, 8)),
    }
    for name, (phi, psi, gamma, (n_s, n_t, n_q)) in cases.items():
        cfg = bc.ConvolveConfig(n_s=n_s, n_t=n_t, n_q=n_q)
        trace = bc.convolve_along(phi, psi, gamma, a, b, cfg)
        for field in ("values", "ts", "radii"):
            dump.raw(f"convolve_{name}_{field}.bin", getattr(trace, field))


def _continuations(bc, dump: Dump) -> None:
    F, G, P = bc.FilteredSet, bc.Germ, bc.Path
    s = F(0, [(1, 1.0)], 10.0)
    # once counterclockwise around the log's branch point 1
    loop = [1.0 + 0.3 * np.exp(1j * (math.pi + 2 * math.pi * k / CIRCLE_SIDES))
            for k in range(1, CIRCLE_SIDES + 1)]
    cases = {
        "poly": (G.poly([1.0, 2.0, 0.5j]), P([0, 0.3 + 0.1j, 0.5 - 0.2j])),
        "pole": (G.pole(1), P([0, 0.3, 0.5 - 0.2j])),
        "log_pole": (G.log_pole(1), P([0, *loop, 0.5])),
        "series_64": (G.series([1.0] * 64, 1.0), P([0, 0.3j, 0.4 + 0.3j, 0.4 - 0.2j])),
        "series_200": (G.series([1.0] * 200, 1.0), P([0, 0.85])),
    }
    for name, (germ, path) in cases.items():
        try:
            trace = bc.continue_along(germ, path, s)
        except bc.BorelConvError as exc:
            dump.text(f"continue_{name}.txt", [type(exc).__name__])
            continue
        dump.text(f"continue_{name}.txt", ["ok"])
        for field in ("values", "radii", "windings"):
            if getattr(trace, field) is not None:
                dump.raw(f"continue_{name}_{field}.bin", getattr(trace, field))


def _estimate_lines(rep) -> list[str]:
    """A probe's error estimate cell_error_rel, with the number of cells
    split and the deepest split."""
    return [f"cell_error_rel {_hex(rep.cell_error_rel)}", f"cells_split {rep.cells_split}",
            f"split_depth {rep.split_depth}"]


def _probes(bc, dump: Dump) -> None:
    F, G = bc.FilteredSet, bc.Germ
    pole_pair = (G.pole(1), G.pole(2), F(0, *SETS["a"]), F(0, *SETS["b"]))
    small = bc.ConvolveConfig(n_s=64, n_t=256, n_q=8)
    runs = [(f"probe_{c}", pole_pair, c, 0.2, small) for c in CANDIDATES]
    # singularity_probe's default grid
    runs += [("probe_default_3.0", pole_pair, 3.0, 0.2, None),
             ("probe_default_2.0_r0.1", pole_pair, 2.0, 0.1, None)]
    # exp as a series factor, whose probe integrates the route's columns too
    exp_pole = (G.series([1.0 / math.factorial(k) for k in range(40)], 8.0), G.pole(2),
                F(0, [], 8.0), F(0, [(2, 2.0)], 8.0))
    runs += [(f"probe_series_{c}", exp_pole, c, 0.2, None) for c in (1.5, 2.0)]
    for name, (phi, psi, a, b), c, radius, cfg in runs:
        rep = bc.singularity_probe(phi, psi, a, b, c, radius, cfg=cfg)
        # the circle runs from the loop's 17th-last vertex to its end
        t_start = rep.loop.vertex_fractions()[-CIRCLE_SIDES - 1]
        k = int(np.argmin(np.abs(rep.trace.ts - t_start)))
        dump.raw(f"{name}_circle_values.bin", rep.trace.values[k:])
        dump.raw(f"{name}_circle_ts.bin", rep.trace.ts[k:])
        grid = rep.trace.grid
        dump.text(f"{name}.txt", [
            rep.classification,
            *(f"{k} {_hex(getattr(rep, k))}" for k in ("defect_rel", "ring_rel", "scale", "level")),
            *_estimate_lines(rep),
            *(f"{k} {_hex(getattr(rep, k).real)} {_hex(getattr(rep, k).imag)}"
              for k in ("value_before", "value_after")),
            *(f"grid_{k} {_hex(getattr(grid, k))}" for k in ("min_chi", "richardson_error")),
            f"grid_H_sha256 {hashlib.sha256(grid.H.tobytes()).hexdigest()}",
        ])
        if cfg is None:
            dump.text("probe_default_grid.txt", [f"{grid.n_s}x{grid.n_t}x{rep.n_q}"])


LOG_PROBES = {"pole_log": ("pole", "log_pole"), "log_pole": ("log_pole", "pole"),
              "log_log": ("log_pole", "log_pole")}


def _log_probes(bc, dump: Dump) -> None:
    a = bc.FilteredSet(0, *SETS["a"])
    b = bc.FilteredSet(0, *SETS["b"])
    for name, (phi, psi) in LOG_PROBES.items():
        for c in CANDIDATES:
            try:
                rep = bc.singularity_probe(getattr(bc.Germ, phi)(1), getattr(bc.Germ, psi)(2),
                                           a, b, c, 0.2)
            except bc.BorelConvError as exc:
                lines = [type(exc).__name__]
            else:
                lines = ["ok", rep.classification,
                         *(f"{k} {_hex(getattr(rep, k))}" for k in ("defect_rel", "ring_rel")),
                         *_estimate_lines(rep)]
                dump.raw(f"log_probe_{name}_{c}_circle_values.bin", rep.trace.values)
            dump.text(f"log_probe_{name}_{c}.txt", lines)


def _outcome(bc, run) -> str:
    """The error class a guard case raises, with a ChiGuardError's t, value
    and bound, or a ToleranceError's stage, value and bound (each "None"
    where the check names none); or "ok", with the min_chi of the grid the
    run returned."""
    try:
        result = run()
    except bc.ChiGuardError as exc:
        return f"ChiGuardError t={_hex(exc.t)} value={_hex(exc.value)} bound={_hex(exc.bound)}"
    except bc.ToleranceError as exc:
        value, bound = (None if x is None else _hex(x) for x in (exc.value, exc.bound))
        return f"ToleranceError stage={exc.stage!r} value={value} bound={bound}"
    except bc.BorelConvError as exc:
        return type(exc).__name__
    grid = getattr(getattr(result, "trace", None), "grid", result)
    return f"ok min_chi={_hex(grid.min_chi)}" if hasattr(grid, "min_chi") else "ok"


def _guards(bc, dump: Dump) -> None:
    """The outcome of each guard case (see `_outcome`)."""
    F, P, G = bc.FilteredSet, bc.Path, bc.Germ
    a, b = F(0, *SETS["a"]), F(0, *SETS["b"])
    empty = F(0, [], 6.0)
    wide = F(0, [(1, 1.0)], 10.0)
    tiny = bc.ConvolveConfig(n_s=64, n_t=256, n_q=8)
    hairpin = P([0.25, 0.6 + 0.01j, 1.3 + 0.002j, 1.75])  # trips between time nodes
    # passes 1e-3 from A's entry at t = 1 - h/2, h = 1/64 the time interval:
    # the middle stage time of the last two-interval step's second half,
    # which only the stepper's last call takes
    last_call = P([0.25 + 1e-3j, 0.25 + 0.75 * 128 / 127 + 1e-3j])
    cases = {
        "deform_chi_guard": lambda: bc.deform(P([0.25, 1 + 1e-3j, 1.75]), a, empty, 2.2,
                                              n_s=16, n_t=64, eps_den=1e-2),
        "deform_chi_near": lambda: bc.deform(P([0.25, 1 + 1e-3j, 1.75]), a, empty, 2.2,
                                             n_s=16, n_t=64),
        "deform_chi_guard_mid_step": lambda: bc.deform(hairpin, a, empty, 2.2,
                                                       n_s=16, n_t=64, eps_den=2e-2),
        "deform_chi_near_mid_step": lambda: bc.deform(hairpin, a, empty, 2.2, n_s=16, n_t=64),
        "deform_chi_guard_last_call": lambda: bc.deform(last_call, a, empty, 2.2,
                                                        n_s=16, n_t=64, eps_den=2e-3),
        # a gamma whose length residual is a rounding above 0
        "deform_length_budget": lambda: bc.deform(
            P(FIVE_VERTEX), F(0, [(0.26j, 0.3)], 3.0),
            F(0, [(2.0, 2.0)], 3.0), 1.5, n_s=16, n_t=32, delta_len=1e-18),
        "deform_not_allowed": lambda: bc.deform(P([0.25, 1.0]), a, a, 2.5),
        "convolve_series_disc": lambda: bc.convolve_along(
            G.series([1.0] + [0.0] * 8, 0.5), G.pole(2), P([0.25, 0.9]), a, b, tiny),
        "continue_series_disc": lambda: bc.continue_along(
            G.series([1.0] * 64, 1.0), P([0, 0.5j, 1.4 + 0.5j]), wide),
        # q^65 / (1 - q) at q = 0.72: 1.90e-9, above TOL_TAIL
        "continue_series_tail": lambda: bc.continue_along(
            G.series([1.0] * 65, 1.0), P([0, 0.72]), wide),
        **{f"probe_pole_log_{c}": (lambda c=c: bc.singularity_probe(
            G.pole(1), G.log_pole(2), a, b, c, 0.2, cfg=tiny)) for c in CANDIDATES},
        **{f"probe_log_pole_{c}": (lambda c=c: bc.singularity_probe(
            G.log_pole(1), G.pole(2), a, b, c, 0.2, cfg=tiny)) for c in CANDIDATES},
    }
    dump.text("guards.txt", [f"{name} {_outcome(bc, run)}" for name, run in cases.items()])


def _hex_pair(z) -> str:
    return f"{_hex(z.real)} {_hex(z.imag)}"


def _set_algebra_and_paths(bc, dump: Dump) -> None:
    F, P = bc.FilteredSet, bc.Path
    d = 4e-10  # under POINT_TOL: one point, whichever way the sort meets it
    third = complex(-0.5, 0.8660254037844386)
    sets = {
        "a": F(0, [(0.8, 1.0), (0.8 + d, 1.0), (1j, 1.5), (1j - d + d * 1j, 1.2),
                   (third, 1.0), (-0.7 - 0.1j, 0.9)], 6.0),
        "b": F(0, [(0.8 - d, 1.0), (0.8 + d * 1j, 1.3), (1j + d, 1.4), (1j + d * 1j, 1.4),
                   (third.conjugate(), 1.0), (2.0, 2.0)], 5.0),
        "hex": F(0, [(1.0, 1.0), (third, 1.0), (third.conjugate(), 1.0)], 3.5),
    }
    a, b, hx = sets["a"], sets["b"], sets["hex"]
    sets.update({
        "union": a.union(b), "union_ba": b.union(a),
        "sum": a.sum(b), "sum_ba": b.sum(a),
        "fine_sum": a.fine_sum(b), "fine_sum_ba": b.fine_sum(a),
        "hex_sum": hx.sum(hx), "hex_fine_sum": hx.fine_sum(hx).fine_sum(hx),
        "hex_saturate": hx.saturate(),
    })
    queries = [0.8, 0.8 + d, 0.8 - d, 1.0, 1j, 1j + d, 2.0, 2.0 + 2 * d, 1.0 + 1j, 0.0, d, 0.5]
    for name, s in sets.items():
        lines = [f"centre {_hex_pair(s.centre)} horizon {_hex(s.horizon)}"]
        lines += [f"entry {_hex_pair(p)} {_hex(lv)}" for p, lv in s.entries]
        for q in queries:
            lv = s.level_of(q)
            lines.append(f"level_of {_hex_pair(complex(q))} {None if lv is None else _hex(lv)}")
        for L in (0.95, 1.0, 1.2 + d, 1.4, 2.0, s.horizon):
            lines.append(f"entries_at {_hex(L)} " + " ".join(
                f"{_hex_pair(p)}/{_hex(lv)}" for p, lv in s.entries_at(L)))
        dump.text(f"set_{name}.txt", lines)
    walk = P([0, 0.3 + 0.1j, 0.6 + 0.45j, 0.2 + 0.7j])
    paths = {
        "concat": bc.concat(walk, P([0.2 + 0.7j, -0.3 + 0.4j, -0.3 + 0.4j + 1e-13])),
        "concat_constant": bc.concat(P([0]), walk),
        "reverse": bc.reverse(walk),
        "reverse_concat": bc.reverse(bc.concat(walk, bc.reverse(walk))),
        "from_array": P(np.array([0.25, 0.5 + 0.1j, 1j])),
    }
    for name, path in paths.items():
        dump.text(f"path_{name}.txt", [f"length {_hex(path.length)}"]
                  + [_hex_pair(v) for v in path.vertices])


def _cli(src: str, dump: Dump) -> None:
    work = os.path.join(dump.outdir, "cli")
    os.makedirs(work, exist_ok=True)

    def write(name, doc):
        with open(os.path.join(work, name), "w") as f:
            json.dump(doc, f)

    def set_doc(entries, horizon):
        return {"centre": [0, 0], "horizon": horizon,
                "entries": [{"z": [z.real, z.imag], "level": lv} for z, lv in entries]}

    write("a.json", set_doc([(1, 1.0)], 6.0))
    write("b.json", set_doc([(2, 2.0)], 6.0))
    write("gamma.json", {"vertices": [[0.25, 0], [0.5, 0]]})
    write("lam.json", {"vertices": [[0, 0], [0.5, 0]]})
    write("phi.json", {"kind": "pole", "a": [1, 0]})
    write("lattice.json", set_doc([(1, 1.0), (-0.5 + 0.8660254037844386j, 1.0),
                                   (-0.5 - 0.8660254037844386j, 1.0), (1.5j, 1.5)], 16.0))
    write("walk.json", {"vertices": [[0, 0], [0.3, 0.1], [0.6, 0.45], [0.2, 0.7], [-0.3, 0.4]]})
    commands = [
        ["set-op", "fine-sum", "a.json", "b.json", "-o", "fine.json"],
        ["path-check", "lam.json", "fine.json", "-o", "check.json", "--csv", "lam.csv"],
        ["glimpse", "a.json", "--theta", "0", "--verify", "-o", "glimpse.json"],
        ["deform", "gamma.json", "a.json", "b.json", "--level", "2.5", "-o", "deform_out"],
        ["convolve", "phi.json", "phi.json", "gamma.json", "a.json", "a.json",
         "--probe", "2.0,0", "--probe-radius", "0.2", "-o", "conv_out"],
        ["set-op", "saturate", "lattice.json", "-o", "saturated.json"],
        ["path-check", "walk.json", "saturated.json", "-o", "walk_check.json"],
        # 4 096 samples against 1 495 entries: about 96 blocks of local_radii
        ["path-check", "walk.json", "saturated.json", "-o", "walk_check_4096.json",
         "--samples", "4096"],
    ]
    env = dict(os.environ, PYTHONPATH=src)
    codes = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "borelconv.cli", *argv],
                              cwd=work, env=env, stdout=subprocess.DEVNULL)
        codes.append(f"{' '.join(argv[:2])} {proc.returncode}")
    dump.text("cli_exit_codes.txt", codes)


_SPLIT = re.compile(r'[\s,\[\]{}:"<>=/()]+')
_DECIMAL = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|[-+]?(inf|nan|Infinity|NaN)")
_INTEGER = re.compile(r"[-+]?\d+")


def _numbers_and_text(data: bytes):
    """The hex and decimal numbers of a text dump file, in order, whether
    each is written as an integer, and the file's other tokens."""
    numbers, integer, text = [], [], []
    for token in _SPLIT.split(data.decode()):
        if token.lstrip("+-").startswith("0x"):
            numbers.append(float.fromhex(token))
        elif _DECIMAL.fullmatch(token):
            numbers.append(float(token))
        else:
            text.append(token)
            continue
        integer.append(bool(_INTEGER.fullmatch(token)))
    return np.array(numbers), np.array(integer, dtype=bool), text


def _relative_difference(old: np.ndarray, new: np.ndarray, own: bool) -> tuple[float, int]:
    """Largest |old - new| over |old|, and how many floats differ: with own,
    each old float's own magnitude, else the largest old magnitude (the
    absolute difference where that is zero).  nan and inf count as equal to
    themselves and as infinitely far from anything else."""
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    n_differ = int(np.count_nonzero(~same))
    if not n_differ:
        return 0.0, 0
    with np.errstate(invalid="ignore"):
        diff = np.abs(old[~same] - new[~same])
    if not np.all(np.isfinite(diff)):
        return math.inf, n_differ
    scale = np.abs(old[~same]) if own else np.max(np.abs(old[np.isfinite(old)]), initial=0.0)
    return float(np.max(diff / np.where(scale > 0.0, scale, 1.0))), n_differ


def _compare_file(old_path: str, new_path: str) -> str:
    with open(old_path, "rb") as f:
        old = f.read()
    with open(new_path, "rb") as f:
        new = f.read()
    if old == new:
        return "identical"
    binary = old_path.endswith(".bin")
    if binary:
        if len(old) != len(new) or len(old) % 8:
            return f"differs: {len(old)} against {len(new)} bytes"
        a, b = np.frombuffer(old), np.frombuffer(new)
        integer = np.zeros(len(a), dtype=bool)
    else:
        (a, integer, text_a), (b, _, text_b) = _numbers_and_text(old), _numbers_and_text(new)
        if text_a != text_b or len(a) != len(b):
            return "differs in text"
    report = []
    rel, n_differ = _relative_difference(a[~integer], b[~integer], own=not binary)
    if n_differ:
        report.append(f"floats differ by {rel:.2e} relative "
                      f"({n_differ} of {np.count_nonzero(~integer)})")
    n_integers = int(np.count_nonzero(a[integer] != b[integer]))
    if n_integers:
        report.append(f"integers differ ({n_integers} of {np.count_nonzero(integer)})")
    return "; ".join(report) or "identical floats, other bytes differ"


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def compare(old: str, new: str) -> int:
    """Print one line per file of either dump; 1 when a file is in one only."""
    old_files, new_files = _files(old), _files(new)
    for name in sorted(old_files | new_files):
        if name not in new_files:
            print(f"{name}: only in {old}")
        elif name not in old_files:
            print(f"{name}: only in {new}")
        else:
            print(f"{name}: {_compare_file(os.path.join(old, name), os.path.join(new, name))}")
    return int(old_files != new_files)


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", nargs="?")
    ap.add_argument("--src", default=os.path.join(here, "src"),
                    help="directory that holds the borelconv package")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two dumps instead of writing one")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.outdir is None:
        ap.error("OUTDIR is required unless --compare is given")
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import borelconv as bc

    dump = Dump(args.outdir)
    _deform_and_validate(bc, dump)
    _convolutions(bc, dump)
    _continuations(bc, dump)
    _probes(bc, dump)
    _log_probes(bc, dump)
    _guards(bc, dump)
    _set_algebra_and_paths(bc, dump)
    _cli(src, dump)
    return 0


if __name__ == "__main__":
    sys.exit(main())
