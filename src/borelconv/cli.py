"""Batch front-end: filtered-set algebra, path checks, glimpse queries,
deformation runs and convolutions over JSON inputs.

Exit codes: 0 ok, 2 parse error, 3 precondition violation, 4 flow
denominator guard, 5 tolerance failure.  Outputs are deterministic
(17 significant digits) and written atomically.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import deformation, germs, jsonio, viz
from .errors import ChiGuardError, PreconditionError, ToleranceError
from .filtered_set import POINT_TOL, glimpsed, glimpsed_by_filtration
from .paths import admissible_levels, distance_to_set

# the documented exit code of each error class
_EXIT_CODES = {jsonio.ParseError: 2, PreconditionError: 3, ChiGuardError: 4, ToleranceError: 5}


def _finite_float(text: str) -> float:
    """argparse type (argparse exits 2 on a bad value): a finite number."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _finite_pair(text: str) -> complex:
    """argparse type: "re,im", both parts finite."""
    re, im = map(_finite_float, text.split(","))
    return complex(re, im)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="borelconv",
        description="filtered-set algebra, allowed paths, contour deformation "
                    "and germ convolution in the Borel plane",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("set-op", help="filtered-set algebra")
    p.add_argument("op", choices=["union", "sum", "fine-sum", "saturate"])
    p.add_argument("inputs", nargs="+", help="1 (saturate) or 2 set JSON files")
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("path-check", help="admissible levels and distance bound")
    p.add_argument("path")
    p.add_argument("set")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--csv", default=None, help="also write sampled path CSV")

    p = sub.add_parser("glimpse", help="glimpsed points along a direction")
    p.add_argument("set")
    p.add_argument("--theta", type=_finite_float, required=True)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the filtration-walk oracle")
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("deform", help="build and validate a deformation grid")
    p.add_argument("gamma")
    p.add_argument("set_a")
    p.add_argument("set_b")
    p.add_argument("--level", type=_finite_float, required=True)
    p.add_argument("--ns", type=int, default=64)
    p.add_argument("--nt", type=int, default=512)
    p.add_argument("--eps-den", type=_finite_float, default=None)
    p.add_argument("--delta-len", type=_finite_float, default=None)
    p.add_argument("-o", "--outdir", required=True)

    p = sub.add_parser("convolve", help="convolution trace along a path")
    p.add_argument("phi")
    p.add_argument("psi")
    p.add_argument("gamma")
    p.add_argument("set_a")
    p.add_argument("set_b")
    cfg = germs.ConvolveConfig()  # the library's defaults
    p.add_argument("--level", type=_finite_float, default=cfg.level)
    p.add_argument("--ns", type=int, default=cfg.n_s)
    p.add_argument("--nt", type=int, default=cfg.n_t)
    p.add_argument("--nq", type=int, default=cfg.n_q)
    p.add_argument("--nser", type=int, default=cfg.n_ser)
    p.add_argument("--probe", type=_finite_pair, default=None,
                   help="re,im of a candidate singularity to classify")
    p.add_argument("--probe-radius", type=_finite_float, default=0.1)
    p.add_argument("-o", "--outdir", required=True)
    return ap


def _cmd_set_op(args) -> int:
    sets = [jsonio.set_from_doc(jsonio.load_json(f)) for f in args.inputs]
    if args.op == "saturate":
        if len(sets) != 1:
            raise jsonio.ParseError("saturate takes exactly one set")
        result = sets[0].saturate()
    else:
        if len(sets) != 2:
            raise jsonio.ParseError(f"{args.op} takes exactly two sets")
        a, b = sets
        result = {"union": a.union, "sum": a.sum, "fine-sum": a.fine_sum}[args.op](b)
    jsonio.write_json(args.out, jsonio.set_to_doc(result))
    return 0


def _cmd_path_check(args) -> int:
    path = jsonio.path_from_doc(jsonio.load_json(args.path))
    fset = jsonio.set_from_doc(jsonio.load_json(args.set))
    iv = admissible_levels(path, fset)
    doc = {
        "length": path.length,
        "lower": iv.lower,
        "upper": iv.upper,
        "allowed": not iv.empty,
    }
    if not iv.empty:
        doc["distance_lower_bound"] = distance_to_set(path, fset, args.samples)
    jsonio.write_json(args.out, doc)
    if args.csv:
        jsonio.write_csv(args.csv, ["t", "re", "im", "s"],
                         jsonio.path_csv_rows(path, args.samples or 256))
    return 0


def _cmd_glimpse(args) -> int:
    fset = jsonio.set_from_doc(jsonio.load_json(args.set))
    g = glimpsed(fset, args.theta)
    doc = {
        "theta": float(args.theta),
        "points": [{"z": [p.real, p.imag], "level": lv} for p, lv in g.points],
        "seen": None if g.seen is None else [g.seen.real, g.seen.imag],
    }
    if args.verify:
        o = glimpsed_by_filtration(fset, args.theta)
        agree = (len(o.points) == len(g.points)
                 and all(abs(p - q) <= POINT_TOL
                         for (p, _), (q, _) in zip(g.points, o.points)))
        doc["verified"] = bool(agree)
        if not agree:
            jsonio.write_json(args.out, doc)
            raise ToleranceError("glimpse closed form disagrees with the oracle")
    jsonio.write_json(args.out, doc)
    return 0


def _cmd_deform(args) -> int:
    gamma = jsonio.path_from_doc(jsonio.load_json(args.gamma))
    set_a = jsonio.set_from_doc(jsonio.load_json(args.set_a))
    set_b = jsonio.set_from_doc(jsonio.load_json(args.set_b))
    grid = deformation.deform(gamma, set_a, set_b, args.level,
                              n_s=args.ns, n_t=args.nt,
                              eps_den=args.eps_den, delta_len=args.delta_len)
    report = deformation.validate(grid, delta_len=args.delta_len)
    os.makedirs(args.outdir, exist_ok=True)
    jsonio.write_csv(os.path.join(args.outdir, "grid.csv"),
                     ["s", "t", "re_h", "im_h", "re_hstar", "im_hstar"],
                     jsonio.grid_csv_rows(grid))
    jsonio.write_json(os.path.join(args.outdir, "report.json"), report.to_dict())
    viz.write_grid_overlay(os.path.join(args.outdir, "overlay.svg"), grid)
    if not report.passed:
        raise ToleranceError("deformation grid failed validation; see report.json")
    return 0


def _cmd_convolve(args) -> int:
    phi = jsonio.germ_from_doc(jsonio.load_json(args.phi))
    psi = jsonio.germ_from_doc(jsonio.load_json(args.psi))
    gamma = jsonio.path_from_doc(jsonio.load_json(args.gamma))
    set_a = jsonio.set_from_doc(jsonio.load_json(args.set_a))
    set_b = jsonio.set_from_doc(jsonio.load_json(args.set_b))
    cfg = germs.ConvolveConfig(level=args.level, n_s=args.ns, n_t=args.nt,
                               n_q=args.nq, n_ser=args.nser)
    trace = germs.convolve_along(phi, psi, gamma, set_a, set_b, cfg)
    os.makedirs(args.outdir, exist_ok=True)
    jsonio.write_csv(os.path.join(args.outdir, "trace.csv"),
                     ["t", "re_gamma", "im_gamma", "re_value", "im_value"],
                     jsonio.trace_csv_rows(trace))
    if args.probe is not None:
        rep = germs.singularity_probe(phi, psi, set_a, set_b, args.probe,
                                      args.probe_radius, seed=gamma.start)
        jsonio.write_json(os.path.join(args.outdir, "probe.json"), {
            "candidate": [args.probe.real, args.probe.imag],
            "radius": float(args.probe_radius),
            "classification": rep.classification,
            "defect_rel": rep.defect_rel,
            "ring_rel": rep.ring_rel,
            "tol_mono": germs.TOL_MONO,
            "cell_error_rel": rep.cell_error_rel,
            "cells_split": rep.cells_split,
            "split_depth": rep.split_depth,
            "level": rep.level,
            "n_s": rep.trace.grid.n_s,
            "n_t": rep.trace.grid.n_t,
            "n_q": rep.n_q,
        })
    return 0


_COMMANDS = {
    "set-op": _cmd_set_op,
    "path-check": _cmd_path_check,
    "glimpse": _cmd_glimpse,
    "deform": _cmd_deform,
    "convolve": _cmd_convolve,
}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def entry():  # console script
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
