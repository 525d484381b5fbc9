"""JSON/CSV schemas and deterministic serialization.

All floats are written with 17 significant digits, which round-trips
float64 exactly and makes outputs bit-identical across runs.  Files are
written atomically (temp file + rename).

Schemas:
  filtered set  {"centre": [re, im], "entries": [{"z": [re, im],
                 "level": x}, ...], "horizon": x}
  path          {"vertices": [[re, im], ...]}
  germ          {"kind": "poly"|"pole"|"log_pole"|"series", ...}
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .errors import BorelConvError
from .filtered_set import FilteredSet
from .germs import ContinuationTrace, Germ
from .paths import Path


class ParseError(BorelConvError):
    """Malformed input document."""


def _fmt(x) -> str:
    if isinstance(x, float):
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError("non-finite float in output document")
        return format(x, ".17g")
    raise TypeError(type(x))


def dumps(doc) -> str:
    """Deterministic JSON text with fixed float formatting."""

    def render(obj):
        if isinstance(obj, dict):
            items = ", ".join(f"{json.dumps(k)}: {render(v)}" for k, v in obj.items())
            return "{" + items + "}"
        if isinstance(obj, (list, tuple)):
            return "[" + ", ".join(render(v) for v in obj) + "]"
        if isinstance(obj, bool) or obj is None:
            return json.dumps(obj)
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            return _fmt(float(obj))
        if isinstance(obj, str):
            return json.dumps(obj)
        raise TypeError(f"cannot serialize {type(obj)}")

    return render(doc) + "\n"


def atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, doc):
    atomic_write(path, dumps(doc))


def write_csv(path: str, header: list[str], rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(float(x)) for x in row))
    atomic_write(path, "\n".join(lines) + "\n")


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _as_real(v, what: str) -> float:
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} must be a finite number") from exc
    if not math.isfinite(x):
        raise ParseError(f"{what} must be finite, got {x}")
    return x


def _as_complex(v, what: str) -> complex:
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(isinstance(x, (int, float)) for x in v)):
        raise ParseError(f"{what} must be a [re, im] pair")
    return complex(_as_real(v[0], what), _as_real(v[1], what))


# -- filtered sets -----------------------------------------------------------


def set_to_doc(fset: FilteredSet) -> dict:
    return {
        "centre": _pair(fset.centre),
        "entries": [{"z": _pair(p), "level": float(lv)} for p, lv in fset.entries],
        "horizon": float(fset.horizon),
    }


def set_from_doc(doc) -> FilteredSet:
    if not isinstance(doc, dict) or "centre" not in doc or "horizon" not in doc:
        raise ParseError("filtered set document needs centre, entries, horizon")
    centre = _as_complex(doc["centre"], "centre")
    entries = []
    for e in doc.get("entries", []):
        if not isinstance(e, dict) or "z" not in e or "level" not in e:
            raise ParseError("each entry needs z and level")
        entries.append((_as_complex(e["z"], "entry point"), _as_real(e["level"], "level")))
    return FilteredSet(centre, entries, _as_real(doc["horizon"], "horizon"))


# -- paths -------------------------------------------------------------------


def path_to_doc(path: Path) -> dict:
    return {"vertices": [_pair(v) for v in path.vertices]}


def path_from_doc(doc) -> Path:
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise ParseError("path document needs vertices")
    return Path([_as_complex(v, "vertex") for v in doc["vertices"]])


def path_csv_rows(path: Path, n_samples: int = 256):
    ts, zs, ss = path.sample(n_samples)
    return [(t, z.real, z.imag, s) for t, z, s in zip(ts, zs, ss)]


# -- germs -------------------------------------------------------------------


def germ_to_doc(germ: Germ) -> dict:
    if germ.kind == "poly":
        return {"kind": "poly", "coeffs": [_pair(c) for c in germ.coeffs]}
    if germ.kind == "pole":
        return {"kind": "pole", "a": _pair(germ.a)}
    if germ.kind == "log_pole":
        return {"kind": "log_pole", "a": _pair(germ.a)}
    if germ.kind == "series":
        return {"kind": "series", "coeffs": [_pair(c) for c in germ.coeffs],
                "radius": float(germ.radius)}
    raise ParseError(f"unknown germ kind {germ.kind!r}")


def germ_from_doc(doc) -> Germ:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("germ document needs a kind")
    kind = doc["kind"]
    if kind == "poly":
        return Germ.poly([_as_complex(c, "coefficient") for c in doc["coeffs"]])
    if kind == "pole":
        return Germ.pole(_as_complex(doc["a"], "pole parameter"))
    if kind == "log_pole":
        return Germ.log_pole(_as_complex(doc["a"], "log parameter"))
    if kind == "series":
        return Germ.series([_as_complex(c, "coefficient") for c in doc["coeffs"]],
                           _as_real(doc["radius"], "radius"))
    raise ParseError(f"unknown germ kind {kind!r}")


# -- traces and grids --------------------------------------------------------


def trace_csv_rows(trace: ContinuationTrace):
    zs = trace.path.points_at(trace.ts)
    return list(zip(trace.ts, zs.real, zs.imag, trace.values.real, trace.values.imag))


def grid_csv_rows(grid):
    rows = []
    for i, s in enumerate(grid.s_nodes):
        for j, t in enumerate(grid.t_nodes):
            h = grid.H[i, j]
            hs = grid.H_star[i, j]
            rows.append((s, t, h.real, h.imag, hs.real, hs.imag))
    return rows


def load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
