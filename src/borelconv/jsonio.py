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
from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

from .errors import BorelConvError
from .filtered_set import FilteredSet
from .paths import Path

if TYPE_CHECKING:  # the germ layer is imported only by the functions that build germs
    from .germs import ContinuationTrace, Germ


# CSV rows formatted and written at a time: the text and the Python floats
# held at once are bounded by this, not by the table's length
CSV_BLOCK_ROWS = 4096


class ParseError(BorelConvError):
    """Malformed input document."""


def _finite(x):
    """x (a float or a float array) unchanged; raises if any value is not finite."""
    if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
        raise ValueError("non-finite float in output document")
    return x


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
            return format(_finite(float(obj)), ".17g")
        if isinstance(obj, str):
            return json.dumps(obj)
        raise TypeError(f"cannot serialize {type(obj)}")

    return render(doc) + "\n"


def atomic_write(path: str, chunks):
    """Write the strings of the iterable `chunks` to `path`, atomically:
    into a temp file in the same directory, then renamed over `path`.  On
    any error the temp file is removed and `path` is left as it was."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, doc):
    atomic_write(path, (dumps(doc),))


def write_csv(path: str, header: list[str], table):
    """One line per row of `table`, 17 digits a value: a 2-D float array,
    checked finite before the file is opened, or an iterator of such blocks
    of rows, checked by its maker (`grid_csv_rows`).  The rows are written a
    block (CSV_BLOCK_ROWS rows of an array) at a time, so the text held at
    once stays bounded whatever the table's length."""
    blocks = table
    if not isinstance(table, Iterator):
        table = _finite(np.asarray(table, dtype=float))
        blocks = (table[i:i + CSV_BLOCK_ROWS] for i in range(0, len(table), CSV_BLOCK_ROWS))
    line = ",".join(["%.17g"] * len(header)) + "\n"

    def chunks():
        yield ",".join(header) + "\n"
        for block in blocks:
            # the row template once per row, filled by one %-format
            yield line * len(block) % tuple(block.ravel().tolist())

    atomic_write(path, chunks())


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _as_real(v, what: str) -> float:
    # float(True) is 1.0 and float("1.5") is 1.5, but true and "1.5" are no numbers
    if isinstance(v, (bool, str)):
        raise ParseError(f"{what} must be a finite number, got {json.dumps(v)}")
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} must be a finite number") from exc
    if not math.isfinite(x):
        raise ParseError(f"{what} must be finite, got {x}")
    return x


def _as_list(v, what: str) -> list:
    if not isinstance(v, list):
        raise ParseError(f"{what} must be a list, got {type(v).__name__}")
    return v


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
    for e in _as_list(doc.get("entries", []), "entries"):
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
    return Path([_as_complex(v, "vertex") for v in _as_list(doc["vertices"], "vertices")])


def path_csv_rows(path: Path, n_samples: int = 256):
    ts, zs, ss = path.sample(n_samples)
    return np.column_stack([ts, zs.real, zs.imag, ss])


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
    from .germs import Germ

    # a missing field reads as None, which each converter rejects
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("germ document needs a kind")
    kind = doc["kind"]
    if kind == "poly":
        return Germ.poly([_as_complex(c, "coefficient")
                          for c in _as_list(doc.get("coeffs"), "coeffs")])
    if kind == "pole":
        return Germ.pole(_as_complex(doc.get("a"), "pole parameter"))
    if kind == "log_pole":
        return Germ.log_pole(_as_complex(doc.get("a"), "log parameter"))
    if kind == "series":
        return Germ.series([_as_complex(c, "coefficient")
                            for c in _as_list(doc.get("coeffs"), "coeffs")],
                           _as_real(doc.get("radius"), "radius"))
    raise ParseError(f"unknown germ kind {kind!r}")


# -- traces and grids --------------------------------------------------------


def trace_csv_rows(trace: ContinuationTrace):
    zs = trace.path.points_at(trace.ts)
    return np.column_stack([trace.ts, zs.real, zs.imag, trace.values.real, trace.values.imag])


def grid_csv_rows(grid):
    """One row (s, t, H, H*) per grid node, as an iterator of blocks of
    whole grid rows, about CSV_BLOCK_ROWS lines each, so that H is the only
    grid-sized array.  H is checked finite here, and with it every row."""
    H, s_nodes, t_nodes = _finite(grid.H), grid.s_nodes, grid.t_nodes
    rows = max(1, CSV_BLOCK_ROWS // len(t_nodes))

    def blocks():
        for i in range(0, len(H), rows):
            h, h_star = H[i:i + rows], H[-1] - H[::-1][i:i + rows]  # and mirror(H)'s
            block = np.empty(h.shape + (6,))
            block[..., 0] = s_nodes[i:i + rows, None]
            block[..., 1] = t_nodes
            block[..., 2], block[..., 3] = h.real, h.imag
            block[..., 4], block[..., 5] = h_star.real, h_star.imag
            yield block.reshape(-1, 6)

    return blocks()


def load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
