"""Layer spans and work counters, recorded from outside the package.

The tracer replaces, for the length of a ``with`` block, the public names
through which each pipeline layer is called (module attributes and class
methods) by thin wrappers.  A span wrapper times the call; its self time is
the span minus the time of the spans it caused.  A counter wrapper adds the
work a call does to a counter and takes no time stamps, because these names
are called thousands of times per op.

A name that no longer exists (after a refactor) is not wrapped and the
metrics that depend only on it are reported as absent (``None``).
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict


def _resolve(target: str):
    """'borelconv.germs:deform' or 'borelconv.deformation:FlowField.__call__'
    -> (owner object, attribute name), or None if it does not exist."""
    module, _, attr = target.partition(":")
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


# span name -> the names through which the layer is called
SPANS = {
    "germs.convolve_along": ["borelconv.germs:convolve_along"],
    "deformation.deform": ["borelconv.germs:deform", "borelconv.deformation:deform"],
    "deformation.validate": ["borelconv.deformation:validate"],
    "paths.admissible_levels": ["borelconv.germs:admissible_levels",
                                "borelconv.deformation:admissible_levels",
                                "borelconv.cli:admissible_levels"],
    "paths.distance_to_set": ["borelconv.cli:distance_to_set"],
    "filtered_set.fine_sum": ["borelconv.filtered_set:FilteredSet.fine_sum"],
    "filtered_set.saturate": ["borelconv.filtered_set:FilteredSet.saturate"],
    "jsonio.write": ["borelconv.jsonio:write_csv", "borelconv.jsonio:write_json"],
    "viz.overlay": ["borelconv.viz:write_grid_overlay"],
}


def _one(result, *args, **kwargs):
    return 1


def _quad_nodes(result, phi, psi, grid, j, n_q=16, cfg=None):
    return grid.n_s * n_q


def _entries(result, *args, **kwargs):
    return len(result.entries)


def _file_bytes(result, path, *args, **kwargs):
    return os.path.getsize(path)


# counter name -> (the names counted, work done by one call, from its
# result and arguments)
COUNTERS = {
    "deformation.field_evals": (["borelconv.deformation:FlowField.__call__"], _one),
    "germs.columns": (["borelconv.germs:convolve_at"], _one),
    "germs.quad_nodes": (["borelconv.germs:convolve_at"], _quad_nodes),
    "germs.local_radius_calls": (["borelconv.germs:local_radius"], _one),
    "filtered_set.saturated_entries": (
        ["borelconv.filtered_set:FilteredSet.saturate"], _entries),
    "jsonio.bytes_written": (
        ["borelconv.jsonio:write_csv", "borelconv.jsonio:write_json"], _file_bytes),
}


class Tracer:
    """Accumulates self times per span name and totals per counter while
    installed (``with tracer:``)."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.missing = set()  # span and counter names with no wrapped target
        self._stack = []      # child time accumulated by each open span
        self._saved = []

    def _span(self, name, fn):
        stack, self_s = self._stack, self.self_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def _counter(self, fn, hooks):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            for name, work in hooks:
                counts[name] += work(result, *args, **kwargs)
            return result

        return wrapper

    def _patch(self, target, make):
        found = _resolve(target)
        if found is None:
            return False
        owner, attr = found
        self._saved.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, make(getattr(owner, attr)))
        return True

    def __enter__(self):
        # counters go on first so that a span around the same name also
        # times the counting, which is part of the traced cost
        hooks = defaultdict(list)
        for name, (targets, work) in COUNTERS.items():
            for target in targets:
                hooks[target].append((name, work))
        found = set()
        for target, hs in hooks.items():
            if self._patch(target, lambda fn, hs=hs: self._counter(fn, hs)):
                found.update(name for name, _ in hs)
        self.missing = set(COUNTERS) - found
        for name, targets in SPANS.items():
            hit = [self._patch(t, lambda fn, name=name: self._span(name, fn))
                   for t in targets]
            if not any(hit):
                self.missing.add(name)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:  # was inherited
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        return False
