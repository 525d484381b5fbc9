"""Static SVG overlays of deformation grids for documentation.

Draws the target path, a few deformed contours, and the point sets (first
set, second set, their fine sum) into a fixed-size standalone SVG.  Output
is deterministic; no interactive features.
"""

from __future__ import annotations

import numpy as np

from .deformation import DeformationGrid
from .jsonio import atomic_write

_W, _H, _PAD = 640, 480, 40
N_CONTOURS = 6  # deformed contours drawn, evenly spaced in t


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


class _Frame:
    def __init__(self, pts: np.ndarray):
        x0, x1 = float(pts.real.min()), float(pts.real.max())
        y0, y1 = float(pts.imag.min()), float(pts.imag.max())
        span = max(x1 - x0, y1 - y0, 1e-9)
        self.scale = min((_W - 2 * _PAD), (_H - 2 * _PAD)) / span
        self.x0, self.y0 = x0, y0

    def map(self, z: complex):
        x = _PAD + (z.real - self.x0) * self.scale
        y = _H - _PAD - (z.imag - self.y0) * self.scale
        return x, y


def _polyline(frame, zs, colour, width, dash=None):
    pts = " ".join("{},{}".format(_fmt(x), _fmt(y))
                   for x, y in (frame.map(z) for z in zs))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{colour}" '
            f'stroke-width="{width}"{dash_attr} points="{pts}"/>')


def _dots(frame, zs, colour, r):
    out = []
    for z in zs:
        x, y = frame.map(z)
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{colour}"/>')
    return out


def grid_overlay_svg(grid: DeformationGrid) -> str:
    fine = grid.set_a.fine_sum(grid.set_b)
    frame = _Frame(np.concatenate([grid.H.ravel(), fine.points, [0.0 + 0.0j]]))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    idx = np.unique(np.linspace(0, grid.n_t, N_CONTOURS).astype(int))
    for j in idx:
        parts.append(_polyline(frame, grid.H[:, j], "#9ecae1", 1.0))
    parts.append(_polyline(frame, grid.gamma_values(), "#d62728", 1.8))
    parts.extend(_dots(frame, grid.set_a.points, "#2ca02c", 4))
    parts.extend(_dots(frame, grid.set_b.points, "#ff7f0e", 4))
    parts.extend(_dots(frame, fine.points, "#7f7f7f", 2))
    parts.extend(_dots(frame, [0.0 + 0.0j], "#000000", 3))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_grid_overlay(path: str, grid: DeformationGrid):
    atomic_write(path, (grid_overlay_svg(grid),))
