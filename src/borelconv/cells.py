"""Local cubic cells of a contour column: quadrature rules, Bezier hulls
and de Casteljau splits.

A column of a deformation grid is integrated cell by cell.  Between two
samples the contour is the cubic through the cell's four stencil samples,
held in one form: its Bezier control points (`_cell_rule`, `_cubics`).
Composite Gauss-Legendre runs on each cell's cubic from those points
(`_bernstein_rule`, `_products`).  The control points bound the cubic by
their convex hull: `_check_cells` proves cells clear of a singular point
from those points alone, and a cell that is not proven, or whose Gauss
error is too large, is halved exactly by de Casteljau (`_split_cells`,
`_de_casteljau`), each piece a cubic of the same form, integrated by the
same rule in its own coordinate.  Nothing here knows about germs: the
caller (`germs`) evaluates the integrand and continues its factors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError
from .filtered_set import POINT_TOL

SPLIT_DEPTH = 8  # deepest de Casteljau halving of a quadrature cell


def _lagrange_derivatives(offsets, xs):
    """Derivatives of the Lagrange basis on `offsets` at `xs`, one row per offset."""
    ders = np.empty((len(offsets), len(xs)))
    for m, om in enumerate(offsets):
        num = [o for o in offsets if o != om]
        dpoly = np.polynomial.polynomial.polyder(np.polynomial.polynomial.polyfromroots(num))
        ders[m] = np.polynomial.polynomial.polyval(xs, dpoly) / np.prod([om - o for o in num])
    return ders


def _planes(basis: np.ndarray) -> np.ndarray:
    """A real (4, n_q) basis acting on four complex samples stored as eight
    floats (re, im, re, im, ...): an (8, 2 n_q) real matrix whose product
    with the eight floats is the n_q complex values, stored the same way."""
    out = np.zeros((4, 2, basis.shape[1], 2))
    out[:, 0, :, 0] = out[:, 1, :, 1] = basis
    return out.reshape(8, -1)


@functools.lru_cache(maxsize=None)
def _cell_rule(n_s: int):
    """The cells of a column of n_s cells, read-only and shared between
    calls: (stencils, bezier).  stencils[c] are the four sample indices of
    cell c, whose cubic interpolates them in the row index, whatever the
    rows' s: the contour integral does not depend on the parametrisation.
    bezier maps a cell's four stencil samples to the Bezier control points
    P0..P3 of its cubic in the cell coordinate (P0 and P3 are the cell's
    end samples, exactly), for `_cubics`: the interior cells' real (8, 8)
    map, as _planes, and the first and last cells' maps, of shape
    (2, 4, 4), as they are.

    Cell c interpolates on samples lo..lo+3, centred on the cell except at
    the two end cells, so every interior cell has the same map."""
    # P0 = p(0), P1 = p(0) + p'(0)/3, P2 = p(1) - p'(1)/3, P3 = p(1) in the
    # cell coordinate, whose basis nodes sit at offsets k - (c - lo), one
    # column each; P0's and P3's are exact unit vectors
    bezier = np.zeros((3, 4, 4))
    for s in range(3):
        ends = np.eye(4)[[s, s + 1]]
        slopes = _lagrange_derivatives([k - s for k in (0.0, 1.0, 2.0, 3.0)], [0.0, 1.0]).T / 3.0
        bezier[s] = np.transpose([ends[0], ends[0] + slopes[0], ends[1] - slopes[1], ends[1]])
    lo = np.clip(np.arange(n_s) - 1, 0, n_s - 3)
    stencils, bez = lo[:, None] + np.arange(4), (_planes(bezier[1]), bezier[::2])
    for a in (stencils, *bez):
        a.flags.writeable = False
    return stencils, bez


def _products(x: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """The four complex points on the last axis of x, (..., n, 4), times a
    real map of _planes, (..., n, k), in one stacked `np.matmul` over the
    (n, 4) blocks (a column's cells) read as (n, 8) floats.  numpy's matmul
    loops over the stack and makes one BLAS product per block, of the same
    shape whatever the number of blocks, so that a column's bits do not
    depend on its block."""
    blocks = x.reshape((-1,) + x.shape[-2:])
    flat = blocks.view(float).reshape(blocks.shape[:2] + (8,))
    out = np.empty(blocks.shape[:2] + (planes.shape[1] // 2,), complex)
    np.matmul(flat, planes, out=out.view(float))
    return out.reshape(x.shape[:-1] + out.shape[-1:])


def _cubics(cols: np.ndarray, stencils: np.ndarray, bezier) -> np.ndarray:
    """The Bezier control points of every cell of each column (one per
    row), (J, n_s, 4), for the rule (stencils, bezier) of `_cell_rule`: the
    stencil windows times the interior cells' map (`_products`), then the
    two end cells with their own maps, summed in stencil order."""
    basis, end_basis = bezier
    windows = np.take(cols, stencils, axis=1)  # (J, n_s, 4)
    out = _products(windows, basis)
    for c, b in zip((0, -1), end_basis):
        out[:, c] = (windows[:, c, :, None] * b).sum(axis=1)
    return out


@functools.lru_cache(maxsize=None)
def _bernstein_rule(n_q: int):
    """The cubic Bernstein basis and its derivative times the Gauss
    weights at the nodes of Gauss-Legendre of order n_q on [0, 1], as real
    maps of _planes, read-only.  A cubic's nodes and weighted derivatives
    are its control points times these (`_products`): the integral of f dZ
    over the cubic is the plain sum over the nodes of f times (w dZ), in
    any coordinate, so a cell and a piece of it take the same rule."""
    x, w = np.polynomial.legendre.leggauss(n_q)
    x = 0.5 * (x + 1.0)
    y = 1.0 - x
    vals = np.array([y ** 3, 3.0 * x * y ** 2, 3.0 * x ** 2 * y, x ** 3])
    wders = 1.5 * w * np.array([-y ** 2, y ** 2 - 2.0 * x * y, 2.0 * x * y - x ** 2, x ** 2])
    maps = _planes(vals), _planes(wders)
    for a in maps:
        a.flags.writeable = False
    return maps


def _de_casteljau(ctrl: np.ndarray):
    """The Bezier polygons of the two halves, in the cell coordinate, of
    the cubics with control points ctrl (last axis).  The outer points are
    kept bit for bit and the halves share their middle point; each half's
    polygon lies in the hull of its parent's."""
    p0, p1, p2, p3 = np.moveaxis(ctrl, -1, 0)
    p01, p12, p23 = 0.5 * (p0 + p1), 0.5 * (p1 + p2), 0.5 * (p2 + p3)
    p012, p123 = 0.5 * (p01 + p12), 0.5 * (p12 + p23)
    mid = 0.5 * (p012 + p123)
    return (np.stack([p0, p01, p012, mid], axis=-1),
            np.stack([mid, p123, p23, p3], axis=-1))


def _hull_margin(ctrl: np.ndarray, points) -> np.ndarray:
    """min over the points b of d(b, chord) - (r + POINT_TOL), for each
    Bezier polygon (last axis of ctrl), r its reach from its chord (see
    `_check_cells`); positive where every b is proven outside the hull.
    The distances are `_point_segment_distance`'s, bit for bit, with the
    chord's terms computed once."""
    p0 = ctrl[..., 0]
    d = ctrl[..., 3] - p0
    denom = d.real ** 2 + d.imag ** 2
    nonzero = denom > 0.0

    def distance(p):
        ap = p - p0
        t = np.divide(ap.real * d.real + ap.imag * d.imag, denom,
                      out=np.zeros(np.broadcast(ap, d).shape), where=nonzero)
        np.clip(t, 0.0, 1.0, out=t)
        return np.abs(p - (p0 + t * d))

    reach = np.maximum(distance(ctrl[..., 1]), distance(ctrl[..., 2]))
    reach += POINT_TOL
    margin = distance(points[0]) - reach
    for b in points[1:]:
        np.minimum(margin, distance(b) - reach, out=margin)
    return margin


def _check_cells(points, ctrl: np.ndarray) -> np.ndarray:
    """The cells (one row of ctrl per column, one Bezier control polygon
    P0..P3 per cell) not proven clear of every point b of `points` (each
    broadcasting against a column's cells): a boolean mask.

    A cell's cubic lies in the convex hull of P0..P3, and so does its chord
    [P0, P3].  The distance to a segment is convex and vanishes at P0 and
    P3, so every point of the hull lies within r = max(d(P1, chord),
    d(P2, chord)) of the chord.  When a point b satisfies
    d(b, chord) > r + POINT_TOL, it lies more than POINT_TOL outside the
    hull (`_hull_margin`), and then:

    * the arc and the chord bound a region inside the hull, so the arc
      sweeps around b the angle its chord does: continuing a log along the
      cubic gives what continuing it sample to sample along the chords
      gives, and the arc winds around a pole as the chord does;
    * the segment from either end sample of a cell (its first is the base
      of every node's branch) to any node on its arc lies in the hull, so
      the principal log(u / u_base) at the node is the continuation along
      that segment (a segment that avoids the branch point sweeps less than
      pi around it), hence along the arc.

    The margin POINT_TOL covers the rounding of the control points, of the
    distances and of the quadrature nodes, each some ulps of the
    coordinates.  A cell that cannot be proven is not refused here:
    `_split_cells` splits it, and refuses only at the deepest split."""
    return _hull_margin(ctrl, points) <= 0.0


@dataclass
class _SubCells:
    """Cells, or pieces of split cells, each the cubic of its cell over a
    dyadic interval of the cell coordinate: its Bezier control points (last
    axis of ctrl), its column (in the block) and cell, its depth (halvings
    from the cell, 0 for a whole cell), and for a log factor the base of
    `germs._germ_values` at its first point (phi along the column, psi at
    gamma(t_j) minus it).  The fields share their shape: (J, n_s) for the
    cells of a block of columns, one axis for pieces."""

    ctrl: np.ndarray
    col: np.ndarray
    cell: np.ndarray
    depth: np.ndarray
    phi_base: tuple | None = None
    psi_base: tuple | None = None

    def take(self, sel) -> "_SubCells":
        pick = (lambda base: None if base is None else (base[0][sel], base[1][sel]))
        return _SubCells(self.ctrl[sel], self.col[sel], self.cell[sel], self.depth[sel],
                         pick(self.phi_base), pick(self.psi_base))

    def join(self, other: "_SubCells") -> "_SubCells":
        both = (lambda a, b: None if a is None else tuple(map(np.concatenate, zip(a, b))))
        return _SubCells(*(np.concatenate([x, y]) for x, y in (
            (self.ctrl, other.ctrl), (self.col, other.col), (self.cell, other.cell),
            (self.depth, other.depth))),
            both(self.phi_base, other.phi_base), both(self.psi_base, other.psi_base))


def _split_cells(points, ctrl: np.ndarray, unproven: np.ndarray):
    """The unproven cells, split by de Casteljau halving until every piece
    is proven clear of every point of `points` (`_hull_margin`; each point
    of shape (J, 1) against the J columns), the pieces of each cell in
    order along it.  Raises ToleranceError when a piece is still unproven
    at depth SPLIT_DEPTH.

    Returns the pieces (without bases), the index of each split cell's
    first piece, the split cell of each piece, and per point the angle the
    cell's arc sweeps around it: the sum over its pieces of the principal
    angle of their chords, each of which lies in its proven hull."""
    col, cell = np.nonzero(unproven)
    pending, pos = ctrl[col, cell], np.zeros(len(col), dtype=np.int64)
    done = []
    for depth in range(1, SPLIT_DEPTH + 1):
        left, right = _de_casteljau(pending)
        pending = np.stack([left, right], axis=1).reshape(-1, 4)
        col, cell = np.repeat(col, 2), np.repeat(cell, 2)
        pos = (2 * pos[:, None] + np.arange(2)).ravel()
        margin = _hull_margin(pending, [b[col, 0] for b in points])
        ok = margin > 0.0
        done.append((pending[ok], col[ok], cell[ok], pos[ok] << (SPLIT_DEPTH - depth),
                     np.full(np.count_nonzero(ok), depth)))
        pending, col, cell, pos = pending[~ok], col[~ok], cell[~ok], pos[~ok]
        if not len(col):
            break
    else:
        raise ToleranceError(
            f"grid too coarse near a pole or branch point: a cell's cubic is not proven "
            f"clear of it after {SPLIT_DEPTH} halvings", stage="cell hull",
            value=float(np.max(margin[~ok])) + POINT_TOL, bound=POINT_TOL)
    sub_ctrl, col, cell, pos, depth = (np.concatenate(parts) for parts in zip(*done))
    order = np.lexsort((pos, cell, col))
    sub = _SubCells(sub_ctrl[order], col[order], cell[order], depth[order])
    starts = np.r_[True, (np.diff(sub.col) != 0) | (np.diff(sub.cell) != 0)]
    first, owner = np.flatnonzero(starts), np.cumsum(starts) - 1
    sweeps = [np.add.reduceat(np.angle((sub.ctrl[:, 3] - b[sub.col, 0])
                                       / (sub.ctrl[:, 0] - b[sub.col, 0])), first)
              for b in points]
    return sub, first, owner, sweeps
