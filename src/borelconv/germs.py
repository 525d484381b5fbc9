"""Evaluable germs at the origin, continuation along paths, convolution.

Germ backends: closed forms (polynomials, simple poles 1/(a - z),
logarithms log(1 - z/a) with branch tracking) give exact reference values;
truncated power series are evaluated directly, with every coefficient
given, inside their assured disc.  One rule trusts a series
(`_prove_series`): its Taylor tail estimate at the largest |z| of a path
(`continue_along`), or of the hulls of a convolution's cells before any
quadrature node is evaluated, is within TOL_TAIL.  Only a log's value
depends on its path.

The convolution of two germs at a point gamma(t) is the contour integral
of phi(h) * psi(gamma(t) - h) over a deformed contour h = H_t(s) produced
by the deformation flow; the factor arguments then travel along the
deformed path and its mirror, which stay inside their respective budgets.
Each time node is integrated independently with composite Gauss-Legendre
over the s-cells of the grid, the contour between samples being the local
cubic through the cell's four stencil samples (so a constant integrand
integrates to the exact endpoint, since the cell integrals of the cubic's
derivative telescope).  Every cell, and every piece of a split cell, is
held as its Bezier control points and integrated from them by one
function (`_integrand`).  The cells' rules, hull proofs and de Casteljau
splits are in `cells`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .cells import (
    SPLIT_DEPTH,
    _bernstein_rule,
    _cell_rule,
    _check_cells,
    _cubics,
    _de_casteljau,
    _products,
    _split_cells,
    _SubCells,
)
from .deformation import (
    CONVOLVE_STEP_INTERVALS,
    DeformationGrid,
    _check_integer,
    _check_real,
    mirror,
    seed_levels,
)
from .deformation import _deform as deform  # the core, under the name the benchmark times
from .errors import PreconditionError, ToleranceError
from .filtered_set import POINT_TOL, FilteredSet
from .paths import (
    INCIDENCE_TOL,
    Path,
    _dedupe_consecutive,
    _point_segment_distance,
    _segment_distances,
    admissible_levels,
    local_radii,
    local_radius,  # noqa: F401  (no caller here; perfbench counts calls through germs.local_radius)
)

TWO_PI = 2.0 * math.pi

TOL_TAIL = 1e-9             # series tail estimate budget at the largest |z| of a path or hull
SAMPLES_PER_UNIT = 64       # continue_along samples per unit path length
TOL_MONO = 1e-4             # probe threshold on the relative defect and loop integral
PROBE_CIRCLE_SEGMENTS = 16  # sides of the polygonal probe circle
DETOUR_ARC_SEGMENTS = 8     # segments of each semicircle dodging a point on the route
BLOCK_NODES = 1 << 14       # nodes per block of columns integrated or checked (memory bound, x1.5 at most)
CELL_BUDGET = 1e-13         # a probe cell's error estimate budget, relative to its column's sum |cell|
CELL_REFUSE = 1e-2          # a probe refuses an error estimate above this fraction of TOL_MONO


# -- germ values -----------------------------------------------------------


def _finite(z, what: str) -> complex:
    """z as a finite complex number; a bool is refused, though complex() takes it."""
    if isinstance(z, (bool, np.bool_)):
        raise PreconditionError(f"{what} must be a number, got {z!r}")
    z = complex(z)
    if not cmath.isfinite(z):
        raise PreconditionError(f"{what} must be finite, got {z}")
    return z


def _positive(x, what: str) -> float:
    """x as a positive, finite float; a bool or any other non-real is refused."""
    _check_real(what, x)
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise PreconditionError(f"{what} must be positive and finite, got {x}")
    return x


def _coefficients(coeffs) -> tuple[complex, ...]:
    out = tuple(_finite(c, "coefficient") for c in coeffs)
    if not out:
        raise PreconditionError("a germ needs at least one coefficient")
    return out


@dataclass(frozen=True)
class Germ:
    """A germ of holomorphic function at 0.

    kind is one of "poly", "pole", "log_pole", "series":
      poly      value sum c_k z^k, entire;
      pole      value 1/(a - z), a != 0;
      log_pole  value log(1 - z/a), principal branch near 0, a != 0;
      series    truncated Taylor coefficients with an assured radius.
    """

    kind: str
    coeffs: tuple[complex, ...] | None = None
    a: complex | None = None
    radius: float | None = None

    @classmethod
    def poly(cls, coeffs) -> "Germ":
        return cls("poly", coeffs=_coefficients(coeffs))

    @classmethod
    def pole(cls, a) -> "Germ":
        a = _finite(a, "pole parameter")
        if abs(a) <= POINT_TOL:
            raise PreconditionError("pole parameter must differ from the centre")
        return cls("pole", a=a)

    @classmethod
    def log_pole(cls, a) -> "Germ":
        a = _finite(a, "log parameter")
        if abs(a) <= POINT_TOL:
            raise PreconditionError("log parameter must differ from the centre")
        return cls("log_pole", a=a)

    @classmethod
    def series(cls, coeffs, radius) -> "Germ":
        return cls("series", coeffs=_coefficients(coeffs), radius=_positive(radius, "series radius"))

    @property
    def validity_radius(self) -> float:
        if self.kind in ("pole", "log_pole"):
            return abs(self.a)
        if self.kind == "series":
            return self.radius
        return math.inf


def eval_local(germ: Germ, z) -> complex:
    """Principal-branch value near the centre; z must lie inside the
    germ's local disc of validity."""
    z = complex(z)
    if not abs(z) < germ.validity_radius:
        raise PreconditionError(
            f"|z| = {abs(z)} outside the local disc of radius {germ.validity_radius}"
        )
    if germ.kind == "poly" or germ.kind == "series":
        return complex(np.polynomial.polynomial.polyval(z, np.asarray(germ.coeffs)))
    if germ.kind == "pole":
        return 1.0 / (germ.a - z)
    if germ.kind == "log_pole":
        return cmath.log(1.0 - z / germ.a)
    raise PreconditionError(f"unknown germ kind {germ.kind!r}")


# -- configuration ---------------------------------------------------------


@dataclass(frozen=True)
class ConvolveConfig:
    """Numerical knobs for convolution (a series germ is evaluated with
    every coefficient it was built with)."""

    level: float | None = None      # working budget; None picks the midpoint
    n_s: int = 128                  # contour cells per time node
    n_t: int = 256                  # floor on the time steps along gamma
    n_q: int = 16                   # Gauss-Legendre order per cell

    def __post_init__(self):
        if self.level is not None:
            _check_real("level", self.level)
        for name in ("n_s", "n_t", "n_q"):
            _check_integer(name, getattr(self, name))
        if self.n_q < 2:
            # order >= 2 integrates the interpolant derivative exactly per
            # cell, which keeps constant integrands telescoping to the endpoint
            raise PreconditionError(f"quadrature order n_q must be at least 2, got {self.n_q}")


# -- continuation traces ----------------------------------------------------


@dataclass
class ContinuationTrace:
    """Values of a germ along a path: ordered samples (t, value, local
    radius estimate), plus accumulated log windings where applicable."""

    path: Path
    ts: np.ndarray
    values: np.ndarray
    radii: np.ndarray
    windings: np.ndarray | None = None
    grid: DeformationGrid | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.values.view(float))):
            raise ToleranceError("continuation produced non-finite values")
        if np.any(np.diff(self.ts) < 0):
            raise PreconditionError("trace samples must be ordered in t")

    @property
    def samples(self) -> list[tuple[float, complex, float]]:
        return [(float(t), complex(v), float(r))
                for t, v, r in zip(self.ts, self.values, self.radii)]

    @property
    def end_value(self) -> complex:
        return complex(self.values[-1])


# -- germ values at points ---------------------------------------------------

def _germ_values(germ: Germ, z: np.ndarray, base=None) -> np.ndarray:
    """The germ at points z proven by the caller.  A log germ takes its
    branch from base = (values, u): its continued value and 1 - w/a at a
    base point w of each point of z (broadcast against z), which is right
    when the segment from each base point to its point avoids the branch
    point; other germs have one value anywhere and ignore it.  The values
    take z's shape (a base broadcasts to it).

    A pole's 1/(a - z) and a log's base0 + log((1 - z/a) / base1) are
    built in one new array, each ufunc writing over the last one's result,
    with the operands and in the order of those expressions, so they keep
    their bits; z and the base are only read."""
    if germ.kind == "poly":
        return np.polynomial.polynomial.polyval(z, np.asarray(germ.coeffs))
    if germ.kind == "pole":
        v = np.subtract(germ.a, z)
        return np.divide(1.0, v, out=v)
    if germ.kind == "log_pole":
        v = np.divide(z, germ.a)
        np.subtract(1.0, v, out=v)
        np.divide(v, base[1], out=v)
        np.log(v, out=v)
        return np.add(base[0], v, out=v)
    if germ.kind == "series":
        c = np.asarray(germ.coeffs, dtype=complex)  # Horner, in place
        v = np.full(z.shape, c[-1])
        for ck in c[-2::-1]:
            v *= z
            v += ck
        return v
    raise PreconditionError(f"unknown germ kind {germ.kind!r}")


def _series_tail(germ: Germ, r):
    """log of the Taylor tail estimate M0 q^(deg+1) / (1 - q) of a series
    germ of degree deg, at q = r / radius for the moduli r (a scalar or an
    array); it grows with q.  M0 is the Cauchy-style scale max |c_k|
    radius^k over the top eight coefficients (0 for a tail of zeros).  A
    modulus outside the assured disc is refused: there a truncated series
    carries no information."""
    r_max = float(np.max(r))
    if r_max / germ.radius >= 1.0:
        raise ToleranceError(
            f"series continuation left the assured disc (|z| = {r_max:.6g}, "
            f"radius {germ.radius:.6g}); a truncated series carries no "
            "information beyond its disc of convergence",
            stage="series disc", value=r_max, bound=germ.radius)
    deg = len(germ.coeffs) - 1
    top = np.arange(max(0, deg - 7), deg + 1)
    mag = np.abs(np.asarray(germ.coeffs)[top])
    log_m0 = float(np.max(np.log(mag[mag > 0.0]) + top[mag > 0.0] * math.log(germ.radius),
                          initial=-math.inf))
    q = r / germ.radius
    with np.errstate(divide="ignore"):
        return log_m0 + (deg + 1) * np.log(q) - np.log(1.0 - q)


def _prove_series(germ: Germ, z: np.ndarray) -> None:
    """Refuse a series germ unless the convex hulls spanned by the points z
    lie in its disc with a tail estimate within TOL_TAIL: z holds a path's
    samples, whose chords are the path, or every convolution cell's control
    points.  Every quadrature node, of a cell or of a de Casteljau piece of
    it, lies in its cell's hull; |z| is convex, so its largest value on a
    hull is at one of the points; and the estimate grows with |z|.  So one
    test at the largest |z| covers every point evaluated."""
    log_tail = float(_series_tail(germ, np.max(np.abs(z))))
    if log_tail > math.log(TOL_TAIL):
        raise ToleranceError(
            "series tail estimate above tolerance at the largest |z| of the path or "
            "cells; add coefficients or keep the path deeper inside the disc",
            stage="series tail", value=math.exp(log_tail), bound=TOL_TAIL)


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """0 followed by the running sums of x along its last axis."""
    return np.concatenate([np.zeros(x.shape[:-1] + (1,)), np.cumsum(x, axis=-1)], axis=-1)


def _check_pole(germ: Germ, pts: np.ndarray) -> None:
    """Refuse a pole germ whose parameter is one of the samples pts."""
    if germ.kind == "pole" and np.min(np.abs(germ.a - pts)) <= POINT_TOL:
        raise PreconditionError("path passes through the pole parameter")


def _continue_log(germ: Germ, pts: np.ndarray):
    """A log germ continued along the polyline pts (last axis, from the
    centre), one polyline per row: its values at the samples and 1 - pts/a."""
    u = 1.0 - pts / germ.a
    if np.min(np.abs(u)) <= POINT_TOL / abs(germ.a):
        raise PreconditionError("path passes through the log parameter")
    # a segment that avoids a sweeps an angle of less than pi around it,
    # which is the principal angle of its end-to-start ratio
    chord = float(np.min(_point_segment_distance(germ.a, pts[..., :-1], pts[..., 1:]),
                         initial=math.inf))
    if chord <= POINT_TOL:
        raise ToleranceError(
            "a chord between samples passes within POINT_TOL of the log "
            "parameter: sampling too coarse near the branch point for "
            "branch tracking", stage="log chord", value=chord, bound=POINT_TOL)
    theta = np.angle(u[..., :1]) + _prefix_sums(np.angle(u[..., 1:] / u[..., :-1]))
    return np.log(np.abs(u)) + 1j * theta, u


# -- public continuation ----------------------------------------------------


def continue_along(germ: Germ, path: Path, fset: FilteredSet) -> ContinuationTrace:
    """Analytic continuation of a germ along an allowed path.

    Closed-form germs are evaluated directly with branch tracking for the
    logarithm (the winding accumulates the signed angle swept around the
    parameter per step).  A series germ is its own continuation inside the
    assured disc and is evaluated there directly, with all its
    coefficients; a path leaving the disc, or one whose tail estimate at
    its largest |z| exceeds TOL_TAIL, is refused (`_prove_series`).  The
    path must start at the centre and, for pole and log germs, avoid the
    parameter exactly.
    """
    if abs(fset.centre) > POINT_TOL:
        raise PreconditionError("germ continuation requires a set centred at 0")
    iv = admissible_levels(path, fset)
    if iv.empty:
        raise PreconditionError("path is not allowed for this set")
    if germ.kind in ("pole", "log_pole") and not path.is_constant():
        if _segment_distances(np.array([germ.a]), path._verts[:-1], path._verts[1:])[0] <= POINT_TOL:
            raise PreconditionError("path passes through the germ parameter")
    n = int(math.ceil(SAMPLES_PER_UNIT * max(1.0, path.length)))
    ts, pts, ss = path.sample(n)
    if abs(pts[0]) > POINT_TOL:
        raise PreconditionError("continuation must start at the centre")
    windings = None
    if germ.kind == "log_pole":
        values, u = _continue_log(germ, pts)
        windings = np.rint((values.imag - np.angle(u)) / TWO_PI).astype(int)
    else:
        _check_pole(germ, pts)
        if germ.kind == "series":
            _prove_series(germ, pts)
        values = _germ_values(germ, pts)
    return ContinuationTrace(path, ts, values, local_radii(pts, ss, fset), windings)


# -- convolution ------------------------------------------------------------

def _check_columns(pts: np.ndarray, fset: FilteredSet, level: float):
    """Contour columns (pts[:, k] is column k) must avoid the members of
    the set at the working level (apart from their start at the centre).

    Every point of a segment [z0, z1] lies at least (|p - z0| + |p - z1| -
    |z1 - z0|) / 2 from p, by the triangle inequality.  Only the segments
    where that bound comes within INCIDENCE_TOL of a member, with a margin
    of 64 ulps of the largest coordinate for the rounding of both
    computations (each is within about 10), go through the exact distance,
    so the check raises exactly when the exact distance alone would."""
    members = fset.points[fset.levels < level]
    if not len(members):
        return
    r = np.abs(members[:, None, None] - pts)  # (members, rows, columns)
    bound = r[:, :-1] + r[:, 1:]
    bound -= np.abs(pts[1:] - pts[:-1])
    # every coordinate is at most 2 max |member| + max r in magnitude
    scale = 2.0 * float(np.max(np.abs(members))) + float(np.max(r))
    near = (bound <= 2.0 * (INCIDENCE_TOL + 64 * np.finfo(float).eps * scale)).any(axis=0)
    if not near.any():
        return
    d = _segment_distances(members, pts[:-1][near], pts[1:][near])
    if (d <= INCIDENCE_TOL).any():
        raise PreconditionError(
            "contour column hits a filtration point at the working level"
        )


def _singular_points(phi: Germ, psi: Germ, gj: np.ndarray) -> list:
    """The points every cell of the columns ending at gj must be proven
    clear of, as (b, a, mirrored): b of shape (J, 1), the point tested
    against the columns, a the germ's parameter and mirrored whether the
    germ travels the mirror.  They are phi's pole or branch point a, and
    gamma(t_j) - a for psi's, since psi is evaluated at gamma(t_j) - Z."""
    points = []
    if phi.kind in ("pole", "log_pole"):
        points.append((np.full((len(gj), 1), phi.a), phi.a, False))
    if psi.kind in ("pole", "log_pole"):
        points.append((gj[:, None] - psi.a, psi.a, True))
    return points


def _whole_cells(ctrl: np.ndarray, phi_log, psi_log) -> _SubCells:
    """Every cell of the columns, (J, n_s), as a piece of depth 0, with its
    control points ctrl and a log factor's base at its first sample, from
    its continuation (`_column_frames`): sample c of the column for cell c,
    and sample n_s - c of the mirror, which psi travels from the top row down."""
    bases = (lambda log, first: None if log is None else (log[0][first], log[1][first]))
    col, cell = np.indices(ctrl.shape[:2])
    return _SubCells(ctrl, col, cell, np.zeros_like(col),
                     bases(phi_log, np.s_[:, :-1]), bases(psi_log, np.s_[:, :0:-1]))


def _halve(sub: _SubCells, phi: Germ, psi: Germ, gj: np.ndarray) -> _SubCells:
    """Both halves of every sub-cell, each pair in order.  The first half
    keeps its parent's bases; the second takes them at the middle point,
    whose segment from the parent's first point lies in the parent's
    (proven) hull."""
    left, right = _de_casteljau(sub.ctrl)
    mid = right[:, 0]
    g = gj[sub.col]

    def pair(first, second):
        return np.stack([first, second], axis=1).reshape((-1,) + first.shape[1:])

    def bases(germ, base, w):  # a log factor's, at the points w; None for other germs
        if base is None:
            return None
        return pair(base[0], _germ_values(germ, w, base)), pair(base[1], 1.0 - w / germ.a)

    return _SubCells(
        pair(left, right), np.repeat(sub.col, 2), np.repeat(sub.cell, 2),
        np.repeat(sub.depth + 1, 2),
        bases(phi, sub.phi_base, mid), bases(psi, sub.psi_base, g - mid))


def _reference_sweep(grid: DeformationGrid, js: np.ndarray, a: complex) -> np.ndarray:
    """The angle swept around a by the path the contour of each column js
    is deformed from: the seed segment from the centre to the first top
    sample, then the top row (gamma at the time nodes, straight between
    them) up to column j."""
    top = grid.H[-1, :np.max(js) + 1]
    steps = np.angle((top[1:] - a) / (top[:-1] - a))
    return np.angle((top[0] - a) / -a) + _prefix_sums(steps)[js]


def _chain_base(germ: Germ, log, sub: _SubCells, sample: np.ndarray, w: np.ndarray,
                first: np.ndarray, owner: np.ndarray):
    """A log factor's base at the first point of each piece, continued from
    its cell's first sample along the chords of the pieces before it; w
    holds the factor's arguments at the pieces' control points, sample the
    index in its continuation log of each piece's cell's first sample.
    None for other germs."""
    if log is None:
        return None
    u0, u1 = 1.0 - w[:, 0] / germ.a, 1.0 - w[:, 3] / germ.a
    # one running sum per split cell, so that its bits do not depend on the block
    pos = np.arange(len(owner)) - first[owner]
    steps = np.zeros((len(first), int(np.max(pos)) + 1), complex)
    steps[owner, pos] = np.log(u1 / u0)
    return log[0][sub.col, sample][first][owner] + _prefix_sums(steps)[owner, pos], u0


def _column_frames(phi: Germ, psi: Germ, grid: DeformationGrid, js: np.ndarray):
    """Columns js of the grid (one per row), after every check that proves
    the quadrature nodes: each set against its column or mirror column; a
    log factor continued along it (`_continue_log`, phi along the column,
    psi along the mirror), a pole factor refused at a sample, and a series
    factor proven over every cell's hull (`_prove_series`); and the cubic
    cells against the germs' singular points.  Only a log's value depends
    on its path, so the other factors are evaluated at the nodes from the
    germ alone.  Returns the columns, phi's and psi's continuations (values,
    1 - w/a; None for other kinds), the cells' Bezier control points, the
    one form of a cell the quadrature integrates (`_cubics`), and the pieces
    of the cells that had to be split to be proven (`_split_cells`), with
    their bases, or None when no cell was split.

    The quadrature integrates along the cubics, so each column's chain of
    cubics must wind around every singular point as the path it is
    deformed from does (`_reference_sweep`): the deformation is a homotopy
    that never crosses a set's point.  A proven cell's arc sweeps the angle
    of its chord; a split cell's, the sum over its pieces.  A column that
    winds otherwise passes on the wrong side of a point between two
    samples, which no split can mend, and is refused (ToleranceError).  A
    log factor is continued along the arcs: where a split cell's arc and
    chord wind differently, the values past it move by the turns between
    them."""
    cols = grid.H[:, js]
    mirs = mirror(cols)
    _check_columns(cols, grid.set_a, grid.level)
    _check_columns(mirs, grid.set_b, grid.level)
    cols, mirs = cols.T, mirs.T
    logs = [None, None]  # phi's and psi's, indexed by `mirrored`
    for germ, pts, mirrored in ((psi, mirs, True), (phi, cols, False)):
        _check_pole(germ, pts)
        if germ.kind == "log_pole":
            logs[mirrored] = _continue_log(germ, pts)
    ctrl = _cubics(cols, *_cell_rule(grid.n_s))
    if phi.kind == "series":
        _prove_series(phi, ctrl)
    if psi.kind == "series":
        _prove_series(psi, cols[:, -1, None, None] - ctrl)
    points = _singular_points(phi, psi, cols[:, -1])
    bs = [b for b, _, _ in points]
    sub = None
    if bs and (unproven := _check_cells(bs, ctrl)).any():
        sub, first, owner, sweeps = _split_cells(bs, ctrl, unproven)
        at = sub.col[first], sub.cell[first]
    for k, (b, a, mirrored) in enumerate(points):
        sweep = np.angle((ctrl[..., 3] - b) / (ctrl[..., 0] - b))
        if sub is not None:
            turns = np.zeros(sweep.shape)
            turns[at] = np.rint((sweeps[k] - sweep[at]) / TWO_PI)
            if logs[mirrored] is not None and turns.any():
                # psi's mirror crosses the cells from the top row down
                shift = -_prefix_sums(turns[:, ::-1]) if mirrored else _prefix_sums(turns)
                values, u = logs[mirrored]
                logs[mirrored] = values + 2j * math.pi * shift, u
            sweep[at] = sweeps[k]
        total = sweep.sum(axis=1)
        gap = float(np.max(np.abs((-total if mirrored else total) - _reference_sweep(grid, js, a))))
        if gap > math.pi:
            raise ToleranceError(
                "grid too coarse near a pole or branch point: a column's cubic cells wind "
                "around it other than the path it is deformed from does",
                stage="column winding", value=gap, bound=math.pi)
    phi_log, psi_log = logs
    if sub is not None:
        sub.phi_base = _chain_base(phi, phi_log, sub, sub.cell, sub.ctrl, first, owner)
        sub.psi_base = _chain_base(psi, psi_log, sub, grid.n_s - sub.cell,
                                   cols[sub.col, -1, None] - sub.ctrl, first, owner)
    return cols, phi_log, psi_log, ctrl, sub


def _integrand(cells: _SubCells, gj: np.ndarray, phi: Germ, psi: Germ, n_q: int) -> np.ndarray:
    """phi * psi * (w dZ) at the Gauss-Legendre nodes of order n_q on each
    cubic of `cells`, from its Bezier control points, and a log factor's
    value from the base at its first point: of shape cells.col.shape +
    (n_q,), for whole cells (J, n_s), and for pieces (pieces,).  gj is
    gamma(t_j) at the columns.  The nodes and weighted derivatives each
    take one stacked matmul over the columns (`_products`: one BLAS product
    per column), and each factor's values one new array (`_germ_values`,
    which only reads the nodes).  The product is built in place in phi's
    values, in that order, so that few node arrays are alive at once."""
    vals, wders = _bernstein_rule(n_q)
    nodes = (lambda base: None if base is None else (base[0][..., None], base[1][..., None]))
    Z = _products(cells.ctrl, vals)
    psi_vals = _germ_values(psi, gj[cells.col][..., None] - Z, nodes(cells.psi_base))
    integrand = _germ_values(phi, Z, nodes(cells.phi_base))
    del Z
    integrand *= psi_vals
    del psi_vals
    integrand *= _products(cells.ctrl, wders)
    return integrand


def _refine(sub: _SubCells, phi: Germ, psi: Germ, gj: np.ndarray, budget: np.ndarray,
            n_q: int):
    """Integrate the pieces by Gauss-Legendre of orders n_q and n_q // 2,
    halving each piece whose estimate |Q - Q'| exceeds its column's budget,
    down to depth SPLIT_DEPTH.  Every piece lies in its cell's proven hull
    (`_column_frames`), so its nodes are only evaluated.  Returns the kept
    pieces' columns, depths, values Q and estimates (empty for no pieces)."""
    kept = [(sub.col[:0], sub.depth[:0], np.zeros(0, dtype=complex), np.zeros(0))]
    while len(sub.col):
        q, coarse = (_integrand(sub, gj, phi, psi, order).sum(axis=1)
                     for order in (n_q, n_q // 2))
        err = np.abs(q - coarse)
        ok = (err <= budget[sub.col]) | (sub.depth >= SPLIT_DEPTH)
        kept.append((sub.col[ok], sub.depth[ok], q[ok], err[ok]))
        sub = _halve(sub.take(~ok), phi, psi, gj)
    return (np.concatenate(parts) for parts in zip(*kept))


def _integrate(phi: Germ, psi: Germ, grid: DeformationGrid, js: np.ndarray,
               cfg: ConvolveConfig, estimate: bool):
    """The values of `convolve_at` at the columns js, integrated as one
    block, and with estimate also each column's error estimate, the number
    of its cells split and the deepest split (else None for each).

    Each cell is integrated by Gauss-Legendre of order n_q on its cubic,
    from its Bezier control points (`_integrand`), a log factor taking its
    branch at the cell's first sample (proven by `_check_cells`).  A cell
    split to be proven (`_column_frames`) contributes the sum over its
    pieces instead, each integrated by the same function on the same cubic,
    in the piece's own coordinate, from its first point; the other cells
    keep their bits, and so does every column without a split cell.  With
    estimate, a cell's estimate is |Q - Q'|, where Q' is the same
    function's value at order n_q // 2 on the same cell.  A cell (or piece)
    whose estimate exceeds CELL_BUDGET times the sum of |Q| over its
    column's cells is halved, and so are its halves, down to depth
    SPLIT_DEPTH.  A column's estimate is the sum of the estimates of its
    cells, or of the pieces they were split into."""
    cols, phi_log, psi_log, ctrl, sub = _column_frames(phi, psi, grid, js)
    gj = cols[:, -1]
    whole = _whole_cells(ctrl, phi_log, psi_log)
    integrand = _integrand(whole, gj, phi, psi, cfg.n_q)
    split = np.zeros(integrand.shape[:2], dtype=bool)
    if sub is not None:
        split[sub.col, sub.cell] = True
    errors = n_split = depth = None
    if estimate:
        cells = integrand.sum(axis=2)
        coarse = _integrand(whole, gj, phi, psi, cfg.n_q // 2)
        cell_errors = np.where(split, 0.0, np.abs(cells - coarse.sum(axis=2)))
        budget = CELL_BUDGET * np.where(split, 0.0, np.abs(cells)).sum(axis=1)
        over = cell_errors > budget[:, None]
        cell_errors[over] = 0.0
        pieces = _halve(whole.take(over), phi, psi, gj)
        if sub is not None:
            pieces = pieces.join(sub)
        col, piece_depth, q, piece_errors = _refine(pieces, phi, psi, gj, budget, cfg.n_q)
        errors = cell_errors.sum(axis=1)
        np.add.at(errors, col, piece_errors)
        split |= over
        n_split, depth = int(np.count_nonzero(split)), int(np.max(piece_depth, initial=0))
    elif sub is not None:
        col = sub.col
        q = _integrand(sub, gj, phi, psi, cfg.n_q).sum(axis=1)
    integrand[split] = 0.0
    values = integrand.reshape(len(js), -1).sum(axis=1)
    if split.any():
        np.add.at(values, col, q)
    if not np.all(np.isfinite(values)):
        raise ToleranceError("non-finite convolution quadrature")
    return values, errors, n_split, depth


def convolve_at(phi: Germ, psi: Germ, grid: DeformationGrid, j, *,
                cfg: ConvolveConfig | None = None):
    """Value of the convolution at gamma(t_j) on a deformation grid.

    Integrates phi(H(s)) * psi(gamma(t_j) - H(s)) * dH/ds over the column
    of the grid at time node j.  phi travels along the column against the
    first set, psi along the mirror column against the second; between
    samples the contour is a local cubic and the quadrature is composite
    Gauss-Legendre of order cfg.n_q per cell.

    j is one time index (the value is a complex) or a 1-D array of them
    (the values are an array, one per index, integrated as one block).
    """
    cfg = cfg or ConvolveConfig()
    js = np.asarray(j)
    if js.ndim > 1 or not np.issubdtype(js.dtype, np.integer):
        raise PreconditionError(f"time index must be an integer or a 1-D integer array, got {j!r}")
    js = js.reshape(-1)
    bad = js[(js < 0) | (js > grid.n_t)]
    if len(bad):
        raise PreconditionError(f"time index {bad[0]} outside the grid")
    if not len(js):
        return np.empty(0, dtype=complex)
    values = _integrate(phi, psi, grid, js, cfg, estimate=False)[0]
    return values if np.ndim(j) else complex(values[0])


def _block_columns(grid: DeformationGrid, js: np.ndarray, per_cell: int) -> list:
    """The time indices js cut, in order, into m blocks of about BLOCK_NODES
    points each, per_cell per cell (the quadrature nodes, or the four
    control points of a cell check): b = BLOCK_NODES // (n_s * per_cell)
    columns, at least one, make a block, and m = max(1, round(len(js) / b)),
    none for no columns.  Block k ends before index floor((k + 1) len(js) /
    m), so sizes differ by at most one and no block is a short tail.  A
    block holds at most 1.5 b columns, so at most 1.5 BLOCK_NODES points
    unless one column alone holds more."""
    b = max(1, BLOCK_NODES // (grid.n_s * per_cell))
    n = len(js)
    m = max(1, round(n / b)) if n else 0
    return [js[k * n // m:(k + 1) * n // m] for k in range(m)]


def _estimate_columns(phi: Germ, psi: Germ, grid: DeformationGrid, js: np.ndarray,
                      cfg: ConvolveConfig):
    """`_integrate` with its error estimate over the (non-empty) time
    indices js, a block at a time: the values, each column's estimate, the
    number of cells split and the deepest split."""
    values, errors, n_split, depth = zip(*(_integrate(phi, psi, grid, block, cfg, True)
                                           for block in _block_columns(grid, js, cfg.n_q)))
    return np.concatenate(values), np.concatenate(errors), sum(n_split), max(depth)


def _grid(gamma: Path, set_a: FilteredSet, set_b: FilteredSet, fine: FilteredSet,
          cfg: ConvolveConfig) -> DeformationGrid:
    """The grid of gamma at cfg.level, else at the midpoint of seed+gamma's
    admissible levels, with one RK4 step per CONVOLVE_STEP_INTERVALS time
    intervals and dense output between: a value depends on its column only
    through the column's homotopy class, so the flow needs only contours
    that pass the proofs, not RK4 accuracy at every node."""
    levels = seed_levels(gamma, fine)
    iv = levels[1]
    level = cfg.level if cfg.level is not None else 0.5 * (iv.lower + iv.upper)
    return deform(gamma, set_a, set_b, level, cfg.n_s, cfg.n_t, None, None, levels,
                  CONVOLVE_STEP_INTERVALS)


def _trace(gamma: Path, grid: DeformationGrid, first: int, values: np.ndarray,
           fine: FilteredSet) -> ContinuationTrace:
    """The values at the time nodes first..n_t of the grid, as a trace
    with the feasibility radii of gamma there against the fine sum."""
    ts = grid.t_nodes[first:]
    radii = local_radii(grid.gamma_values()[first:], abs(gamma.start) + ts * gamma.length, fine)
    return ContinuationTrace(gamma, ts.copy(), values, radii, grid=grid)


def convolve_along(phi: Germ, psi: Germ, gamma: Path, set_a: FilteredSet,
                   set_b: FilteredSet, cfg: ConvolveConfig | None = None) -> ContinuationTrace:
    """Convolution of two germs continued along gamma.

    Builds the deformation grid for (gamma, set_a, set_b) at the working
    level (midpoint of the admissible interval of seed+gamma against the
    fine sum when not configured), then integrates every time column, in
    blocks of about BLOCK_NODES quadrature nodes.  The grid has `deform`'s
    time nodes but one RK4 step per up to CONVOLVE_STEP_INTERVALS of them,
    with dense output between (`_grid`); the values agree with those on
    `deform`'s own grid within the quadrature's error, since a value
    depends on its column only through the column's homotopy class.  The
    radius estimates in the returned trace are feasibility radii against
    the fine sum.
    """
    cfg = cfg or ConvolveConfig()
    fine = set_a.fine_sum(set_b)
    grid = _grid(gamma, set_a, set_b, fine, cfg)
    values = np.concatenate([convolve_at(phi, psi, grid, block, cfg=cfg)
                             for block in _block_columns(grid, np.arange(grid.n_t + 1), cfg.n_q)])
    return _trace(gamma, grid, 0, values, fine)


# -- singularity probe -------------------------------------------------------


@dataclass
class ProbeReport:
    """Outcome of a loop probe.  `trace` holds the circle only, the columns
    the probe integrates: its times, values and radii run from the circle's
    first vertex to the loop's end, while its `path` and `grid` are the loop's.

    `cell_error_rel` estimates the error of the circle's values.  Each
    cell of a circle column is integrated by the Gauss rules of orders n_q
    and n_q // 2 on its cubic, and |Q - Q'| is its estimate; a cell whose
    estimate exceeds CELL_BUDGET of its column's sum of |Q| is halved by de
    Casteljau, and so are its halves, down to depth SPLIT_DEPTH.  A
    column's estimate is the sum over its cells, or over the pieces they
    were split into, and `cell_error_rel` is the largest over the circle,
    relative to `scale`.  It estimates the error of the values reported,
    is finite for every grid, and the probe refuses (ToleranceError) rather
    than report one above CELL_REFUSE * TOL_MONO.  Q' is the lower-order
    rule, so the estimate overstates the error of Q.  `cells_split`
    counts the circle's cells that were split, to be proven clear of a
    singular point or to meet the budget, and `split_depth` is the deepest
    split (0 when none).  `n_q` is the Gauss-Legendre order per cell of the
    circle's columns."""

    classification: str
    defect_rel: float
    ring_rel: float
    loop: Path
    level: float
    scale: float
    value_before: complex
    value_after: complex
    cell_error_rel: float
    cells_split: int
    split_depth: int
    n_q: int
    trace: ContinuationTrace | None = field(repr=False, default=None)

    @property
    def singular(self) -> bool:
        return self.classification == "singular-like"


def _detour_route(seed: complex, target: complex, obstacles, clearance: float) -> np.ndarray:
    """Polyline from seed to target dodging obstacles near the straight
    segment with semicircles on the left of the travel direction (a fixed
    side keeps repeated probes on a consistent branch)."""
    d = target - seed
    dist = abs(d)
    u = d / dist
    near = []
    for o in obstacles:
        rel = (o - seed) / u
        if clearance < rel.real < dist - clearance and abs(rel.imag) <= clearance:
            near.append((rel.real, o))
    near.sort(key=lambda t: t[0])
    if len(near) >= 2:
        min_gap = min(near[k + 1][0] - near[k][0] for k in range(len(near) - 1))
        if min_gap > 0:
            clearance = min(clearance, 0.4 * min_gap)
    verts = [seed]
    for _, o in near:
        phi0 = cmath.phase(-u)
        for k in range(DETOUR_ARC_SEGMENTS + 1):
            angle = phi0 - k * math.pi / DETOUR_ARC_SEGMENTS
            verts.append(o + clearance * cmath.exp(1j * angle))
    verts.append(target)
    return _dedupe_consecutive(verts, 1e-12)


def singularity_probe(phi: Germ, psi: Germ, set_a: FilteredSet,
                      set_b: FilteredSet, candidate: complex, radius: float,
                      seed: complex | None = None,
                      cfg: ConvolveConfig | None = None) -> ProbeReport:
    """Classify a candidate point as regular or singular-like for the
    convolution by continuing it around a small allowed loop.

    The loop runs from the seed toward the candidate (dodging fine-sum
    points on the way), once counterclockwise around a polygonal circle of
    the given radius, and the values at the circle start before and after
    the turn are compared (branch defect).  The loop integral of the values
    over the circle is checked as well: it vanishes for a regular point but
    picks up the residue of a pole-type singularity, which a pure value
    defect cannot see.  Thresholds are relative to the value scale on the
    circle.  The report also carries an estimate of the values' quadrature
    error (`ProbeReport.cell_error_rel`).

    The loop's grid is built as `convolve_along`'s (`_grid`: one RK4 step
    per up to CONVOLVE_STEP_INTERVALS time intervals, dense output between).
    Each loop column passes once the checks that prove its quadrature
    nodes (`_column_frames`), for every germ kind.  The circle's columns
    are integrated with the estimate; of the route's, only the last, by
    `convolve_at`, which perfbench counts.
    """
    if cfg is None:
        # n_s and n_q decide the accuracy.  A loop drags a hairpin of the
        # contour around the candidate, and the cells at the contour's ends
        # pass close to a set's point, where a cell's Gauss rule loses
        # accuracy.  The values depend on the rows only through the Gauss
        # error of each cell, and the cells whose estimate exceeds the
        # budget are split, so 64 rows with 16 nodes per cell match the pole
        # pair's closed form within 1e-12 of the values' scale at radius 0.2
        # and 0.1.  A cubic on the wrong side of a singular point is refused
        # (ToleranceError), not split.  n_t 64 is a floor (the pole pair's
        # loops take 65-93 time intervals, in 19-38 RK4 steps): the circle's
        # 16 equal sides get equal interval counts, which makes the
        # trapezoid rule of ring_rel converge geometrically.
        cfg = ConvolveConfig(n_s=64, n_t=64, n_q=16)
    candidate = _finite(candidate, "candidate")
    seed = None if seed is None else _finite(seed, "seed")
    radius = _positive(radius, "probe radius")
    if abs(candidate) <= radius:
        raise PreconditionError("candidate too close to the centre to loop around")
    if seed is None:
        # a quarter of min rho toward the candidate, else halfway to the circle
        reach = 0.25 * min(set_a.rho, set_b.rho)
        if abs(abs(candidate) - reach) <= radius:
            reach = 0.5 * (abs(candidate) - radius)
        seed = reach * candidate / abs(candidate)
    if abs(candidate - seed) <= radius:
        raise PreconditionError("seed lies inside the probe circle")
    fine = set_a.fine_sum(set_b)
    obstacles = [p for p in fine.points
                 if abs(p - candidate) > radius + POINT_TOL and abs(p) > POINT_TOL]
    u = (candidate - seed) / abs(candidate - seed)
    p0 = candidate - radius * u
    route = _detour_route(seed, p0, obstacles, clearance=radius)
    phi0 = cmath.phase(p0 - candidate)
    circle = [candidate + radius * cmath.exp(1j * (phi0 + TWO_PI * k / PROBE_CIRCLE_SEGMENTS))
              for k in range(1, PROBE_CIRCLE_SEGMENTS)]
    circle.append(p0)  # close the polygon exactly
    loop = Path(np.concatenate([route, circle]))
    t_start = loop.vertex_fractions()[len(route) - 1]  # where the circle begins and ends
    grid = _grid(loop, set_a, set_b, fine, cfg)
    first = int(np.argmin(np.abs(grid.t_nodes - t_start)))
    if abs(grid.t_nodes[first] - t_start) > 1e-9:
        raise PreconditionError("circle start did not land on a time node")
    for block in _block_columns(grid, np.arange(first - 1), 4):
        _column_frames(phi, psi, grid, block)
    convolve_at(phi, psi, grid, first - 1, cfg=cfg)
    vals, errors, cells_split, split_depth = _estimate_columns(
        phi, psi, grid, np.arange(first, grid.n_t + 1), cfg)
    trace = _trace(loop, grid, first, vals, fine)  # the circle only

    scale = max(float(np.max(np.abs(vals))), 1e-300)
    cell_error_rel = float(np.max(errors)) / scale
    if cell_error_rel > CELL_REFUSE * TOL_MONO:
        raise ToleranceError(
            f"probe quadrature not resolved: cell error estimate {cell_error_rel:.3g} of the "
            f"values' scale after {SPLIT_DEPTH} halvings, above {CELL_REFUSE * TOL_MONO:g}",
            stage="probe cell error", value=cell_error_rel, bound=CELL_REFUSE * TOL_MONO)
    defect = abs(vals[-1] - vals[0]) / scale
    ring = complex(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(loop.points_at(trace.ts))))
    ring_rel = abs(ring) / (TWO_PI * radius * scale)
    singular = defect > TOL_MONO or ring_rel > TOL_MONO
    return ProbeReport(
        classification="singular-like" if singular else "regular",
        defect_rel=float(defect), ring_rel=float(ring_rel), loop=loop,
        level=grid.level, scale=scale,
        value_before=complex(vals[0]), value_after=complex(vals[-1]),
        cell_error_rel=cell_error_rel, cells_split=cells_split, split_depth=split_depth,
        n_q=cfg.n_q, trace=trace,
    )
