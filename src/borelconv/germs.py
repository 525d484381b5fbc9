"""Evaluable germs at the origin, continuation along paths, convolution.

Germ backends: closed forms (polynomials, simple poles 1/(a - z),
logarithms log(1 - z/a) with branch tracking) give exact reference values;
truncated power series are evaluated directly inside their assured disc,
with the Taylor tail estimate checked at every evaluation point.

The convolution of two germs at a point gamma(t) is the contour integral
of phi(h) * psi(gamma(t) - h) over a deformed contour h = H_t(s) produced
by the deformation flow; the factor arguments then travel along the
deformed path and its mirror, which stay inside their respective budgets.
Each time node is integrated independently with composite Gauss-Legendre
over the s-cells of the grid, the contour between samples being
interpolated by local cubics (so a constant integrand integrates to the
exact endpoint, since the cell integrals of the interpolant derivative
telescope).
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .deformation import DeformationGrid, deform, mirror, seed_levels
from .errors import PreconditionError, ToleranceError
from .filtered_set import POINT_TOL, FilteredSet
from .paths import (
    INCIDENCE_TOL,
    Path,
    _dedupe_consecutive,
    _segment_distances,
    admissible_levels,
    local_radii,
    local_radius,  # noqa: F401  (no caller here; perfbench counts calls through germs.local_radius)
)

TWO_PI = 2.0 * math.pi

TOL_TAIL = 1e-9             # series tail estimate budget, relative to the value
SAMPLES_PER_UNIT = 64       # continue_along samples per unit path length
TOL_MONO = 1e-4             # probe threshold on the relative defect and loop integral
PROBE_CIRCLE_SEGMENTS = 16  # sides of the polygonal probe circle
DETOUR_ARC_SEGMENTS = 8     # segments of each semicircle dodging a point on the route
BLOCK_NODES = 1 << 14       # quadrature nodes per block of columns in convolve_along


# -- germ values -----------------------------------------------------------


def _finite(z, what: str) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise PreconditionError(f"{what} must be finite, got {z}")
    return z


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
        radius = float(radius)
        if not (radius > 0.0 and math.isfinite(radius)):
            raise PreconditionError(f"series radius must be positive and finite, got {radius}")
        return cls("series", coeffs=_coefficients(coeffs), radius=radius)

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
    """Numerical knobs for continuation and convolution."""

    level: float | None = None      # working budget; None picks the midpoint
    n_s: int = 128                  # contour cells per time node
    n_t: int = 256                  # time steps along gamma
    n_q: int = 16                   # Gauss-Legendre order per cell
    n_ser: int = 64                 # cap on the series degree

    def __post_init__(self):
        if not isinstance(self.n_ser, numbers.Integral) or self.n_ser < 0:
            raise PreconditionError(f"n_ser must be a non-negative integer, got {self.n_ser!r}")


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


# -- internal frames: per-sample local data for one continuation -----------

def _log_tail_coeff(coeffs: np.ndarray, r0: float) -> float:
    """log of the Cauchy-style tail scale max |c_k| r0^k over the top
    coefficients; -inf for a plain polynomial tail of zeros."""
    n = len(coeffs) - 1
    mag = np.abs(np.asarray(coeffs))
    tail = mag[max(0, n - 7):]
    if not np.any(tail > 0.0):
        return -math.inf
    ks = np.arange(max(0, n - 7), n + 1)[tail > 0.0]
    return float(np.max(np.log(tail[tail > 0.0]) + ks * math.log(r0)))


def _log_tail(log_m0: float, deg: int, q):
    """log of the truncation tail estimate M0 q^(deg+1) / (1 - q) at
    q = |z| / radius < 1 (a scalar or an array); it grows with q."""
    with np.errstate(divide="ignore"):
        return log_m0 + (deg + 1) * np.log(q) - np.log(1.0 - q)


def _series_values(germ: Germ, deg: int, z: np.ndarray) -> np.ndarray:
    """A series germ truncated to degree deg, evaluated at the points z.

    The truncated series at the centre is the continuation along every path
    inside the assured disc, so it is evaluated directly (Horner, in place).
    Beyond the disc a truncated series carries no information and the
    evaluation refuses; inside it, the error against the underlying function
    is the Taylor tail, which must stay within TOL_TAIL * max(1, |value|) at
    every point.
    """
    c = np.asarray(germ.coeffs[: deg + 1], dtype=complex)
    r_max = float(np.max(np.abs(z)))
    q_max = r_max / germ.radius
    if q_max >= 1.0:
        raise ToleranceError(
            f"series continuation left the assured disc (|z| = {r_max:.6g}, "
            f"radius {germ.radius:.6g}); a truncated series carries no "
            "information beyond its disc of convergence"
        )
    v = np.full(z.shape, c[-1])
    for ck in c[-2::-1]:
        v *= z
        v += ck
    log_m0 = _log_tail_coeff(c, germ.radius)
    # the estimate grows with q and the budget is at least log TOL_TAIL, so
    # the largest q passing means every point passes
    if _log_tail(log_m0, deg, q_max) > math.log(TOL_TAIL):
        over = _log_tail(log_m0, deg, np.abs(z) / germ.radius) > np.log(
            TOL_TAIL * np.maximum(1.0, np.abs(v)))
        if np.any(over):
            raise ToleranceError(
                "series tail estimate above tolerance; increase the degree "
                "or keep the path deeper inside the disc"
            )
    return v


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """0 followed by the running sums of x along its last axis."""
    return np.concatenate([np.zeros(x.shape[:-1] + (1,)), np.cumsum(x, axis=-1)], axis=-1)


@dataclass
class _Frames:
    """Local data of a germ continued along a sampled polyline."""

    germ: Germ
    values: np.ndarray
    u: np.ndarray | None = None          # log_pole: 1 - pts/a
    windings: np.ndarray | None = None   # log_pole: integer branch counts
    deg: int | None = None               # series: truncation degree


def _continue_frames(germ: Germ, pts: np.ndarray, cfg: ConvolveConfig) -> _Frames:
    """Frames of a germ continued along the polyline pts (last axis), with
    any leading axes, one polyline per row."""
    if np.any(np.abs(pts[..., 0]) > POINT_TOL):
        raise PreconditionError("continuation must start at the centre")

    if germ.kind == "poly":
        vals = np.polynomial.polynomial.polyval(pts, np.asarray(germ.coeffs))
        return _Frames(germ, np.asarray(vals, complex))

    if germ.kind == "pole":
        d = germ.a - pts
        if np.min(np.abs(d)) <= POINT_TOL:
            raise PreconditionError("path passes through the pole parameter")
        return _Frames(germ, 1.0 / d)

    if germ.kind == "log_pole":
        u = 1.0 - pts / germ.a
        if np.min(np.abs(u)) <= POINT_TOL / abs(germ.a):
            raise PreconditionError("path passes through the log parameter")
        du = np.abs(np.diff(u))
        if np.any(du >= 0.95 * np.abs(u[..., :-1])):
            raise ToleranceError(
                "sampling too coarse near the branch point for branch tracking"
            )
        theta = np.angle(u[..., :1]) + _prefix_sums(np.angle(u[..., 1:] / u[..., :-1]))
        vals = np.log(np.abs(u)) + 1j * theta
        wind = np.rint((theta - np.angle(u)) / TWO_PI).astype(int)
        return _Frames(germ, vals, u=u, windings=wind)

    if germ.kind == "series":
        deg = min(len(germ.coeffs) - 1, cfg.n_ser)
        return _Frames(germ, _series_values(germ, deg, pts), deg=deg)

    raise PreconditionError(f"unknown germ kind {germ.kind!r}")


def _frames_eval(frames: _Frames, z: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Evaluate the continued germ at points z, each near its anchor sample
    (anchors index the last axis of the frames; z has the frames' leading
    axes followed by the shape of anchors); logarithm branches are taken
    from the anchor."""
    g = frames.germ
    if g.kind == "poly":
        return np.polynomial.polynomial.polyval(z, np.asarray(g.coeffs))
    if g.kind == "pole":
        return 1.0 / (g.a - z)
    if g.kind == "log_pole":
        u = 1.0 - z / g.a
        ua = np.take(frames.u, anchors, axis=-1)
        if np.any(np.abs(u - ua) >= 0.95 * np.abs(ua)):
            raise ToleranceError("grid too coarse near the branch point")
        return np.take(frames.values, anchors, axis=-1) + np.log(u / ua)
    if g.kind == "series":
        return _series_values(g, frames.deg, z)
    raise PreconditionError(f"unknown germ kind {g.kind!r}")


# -- public continuation ----------------------------------------------------


def continue_along(germ: Germ, path: Path, fset: FilteredSet,
                   cfg: ConvolveConfig | None = None) -> ContinuationTrace:
    """Analytic continuation of a germ along an allowed path.

    Closed-form germs are evaluated directly with branch tracking for the
    logarithm (the winding accumulates the signed angle swept around the
    parameter per step).  A series germ, truncated to degree n_ser, is its
    own continuation inside the assured disc and is evaluated there
    directly; a sample outside the disc, or one where the tail estimate
    exceeds TOL_TAIL, is refused.  The path must start at the centre and,
    for pole and log germs, avoid the parameter exactly.
    """
    cfg = cfg or ConvolveConfig()
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
    frames = _continue_frames(germ, pts, cfg)
    return ContinuationTrace(path, ts, frames.values, local_radii(pts, ss, fset),
                             windings=frames.windings)


# -- convolution ------------------------------------------------------------

def _lagrange_basis(offsets, xs):
    """Values and derivatives of the Lagrange basis on `offsets` at `xs`."""
    vals = np.empty((len(offsets), len(xs)))
    ders = np.empty((len(offsets), len(xs)))
    for m, om in enumerate(offsets):
        num = [o for o in offsets if o != om]
        poly = np.polynomial.polynomial.polyfromroots(num)
        denom = np.prod([om - o for o in num])
        vals[m] = np.polynomial.polynomial.polyval(xs, poly) / denom
        dpoly = np.polynomial.polynomial.polyder(poly)
        ders[m] = np.polynomial.polynomial.polyval(xs, dpoly) / denom
    return vals, ders


@functools.lru_cache(maxsize=None)
def _cell_rule(n_s: int, n_q: int):
    """Per-cell interpolation stencils and Gauss rule for a uniform s-grid.

    Returns (xi, w, stencils, bval, bder), read-only and shared between
    calls: stencils[c] are the four sample indices of cell c, and bval[c],
    bder[c] of shape (4, n_q) the values and derivatives (with respect to
    the cell coordinate) of its interpolation basis at the Gauss nodes."""
    x, w = np.polynomial.legendre.leggauss(n_q)
    xi = 0.5 * (x + 1.0)
    w = 0.5 * w
    # cell c interpolates on samples lo..lo+3, centred on the cell except
    # at the two end cells; its basis nodes sit at offsets k - (c - lo)
    lo = np.clip(np.arange(n_s) - 1, 0, n_s - 3)
    shift = np.arange(n_s) - lo
    vals, ders = zip(*(_lagrange_basis([k - s for k in (0.0, 1.0, 2.0, 3.0)], xi)
                       for s in range(3)))
    out = (xi, w, lo[:, None] + np.arange(4), np.array(vals)[shift], np.array(ders)[shift])
    for a in out:
        a.flags.writeable = False
    return out


def _check_columns(pts: np.ndarray, fset: FilteredSet, level: float):
    """Contour columns (pts[:, k] is column k) must avoid the members of
    the set at the working level (apart from their start at the centre)."""
    members = fset.points[fset.levels < level]
    d = _segment_distances(members, pts[:-1].ravel(), pts[1:].ravel())
    if (d <= INCIDENCE_TOL).any():
        raise PreconditionError(
            "contour column hits a filtration point at the working level"
        )


def _germ_on_columns(germ: Germ, pts: np.ndarray, cfg: ConvolveConfig,
                     z: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """A germ continued along each row of pts (one column of the contour
    per row) and evaluated at that row's quadrature points z[k]."""
    return _frames_eval(_continue_frames(germ, pts, cfg), z, anchors)


def _checked_columns(grid: DeformationGrid, js: np.ndarray):
    """Columns js of the grid and their mirrors, one per row, after the
    check that each avoids the members of its set."""
    cols = grid.H[:, js]
    mirs = mirror(cols)
    _check_columns(cols, grid.set_a, grid.level)
    _check_columns(mirs, grid.set_b, grid.level)
    return cols.T, mirs.T


def _local_cubic(cols: np.ndarray, stencils: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The local cubics of each column (one per row) at the Gauss nodes of
    every cell: the four stencil samples of the cell times their basis
    values, summed in stencil order."""
    lo = stencils[:, 0]
    out = cols[:, lo, None] * basis[:, 0]
    for m in range(1, 4):
        out += cols[:, lo + m, None] * basis[:, m]
    return out


def convolve_at(phi: Germ, psi: Germ, grid: DeformationGrid, j,
                n_q: int = 16, cfg: ConvolveConfig | None = None):
    """Value of the convolution at gamma(t_j) on a deformation grid.

    Integrates phi(H(s)) * psi(gamma(t_j) - H(s)) * dH/ds over the column
    of the grid at time node j.  phi travels along the column against the
    first set, psi along the mirror column against the second; between
    samples the contour is a local cubic and the quadrature is composite
    Gauss-Legendre of order n_q per cell.

    j is one time index (the value is a complex) or a 1-D array of them
    (the values are an array, one per index, integrated as one block).
    """
    cfg = cfg or ConvolveConfig()
    n_s = grid.n_s
    if n_q < 2:
        # order >= 2 integrates the interpolant derivative exactly per cell,
        # which keeps constant integrands telescoping to the endpoint
        raise PreconditionError("quadrature order must be at least 2")
    js = np.asarray(j)
    if js.ndim > 1 or not np.issubdtype(js.dtype, np.integer):
        raise PreconditionError(f"time index must be an integer or a 1-D integer array, got {j!r}")
    js = js.reshape(-1)
    bad = js[(js < 0) | (js > grid.n_t)]
    if len(bad):
        raise PreconditionError(f"time index {bad[0]} outside the grid")
    if not len(js):
        return np.empty(0, dtype=complex)
    cols, mirs = _checked_columns(grid, js)
    gj = cols[:, -1]

    xi, w, stencils, bval, bder = _cell_rule(n_s, n_q)
    h = 1.0 / n_s
    Z = _local_cubic(cols, stencils, bval)     # (J, n_s, n_q)

    cells = np.arange(n_s)[:, None]
    anchor_phi = np.where(xi[None, :] < 0.5, cells, cells + 1)
    anchor_psi = n_s - anchor_phi

    # the integrand w * phi * psi * dZ is built in place, in that order, so
    # that few (J, n_s, n_q) arrays are alive at once
    psi_vals = _germ_on_columns(psi, mirs, cfg, gj[:, None, None] - Z, anchor_psi)
    integrand = _germ_on_columns(phi, cols, cfg, Z, anchor_phi)
    del Z
    np.multiply(w, integrand, out=integrand)
    integrand *= psi_vals
    del psi_vals
    dZ = _local_cubic(cols, stencils, bder)
    dZ /= h
    integrand *= dZ
    values = integrand.reshape(len(js), -1).sum(axis=1) * h
    if not np.all(np.isfinite(values)):
        raise ToleranceError("non-finite convolution quadrature")
    return values if np.ndim(j) else complex(values[0])


def convolve_along(phi: Germ, psi: Germ, gamma: Path, set_a: FilteredSet,
                   set_b: FilteredSet, cfg: ConvolveConfig | None = None,
                   t_from: float = 0.0) -> ContinuationTrace:
    """Convolution of two germs continued along gamma.

    Builds the deformation grid for (gamma, set_a, set_b) at the working
    level (midpoint of the admissible interval of seed+gamma against the
    fine sum when not configured), then integrates the time columns in
    blocks of about BLOCK_NODES quadrature nodes.  The radius estimates in
    the returned trace are feasibility radii against the fine sum.

    The trace starts at the time node nearest the parameter t_from.  The
    columns before it are not integrated, but they still pass every check
    their samples decide: each set against its column or mirror column, and
    each germ continued along it.  Pole and poly germs check nothing else
    (the finiteness of the integrated value aside); log and series germs
    also check their quadrature nodes, so with one of those every column is
    integrated.
    """
    cfg = cfg or ConvolveConfig()
    if not 0.0 <= t_from <= 1.0:
        raise PreconditionError(f"t_from must lie in [0, 1], got {t_from}")
    fine = set_a.fine_sum(set_b)
    _, iv = seed_levels(gamma, fine)
    level = cfg.level if cfg.level is not None else 0.5 * (iv.lower + iv.upper)
    grid = deform(gamma, set_a, set_b, level, n_s=cfg.n_s, n_t=cfg.n_t)
    first = int(np.argmin(np.abs(grid.t_nodes - t_from)))
    n_skip = first if {phi.kind, psi.kind} <= {"pole", "poly"} else 0
    js = np.arange(grid.n_t + 1)
    block = max(1, BLOCK_NODES // (grid.n_s * cfg.n_q))
    values = []
    for k in range(0, len(js), block):
        b = js[k:k + block]
        if b[0] < n_skip:
            cols, mirs = _checked_columns(grid, b[b < n_skip])
            _continue_frames(psi, mirs, cfg)
            _continue_frames(phi, cols, cfg)
            b = b[b >= n_skip]
        if len(b):
            values.append(convolve_at(phi, psi, grid, b, n_q=cfg.n_q, cfg=cfg))
    values = np.concatenate(values)[first - n_skip:]
    ts = grid.t_nodes[first:]
    radii = local_radii(grid.gamma_values()[first:], abs(gamma.start) + ts * gamma.length, fine)
    return ContinuationTrace(gamma, ts.copy(), values, radii, grid=grid)


# -- singularity probe -------------------------------------------------------


@dataclass
class ProbeReport:
    """Outcome of a loop probe.  `trace` holds the circle only: its times,
    values and radii run from the circle's first vertex to the end of the
    loop, while its `path` and `grid` are the whole loop's."""

    classification: str
    defect_rel: float
    ring_rel: float
    loop: Path
    level: float
    scale: float
    value_before: complex
    value_after: complex
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
    circle.
    """
    if cfg is None:
        # a loop drags a hairpin of the contour around the candidate whose
        # clearance is well below the loop radius; the flow parametrization
        # bunches samples there, but it still needs more cells than a
        # straight trace
        cfg = ConvolveConfig(n_s=256, n_t=2048, n_q=8)
    candidate = complex(candidate)
    radius = float(radius)
    if not (radius > 0.0 and math.isfinite(radius)):
        raise PreconditionError(f"probe radius must be positive and finite, got {radius}")
    if abs(candidate) <= radius:
        raise PreconditionError("candidate too close to the centre to loop around")
    if seed is None:
        rho = min(set_a.rho, set_b.rho)
        seed = 0.25 * rho * candidate / abs(candidate)
    seed = complex(seed)
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
    start_index = len(route) - 1  # vertex where the circle begins and ends

    t_start = loop.vertex_fractions()[start_index]
    trace = convolve_along(phi, psi, loop, set_a, set_b, cfg, t_from=t_start)
    if abs(trace.ts[0] - t_start) > 1e-9:
        raise PreconditionError("circle start did not land on a time node")

    vals = trace.values  # the circle only
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    defect = abs(vals[-1] - vals[0]) / scale
    ring = complex(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(loop.points_at(trace.ts))))
    ring_rel = abs(ring) / (TWO_PI * radius * scale)
    singular = defect > TOL_MONO or ring_rel > TOL_MONO
    return ProbeReport(
        classification="singular-like" if singular else "regular",
        defect_rel=float(defect), ring_rel=float(ring_rel), loop=loop,
        level=trace.grid.level, scale=scale,
        value_before=complex(vals[0]), value_after=complex(vals[-1]), trace=trace,
    )
