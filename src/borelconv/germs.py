"""Evaluable germs at the origin, continuation along paths, convolution.

Germ backends: closed forms (polynomials, simple poles 1/(a - z),
logarithms log(1 - z/a) with branch tracking) give exact reference values;
truncated power series exercise the re-expansion walk whose step length is
driven by the feasible ball radius along the path.

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
from dataclasses import dataclass, field

import numpy as np

from .deformation import DeformationGrid, deform, seed_levels
from .errors import PreconditionError, ToleranceError
from .filtered_set import POINT_TOL, FilteredSet
from .paths import (
    Path,
    _dedupe_consecutive,
    _segment_distances,
    admissible_levels,
    local_radii,
    local_radius,
)

TWO_PI = 2.0 * math.pi


# -- germ values -----------------------------------------------------------


def _finite(z, what: str) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise PreconditionError(f"{what} must be finite, got {z}")
    return z


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
        return cls("poly", coeffs=tuple(_finite(c, "coefficient") for c in coeffs))

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
        return cls("series", coeffs=tuple(_finite(c, "coefficient") for c in coeffs),
                   radius=radius)

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
    n_ser: int = 64                 # cap on the series re-expansion degree
    step_safety: float = 0.5        # series step <= safety * local radius
    tol_tail: float = 1e-9          # re-expansion tail budget (relative)
    tol_mono: float = 1e-4          # loop-defect threshold of the probe
    samples_per_unit: int = 64      # trace sampling density
    eps_den: float | None = None    # flow denominator guard override
    delta_len: float | None = None  # length-identity budget override


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

@functools.lru_cache(maxsize=None)
def _pascal(n: int) -> np.ndarray:
    """Binomial matrix P[k, m] = C(k, m), 0 <= m <= k <= n (read-only,
    shared between calls)."""
    P = np.zeros((n + 1, n + 1))
    P[:, 0] = 1.0
    for k in range(1, n + 1):
        P[k, 1:k + 1] = P[k - 1, :k] + P[k - 1, 1:k + 1]
    P.flags.writeable = False
    return P


def _shift_series(coeffs: np.ndarray, delta: complex) -> np.ndarray:
    """Taylor coefficients re-expanded at centre + delta (same degree)."""
    n = len(coeffs) - 1
    P = _pascal(n)
    dp = np.power(delta, np.arange(n + 1))
    out = np.empty(n + 1, dtype=complex)
    for m in range(n + 1):
        out[m] = np.dot(coeffs[m:] * P[m:, m], dp[: n + 1 - m])
    return out


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


def _tail_check(z: complex, germ: Germ, deg: int, log_m0: float,
                value_scale: float, cfg: ConvolveConfig):
    """Truncation error of the continued series at the point z.

    Re-expanding a truncated series is exact polynomial composition, so the
    walk reproduces the original degree-N polynomial everywhere; the error
    against the underlying function is the original Taylor tail at the
    current point, estimated as M0 * q^(N+1) / (1 - q) with q = |z| / r0.
    Beyond the assured radius the truncated germ carries no information at
    all and the continuation must refuse.
    """
    if log_m0 == -math.inf:
        return
    q = abs(z) / germ.radius
    if q >= 1.0:
        raise ToleranceError(
            f"series continuation left the assured disc (|z| = {abs(z):.6g}, "
            f"radius {germ.radius:.6g}); a truncated series carries no "
            "information beyond its disc of convergence"
        )
    if q <= 0.0:
        return
    log_est = log_m0 + (deg + 1) * math.log(q) - math.log(1.0 - q)
    if log_est > math.log(cfg.tol_tail * max(1.0, value_scale)):
        raise ToleranceError(
            "series re-expansion tail estimate above tolerance; "
            "increase the degree or keep the path deeper inside the disc"
        )


@dataclass
class _Frames:
    """Local data of a germ continued along a sampled polyline."""

    germ: Germ
    pts: np.ndarray
    prefix: np.ndarray
    values: np.ndarray
    radii: np.ndarray
    u: np.ndarray | None = None          # log_pole: 1 - pts/a
    windings: np.ndarray | None = None   # log_pole: integer branch counts
    coeffs: np.ndarray | None = None     # series: (n, deg+1) local coefficients


def _continue_frames(germ: Germ, pts: np.ndarray, prefix: np.ndarray,
                     fset: FilteredSet, cfg: ConvolveConfig) -> _Frames:
    if abs(pts[0]) > POINT_TOL:
        raise PreconditionError("continuation must start at the centre")
    radii = local_radii(pts, prefix, fset)

    if germ.kind == "poly":
        vals = np.polynomial.polynomial.polyval(pts, np.asarray(germ.coeffs))
        return _Frames(germ, pts, prefix, np.asarray(vals, complex), radii)

    if germ.kind == "pole":
        d = germ.a - pts
        if np.min(np.abs(d)) <= POINT_TOL:
            raise PreconditionError("path passes through the pole parameter")
        return _Frames(germ, pts, prefix, 1.0 / d, radii)

    if germ.kind == "log_pole":
        u = 1.0 - pts / germ.a
        if np.min(np.abs(u)) <= POINT_TOL / abs(germ.a):
            raise PreconditionError("path passes through the log parameter")
        du = np.abs(np.diff(u))
        if np.any(du >= 0.95 * np.abs(u[:-1])):
            raise ToleranceError(
                "sampling too coarse near the branch point for branch tracking"
            )
        theta = np.angle(u[0]) + np.concatenate(
            [[0.0], np.cumsum(np.angle(u[1:] / u[:-1]))])
        vals = np.log(np.abs(u)) + 1j * theta
        wind = np.rint((theta - np.angle(u)) / TWO_PI).astype(int)
        return _Frames(germ, pts, prefix, vals, radii, u=u, windings=wind)

    if germ.kind == "series":
        return _series_frames(germ, pts, prefix, fset, cfg, radii)

    raise PreconditionError(f"unknown germ kind {germ.kind!r}")


def _series_frames(germ: Germ, pts: np.ndarray, prefix: np.ndarray,
                   fset: FilteredSet, cfg: ConvolveConfig,
                   radii: np.ndarray) -> _Frames:
    deg = min(len(germ.coeffs) - 1, cfg.n_ser)
    cur = np.asarray(germ.coeffs[: deg + 1], dtype=complex)
    log_m0 = _log_tail_coeff(cur, germ.radius)
    n = len(pts)
    coeffs = np.empty((n, deg + 1), dtype=complex)
    coeffs[0] = cur
    zc = complex(pts[0])
    sc = float(prefix[0])
    rc = min(local_radius(zc, sc, fset), germ.radius)
    scale = max(1.0, float(pts[-1].real ** 2 + pts[-1].imag ** 2) ** 0.5,
                float(prefix[-1]))
    substeps = 0
    for k in range(1, n):
        target, starget = complex(pts[k]), float(prefix[k])
        while True:
            d = target - zc
            dist = abs(d)
            if dist == 0.0:
                break
            cap = cfg.step_safety * rc
            if cap <= 1e-9 * scale:
                raise ToleranceError(
                    "series step underflow: the path runs too close to the "
                    "boundary for the configured degree"
                )
            if dist <= cap:
                delta, zn, sn = d, target, starget
            else:
                f = cap / dist
                delta, zn, sn = d * f, zc + d * f, sc + (starget - sc) * f
            cur = _shift_series(cur, delta)
            zc, sc = zn, sn
            rc = local_radius(zc, sc, fset)
            _tail_check(zc, germ, deg, log_m0, float(abs(cur[0])), cfg)
            substeps += 1
            if substeps > 100000:
                raise ToleranceError("series walk did not terminate")
            if zc == target:
                break
        coeffs[k] = cur
    return _Frames(germ, pts, prefix, coeffs[:, 0].copy(), radii, coeffs=coeffs)


def _frames_eval(frames: _Frames, z: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Evaluate the continued germ at points z, each near its anchor sample
    (same shape arrays); branches and local series are taken from the
    anchor."""
    g = frames.germ
    if g.kind == "poly":
        return np.polynomial.polynomial.polyval(z, np.asarray(g.coeffs))
    if g.kind == "pole":
        return 1.0 / (g.a - z)
    if g.kind == "log_pole":
        u = 1.0 - z / g.a
        ua = frames.u[anchors]
        if np.any(np.abs(u - ua) >= 0.95 * np.abs(ua)):
            raise ToleranceError("grid too coarse near the branch point")
        return frames.values[anchors] + np.log(u / ua)
    if g.kind == "series":
        dz = z - frames.pts[anchors]
        if np.any(np.abs(dz) >= np.maximum(frames.radii[anchors], 0.0)):
            raise ToleranceError("evaluation point outside the local series disc")
        deg = frames.coeffs.shape[1] - 1
        powers = np.ones(z.shape + (deg + 1,), dtype=complex)
        for m in range(1, deg + 1):
            powers[..., m] = powers[..., m - 1] * dz
        return np.sum(frames.coeffs[anchors] * powers, axis=-1)
    raise PreconditionError(f"unknown germ kind {g.kind!r}")


# -- public continuation ----------------------------------------------------


def continue_along(germ: Germ, path: Path, fset: FilteredSet,
                   cfg: ConvolveConfig | None = None) -> ContinuationTrace:
    """Analytic continuation of a germ along an allowed path.

    Closed-form germs are evaluated directly with branch tracking for the
    logarithm (the winding accumulates the signed angle swept around the
    parameter per step).  Series germs are continued by re-expansion steps
    bounded by half the feasible ball radius at the current prefix.  The
    path must start at the centre and, for pole and log germs, avoid the
    parameter exactly.
    """
    cfg = cfg or ConvolveConfig()
    if abs(fset.centre) > POINT_TOL:
        raise PreconditionError("germ continuation requires a set centred at 0")
    iv = admissible_levels(path, fset)
    if iv.empty:
        raise PreconditionError("path is not allowed for this set")
    if germ.kind in ("pole", "log_pole") and not path.is_constant():
        starts = np.array(path.vertices[:-1], dtype=complex)
        ends = np.array(path.vertices[1:], dtype=complex)
        if _segment_distances(np.array([germ.a]), starts, ends)[0] <= POINT_TOL:
            raise PreconditionError("path passes through the germ parameter")
    n = int(math.ceil(cfg.samples_per_unit * max(1.0, path.length)))
    ts, pts, ss = path.sample(n)
    frames = _continue_frames(germ, pts, ss, fset, cfg)
    return ContinuationTrace(path, ts, frames.values, frames.radii,
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


def _check_column(pts: np.ndarray, fset: FilteredSet, level: float):
    """A contour column must avoid the members of the set at the working
    level (apart from its start at the centre)."""
    members = fset.points[fset.levels < level]
    if len(members):
        d = _segment_distances(members, pts[:-1], pts[1:])
        if np.min(d) <= 1e-9:
            raise PreconditionError(
                "contour column hits a filtration point at the working level"
            )


def convolve_at(phi: Germ, psi: Germ, grid: DeformationGrid, j: int,
                n_q: int = 16, cfg: ConvolveConfig | None = None) -> complex:
    """Value of the convolution at gamma(t_j) on a deformation grid.

    Integrates phi(H(s)) * psi(gamma(t_j) - H(s)) * dH/ds over the column
    of the grid at time node j.  phi travels along the column against the
    first set, psi along the mirror column against the second; between
    samples the contour is a local cubic and the quadrature is composite
    Gauss-Legendre of order n_q per cell.
    """
    cfg = cfg or ConvolveConfig()
    n_s = grid.n_s
    if n_q < 2:
        # order >= 2 integrates the interpolant derivative exactly per cell,
        # which keeps constant integrands telescoping to the endpoint
        raise PreconditionError("quadrature order must be at least 2")
    if not 0 <= j <= grid.n_t:
        raise PreconditionError(f"time index {j} outside the grid")
    col = grid.H[:, j]
    mir = grid.H_star[:, j]
    gj = col[-1]
    _check_column(col, grid.set_a, grid.level)
    _check_column(mir, grid.set_b, grid.level)

    pref_col = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(col)))])
    pref_mir = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(mir)))])
    frames_phi = _continue_frames(phi, col, pref_col, grid.set_a, cfg)
    frames_psi = _continue_frames(psi, mir, pref_mir, grid.set_b, cfg)

    xi, w, stencils, bval, bder = _cell_rule(n_s, n_q)
    h = 1.0 / n_s
    samples = col[stencils]                  # (n_s, 4)
    Z = np.einsum("cm,cmg->cg", samples, bval)
    dZ = np.einsum("cm,cmg->cg", samples, bder) / h

    cells = np.arange(n_s)[:, None]
    anchor_phi = np.where(xi[None, :] < 0.5, cells, cells + 1)
    anchor_psi = n_s - anchor_phi

    phi_vals = _frames_eval(frames_phi, Z, anchor_phi)
    psi_vals = _frames_eval(frames_psi, gj - Z, anchor_psi)
    value = complex(np.sum(w[None, :] * phi_vals * psi_vals * dZ) * h)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ToleranceError("non-finite convolution quadrature")
    return value


def convolve_along(phi: Germ, psi: Germ, gamma: Path, set_a: FilteredSet,
                   set_b: FilteredSet,
                   cfg: ConvolveConfig | None = None) -> ContinuationTrace:
    """Convolution of two germs continued along gamma.

    Builds the deformation grid for (gamma, set_a, set_b) at the working
    level (midpoint of the admissible interval of seed+gamma against the
    fine sum when not configured), then integrates every time column.  The
    radius estimates in the returned trace are feasibility radii against
    the fine sum.
    """
    cfg = cfg or ConvolveConfig()
    fine = set_a.fine_sum(set_b)
    _, iv = seed_levels(gamma, fine)
    level = cfg.level if cfg.level is not None else 0.5 * (iv.lower + iv.upper)
    grid = deform(gamma, set_a, set_b, level, n_s=cfg.n_s, n_t=cfg.n_t,
                  eps_den=cfg.eps_den, delta_len=cfg.delta_len)
    values = np.array(
        [convolve_at(phi, psi, grid, j, n_q=cfg.n_q, cfg=cfg)
         for j in range(grid.n_t + 1)], dtype=complex)
    prefix = abs(gamma.start) + grid.t_nodes * gamma.length
    radii = local_radii(grid.gamma_values(), prefix, fine)
    return ContinuationTrace(gamma, grid.t_nodes.copy(), values, radii, grid=grid)


# -- singularity probe -------------------------------------------------------


@dataclass
class ProbeReport:
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


def _detour_route(seed: complex, target: complex, obstacles, clearance: float,
                  arc_segments: int = 8) -> list[complex]:
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
        for k in range(arc_segments + 1):
            verts.append(o + clearance * cmath.exp(1j * (phi0 - k * math.pi / arc_segments)))
    verts.append(target)
    return _dedupe_consecutive(verts, 1e-12)


def singularity_probe(phi: Germ, psi: Germ, set_a: FilteredSet,
                      set_b: FilteredSet, candidate: complex, radius: float,
                      seed: complex | None = None,
                      cfg: ConvolveConfig | None = None,
                      circle_segments: int = 16) -> ProbeReport:
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
    circle = [candidate + radius * cmath.exp(1j * (phi0 + TWO_PI * k / circle_segments))
              for k in range(1, circle_segments)]
    circle.append(p0)  # close the polygon exactly
    loop = Path(route + circle)
    start_index = len(route) - 1  # vertex where the circle begins and ends

    trace = convolve_along(phi, psi, loop, set_a, set_b, cfg)
    fracs = loop.vertex_fractions()
    t_start = fracs[start_index]
    k_start = int(np.argmin(np.abs(trace.ts - t_start)))
    if abs(trace.ts[k_start] - t_start) > 1e-9:
        raise PreconditionError("circle start did not land on a time node")

    circle_vals = trace.values[k_start:]
    circle_pts = trace.grid.gamma_values()[k_start:]
    scale = float(np.max(np.abs(circle_vals)))
    scale = max(scale, 1e-300)
    defect = abs(trace.values[-1] - trace.values[k_start]) / scale
    ring = complex(np.sum(0.5 * (circle_vals[1:] + circle_vals[:-1])
                          * np.diff(circle_pts)))
    ring_rel = abs(ring) / (TWO_PI * radius * scale)
    singular = defect > cfg.tol_mono or ring_rel > cfg.tol_mono
    return ProbeReport(
        classification="singular-like" if singular else "regular",
        defect_rel=float(defect), ring_rel=float(ring_rel), loop=loop,
        level=trace.grid.level, scale=scale,
        value_before=complex(trace.values[k_start]),
        value_after=complex(trace.values[-1]), trace=trace,
    )
