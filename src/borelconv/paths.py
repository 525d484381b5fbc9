"""Polyline paths and their admissibility against a filtered set.

Paths are piecewise linear with the standardized arclength parametrization
t in [0, 1]; polylines keep lengths and point incidences exact, curved
inputs must be pre-sampled by the caller.  A path is allowed at budget L
when it is shorter than L and, after leaving the centre, avoids every
member at level L.  The set of admissible budgets is an interval
(length, h] with h the smallest level hit by the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .filtered_set import FilteredSet

# An entry within this distance of the path counts as hit (conservative
# for admissibility); concatenation endpoints must agree to 1e-12.
INCIDENCE_TOL = 1e-9
CONCAT_TOL = 1e-12
# (point, entry) pairs per block of `local_radii`: its temporaries are
# bounded by this, not by the number of points
RADII_BLOCK = 1 << 16


class Path:
    """Polyline in the complex plane, at least one vertex, consecutive
    vertices distinct."""

    def __init__(self, vertices):
        self._verts = np.array(vertices if isinstance(vertices, np.ndarray) else list(vertices),
                               dtype=complex)
        if self._verts.ndim != 1 or not len(self._verts):
            raise PreconditionError("a path needs a sequence of at least one vertex")
        if not np.isfinite(self._verts).all():
            raise PreconditionError("path vertices must be finite")
        diffs = np.diff(self._verts)
        if (diffs == 0).any():
            raise PreconditionError("consecutive vertices must be distinct")
        self.seg_lengths = np.abs(diffs)
        self.seg_dirs = diffs / self.seg_lengths if len(diffs) else diffs
        self.cum_lengths = np.concatenate([[0.0], np.cumsum(self.seg_lengths)])
        self.length = float(self.cum_lengths[-1])

    @property
    def vertices(self) -> tuple[complex, ...]:
        return tuple(self._verts.tolist())

    @property
    def start(self) -> complex:
        return complex(self._verts[0])

    @property
    def end(self) -> complex:
        return complex(self._verts[-1])

    @property
    def n_segments(self) -> int:
        return len(self._verts) - 1

    def is_constant(self) -> bool:
        return len(self._verts) == 1

    def vertex_fractions(self) -> np.ndarray:
        """Standardized t of each vertex (arclength fractions)."""
        if self.is_constant():
            return np.zeros(1)
        return self.cum_lengths / self.length

    def segments_at(self, ts):
        """Index of the segment holding each standardized parameter (t
        clamped to [0, 1]); a vertex belongs to the segment it starts."""
        u = np.clip(ts, 0.0, 1.0) * self.length
        k = np.searchsorted(self.cum_lengths, u, side="right") - 1
        return np.clip(k, 0, max(self.n_segments - 1, 0))

    def points_at(self, ts, segs=None) -> np.ndarray:
        """Points at standardized parameters ts (scalar or array).

        Without `segs` each t is clamped to [0, 1] and located on its
        segment.  With `segs` (same shape as ts, or one that broadcasts
        against it) t is read on the line of the named segment, unclamped:
        a flow step that ends on a vertex keeps the segment it integrated
        on.
        """
        if self.is_constant():
            return np.full(np.shape(ts), self._verts[0])
        if segs is None:
            segs = self.segments_at(ts)
            ts = np.clip(ts, 0.0, 1.0)
        u = ts * self.length - self.cum_lengths[segs]
        return self._verts[segs] + self.seg_dirs[segs] * u

    def point_at(self, t: float) -> complex:
        """Point at standardized parameter t in [0, 1]."""
        return complex(self.points_at(float(t)))

    def sample(self, n: int):
        """(t, z, s) arrays: n uniform parameters merged with all vertices."""
        ts = np.linspace(0.0, 1.0, max(int(n), 2))
        ts = np.unique(np.concatenate([ts, self.vertex_fractions()]))
        zs = self.points_at(ts)
        ss = ts * self.length
        return ts, zs, ss


def concat(a: Path, b: Path) -> Path:
    """Concatenation; b must start where a ends (1e-12)."""
    if abs(a.end - b.start) > CONCAT_TOL:
        raise PreconditionError(f"paths do not meet: {a.end} vs {b.start}")
    return Path(np.concatenate([a._verts, b._verts[1:]]))


def reverse(a: Path) -> Path:
    """The inverse path, vertices in reverse order; length is preserved."""
    return Path(a._verts[::-1])


def _dedupe_consecutive(zs, tol: float) -> np.ndarray:
    """Vertices with each one within `tol` of the last one kept dropped,
    so that the rest can form a Path."""
    zs = np.asarray(zs, dtype=complex)
    d = np.diff(zs)
    # every step longer than tol: each vertex is kept, its last kept vertex
    # being its predecessor (np.hypot has the bits of abs(complex))
    if (np.hypot(d.real, d.imag) > tol).all():
        return zs
    out = [complex(zs[0])]
    for z in zs[1:].tolist():
        if abs(z - out[-1]) > tol:
            out.append(z)
    return np.array(out)


@dataclass(frozen=True)
class AdmissibleLevelInterval:
    """Budgets L at which a path is allowed: (lower, upper], lower the path
    length (excluded), upper at most the horizon (included)."""

    lower: float
    upper: float

    @property
    def empty(self) -> bool:
        return not (self.lower < self.upper)

    def contains(self, L: float) -> bool:
        return self.lower < L <= self.upper


def _segment_distances(points: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Min distance of each point to the union of segments.  points (m,),
    starts/ends (n,) complex; returns (m,).  A zero-length segment counts
    as its point."""
    if len(starts) == 0:
        return np.full(len(points), np.inf)
    d = ends - starts  # (n,)
    ap = points[:, None] - starts[None, :]  # (m, n)
    denom = d.real ** 2 + d.imag ** 2
    tproj = np.divide(ap.real * d.real + ap.imag * d.imag, denom,
                      out=np.zeros(ap.shape), where=denom > 0.0)
    tproj = np.clip(tproj, 0.0, 1.0)
    closest = starts[None, :] + tproj * d[None, :]
    return np.abs(points[:, None] - closest).min(axis=1)


def _hit_levels(path: Path, fset: FilteredSet) -> float:
    """Smallest entry level incident to the path (horizon if none hit);
    0.0 when the path returns to the centre after departure."""
    if path.is_constant():
        return fset.horizon
    starts, ends = path._verts[:-1], path._verts[1:]
    # a return to the centre on any segment after the first kills every level
    if path.n_segments > 1:
        dc = _segment_distances(np.array([fset.centre]), starts[1:], ends[1:])[0]
        if dc <= INCIDENCE_TOL:
            return 0.0
    hit = _segment_distances(fset.points, starts, ends) <= INCIDENCE_TOL
    return min(fset.horizon, float(fset.levels[hit].min(initial=math.inf)))


def admissible_levels(path: Path, fset: FilteredSet) -> AdmissibleLevelInterval:
    """Admissible budget interval of a path against a filtered set.

    The path must start at the centre.  It avoids members(L) iff every
    entry it meets has level >= L; combined with length < L the admissible
    budgets are exactly (length, min(h, horizon)] with h the smallest level
    met.  Interior returns to the centre itself are forbidden (the centre
    is a member at every level).
    """
    if abs(path.start - fset.centre) > INCIDENCE_TOL:
        raise PreconditionError("path must start at the set centre")
    h = _hit_levels(path, fset)
    return AdmissibleLevelInterval(path.length, min(h, fset.horizon))


def is_allowed(path: Path, fset: FilteredSet) -> bool:
    return not admissible_levels(path, fset).empty


def local_radii(zs, prefix, fset: FilteredSet) -> np.ndarray:
    """Feasible ball radius at each point reached with arclength `prefix`
    (arrays that broadcast together, or scalars).

    A radius r around z is feasible iff every entry within distance r has
    level at least prefix + r, and the budget stays within the horizon:
    r_max = min(horizon - prefix, min_p max(|p - z|, level(p) - prefix)).
    Points are taken in blocks of about RADII_BLOCK (point, entry) pairs,
    so the temporaries stay bounded whatever the number of points.
    """
    zs, prefix = np.broadcast_arrays(np.asarray(zs), np.asarray(prefix))
    z, pre = zs.ravel(), prefix.ravel()
    out = np.empty(z.shape)
    step = max(1, RADII_BLOCK // max(len(fset.points), 1))
    for i in range(0, len(z), step):
        zb, pb = z[i:i + step], pre[i:i + step]
        cand = np.maximum(np.abs(fset.points - zb[:, None]), fset.levels - pb[:, None])
        out[i:i + step] = np.minimum(fset.horizon - pb,
                                     np.minimum.reduce(cand, axis=-1, initial=math.inf))
    return out.reshape(zs.shape)


def local_radius(z: complex, prefix: float, fset: FilteredSet) -> float:
    """Feasible ball radius at one point (see `local_radii`)."""
    return float(local_radii(z, prefix, fset))


def distance_to_set(path: Path, fset: FilteredSet, n_samples: int | None = None) -> float:
    """Computable lower bound for the distance of an allowed path to the
    filtered set: the min over sampled prefixes of the feasible ball
    radius.  Never exceeds the true distance (which infimizes over the
    whole deformation class of the path); always positive for an allowed
    path.  Default sampling: 256 per unit length plus all vertices (the
    minimand only kinks at vertices and equidistance loci).
    """
    iv = admissible_levels(path, fset)
    if iv.empty:
        raise PreconditionError("path is not allowed for this set")
    if n_samples is None:
        n_samples = int(math.ceil(256 * max(1.0, path.length)))
    _, zs, ss = path.sample(n_samples)
    return float(local_radii(zs, ss, fset).min())


def _wrap_angle(x: float) -> float:
    return (x + math.pi) % (2 * math.pi) - math.pi


def is_directional(path: Path, theta: float, alpha: float) -> bool:
    """True iff every segment direction lies in the open arc
    (theta - alpha, theta + alpha).  Requires 0 < alpha < pi/2; vacuously
    true for a constant path."""
    if not (0.0 < alpha < math.pi / 2):
        raise PreconditionError("alpha must lie in (0, pi/2)")
    for d in path.seg_dirs:
        if abs(_wrap_angle(math.atan2(d.imag, d.real) - theta)) >= alpha:
            return False
    return True
