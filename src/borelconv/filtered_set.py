"""Finite truncations of discrete filtered sets and their algebra.

A filtered set assigns to every budget ``L > 0`` a finite point set
``members(L)`` inside the open disc of radius ``L`` around a centre.  We
store the inverse of that filtration: each entry carries the level at
which it enters.  Membership is strict, ``p in members(L)`` iff
``level(p) < L`` (the centre belongs to every level).  With levels
``k*|w|`` for the lattice points ``k*w`` this reproduces the block
structure ``members(L) = {0, +-w, ..., +-n*w}`` for ``L`` in
``(n|w|, (n+1)|w|]``.

Everything here is exact finite data: the truncation is only specified up
to a horizon, all operations propagate ``horizon = min`` of their inputs
and refuse queries beyond it.  Values are immutable after construction and
all operations are pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

# Two candidate points closer than this are the same point (sums produce
# near-duplicate representations); levels compare at 1e-12.
POINT_TOL = 1e-9
LEVEL_TOL = 1e-12


def _modulus(z: np.ndarray) -> np.ndarray:
    # the bits of abs(complex); np.abs of a complex array rounds differently
    return np.hypot(z.real, z.imag)


def _outside_disc(dist, level):
    """The disc test of an entry at distance `dist` from the centre (arrays
    or floats): it lies outside the closed disc of radius `level`."""
    return dist > level * (1.0 + 1e-12) + 1e-15


def _dedupe_points(points: np.ndarray, levels: np.ndarray, centre: complex):
    """Cluster points within POINT_TOL, keeping the min level per cluster.

    Sort-sweep on the real part; clusters are tiny for the data sizes we
    handle (sums of at most a few dozen generators).  A cluster is the
    points within POINT_TOL of its first point in (re, im) order, and keeps
    that point unless it lies outside the disc of the cluster's level; it
    then keeps the point that came with that level, which can lie within
    POINT_TOL of another cluster's point, so the kept points are clustered
    again.
    """
    order = np.lexsort((points.imag, points.real))
    firsts: list[complex] = []
    out_pts: list[complex] = []
    out_lvl: list[float] = []
    moved = False
    for p, lv in zip(points[order].tolist(), levels[order].tolist()):
        merged = False
        for k in range(len(firsts) - 1, -1, -1):
            if p.real - firsts[k].real > POINT_TOL:
                break
            if abs(p - firsts[k]) <= POINT_TOL:
                if lv < out_lvl[k]:
                    out_lvl[k] = lv
                    outside = _outside_disc(abs(firsts[k] - centre), lv)
                    out_pts[k] = p if outside else firsts[k]
                    moved = moved or outside
                merged = True
                break
        if not merged:
            firsts.append(p)
            out_pts.append(p)
            out_lvl.append(lv)
    points, levels = np.array(out_pts, dtype=complex), np.array(out_lvl, dtype=float)
    return _dedupe_points(points, levels, centre) if moved else (points, levels)


class FilteredSet:
    """Truncated discrete filtered set: centre, (point, level) entries, horizon.

    Entries come as (point, level) pairs or an (n, 2) complex array of them
    and are held as the arrays `points` and `levels`, sorted by (level, re,
    im); `entries` is derived from them.  Invariants enforced at construction:
      * centre, points and levels are finite;
      * the centre is not an entry; entries are pairwise distinct (1e-9);
      * ``|p - centre| <= level(p)`` for every entry, so members(L) lies in
        the open disc D(centre, L) under the strict membership rule;
      * ``0 < level < horizon``; entries at or beyond the horizon are
        silently dropped (the truncation does not know about them).
    """

    def __init__(self, centre, entries=(), horizon=1.0):
        pairs = np.array(entries if isinstance(entries, np.ndarray) else list(entries), dtype=complex)
        if pairs.size and pairs.shape[1:] != (2,) or pairs[..., 1:].imag.any():
            raise PreconditionError("entries must be (point, real level) pairs")
        points, levels = pairs.reshape(-1, 2).T
        levels = levels.real
        centre = complex(centre)
        horizon = float(horizon)
        if not cmath.isfinite(centre):
            raise PreconditionError(f"centre must be finite, got {centre}")
        if not (horizon > 0.0 and math.isfinite(horizon)):
            raise PreconditionError("horizon must be a positive finite real")
        if not np.isfinite(points).all():
            raise PreconditionError("entry points must be finite")
        bad = ~((levels > 0.0) & np.isfinite(levels))
        if bad.any():
            raise PreconditionError(f"entry level must be positive and finite, got {levels[bad][0]}")
        keep = levels < horizon
        points, levels = points[keep], levels[keep]
        dist = _modulus(points - centre)
        if (dist <= POINT_TOL).any():
            raise PreconditionError("centre cannot be an entry point")
        out = _outside_disc(dist, levels)
        if out.any():
            raise PreconditionError(f"entry {points[out][0]} at level {levels[out][0]} "
                                    "lies outside the closed disc of radius level")
        points, levels = _dedupe_points(points, levels, centre)
        order = np.lexsort((points.imag, points.real, levels))
        self.centre = centre
        self.horizon = horizon
        self.points = points[order]
        self.levels = levels[order]
        self.points.flags.writeable = self.levels.flags.writeable = False

    @property
    def entries(self) -> tuple[tuple[complex, float], ...]:
        return tuple(zip(self.points.tolist(), self.levels.tolist()))

    # -- basic queries ---------------------------------------------------

    @property
    def rho(self) -> float:
        """Distance of the centre to the filtered set: min entry level, or
        the horizon when there are no entries."""
        return float(self.levels.min()) if len(self.levels) else self.horizon

    def level_of(self, p) -> float | None:
        """Level at which `p` enters the filtration: 0 for the centre,
        the stored level for an entry, None otherwise."""
        p = complex(p)
        if abs(p - self.centre) <= POINT_TOL:
            return 0.0
        hit = self.levels[_modulus(self.points - p) <= POINT_TOL]
        return float(hit[0]) if len(hit) else None

    def _check_level(self, L) -> float:
        """L as a float; raises unless 0 < L <= horizon, beyond which the
        truncation is silent."""
        L = float(L)
        if not L > 0.0:
            raise PreconditionError("level must be positive")
        if L > self.horizon * (1.0 + 1e-12):
            raise PreconditionError(f"level {L} is beyond horizon {self.horizon}")
        return L

    def at_level(self, L) -> list[complex]:
        """Members at budget L: the centre plus every entry with level < L.

        Monotone in L.  Raises unless 0 < L <= horizon.
        """
        return [self.centre] + self.points[self.levels < self._check_level(L)].tolist()

    def entries_at(self, L) -> list[tuple[complex, float]]:
        """Entries with level < L (members without the centre).  Raises
        unless 0 < L <= horizon."""
        below = self.levels < self._check_level(L)
        return list(zip(self.points[below].tolist(), self.levels[below].tolist()))

    # -- algebra ---------------------------------------------------------

    def _check_same_centre(self, other: "FilteredSet"):
        if abs(self.centre - other.centre) > POINT_TOL:
            raise PreconditionError(
                f"centres differ: {self.centre} vs {other.centre}"
            )

    def union(self, other: "FilteredSet") -> "FilteredSet":
        """Pointwise union of the filtrations; shared points take the min
        level, horizon is the min of the horizons."""
        self._check_same_centre(other)
        pairs = np.column_stack([np.append(self.points, other.points),
                                 np.append(self.levels, other.levels)])
        return FilteredSet(self.centre, pairs, min(self.horizon, other.horizon))

    def _pair_sum(self, other: "FilteredSet", fine: bool) -> "FilteredSet":
        """The set of candidate points -centre + p + q over member pairs,
        each with the level of its representation.  Levels: max(lp, lq,
        |c-centre|) for the plain sum (both factors and the result must fit
        in the same budget), lp + lq for the fine sum (the budget splits)."""
        self._check_same_centre(other)
        w = self.centre
        # members of self down the rows, of other along the columns
        pa, la = np.append(w, self.points)[:, None], np.append(0.0, self.levels)[:, None]
        pb, lb = np.append(w, other.points), np.append(0.0, other.levels)
        c = (pa + pb) - w
        dist = _modulus(c - w)
        lv = la + lb if fine else np.maximum(np.maximum(la, lb), dist)
        keep = dist > POINT_TOL  # the centre is never an entry
        return FilteredSet(w, np.column_stack([c[keep], lv[keep]]), min(self.horizon, other.horizon))

    def sum(self, other: "FilteredSet") -> "FilteredSet":
        """Plain sum: members at L are the pairwise sums of members at L
        that land inside the open disc of radius L."""
        return self._pair_sum(other, fine=False)

    def fine_sum(self, other: "FilteredSet") -> "FilteredSet":
        """Fine sum: members at L are sums p + q reachable with split
        budgets L1 + L2 = L.  A pair is reachable iff lp + lq < L, which is
        the stored level.  Note lp + lq >= max(lp, lq, |c-centre|), so the
        fine sum refines the plain sum and the disc invariant holds for
        free."""
        return self._pair_sum(other, fine=True)

    def saturate(self) -> "FilteredSet":
        """Stabilised iterated fine sums within the horizon.

        A compound point with k non-centre summands has level at least
        k*rho, so ceil(horizon/rho) rounds suffice; we additionally stop as
        soon as a round adds nothing and lowers no level.
        """
        if not len(self.levels):
            return self
        max_rounds = int(math.ceil(self.horizon / self.rho)) + 1
        acc = self
        for _ in range(max_rounds):
            nxt = acc.fine_sum(self)
            if _same_entries(acc, nxt):
                return nxt
            acc = nxt
        return acc

    # -- misc ------------------------------------------------------------

    def __repr__(self):
        return (f"FilteredSet(centre={self.centre}, entries={len(self.levels)}, "
                f"horizon={self.horizon})")

    def __eq__(self, other):
        if not isinstance(other, FilteredSet):
            return NotImplemented
        return (abs(self.centre - other.centre) <= POINT_TOL
                and abs(self.horizon - other.horizon) <= LEVEL_TOL
                and _same_entries(self, other))

    # equality is tolerant, so no hash can agree with it
    __hash__ = None


def _same_entries(a: FilteredSet, b: FilteredSet) -> bool:
    """Equal entry lists up to order: points within 1e-9, levels within 1e-12."""
    ea, eb = a.entries, b.entries
    if len(ea) != len(eb):
        return False
    used = [False] * len(eb)
    for p, lv in ea:
        for k, (q, lw) in enumerate(eb):
            if not used[k] and abs(p - q) <= POINT_TOL and abs(lv - lw) <= max(LEVEL_TOL, LEVEL_TOL * lv):
                used[k] = True
                break
        else:
            return False
    return True


# -- directional glimpse -------------------------------------------------

RAY_TOL = POINT_TOL
# glimpse_angle stays this far below the angle of the nearest off-ray member.
GLIMPSE_RESOLUTION = 1e-6


@dataclass(frozen=True)
class DirectionalGlimpse:
    """Points on the open ray from the centre in direction theta that a
    forward path along the ray cannot dodge for free, ordered by distance.
    `includes_centre` marks the completed set (glimpsed points plus the
    centre itself)."""

    centre: complex
    direction: float
    points: tuple[tuple[complex, float], ...]
    includes_centre: bool = False

    def completed(self) -> "DirectionalGlimpse":
        return DirectionalGlimpse(self.centre, self.direction, self.points, True)

    @property
    def seen(self) -> complex | None:
        """First glimpsed point on the ray, if any."""
        return self.points[0][0] if self.points else None

    def point_list(self) -> list[complex]:
        pts = [p for p, _ in self.points]
        return ([self.centre] + pts) if self.includes_centre else pts


def _ray_offset(p: complex, centre: complex, theta: float):
    """(along, across) coordinates of p in the frame of the ray."""
    u = (p - centre) * cmath.exp(-1j * theta)
    return u.real, u.imag


def _ray_entries(fset: FilteredSet, theta: float):
    out = []
    for p, lv in fset.entries:
        along, across = _ray_offset(p, fset.centre, theta)
        if along > RAY_TOL and abs(across) <= RAY_TOL:
            out.append((along, p, lv))
    out.sort(key=lambda t: t[0])
    return out


def _wrap_direction(theta: float) -> float:
    """theta reduced to [0, 2 pi); raises unless it is finite."""
    if not math.isfinite(theta):
        raise PreconditionError(f"direction must be finite, got {theta}")
    return float(theta) % (2 * math.pi)


def glimpsed(fset: FilteredSet, theta: float) -> DirectionalGlimpse:
    """Glimpsed points in direction theta, closed form.

    A ray entry is glimpsed iff it enters the filtration no later than its
    distance from the centre, level(p) <= |p - centre|; together with the
    disc invariant this pins level(p) == |p - centre|.  Entries that hide
    behind a larger level are removable for ray-hugging paths.  The
    boundary case level == distance is classified glimpsed.
    """
    direction = _wrap_direction(theta)
    pts = [(p, lv) for along, p, lv in _ray_entries(fset, theta)
           if lv <= along + RAY_TOL]
    return DirectionalGlimpse(fset.centre, direction, tuple(pts))


def glimpsed_by_filtration(fset: FilteredSet, theta: float) -> DirectionalGlimpse:
    """Glimpsed points by walking the ray filtration block by block.

    Independent oracle for :func:`glimpsed`.  The ray members change only
    at the distinct entry levels L_0 < L_1 < ...; crossing into the block
    above L_i can add at most the point sitting at distance exactly L_i,
    every other newcomer is strictly inside the already-cleared disc and
    stays removable.
    """
    direction = _wrap_direction(theta)
    ray = _ray_entries(fset, theta)
    if not ray:
        return DirectionalGlimpse(fset.centre, direction, ())
    breakpoints = sorted({lv for _, _, lv in ray})
    picked: list[tuple[complex, float]] = []
    # block above breakpoints[i] has ray members with level <= breakpoints[i]
    for i, bp in enumerate(breakpoints):
        upper = breakpoints[i + 1] if i + 1 < len(breakpoints) else fset.horizon
        if upper <= bp:
            continue
        members = [(along, p, lv) for along, p, lv in ray if lv <= bp + LEVEL_TOL]
        for along, p, lv in members:
            if abs(along - bp) <= RAY_TOL and all(abs(p - q) > POINT_TOL for q, _ in picked):
                picked.append((p, lv))
                break
    picked.sort(key=lambda t: abs(t[0] - fset.centre))
    return DirectionalGlimpse(fset.centre, direction, tuple(picked))


def seen(fset: FilteredSet, theta: float) -> complex | None:
    """The seen point in direction theta: first glimpsed point, if any."""
    return glimpsed(fset, theta).seen


def glimpse_angle(fset: FilteredSet, theta: float, L: float) -> float:
    """Largest half-opening alpha < pi/2 (up to GLIMPSE_RESOLUTION) such
    that the open sector of radius L around direction theta meets
    members(L) only in ray points.

    Computed from the angular offsets of the off-ray members; when a member
    hugs the ray closer than the resolution, half its offset is returned so
    the result stays positive.
    """
    _wrap_direction(theta)  # refuses a non-finite theta
    cap = math.pi / 2
    for p, lv in fset.entries_at(L):
        along, across = _ray_offset(p, fset.centre, theta)
        if along > RAY_TOL and abs(across) <= RAY_TOL:
            continue  # ray points are permitted in the sector
        off = abs(cmath.phase((p - fset.centre) * cmath.exp(-1j * theta)))
        cap = min(cap, off)
    alpha = cap - GLIMPSE_RESOLUTION
    return alpha if alpha > 0.0 else cap / 2.0


def glimpsed_sum_points(a: FilteredSet, b: FilteredSet, theta: float) -> list[complex]:
    """Pairwise sums of the completed glimpsed sets of `a` and `b` in
    direction theta, minus the centre.  This is the predicted superset for
    the singular ray points of a convolution of germs continuable over
    `a` and `b`."""
    ga = glimpsed(a, theta).completed().point_list()
    gb = glimpsed(b, theta).completed().point_list()
    w = a.centre
    out: list[complex] = []
    for p in ga:
        for q in gb:
            c = p + q - w
            if abs(c - w) <= POINT_TOL:
                continue
            if all(abs(c - r) > POINT_TOL for r in out):
                out.append(c)
    out.sort(key=lambda z: abs(z - w))
    return out
