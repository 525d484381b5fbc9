"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the library code paths they check: set
membership is decided by enumerating pair decompositions per budget value,
path admissibility by a direct avoid-the-members test, point-segment
distances by a naive scalar routine, and the convolution of two poles by
its closed form continued along a dense polyline.
"""

import cmath
import math

import numpy as np
import pytest

from borelconv import FilteredSet, Germ, Path, singularity_probe


# -- random data -------------------------------------------------------------


def random_set(rng, max_entries=8, horizon=None, min_level=1.2, centre=0.0):
    """Random filtered set with well-separated entries on a coarse grid so
    tolerance clustering is never ambiguous."""
    horizon = horizon if horizon is not None else rng.uniform(4.0, 10.0)
    n = rng.integers(0, max_entries + 1)
    entries = []
    seen_pts = []
    for _ in range(n):
        lv = round(rng.uniform(min_level, horizon * 0.95), 3)
        r = round(rng.uniform(0.25, 1.0) * lv, 3)
        if r <= 1e-3:
            continue
        ang = rng.integers(0, 360) * math.pi / 180.0
        p = complex(centre) + r * cmath.exp(1j * ang)
        if any(abs(p - q) < 1e-3 for q in seen_pts):
            continue
        seen_pts.append(p)
        entries.append((p, max(lv, abs(p - centre) + 1e-9)))
    return FilteredSet(centre, entries, horizon)


def random_path(rng, start=0.0, n_segments=None, scale=1.0):
    n_segments = n_segments if n_segments is not None else int(rng.integers(1, 5))
    verts = [complex(start)]
    for _ in range(n_segments):
        step = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        if abs(step) < 1e-3:
            step = scale * 0.1
        verts.append(verts[-1] + step)
    return Path(verts)


# -- independent geometry ----------------------------------------------------


def naive_point_segment_distance(p, a, b):
    ab = b - a
    denom = abs(ab) ** 2
    t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom
    t = min(max(t, 0.0), 1.0)
    return abs(p - (a + t * ab))


def naive_path_hits(path, point, tol=1e-9, skip_first_segment=False):
    vs = path.vertices
    segs = list(zip(vs[:-1], vs[1:]))
    if skip_first_segment:
        segs = segs[1:]
    return any(naive_point_segment_distance(point, a, b) <= tol for a, b in segs)


def brute_allowed(path, fset, L):
    """Direct admissibility test at one budget: shorter than L, avoid every
    entry below L and never return to the centre after departure."""
    if path.length >= L:
        return False
    if L > fset.horizon * (1 + 1e-12):
        raise ValueError("budget beyond horizon")
    if not path.is_constant() and len(path.vertices) > 2:
        if naive_path_hits(path, fset.centre, skip_first_segment=True):
            return False
    for p, lv in fset.entries:
        if lv < L and naive_path_hits(path, p):
            return False
    return True


# -- set algebra oracle -------------------------------------------------------


def _cluster_ids(points, tol=1e-9):
    reps = []
    ids = []
    for p in points:
        for k, q in enumerate(reps):
            if abs(p - q) <= tol:
                ids.append(k)
                break
        else:
            reps.append(p)
            ids.append(len(reps) - 1)
    return reps, np.array(ids)


def check_algebra_against_decompositions(a, b, op, L_grid):
    """Compare members-by-stored-level of union/sum/fine-sum against a
    direct enumeration of pair decompositions on a grid of budgets.
    Returns the number of budgets checked; raises AssertionError on any
    mismatch."""
    w = a.centre
    result = {"union": a.union, "sum": a.sum, "fine": a.fine_sum}[op](b)
    mem_a = [(w, 0.0)] + list(a.entries)
    mem_b = [(w, 0.0)] + list(b.entries)

    cand_pts, cand_lo, cand_hi = [], [], []
    if op == "union":
        for p, lv in list(a.entries) + list(b.entries):
            cand_pts.append(p)
            cand_lo.append(lv)          # active iff lv < L
            cand_hi.append(math.inf)    # no disc condition beyond invariants
    else:
        for p, lp in mem_a:
            for q, lq in mem_b:
                c = p + q - w
                if abs(c - w) <= 1e-9:
                    continue
                cand_pts.append(c)
                if op == "sum":
                    cand_lo.append(max(lp, lq, abs(c - w)))
                else:
                    # a split L1 + L2 = L with lp < L1 and lq < L2 exists
                    # iff lp + lq < L
                    cand_lo.append(lp + lq)
                cand_hi.append(math.inf)
    all_pts = cand_pts + [p for p, _ in result.entries]
    reps, ids = _cluster_ids(all_pts)
    n_cand = len(cand_pts)
    cand_ids = ids[:n_cand]
    res_ids = ids[n_cand:]
    res_lv = np.array([lv for _, lv in result.entries])
    cand_lo = np.array(cand_lo)

    for L in L_grid:
        brute = set()
        for cid, lo in zip(cand_ids, cand_lo):
            if lo < L:
                brute.add(int(cid))
        stored = {int(cid) for cid, lv in zip(res_ids, res_lv) if lv < L}
        assert brute == stored, (
            f"{op} mismatch at L={L}: brute {sorted(brute)} vs stored {sorted(stored)}"
        )
    return len(L_grid)


def sets_equal(a, b, tol_pt=1e-9, tol_lv=1e-9):
    if len(a.entries) != len(b.entries):
        return False
    used = [False] * len(b.entries)
    for p, lv in a.entries:
        hit = False
        for k, (q, lw) in enumerate(b.entries):
            if not used[k] and abs(p - q) <= tol_pt and abs(lv - lw) <= tol_lv:
                used[k] = True
                hit = True
                break
        if not hit:
            return False
    return True


# -- directional configurations ----------------------------------------------


def random_directional_config(rng):
    """A set with several ray points, mixing levels equal to the distance
    (must be glimpsed) and levels above it (removable), plus off-ray
    noise."""
    theta = rng.uniform(0.0, 2 * math.pi)
    horizon = rng.uniform(4.0, 9.0)
    n_ray = int(rng.integers(1, 6))
    ds = np.sort(rng.uniform(0.3, horizon * 0.85, size=n_ray))
    ds = [round(float(d), 3) for d in ds]
    entries = []
    expected = []
    prev = 0.0
    for d in ds:
        if d - prev < 1e-2:
            continue
        prev = d
        p = d * cmath.exp(1j * theta)
        if rng.random() < 0.5:
            entries.append((p, d))
            expected.append(p)
        else:
            lv = round(float(rng.uniform(d * 1.05 + 0.01, horizon * 0.99)), 3)
            if lv >= horizon:
                continue
            entries.append((p, lv))
    for _ in range(int(rng.integers(0, 4))):
        lv = round(float(rng.uniform(0.5, horizon * 0.9)), 3)
        ang = theta + rng.uniform(0.15, 2 * math.pi - 0.15)
        r = round(float(rng.uniform(0.2, 1.0)) * lv, 3)
        if r <= 1e-3:
            continue
        p = r * cmath.exp(1j * ang)
        entries.append((p, max(lv, r + 1e-9)))
    return FilteredSet(0.0, entries, horizon), theta, expected


# -- closed-form convolution ----------------------------------------------------


# A 4-vertex gamma that passes above the point 1 of the pole pair's first
# set {1 @ 1}: the flow bends its contour columns by up to 0.38 away from the
# straight segments [0, gamma(t)].
CURVED_GAMMA = [0.25, 0.7 + 0.3j, 1.3 + 0.3j, 1.6 - 0.1j]


def _polyline_points(verts, ts):
    """Points at arclength fractions ts of the polyline through verts."""
    cum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(verts)))])
    u = np.asarray(ts, dtype=float) * cum[-1]
    return np.interp(u, cum, verts.real) + 1j * np.interp(u, cum, verts.imag)


def _continued_log(u):
    """log u along the sampled curve u (starting at u[0] = 1), the argument
    tracked step by step."""
    ratio = u[1:] / u[:-1]
    assert np.all(np.abs(ratio - 1.0) < 0.5), "polyline too coarse to track the logarithm"
    theta = np.concatenate([[0.0], np.cumsum(np.angle(ratio))])
    return np.log(np.abs(u)) + 1j * theta


def pole_pole_oracle(path, ts=1.0, a=1.0, b=2.0):
    """The convolution of 1/(a - z) and 1/(b - z), continued from 0 along
    the segment to path's start and then along path, at the path's
    parameters ts (arclength fractions).

    The partial fraction 1/((a-h)(b-z+h)) = [1/(a+b-z)] [1/(a-h) + 1/(b-z+h)]
    integrates to [log(a/(a-z)) + log(b/(b-z))] / (a+b-z).  Both logarithms
    are continued by summing the principal angle of each step on a polyline
    of 400 001 points along path (plus ts), after 1 024 on the lead-in
    segment."""
    a, b = complex(a), complex(b)
    verts = np.asarray(path.vertices, dtype=complex)
    ts = np.asarray(ts, dtype=float)
    t_all = np.unique(np.concatenate([np.linspace(0.0, 1.0, 400_001), ts.ravel()]))
    z = np.concatenate([np.linspace(0.0, verts[0], 1024, endpoint=False),
                        _polyline_points(verts, t_all)])
    f = -(_continued_log(1.0 - z / a) + _continued_log(1.0 - z / b)) / (a + b - z)
    return f[1024 + np.searchsorted(t_all, ts)]


def log_probe_oracles(rep, a=1.0, b=2.0, m=256):
    """pole(a)*log_pole(b) and log_pole(a)*log_pole(b) at the circle times
    of a probe of the pole pair's sets, from the closed form of
    P = pole(a)*pole(b).

    d/dz (phi*psi) = phi(z) psi(0) + phi*psi', and log_pole(b) vanishes at 0
    with derivative -pole(b), so pole(a)*log_pole(b) = -int_0^z P, which
    log_pole(a)*pole(b) equals too, and log_pole(a)*log_pole(b) =
    int_0^z int_0^w P.  Both integrals are taken from the centre along the
    segment to the loop's start and then along the loop, by cumulative
    trapezoid sums on 2m points between consecutive time nodes of the
    probe's grid (as many per step on the lead-in), with P continued as in
    `pole_pole_oracle`; Richardson extrapolation from every other point
    removes their O(h^2) error."""
    a, b = complex(a), complex(b)
    loop, nodes = rep.loop, rep.trace.grid.t_nodes
    verts = np.asarray(loop.vertices, dtype=complex)
    t = np.concatenate([np.linspace(t0, t1, 2 * m, endpoint=False)
                        for t0, t1 in zip(nodes[:-1], nodes[1:])] + [[1.0]])
    z_loop = _polyline_points(verts, t)
    n_lead = 2 * m * int(np.ceil(abs(verts[0]) / abs(z_loop[2 * m] - z_loop[0])))
    z = np.concatenate([np.linspace(0.0, verts[0], n_lead, endpoint=False), z_loop])
    p = -(_continued_log(1.0 - z / a) + _continued_log(1.0 - z / b)) / (a + b - z)

    def integrals(f, w):
        def cumulative(g):
            return np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(w))])
        once = cumulative(f)
        return once, cumulative(once)

    (g, gg), (g2, gg2) = integrals(p, z), integrals(p[::2], z[::2])
    at = (n_lead + 2 * m * (len(nodes) - len(rep.trace.ts) + np.arange(len(rep.trace.ts)))) // 2
    single = g[::2][at] + (g[::2][at] - g2[at]) / 3.0
    double = gg[::2][at] + (gg[::2][at] - gg2[at]) / 3.0
    return -single, double


def circle_oracle_error(rep, a=1.0, b=2.0):
    """Largest error of a pole(a)*pole(b) probe's circle values against the
    continued closed form, relative to the largest exact value."""
    want = pole_pole_oracle(rep.loop, rep.trace.ts, a, b)
    return float(np.max(np.abs(rep.trace.values - want)) / np.max(np.abs(want)))


@pytest.fixture(scope="session")
def pole_pair_probes():
    """The criterion-7 probes of pole(1)*pole(2), A = {1 @ 1}, B = {2 @ 2},
    at radius 0.2 on the probe's default grid, by candidate."""
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [(2, 2.0)], 6.0)
    return {c: singularity_probe(Germ.pole(1), Germ.pole(2), a, b, c, 0.2)
            for c in (1.0, 1.5, 2.0, 2.5, 3.0)}
