import math

import numpy as np
import pytest

from borelconv import (
    FilteredSet,
    Path,
    PreconditionError,
    admissible_levels,
    concat,
    distance_to_set,
    is_allowed,
    is_directional,
    local_radius,
    reverse,
)
from borelconv.paths import _dedupe_consecutive, _segment_distances, local_radii
from conftest import brute_allowed, random_path, random_set


# -- construction and geometry -------------------------------------------------


def test_path_length_is_sum_of_segments():
    p = Path([0, 1, 1 + 1j])
    assert p.length == 2.0
    assert np.allclose(p.seg_lengths, [1.0, 1.0])
    assert Path(v for v in [0, 1, 1 + 1j]).vertices == p.vertices  # any iterable


def test_consecutive_duplicates_rejected():
    with pytest.raises(PreconditionError):
        Path([0, 0, 1])


@pytest.mark.parametrize("bad", [[], [[0, 1], [1, 2]]])
def test_empty_or_non_flat_vertices_rejected(bad):
    with pytest.raises(PreconditionError):
        Path(bad)


def test_point_at_standardized():
    p = Path([0, 1, 1 + 1j])
    assert p.point_at(0.25) == 0.5
    assert p.point_at(0.75) == 1 + 0.5j
    assert p.point_at(1.0) == 1 + 1j


def test_constant_path():
    p = Path([2 + 1j])
    assert p.length == 0.0
    assert p.point_at(0.7) == 2 + 1j
    assert p.points_at(np.array([0.0, 0.7])).tolist() == [2 + 1j, 2 + 1j]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, math.nan)])
def test_non_finite_vertex_rejected(bad):
    with pytest.raises(PreconditionError):
        Path([0, bad])


def _point_reference(p, t):
    """Clamp t, find the last segment starting at or before it, walk along."""
    u = min(max(float(t), 0.0), 1.0) * p.length
    k = 0
    while k < p.n_segments - 1 and p.cum_lengths[k + 1] <= u:
        k += 1
    return p.vertices[k] + p.seg_dirs[k] * (u - p.cum_lengths[k])


def test_points_at_matches_reference_bitwise():
    rng = np.random.default_rng(41)
    for _ in range(20):
        p = random_path(rng)
        ts = np.concatenate([rng.uniform(-0.1, 1.1, 300), p.vertex_fractions()])
        want = np.array([_point_reference(p, t) for t in ts])
        assert p.points_at(ts).tobytes() == want.tobytes()
        assert np.array([p.point_at(t) for t in ts]).tobytes() == want.tobytes()


def test_points_at_explicit_segments_extend_their_line():
    p = Path([0, 1, 1 + 1j])
    assert p.points_at(0.5, 0) == 1
    assert p.points_at(0.75, 0) == 1.5
    assert p.points_at(np.array([0.5, 0.5]), np.array([0, 1])).tolist() == [1, 1]


# -- concat / reverse ------------------------------------------------------------


def test_concat_simple():
    c = concat(Path([0, 1]), Path([1, 1 + 1j]))
    assert c.vertices == (0, 1, 1 + 1j)
    assert c.length == 2.0


def test_concat_with_constant_is_identity():
    a = Path([0, 1, 2 + 1j])
    c = concat(a, Path([2 + 1j]))
    assert c.vertices == a.vertices


def test_concat_backtrack_not_reduced():
    c = concat(Path([0, 1]), Path([1, 0]))
    assert c.vertices == (0, 1, 0)
    assert c.length == 2.0


def test_concat_endpoint_mismatch():
    with pytest.raises(PreconditionError):
        concat(Path([0, 1]), Path([1.1, 2]))


def test_reverse():
    a = Path([0, 1, 1 + 1j])
    r = reverse(a)
    assert r.vertices == (1 + 1j, 1, 0)
    assert r.length == a.length
    assert reverse(r).vertices == a.vertices
    assert reverse(Path([3j])).vertices == (3j,)


# -- admissible levels -------------------------------------------------------------


def test_admissible_no_hit():
    s = FilteredSet(0, [(1, 1.0)], 6.0)
    iv = admissible_levels(Path([0, 0.5]), s)
    assert iv.lower == 0.5 and iv.upper == 6.0 and not iv.empty


def test_admissible_hit_below_length_is_empty():
    s = FilteredSet(0, [(1, 1.0)], 5.0)
    iv = admissible_levels(Path([0, 1.5]), s)
    assert iv.lower == 1.5 and iv.upper == 1.0 and iv.empty


def test_admissible_removable_hit():
    s = FilteredSet(0, [(1, 2.0)], 5.0)
    iv = admissible_levels(Path([0, 1.5]), s)
    assert iv.lower == 1.5 and iv.upper == 2.0 and not iv.empty
    assert iv.contains(1.8) and not iv.contains(2.2)


def test_admissible_requires_start_at_centre():
    s = FilteredSet(0, [(1, 1.0)], 5.0)
    with pytest.raises(PreconditionError):
        admissible_levels(Path([0.5, 1.5]), s)


def test_centre_return_forbidden():
    s = FilteredSet(0, [(1, 1.0)], 5.0)
    iv = admissible_levels(Path([0, 1j, 0, 0.5]), s)
    assert iv.empty


def test_constant_path_is_allowed():
    s = FilteredSet(0, [(1, 1.0)], 5.0)
    iv = admissible_levels(Path([0]), s)
    assert iv.lower == 0.0 and iv.upper == 5.0


def test_concat_shrinks_upper_and_adds_lower():
    rng = np.random.default_rng(21)
    for _ in range(30):
        s = random_set(rng)
        a = random_path(rng, n_segments=2, scale=0.8)
        b = random_path(rng, start=a.end, n_segments=2, scale=0.8)
        iva = admissible_levels(a, s)
        ivc = admissible_levels(concat(a, b), s)
        assert ivc.upper <= iva.upper + 1e-12
        assert abs(ivc.lower - (a.length + b.length)) < 1e-12


def test_admissible_matches_brute_force_on_grid():
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(100):
        s = random_set(rng)
        if rng.random() < 0.4 and len(s.entries):
            # route the path exactly through an entry to exercise hits
            p0, _ = s.entries[int(rng.integers(0, len(s.entries)))]
            path = Path([0, 2 * p0, 2 * p0 + rng.uniform(0.2, 1.0)])
        else:
            path = random_path(rng)
        iv = admissible_levels(path, s)
        for L in rng.uniform(1e-6, s.horizon, size=40):
            assert iv.contains(L) == brute_allowed(path, s, L)
            checked += 1
    assert checked == 4000


def test_small_budget_reduces_to_classical_avoidance():
    # below the smallest level the only obstacle is the centre itself
    rng = np.random.default_rng(23)
    for _ in range(30):
        s = random_set(rng, min_level=2.0)
        path = random_path(rng, scale=0.5)
        m = s.rho
        for L in rng.uniform(1e-3, m, size=10):
            classical = path.length < L and not (
                len(path.vertices) > 2
                and any(abs(v) < 1e-9 for v in path.vertices[1:])
            )
            got = admissible_levels(path, s).contains(L)
            if classical != got:
                # disagreement can only come from a mid-segment centre return
                assert not got
                continue
            assert classical == got


# -- distance bound ------------------------------------------------------------------


def test_distance_example_midway():
    s = FilteredSet(0, [(1, 1.0)], 10.0)
    assert abs(distance_to_set(Path([0, 0.5]), s) - 0.5) < 1e-12


def test_distance_constant_path_is_rho():
    s = FilteredSet(0, [(1, 1.0)], 10.0)
    assert abs(distance_to_set(Path([0]), s) - 1.0) < 1e-12


def test_distance_near_entry():
    s = FilteredSet(0, [(1, 1.0)], 10.0)
    assert abs(distance_to_set(Path([0, 0.9]), s) - 0.1) < 1e-12


def test_distance_shrinks_when_extending_toward_entry():
    s = FilteredSet(0, [(1, 1.0)], 10.0)
    prev = math.inf
    for end in (0.3, 0.5, 0.7, 0.9):
        d = distance_to_set(Path([0, end]), s)
        assert d <= prev + 1e-12
        prev = d


def test_distance_requires_allowed_path():
    s = FilteredSet(0, [(1, 1.0)], 5.0)
    with pytest.raises(PreconditionError):
        distance_to_set(Path([0, 1.5]), s)


def test_distance_matches_feasibility_scan():
    # r is feasible at prefix s iff every entry within r has level >= s + r
    rng = np.random.default_rng(24)
    for _ in range(20):
        s = random_set(rng, min_level=1.5)
        path = random_path(rng, n_segments=2, scale=0.4)
        if not is_allowed(path, s):
            continue
        got = distance_to_set(path, s, n_samples=400)
        ts, zs, ss = path.sample(400)
        best = math.inf
        spacing = 0.0
        for z, pref in zip(zs, ss):
            r_grid = np.linspace(1e-4, s.horizon - pref, 800)
            spacing = max(spacing, float(r_grid[1] - r_grid[0]))
            feas = np.full(r_grid.shape, True)
            for p, lv in s.entries:
                feas &= (abs(p - z) >= r_grid) | (lv - pref >= r_grid)
            r_max = float(r_grid[feas].max()) if feas.any() else 0.0
            best = min(best, r_max)
        assert abs(got - best) <= spacing + 1e-9


def test_local_radii_match_scalar_formula():
    rng = np.random.default_rng(43)
    for s in [random_set(rng) for _ in range(10)] + [FilteredSet(0, [], 3.0)]:
        zs = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
        prefix = rng.uniform(0, 2, 40)
        want = [min([s.horizon - pref]
                    + [max(np.abs(p - z), lv - pref) for p, lv in s.entries])
                for z, pref in zip(zs, prefix)]
        assert local_radii(zs, prefix, s).tolist() == want
        assert [local_radius(z, pref, s) for z, pref in zip(zs, prefix)] == want


def test_local_radius_positive_along_allowed_path():
    rng = np.random.default_rng(25)
    for _ in range(20):
        s = random_set(rng)
        path = random_path(rng, scale=0.4)
        if not is_allowed(path, s):
            continue
        ts, zs, ss = path.sample(50)
        for z, pref in zip(zs, ss):
            assert local_radius(z, pref, s) > 0


# -- shared helpers -------------------------------------------------------------------


def test_segment_distances_zero_length_segment_is_its_point():
    pts = np.array([2 + 1j, 5 + 0j])
    at = np.array([2 + 0j])
    assert _segment_distances(pts, at, at).tolist() == [1.0, 3.0]
    # a repeated vertex inside a polyline changes no distance
    starts, ends = np.array([0, 1, 1 + 0j]), np.array([1, 1, 2 + 1j])
    assert np.allclose(_segment_distances(pts, starts, ends),
                       _segment_distances(pts, starts[[0, 2]], ends[[0, 2]]), rtol=0, atol=1e-15)


def _dedupe_reference(zs, tol):
    out = [complex(zs[0])]
    for z in zs[1:]:
        if abs(complex(z) - out[-1]) > tol:
            out.append(complex(z))
    return out


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_dedupe_consecutive_against_last_kept(tol):
    # each step is below the tolerance, their sum is not
    zs = [0, 0.6 * tol, 1.2 * tol, 1, 1 + 0.1 * tol, 2]
    assert _dedupe_consecutive(zs, tol) == [0, 1.2 * tol, 1, 2]
    rng = np.random.default_rng(47)
    walk = np.cumsum(rng.choice([0.3 * tol, 0.9 * tol, 2 * tol, 0.0], 200))
    assert _dedupe_consecutive(walk, tol) == _dedupe_reference(walk, tol)


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize("sub_tol_steps", [0, 1, 5])
def test_dedupe_consecutive_matches_reference_with_and_without_short_steps(tol, sub_tol_steps):
    # a 2-D walk of steps longer than tol (every vertex kept, without a
    # loop), with some steps shortened to within tol (the sequential loop)
    rng = np.random.default_rng(53 + sub_tol_steps)
    steps = (1 + rng.random(400)) * tol * np.exp(2j * np.pi * rng.random(400))
    steps[rng.choice(400, sub_tol_steps, replace=False)] *= 0.4
    walk = np.cumsum(steps)
    got = _dedupe_consecutive(walk, tol)
    assert got == _dedupe_reference(walk, tol)
    assert (len(got) == len(walk)) == (sub_tol_steps == 0)
    # a step of exactly tol is dropped
    assert _dedupe_consecutive([0.0, tol, 3 * tol], tol) == [0, 3 * tol]


# -- directional test -----------------------------------------------------------------


def test_directional_straight_ray():
    assert is_directional(Path([0, 1, 2]), 0.0, 0.3)


def test_directional_backtrack_fails():
    assert not is_directional(Path([0, 1, 0.5]), 0.0, 0.4)


def test_directional_zigzag_within_half_alpha():
    alpha = 0.5
    p = Path([0, 1 + 0.2j, 2 - 0.0j, 3 + 0.2j])
    assert is_directional(p, 0.0, alpha)


def test_directional_requires_sane_alpha():
    with pytest.raises(PreconditionError):
        is_directional(Path([0, 1]), 0.0, 2.0)
