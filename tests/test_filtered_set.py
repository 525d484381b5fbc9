import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from borelconv import (
    FilteredSet,
    PreconditionError,
    glimpse_angle,
    glimpsed,
    glimpsed_by_filtration,
    glimpsed_sum_points,
    seen,
)
from borelconv.filtered_set import POINT_TOL
from conftest import (
    check_algebra_against_decompositions,
    random_directional_config,
    random_set,
    sets_equal,
)


def lattice_set(w1, n, horizon):
    """Levels k|w1| for the points +-k*w1: members(L) = {0, +-w1, ..., +-n w1}
    for L in (n|w1|, (n+1)|w1|]."""
    entries = []
    for k in range(1, n + 1):
        entries.append((k * w1, k * abs(w1)))
        entries.append((-k * w1, k * abs(w1)))
    return FilteredSet(0.0, entries, horizon)


# -- construction invariants --------------------------------------------------


def test_constructor_drops_entries_beyond_horizon():
    s = FilteredSet(0, [(1, 1.0), (2, 5.0)], horizon=3.0)
    assert len(s.entries) == 1
    assert s.level_of(1) == 1.0
    assert s.level_of(2) is None


def test_constructor_rejects_centre_entry():
    with pytest.raises(PreconditionError):
        FilteredSet(1.0, [(1.0, 0.5)], horizon=2.0)


def test_constructor_rejects_disc_violation():
    with pytest.raises(PreconditionError):
        FilteredSet(0, [(2.0, 1.0)], horizon=3.0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("centre, entries, horizon", [
    (NAN, [(1, 1.0)], 2.0),
    (complex(INF, 0), [], 2.0),
    (0, [(complex(NAN, 0), 1.0)], 2.0),
    (0, [(complex(0, -INF), 1.0)], 2.0),
    (0, [(complex(NAN, 0), 5.0)], 2.0),  # non-finite even where the level drops it
    (0, [(1, NAN)], 2.0),
    (0, [(1, INF)], 2.0),
    (0, [(1, 1.0)], NAN),
    (0, [(1, 1.0)], INF),
])
def test_constructor_rejects_non_finite(centre, entries, horizon):
    with pytest.raises(PreconditionError):
        FilteredSet(centre, entries, horizon)


def test_unhashable_because_equality_is_tolerant():
    a = FilteredSet(0, [(1, 1.0)], horizon=3.0)
    assert a == FilteredSet(0, [(1 + 1e-12, 1.0)], horizon=3.0)
    with pytest.raises(TypeError):
        hash(a)


def test_duplicate_points_take_min_level():
    s = FilteredSet(0, [(1, 2.0), (1 + 1e-12, 1.5)], horizon=4.0)
    assert len(s.entries) == 1
    assert s.level_of(1) == 1.5


def test_merged_entry_stays_inside_its_disc():
    # the first point in (re, im) order lies outside the disc of the smaller
    # level it merges with, so the entry is the point that came with it
    s = FilteredSet(0, [(-1 - 4e-10, 1 + 4e-10), (-1, 1.0)], 3.0)
    assert s.entries == ((-1 + 0j, 1.0),)
    assert s.union(FilteredSet(0, [], 3.0)).entries == s.entries
    # inside that disc the first point stays
    s = FilteredSet(0, [(-1 - 4e-10, 1 + 6e-10), (-1, 1.0 + 5e-10)], 3.0)
    assert s.entries == ((-1 - 4e-10 + 0j, 1.0 + 5e-10),)


def test_merged_entries_stay_apart():
    # the first cluster keeps its second point, which lies within POINT_TOL
    # of the third point, the first of another cluster
    s = FilteredSet(0, [(-1 - 6e-10, 1 + 6e-10), (-1 - 1e-10, 1 + 1e-10),
                        (-1 + 7e-10, 1 + 8e-10)], 3.0)
    assert s.entries == ((-1 - 1e-10 + 0j, 1 + 1e-10),)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.floats(-6e-10, 6e-10),
                          st.floats(-6e-10, 6e-10), st.floats(0.0, 1e-9)),
                min_size=1, max_size=8))
def test_set_rebuilt_from_its_entries_is_the_same(draws):
    # points within a few POINT_TOL of each other, each on or just inside
    # the rim of its own disc
    entries = []
    for k, dx, dy, slack in draws:
        p = (0.8 + 0.15 * k) * cmath.exp(2j * math.pi * k / 7) + complex(dx, dy)
        entries.append((p, abs(p) * (1.0 + slack)))
    s = FilteredSet(0, entries, 3.0)
    gaps = np.abs(s.points[:, None] - s.points[None, :])[np.triu_indices(len(s.points), 1)]
    assert (gaps > POINT_TOL).all()
    assert FilteredSet(0, s.entries, 3.0).entries == s.entries
    assert s.union(FilteredSet(0, [], 3.0)).entries == s.entries


# -- level_of -----------------------------------------------------------------


def test_level_of_lattice_point():
    s = lattice_set(1.0, 4, horizon=5.0)
    assert s.level_of(2.0) == 2.0


def test_level_of_centre_is_zero():
    s = FilteredSet(0, [(1 + 1j, 2.5)], horizon=4.0)
    assert s.level_of(0.0) == 0.0


def test_level_of_absent():
    s = FilteredSet(0, [(1 + 1j, 2.5)], horizon=4.0)
    assert s.level_of(1 - 1j) is None


# -- at_level -----------------------------------------------------------------


def test_at_level_lattice_blocks():
    s = lattice_set(1.0, 4, horizon=5.0)
    got = set(s.at_level(2.5))
    assert got == {0, 1, -1, 2, -2}


def test_at_level_small_budget_is_centre_only():
    s = lattice_set(1.0, 4, horizon=5.0)
    assert s.at_level(0.5) == [0.0]
    assert s.at_level(s.rho) == [0.0]  # strict rule: nothing enters at rho


def test_at_level_strict_rule():
    s = FilteredSet(0, [(1.0, 1.0), (1j, 1.2)], horizon=3.0)
    assert set(s.at_level(1.1)) == {0, 1}


def test_at_level_beyond_horizon_errors():
    s = FilteredSet(0, [(1, 1.0)], horizon=3.0)
    with pytest.raises(PreconditionError):
        s.at_level(3.5)


@pytest.mark.parametrize("L", [-1.0, 0.0, 3.5, math.nan])
@pytest.mark.parametrize("query", ["at_level", "entries_at", "glimpse_angle"])
def test_level_queries_reject_levels_outside_the_horizon(query, L):
    s = FilteredSet(0, [(1, 1.0)], horizon=3.0)
    run = {"at_level": lambda: s.at_level(L), "entries_at": lambda: s.entries_at(L),
           "glimpse_angle": lambda: glimpse_angle(s, 0.0, L)}[query]
    with pytest.raises(PreconditionError):
        run()


def test_at_level_monotone():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = random_set(rng)
        ls = np.sort(rng.uniform(0.01, s.horizon, size=6))
        prev = set()
        for L in ls:
            cur = {complex(z) for z in s.at_level(L)}
            assert prev <= cur
            prev = cur


def test_members_inside_open_disc():
    rng = np.random.default_rng(8)
    for _ in range(20):
        s = random_set(rng)
        L = rng.uniform(0.5, s.horizon)
        for z in s.at_level(L):
            assert abs(z - s.centre) < L or z == s.centre


# -- rho ----------------------------------------------------------------------


def test_rho_min_level():
    assert FilteredSet(0, [(1, 1.0), (-1, 1.0)], 4.0).rho == 1.0


def test_rho_no_entries_is_horizon():
    assert FilteredSet(0, [], 5.0).rho == 5.0


def test_rho_lattice_2i():
    assert lattice_set(2j, 2, horizon=5.0).rho == 2.0


# -- union / sum / fine_sum ----------------------------------------------------


def test_union_shared_point_min_level():
    a = FilteredSet(0, [(1, 1.0)], 5.0)
    b = FilteredSet(0, [(1, 2.0)], 5.0)
    assert sets_equal(a.union(b), FilteredSet(0, [(1, 1.0)], 5.0))


def test_union_with_trivial_truncates_horizon():
    a = FilteredSet(0, [(1, 1.0), (2, 4.0)], 5.0)
    t = FilteredSet(0, [], 3.0)
    u = a.union(t)
    assert u.horizon == 3.0
    assert sets_equal(u, FilteredSet(0, [(1, 1.0)], 3.0))


def test_union_disjoint_merge():
    a = FilteredSet(0, [(1, 1.0)], 5.0)
    b = FilteredSet(0, [(1j, 1.0)], 5.0)
    assert sets_equal(a.union(b), FilteredSet(0, [(1, 1.0), (1j, 1.0)], 5.0))


def test_union_centre_mismatch():
    with pytest.raises(PreconditionError):
        FilteredSet(0, [], 2.0).union(FilteredSet(1, [], 2.0))


def test_sum_cross_terms():
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [(1j, 1.0)], 6.0)
    expect = FilteredSet(0, [(1, 1.0), (1j, 1.0), (1 + 1j, math.sqrt(2))], 6.0)
    assert sets_equal(a.sum(b), expect)


def test_sum_with_trivial_is_identity():
    a = FilteredSet(0, [(1, 1.0), (-2j, 3.0)], 6.0)
    assert sets_equal(a.sum(FilteredSet(0, [], 6.0)), a)


def test_sum_self_disc_level():
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    assert sets_equal(a.sum(a), FilteredSet(0, [(1, 1.0), (2, 2.0)], 6.0))


def test_fine_sum_adds_levels():
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [(1j, 1.0)], 6.0)
    expect = FilteredSet(0, [(1, 1.0), (1j, 1.0), (1 + 1j, 2.0)], 6.0)
    assert sets_equal(a.fine_sum(b), expect)


def test_fine_sum_with_trivial_is_identity():
    a = FilteredSet(0, [(1, 1.0), (-2j, 3.0)], 6.0)
    assert sets_equal(a.fine_sum(FilteredSet(0, [], 6.0)), a)


def test_fine_sum_self():
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    assert sets_equal(a.fine_sum(a), FilteredSet(0, [(1, 1.0), (2, 2.0)], 6.0))


def test_fine_sum_refines_sum():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a, b = random_set(rng), random_set(rng)
        f, s = a.fine_sum(b), a.sum(b)
        for L in rng.uniform(0.1, f.horizon, size=8):
            fine_members = {complex(z) for z in f.at_level(L)}
            sum_members = {complex(z) for z in s.at_level(L)}
            assert fine_members <= sum_members


def test_algebra_matches_decomposition_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        a, b = random_set(rng), random_set(rng)
        h = min(a.horizon, b.horizon)
        grid = rng.uniform(1e-6, h, size=60)
        for op in ("union", "sum", "fine"):
            check_algebra_against_decompositions(a, b, op, grid)


# -- saturate -----------------------------------------------------------------


def test_saturate_single_generator():
    s = FilteredSet(0, [(1, 1.0)], 3.5).saturate()
    assert sets_equal(s, FilteredSet(0, [(1, 1.0), (2, 2.0), (3, 3.0)], 3.5))


def test_saturate_trivial():
    t = FilteredSet(0, [], 4.0)
    assert sets_equal(t.saturate(), t)


def test_saturate_symmetric_excludes_centre():
    s = FilteredSet(0, [(1, 1.0), (-1, 1.0)], 2.5).saturate()
    expect = FilteredSet(0, [(1, 1.0), (-1, 1.0), (2, 2.0), (-2, 2.0)], 2.5)
    assert sets_equal(s, expect)


def test_saturate_idempotent_random():
    rng = np.random.default_rng(13)
    for _ in range(10):
        s = random_set(rng, max_entries=4, min_level=1.5)
        sat = s.saturate()
        assert sets_equal(sat.saturate(), sat)


@pytest.mark.parametrize("theta", [NAN, INF, -INF])
@pytest.mark.parametrize("entries", [[], [(1, 1.0), (1j, 1.0)]])
@pytest.mark.parametrize("query", [glimpsed, glimpsed_by_filtration, seen,
                                   lambda s, theta: glimpse_angle(s, theta, 2.0)])
def test_direction_queries_reject_non_finite_theta(query, entries, theta):
    with pytest.raises(PreconditionError):
        query(FilteredSet(0, entries, 3.0), theta)


# -- glimpsed / seen ------------------------------------------------------------


def test_glimpsed_removable_point_excluded():
    s = FilteredSet(0, [(1, 1.0), (2, 3.0)], 5.0)
    g = glimpsed(s, 0.0)
    assert [p for p, _ in g.points] == [1.0]


def test_glimpsed_empty_ray():
    s = FilteredSet(0, [(1j, 1.0)], 5.0)
    assert glimpsed(s, 0.0).points == ()
    assert seen(s, 0.0) is None


def test_glimpsed_two_points_and_seen():
    s = FilteredSet(0, [(1, 1.0), (2, 2.0)], 5.0)
    g = glimpsed(s, 0.0)
    assert [p for p, _ in g.points] == [1.0, 2.0]
    assert seen(s, 0.0) == 1.0


def test_glimpsed_matches_filtration_walk():
    rng = np.random.default_rng(14)
    for _ in range(200):
        s, theta, expected = random_directional_config(rng)
        g = glimpsed(s, theta)
        o = glimpsed_by_filtration(s, theta)
        got = [p for p, _ in g.points]
        assert len(got) == len(o.points)
        for p, (q, _) in zip(got, o.points):
            assert abs(p - q) <= 1e-12
        assert len(got) == len(expected)
        for p, q in zip(got, sorted(expected, key=abs)):
            assert abs(p - q) <= 1e-12


def test_glimpsed_completed_flag():
    s = FilteredSet(0, [(1, 1.0)], 5.0)
    g = glimpsed(s, 0.0)
    assert not g.includes_centre
    assert g.completed().point_list() == [0.0, 1.0]


def test_glimpsed_sum_points():
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [(2, 2.0)], 6.0)
    assert glimpsed_sum_points(a, b, 0.0) == [1.0, 2.0, 3.0]


# -- glimpse_angle ---------------------------------------------------------------


def test_glimpse_angle_sole_offray_point():
    s = FilteredSet(0, [(cmath.exp(1j * math.pi / 4), 1.0)], 4.0)
    a = glimpse_angle(s, 0.0, 2.0)
    assert math.pi / 4 - 1e-5 < a < math.pi / 4


def test_glimpse_angle_ray_only():
    s = FilteredSet(0, [(1.0, 1.0)], 4.0)
    a = glimpse_angle(s, 0.0, 2.0)
    assert math.pi / 2 - 1e-5 < a < math.pi / 2


def test_glimpse_angle_perpendicular_points():
    s = FilteredSet(0, [(1j, 1.0), (-1j, 1.0)], 4.0)
    a = glimpse_angle(s, 0.0, 2.0)
    assert math.pi / 2 - 1e-5 < a < math.pi / 2


# -- hypothesis properties -------------------------------------------------------

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@st.composite
def small_sets(draw, max_entries=4):
    horizon = draw(st.floats(min_value=2.0, max_value=8.0))
    n = draw(st.integers(min_value=0, max_value=max_entries))
    entries = []
    for _ in range(n):
        lv = draw(st.floats(min_value=0.8, max_value=horizon * 0.9))
        frac = draw(st.floats(min_value=0.1, max_value=1.0))
        ang = draw(st.floats(min_value=0.0, max_value=2 * math.pi))
        p = frac * lv * cmath.exp(1j * ang)
        entries.append((p, lv))
    return FilteredSet(0.0, entries, horizon)


@settings(max_examples=60, deadline=None)
@given(small_sets(), small_sets())
def test_union_commutes(a, b):
    assert sets_equal(a.union(b), b.union(a), tol_lv=1e-12)


@settings(max_examples=60, deadline=None)
@given(small_sets(), small_sets())
def test_sum_commutes(a, b):
    assert sets_equal(a.sum(b), b.sum(a), tol_lv=1e-12)


@settings(max_examples=60, deadline=None)
@given(small_sets(), small_sets())
def test_fine_sum_commutes(a, b):
    assert sets_equal(a.fine_sum(b), b.fine_sum(a), tol_lv=1e-12)


def test_sum_is_not_associative_in_general():
    # the plain sum clips intermediates by the disc |p+q| < L, which enters
    # the level of a triple point asymmetrically across groupings; only the
    # fine sum iterates consistently
    a = FilteredSet(0, [(1.0, 1.0)], 2.5)
    b = FilteredSet(0, [(0.9 + 0.4j, 1.0)], 2.5)
    c = FilteredSet(0, [(-0.8 - 0.4j, 1.0)], 2.5)
    left = a.sum(b).sum(c)
    right = a.sum(b.sum(c))
    # the triple point 1.1 inherits |p+q| = 1.94 in one grouping and
    # |q+r| = 0.1 in the other
    assert abs(left.level_of(1.1) - abs(1.9 + 0.4j)) < 1e-12
    assert abs(right.level_of(1.1) - 1.1) < 1e-12
    assert not sets_equal(left, right)


@settings(max_examples=30, deadline=None)
@given(small_sets(max_entries=2), small_sets(max_entries=2), small_sets(max_entries=2))
def test_union_associates(a, b, c):
    assert sets_equal(a.union(b).union(c), a.union(b.union(c)), tol_lv=1e-12)


@settings(max_examples=30, deadline=None)
@given(small_sets(max_entries=2), small_sets(max_entries=2), small_sets(max_entries=2))
def test_fine_sum_associates(a, b, c):
    assert sets_equal(a.fine_sum(b).fine_sum(c), a.fine_sum(b.fine_sum(c)),
                      tol_lv=1e-9)


@settings(max_examples=30, deadline=None)
@given(small_sets(max_entries=3), small_sets(max_entries=3), st.floats(0.05, 1.0))
# two points closer than POINT_TOL are one point, so the union keeps one of them
@example(a=FilteredSet(0.0, [(0.8000000000000002, 1.0)], 2.0),
         b=FilteredSet(0.0, [(0.8, 0.8)], 2.0), frac=1.0)
def test_union_members_are_pointwise_unions(a, b, frac):
    u = a.union(b)
    L = frac * u.horizon
    got = u.at_level(L)
    want = a.at_level(min(L, a.horizon)) + b.at_level(min(L, b.horizon))

    def covered(xs, ys):
        return all(any(abs(x - y) <= POINT_TOL for y in ys) for x in xs)

    assert covered(got, want) and covered(want, got)
