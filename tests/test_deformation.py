import math

import numpy as np
import pytest

from borelconv import (
    ChiGuardError,
    DeformationGrid,
    FilteredSet,
    FlowField,
    Path,
    PreconditionError,
    ToleranceError,
    deform,
    eta,
    mirror,
    validate,
)
from borelconv.deformation import _t_nodes_for


def straight_config():
    target = 0.5 + 0.2j
    gamma = Path([target / 4, target])
    s = FilteredSet(0, [(1, 1.0)], 3.0)
    return gamma, s


# -- eta -------------------------------------------------------------------------


def test_eta_two_points():
    assert eta([0, 1], 0.5) == 0.5


def test_eta_empty_is_infinite():
    assert eta([], 2 + 3j) == math.inf


def test_eta_single_point():
    assert eta([1j], 0) == 1.0


def test_eta_vectorized():
    d = eta([0, 1], np.array([0.25, 0.75, 2.0]))
    assert np.allclose(d, [0.25, 0.25, 1.0])


# -- vector field -------------------------------------------------------------------


def field_for(gamma, set_a, set_b, level):
    return FlowField(gamma, set_a, set_b, level)


def test_field_frozen_on_members():
    gamma, s = straight_config()
    f = field_for(gamma, s, s, 2.0)
    # the entry at 1 belongs to the level-2 members: numerator vanishes there
    assert f(1.0 + 0j, 0.3) == 0


def test_field_full_speed_on_gamma():
    gamma, s = straight_config()
    f = field_for(gamma, s, s, 2.0)
    t = 0.5
    z = gamma.point_at(t)
    gp = gamma.seg_dirs[0] * gamma.length
    assert abs(f(z, t) - gp) < 1e-12


def test_field_half_speed_at_symmetric_point():
    gamma = Path([0.25, 1.0])
    s = FilteredSet(0, [], 5.0)
    f = field_for(gamma, s, s, 2.0)
    t = 1.0
    z = 0.5  # |z| == |gamma(1) - z|
    gp = gamma.length
    assert abs(f(z, t) - 0.5 * gp) < 1e-12


def test_field_speed_bound():
    gamma, s = straight_config()
    f = field_for(gamma, s, s, 2.0)
    rng = np.random.default_rng(31)
    zs = rng.uniform(-1, 1, size=50) + 1j * rng.uniform(-1, 1, size=50)
    for t in (0.0, 0.3, 0.9):
        x = f(zs, t)
        assert np.all(np.abs(x) <= gamma.length * (1 + 1e-12))


def test_field_explicit_segment_at_step_end_nodes():
    # an RK4 step that ends on a vertex reads gamma on its own segment's
    # line: vertices[k] + dir_k * (t * length - cum_k), unclamped
    gamma = Path([0.25, 0.4 + 0.1j, 0.5 + 0.3j, 0.3 + 0.45j, 0.1 + 0.35j])
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [(2, 2.0)], 6.0)
    f = field_for(gamma, a, b, 2.5)
    zs = np.linspace(0.05, 0.2, 5) * (1 + 0.5j)
    t_nodes, seg_of_step = _t_nodes_for(gamma, 64)
    for t, k in zip(t_nodes[1:], seg_of_step):
        g = gamma.vertices[k] + gamma.seg_dirs[k] * (t * gamma.length - gamma.cum_lengths[k])
        ea = eta(f.pts_a, zs)
        eb = eta(f.pts_b, g - zs)
        want = (ea / (ea + eb)) * (gamma.seg_dirs[k] * gamma.length)
        assert f(zs, t, k).tobytes() == want.tobytes()
    # at one of these nodes the segment lookup picks the next segment, and
    # its point differs in the last bits
    assert np.any(gamma.points_at(t_nodes[1:], seg_of_step) != gamma.points_at(t_nodes[1:]))


def test_field_guard_raises_on_plain_sum_pair():
    # state at the first set's entry while gamma(t) - state sits at the
    # second set's entry: denominator exactly zero
    gamma = Path([0.25, 3.0])
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [(1, 1.0)], 6.0)
    f = field_for(gamma, a, b, 4.0)
    t = float((2.0 - 0.25) / 2.75)  # gamma(t) == 2
    assert abs(gamma.point_at(t) - 2.0) < 1e-12
    with pytest.raises(ChiGuardError):
        f(1.0 + 0j, t)


# -- deform ---------------------------------------------------------------------------


def test_deform_row_zero_is_centre():
    gamma, s = straight_config()
    grid = deform(gamma, s, s, 2.0, n_s=16, n_t=64)
    assert np.all(grid.H[0, :] == 0)


def test_deform_column_zero_is_seed_segment():
    gamma, s = straight_config()
    grid = deform(gamma, s, s, 2.0, n_s=16, n_t=64)
    assert np.allclose(grid.H[:, 0], grid.s_nodes * gamma.start, atol=0)


def test_deform_top_row_rides_straight_gamma():
    gamma, s = straight_config()
    grid = deform(gamma, s, s, 2.0, n_s=16, n_t=64)
    g_vals = grid.gamma_values()
    assert np.max(np.abs(grid.H[-1, :] - g_vals)) < 1e-12


def test_deform_trivial_sets_scaled_family():
    # with no entries in reach the flow is the pure scaling family
    t = FilteredSet(0, [], 5.0)
    gamma = Path([0.2 + 0.1j, 0.8 + 0.4j])
    grid = deform(gamma, t, t, 2.0, n_s=16, n_t=64)
    g_vals = grid.gamma_values()
    expect = grid.s_nodes[:, None] * g_vals[None, :]
    assert np.max(np.abs(grid.H - expect)) < 1e-12


def test_deform_reference_convergence_on_curved_config():
    # bisector of the entry runs parallel to the trajectories, so every row
    # stays inside one cell of the distance field and RK4 keeps order 4
    a = FilteredSet(0, [(0.26j, 0.3)], 3.0)
    b = FilteredSet(0, [(2.0, 2.0)], 3.0)
    gamma = Path([0.2 + 0.2j, 0.8 + 0.2j])
    grids = {nt: deform(gamma, a, b, 1.5, n_s=16, n_t=nt)
             for nt in (32, 64, 4096)}
    ref_t = grids[4096].t_nodes
    errs = {}
    for nt in (32, 64):
        idx = np.searchsorted(ref_t, grids[nt].t_nodes)
        errs[nt] = np.max(np.abs(grids[nt].H - grids[4096].H[:, idx]))
    assert errs[32] / errs[64] >= 8.0
    assert grids[64].richardson_error < 1e-8


def test_deform_preconditions():
    gamma, s = straight_config()
    with pytest.raises(PreconditionError):
        deform(gamma, FilteredSet(1, [], 2.0), s, 1.5)
    with pytest.raises(PreconditionError):
        deform(Path([1.5, 2.0]), s, s, 2.0)  # seed outside both discs
    with pytest.raises(PreconditionError):
        deform(Path([0.25, 1.0]), s, s, 2.5)  # gamma ends on a fine-sum point


def test_deform_guard_trips_near_fine_sum_point():
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [], 6.0)
    gamma = Path([0.25, 1 + 1e-3j, 1.75])
    with pytest.raises(ChiGuardError):
        deform(gamma, a, b, 2.2, n_s=16, n_t=64, eps_den=1e-2)


def test_deform_length_tolerance_violation():
    a = FilteredSet(0, [(0.26j, 0.3)], 3.0)
    b = FilteredSet(0, [(2.0, 2.0)], 3.0)
    gamma = Path([0.2 + 0.2j, 0.8 + 0.2j])
    with pytest.raises(ToleranceError):
        deform(gamma, a, b, 1.5, n_s=16, n_t=32, delta_len=1e-18)


def test_deform_constant_gamma():
    s = FilteredSet(0, [(1, 1.0)], 3.0)
    grid = deform(Path([0.25]), s, s, 0.5, n_s=16, n_t=16)
    assert np.all(grid.H == grid.H[:, :1])
    rep = validate(grid)
    assert rep.passed


# -- mirror ---------------------------------------------------------------------------


def test_mirror_identities():
    gamma, s = straight_config()
    grid = deform(gamma, s, s, 2.0, n_s=16, n_t=64)
    m = mirror(grid)
    assert np.all(m[0, :] == 0)
    g_vals = grid.H[-1, :]
    assert np.all(m[-1, :] == g_vals)
    i = 5
    assert np.all(m[i, :] == g_vals - grid.H[grid.n_s - i, :])


# -- validation -------------------------------------------------------------------------


def test_validate_straight_case_passes():
    gamma, s = straight_config()
    grid = deform(gamma, s, s, 2.0, n_s=32, n_t=256)
    rep = validate(grid)
    assert rep.passed
    assert rep.endpoint_error <= 1e-6
    assert rep.speed_residual <= 1e-3
    assert all(r.level_a + r.level_b <= grid.level + 1e-12 for r in rep.rows)


def test_validate_flags_entry_on_trajectory():
    gamma, s = straight_config()
    grid = deform(gamma, s, s, 2.0, n_s=16, n_t=64)
    p = complex(grid.H[8, 32])
    bad = FilteredSet(0, [(p, abs(p))], 3.0)
    tampered = DeformationGrid(
        gamma=grid.gamma, set_a=bad, set_b=grid.set_b, level=grid.level,
        s_nodes=grid.s_nodes, t_nodes=grid.t_nodes, H=grid.H,
        H_star=grid.H_star, seed=grid.seed,
        lambda0gamma_length=grid.lambda0gamma_length, min_chi=grid.min_chi,
        eps_den=grid.eps_den, richardson_error=grid.richardson_error,
        length_residual=grid.length_residual,
    )
    rep = validate(tampered)
    assert not rep.passed


def test_validate_speed_identity_structurally_exact():
    # within a step gamma' is a fixed direction (vertices are nodes), so
    # the step displacements of a row and of its mirror are parallel
    # nonnegative multiples of gamma' and their chord lengths add exactly;
    # the residual is pure roundoff at any resolution
    a = FilteredSet(0, [(0.26j, 0.3)], 3.0)
    b = FilteredSet(0, [(2.0, 2.0)], 3.0)
    gamma = Path([0.2 + 0.2j, 0.8 + 0.2j, 0.9 + 0.5j])
    for nt in (32, 256):
        rep = validate(deform(gamma, a, b, 1.5, n_s=16, n_t=nt))
        assert rep.speed_residual <= 1e-10


def test_report_dict_serializes():
    from borelconv.jsonio import dumps

    gamma, s = straight_config()
    rep = validate(deform(gamma, s, s, 2.0, n_s=16, n_t=64))
    text = dumps(rep.to_dict())
    assert '"passed": true' in text
