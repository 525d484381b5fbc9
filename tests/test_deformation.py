import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from borelconv import (
    ChiGuardError,
    ConvolveConfig,
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
from borelconv.deformation import (
    CONVOLVE_STEP_INTERVALS,
    _flow_steps,
    _rk4_stacked,
    _t_nodes_for,
    row_nodes,
)
from conftest import CURVED_GAMMA


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


def eta_reference(points, z):
    """Distance to the nearest point, reduced over a trailing points axis."""
    pts = np.asarray(points, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if pts.size == 0:
        return np.full(z.shape, np.inf)
    return np.abs(z[..., None] - pts).min(axis=-1)


@pytest.mark.parametrize("n_points", [0, 1, 2, 50])
@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
def test_eta_bits_equal_reference(n_points, shape):
    rng = np.random.default_rng(n_points + len(shape))
    pts = rng.normal(size=n_points) + 1j * rng.normal(size=n_points)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = eta(pts, z)
    if shape:
        assert got.shape == shape
    else:
        assert isinstance(got, float)
    assert np.asarray(got).tobytes() == eta_reference(pts, z).tobytes()


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


def test_field_takes_one_time_per_row():
    gamma = Path([0.25, 0.4 + 0.1j, 0.5 + 0.3j])
    f = field_for(gamma, FilteredSet(0, [(1, 1.0)], 6.0), FilteredSet(0, [(2, 2.0)], 6.0), 2.5)
    zs = np.linspace(0.05, 0.2, 6) * (1 + 0.5j)
    ts = np.array([0.1, 0.3])
    got = f(np.stack([zs, 2 * zs]), ts, 0)
    assert got[0].tobytes() == f(zs, ts[0], 0).tobytes()
    assert got[1].tobytes() == f(2 * zs, ts[1], 0).tobytes()


def rk4_step(field, Z, t0, h, seg):
    """One classical RK4 step of a single state, the reference for the
    stacked stepper."""
    k1 = field(Z, t0, seg)
    k2 = field(Z + 0.5 * h * k1, t0 + 0.5 * h, seg)
    k3 = field(Z + 0.5 * h * k2, t0 + 0.5 * h, seg)
    k4 = field(Z + h * k3, t0 + h, seg)
    return Z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def count_calls(monkeypatch, field):
    """The evaluations of one field, counted by wrapping FlowField.__call__
    (as the benchmark's tracer does), so that the stepper still sees the
    field's gamma."""
    calls = []
    call = FlowField.__call__

    def counted(self, *args):
        if self is field:
            calls.append(1)
        return call(self, *args)

    monkeypatch.setattr(FlowField, "__call__", counted)
    return calls


def single_state_steps(field, Z0, t_nodes, seg_of_step, ends=None):
    """The paired scheme, one single-state RK4 step at a time: from each
    step's start node, a full step to its end node and a first half step,
    stored at the node between when the step spans an even number of
    intervals, then the second half step from the first half.  The steps
    end at the nodes `ends`; by default each takes two intervals of a
    segment (one at a segment's odd end).  Returns the grid (the centre
    frozen at 0, the top row on gamma, and a column no step stores left
    unset) and the Richardson estimate."""
    n_t = len(t_nodes) - 1
    want = np.empty((len(Z0), n_t + 1), dtype=complex)
    want[:, 0] = Z0
    want[0, 1:], want[-1, 1:] = 0.0, field.gamma.points_at(t_nodes[1:])
    want_rich, j = 0.0, 0
    step_ends = None if ends is None else iter(ends)
    while j < n_t:
        seg = int(seg_of_step[j])
        if step_ends is None:
            end = j + 2 if j + 1 < n_t and seg_of_step[j + 1] == seg else j + 1
        else:
            end = int(next(step_ends))
        t0, h = t_nodes[j], t_nodes[end] - t_nodes[j]
        z_full = rk4_step(field, want[:, j], t0, h, seg)
        z_half = rk4_step(field, want[:, j], t0, h / 2, seg)
        if (end - j) % 2 == 0:
            want[1:-1, j + (end - j) // 2] = z_half[1:-1]
        z_half = rk4_step(field, z_half, t0 + h / 2, h / 2, seg)
        want[1:-1, end] = z_full[1:-1]
        want_rich = max(want_rich, float(np.max(np.abs(want[:, end] - z_half))) * 16.0 / 15.0)
        j = end
    return want, want_rich


def paired_steps(seg_of_step) -> int:
    """RK4 steps of the paired scheme: half each segment's intervals, rounded up."""
    return int(np.sum((np.bincount(seg_of_step) + 1) // 2))


def test_rk4_pair_bits_equal_two_steps(monkeypatch):
    # the stacked stepper against a full step and two half steps per step,
    # each a separate single-state RK4 step
    gamma = Path([0.25, 0.4 + 0.1j, 0.5 + 0.3j, 0.3 + 0.45j, 0.1 + 0.35j])
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [(2, 2.0)], 6.0)
    t_nodes, seg_of_step = _t_nodes_for(gamma, 32)
    n_t = len(t_nodes) - 1  # at least 32: each side takes ceil(32 |side| / |gamma|)
    stacked, stepped = field_for(gamma, a, b, 2.5), field_for(gamma, a, b, 2.5)
    H = np.empty((17, n_t + 1), dtype=complex)
    H[:, 0] = np.linspace(0.0, 1.0, 17) * gamma.start
    calls = count_calls(monkeypatch, stacked)
    rich = _rk4_stacked(stacked, H, t_nodes, seg_of_step)
    assert len(calls) == 4 * paired_steps(seg_of_step) + 4
    want, want_rich = single_state_steps(stepped, H[:, 0], t_nodes, seg_of_step)
    assert H.tobytes() == want.tobytes()
    assert rich == want_rich and rich > 0.0
    assert stacked.min_chi == stepped.min_chi


@pytest.mark.parametrize("n_t", [8, 31, 32, 64, 97])
@pytest.mark.parametrize("per_step", [1, 2, 3, 8])
def test_flow_steps_cut_each_segment_into_near_equal_steps(n_t, per_step):
    gamma = Path([0.25, 0.4 + 0.1j, 0.5 + 0.3j, 0.3 + 0.45j, 0.1 + 0.35j])
    _, seg_of_step = _t_nodes_for(gamma, n_t)
    starts, ends = _flow_steps(seg_of_step, per_step)
    assert starts[0] == 0 and ends[-1] == len(seg_of_step)
    assert starts[1:].tobytes() == ends[:-1].tobytes()
    # no step crosses a vertex, and every vertex ends one
    assert np.all(seg_of_step[starts] == seg_of_step[ends - 1])
    assert set(np.cumsum(np.bincount(seg_of_step))) <= set(ends)
    for k, n_k in enumerate(np.bincount(seg_of_step)):
        counts = (ends - starts)[seg_of_step[starts] == k]
        assert len(counts) == math.ceil(n_k / per_step) and counts.sum() == n_k
        # near-equal, the longer first
        assert counts.max() - counts.min() <= 1 and np.all(np.diff(counts) <= 0)
    if per_step == 2:  # the paired scheme
        assert len(starts) == paired_steps(seg_of_step)


def hermite_reference(field, z0, z1, t0, t1, seg, ts):
    """Cubic Hermite between two states, with the field on segment seg as
    their derivatives, at the times ts: one column per time."""
    d0, d1 = (t1 - t0) * field(z0, t0, seg), (t1 - t0) * field(z1, t1, seg)
    s = (np.asarray(ts) - t0) / (t1 - t0)
    cols = [(2 * x**3 - 3 * x**2 + 1) * z0 + (x**3 - 2 * x**2 + x) * d0
            + (3 * x**2 - 2 * x**3) * z1 + (x**3 - x**2) * d1 for x in s]
    return np.array(cols).T


def test_convolution_grid_steps_equal_single_state_steps(monkeypatch):
    # a convolution's grid takes one step per CONVOLVE_STEP_INTERVALS
    # intervals: 5 to 7 on these segments, odd and even
    from borelconv import germs

    gamma = Path([0.25, 0.4 + 0.1j, 0.5 + 0.3j, 0.3 + 0.45j, 0.1 + 0.35j])
    a, b = FilteredSet(0, [(1, 1.0)], 6.0), FilteredSet(0, [(2, 2.0)], 6.0)
    calls = []
    call = FlowField.__call__
    monkeypatch.setattr(FlowField, "__call__",
                        lambda self, *args: calls.append(1) or call(self, *args))
    cfg = ConvolveConfig(level=2.5, n_s=16, n_t=64)
    grid = germs._grid(gamma, a, b, a.fine_sum(b), cfg)
    monkeypatch.undo()
    t_nodes, seg_of_step = _t_nodes_for(gamma, 64)
    starts, ends = _flow_steps(seg_of_step, CONVOLVE_STEP_INTERVALS)
    counts = ends - starts
    assert sorted(set(counts % 2)) == [0, 1] and counts.max() > 2
    assert grid.t_nodes.tobytes() == t_nodes.tobytes()
    # four calls a step and four for the last call, whose k1 also takes the
    # last column for the dense output of the last step
    assert grid.flow_steps == len(starts) and len(calls) == 4 * len(starts) + 4
    stepped = field_for(gamma, a, b, 2.5)
    want, want_rich = single_state_steps(stepped, grid.H[:, 0], t_nodes, seg_of_step, ends)
    # every step end and stored middle has the bits of single-state steps
    stored = np.concatenate([[0], ends, (starts + counts // 2)[counts % 2 == 0]])
    assert grid.H[:, stored].tobytes() == want[:, stored].tobytes()
    assert grid.richardson_error == want_rich > 0.0
    assert grid.min_chi <= stepped.min_chi
    assert grid.H[0].tobytes() == np.zeros(grid.n_t + 1, dtype=complex).tobytes()
    assert grid.H[-1].tobytes() == grid.gamma_values().tobytes()
    # the nodes between are cubic Hermite between the nearest two of the
    # step's start, middle and end, with the field on the step's segment
    scale = float(np.max(np.abs(grid.H)))
    for s, e, c in zip(starts, ends, counts):
        seg, h = int(seg_of_step[s]), t_nodes[e] - t_nodes[s]
        t_mid = t_nodes[s] + h / 2
        z_mid = rk4_step(stepped, grid.H[:, s], t_nodes[s], h / 2, seg)
        for nodes, (z0, t0), (z1, t1) in (
                (range(s + 1, s + (c + 1) // 2), (grid.H[:, s], t_nodes[s]), (z_mid, t_mid)),
                (range(s + c // 2 + 1, e), (z_mid, t_mid), (grid.H[:, e], t_nodes[e]))):
            if len(nodes):
                ref = hermite_reference(stepped, z0, z1, t0, t1, seg, t_nodes[list(nodes)])
                assert np.max(np.abs(grid.H[1:-1, list(nodes)] - ref[1:-1])) <= 1e-14 * scale
    assert validate(grid).passed


def test_deform_grid_counts_its_steps():
    gamma = Path([0.25, 0.4 + 0.1j, 0.5 + 0.3j])
    a, b = FilteredSet(0, [(1, 1.0)], 6.0), FilteredSet(0, [(2, 2.0)], 6.0)
    grid = deform(gamma, a, b, 2.5, n_s=16, n_t=64)
    assert grid.flow_steps == paired_steps(_t_nodes_for(gamma, 64)[1])
    assert deform(Path([0.25]), a, b, 2.5, n_s=16, n_t=16).flow_steps == 0


def test_stored_middle_node_is_one_single_state_step_from_the_node_before():
    gamma = Path([0.25, 0.4 + 0.1j, 0.5 + 0.3j])
    a, b = FilteredSet(0, [(1, 1.0)], 6.0), FilteredSet(0, [(2, 2.0)], 6.0)
    grid = deform(gamma, a, b, 2.5, n_s=16, n_t=64)
    _, seg_of_step = _t_nodes_for(gamma, 64)
    field = field_for(gamma, a, b, 2.5)
    # node 1 lies between the first step's nodes 0 and 2, on segment 0
    h = grid.t_nodes[2] - grid.t_nodes[0]
    assert seg_of_step[0] == seg_of_step[1] == 0
    want = rk4_step(field, grid.H[:, 0], grid.t_nodes[0], h / 2, 0)
    assert grid.H[1:-1, 1].tobytes() == want[1:-1].tobytes()


def test_top_row_is_gamma_at_the_time_nodes():
    gamma = Path([0.25, 0.4 + 0.1j, 0.5 + 0.3j, 0.3 + 0.45j, 0.1 + 0.35j])
    a, b = FilteredSet(0, [(1, 1.0)], 6.0), FilteredSet(0, [(2, 2.0)], 6.0)
    grid = deform(gamma, a, b, 2.5, n_s=16, n_t=64)
    assert grid.H[-1].tobytes() == grid.gamma_values().tobytes()
    assert validate(grid).endpoint_error == 0.0


def test_deform_makes_four_field_calls_per_step(monkeypatch):
    calls = []
    call = FlowField.__call__
    monkeypatch.setattr(FlowField, "__call__",
                        lambda self, *args: calls.append(1) or call(self, *args))
    gamma = Path([0.25, 0.4 + 0.1j, 0.5 + 0.3j])
    a, b = FilteredSet(0, [(1, 1.0)], 6.0), FilteredSet(0, [(2, 2.0)], 6.0)
    grid = deform(gamma, a, b, 2.5, n_s=16, n_t=64)
    _, seg_of_step = _t_nodes_for(gamma, 64)
    # one segment ends with a one-interval step, the other does not
    assert sorted(np.bincount(seg_of_step) % 2) == [0, 1]
    assert len(seg_of_step) == grid.n_t
    assert len(calls) == 4 * paired_steps(seg_of_step) + 4


def test_stacked_stepper_guard_raises_on_plain_sum_pair():
    # the configuration of test_field_guard_raises_on_plain_sum_pair: a
    # state at the first set's entry when gamma(t) - state sits at the
    # second set's entry
    gamma = Path([0.25, 3.0])
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [(1, 1.0)], 6.0)
    t = float((2.0 - 0.25) / 2.75)
    H = np.zeros((3, 3), dtype=complex)
    H[:, 0] = [0.0, 0.5, 1.0]
    t_nodes = np.array([t, t + 0.01, t + 0.02])
    stepped, stacked = field_for(gamma, a, b, 4.0), field_for(gamma, a, b, 4.0)
    with pytest.raises(ChiGuardError) as want:
        rk4_step(stepped, H[:, 0], t, 0.01, 0)
    with pytest.raises(ChiGuardError) as got:
        _rk4_stacked(stacked, H, t_nodes, np.zeros(2, dtype=int))
    # the same diagnostics: the stage time and the denominator that tripped
    assert (got.value.t, got.value.value, got.value.bound) == (
        want.value.t, want.value.value, want.value.bound)
    assert stacked.min_chi == stepped.min_chi


def test_stacked_stepper_guard_raises_in_the_last_call(monkeypatch):
    # the configuration above with the plain-sum time t* at t_(n-2) + 3h/2,
    # h the interval: the middle stage time of the last step's second half,
    # which only the stepper's last call evaluates
    gamma = Path([0.25, 3.0])
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [(1, 1.0)], 6.0)
    t, h = float((2.0 - 0.25) / 2.75), 0.01
    H = np.zeros((4, 5), dtype=complex)
    H[:, 0] = [0.0, 0.5, 1.0, gamma.point_at(t - 3.5 * h)]
    t_nodes = t - 1.5 * h + h * np.arange(-2, 3)
    seg_of_step = np.zeros(4, dtype=int)
    stepped, stacked = field_for(gamma, a, b, 4.0), field_for(gamma, a, b, 4.0)
    calls = count_calls(monkeypatch, stacked)
    with pytest.raises(ChiGuardError) as want:
        single_state_steps(stepped, H[:, 0], t_nodes, seg_of_step)
    with pytest.raises(ChiGuardError) as got:
        _rk4_stacked(stacked, H, t_nodes, seg_of_step)
    # k2 of the last call, after four calls for each of the two steps
    assert len(calls) == 4 * 2 + 2 and abs(want.value.t - t) < 1e-12
    assert (got.value.t, got.value.value, got.value.bound) == (
        want.value.t, want.value.value, want.value.bound)
    assert stacked.min_chi == stepped.min_chi


# on this hairpin at n_t 128 the guard at 1e-2 trips at a time node, at 2e-2
# between time nodes
@pytest.mark.parametrize("eps_den, between_nodes", [(1e-2, False), (2e-2, True)])
def test_stacked_stepper_guard_on_hairpin_matches_single_steps(eps_den, between_nodes):
    # the stacked stepper reports the time, the denominator and min_chi of
    # the single-state steps
    gamma = Path([0.25, 0.6 + 0.01j, 1.3 + 0.002j, 1.75])
    a, empty = FilteredSet(0, [(1, 1.0)], 6.0), FilteredSet(0, [], 6.0)
    t_nodes, seg_of_step = _t_nodes_for(gamma, 128)
    stacked, stepped = (FlowField(gamma, a, empty, 2.2, eps_den) for _ in range(2))
    H = np.empty((17, len(t_nodes)), dtype=complex)
    H[:, 0] = np.linspace(0.0, 1.0, 17) * gamma.start
    with pytest.raises(ChiGuardError) as want:
        single_state_steps(stepped, H[:, 0], t_nodes, seg_of_step)
    with pytest.raises(ChiGuardError) as got:
        _rk4_stacked(stacked, H, t_nodes, seg_of_step)
    assert (want.value.t not in t_nodes) == between_nodes
    assert (got.value.t, got.value.value, got.value.bound) == (
        want.value.t, want.value.value, want.value.bound)
    assert stacked.min_chi == stepped.min_chi


@pytest.mark.parametrize("n_t", [37, 38, 76, 77, 91, 92])
def test_stacked_stepper_guard_trips_in_the_call_where_single_steps_stop(monkeypatch, n_t):
    # one stacked call holds a two-interval step and the second half of the
    # step before it, so the guard reports a stage time of the first call
    # that trips, which can lie up to one step past the time where the
    # single-state steps of the same scheme stop.  On this hairpin the two
    # times agree at n_t 37 and 38 and differ at 76, 77, 91 and 92; both
    # stop in the same stacked call.
    gamma = Path([0.25, 0.6 + 0.01j, 1.3 + 0.002j, 1.75])
    a, empty = FilteredSet(0, [(1, 1.0)], 6.0), FilteredSet(0, [], 6.0)
    eps_den = 1e-2
    t_nodes, seg_of_step = _t_nodes_for(gamma, n_t)
    H = np.empty((17, len(t_nodes)), dtype=complex)
    H[:, 0] = np.linspace(0.0, 1.0, 17) * gamma.start
    with pytest.raises(ChiGuardError) as want:
        single_state_steps(FlowField(gamma, a, empty, 2.2, eps_den), H[:, 0], t_nodes,
                           seg_of_step)
    # the stage times of every field call, from a run whose guard never trips
    unguarded, stacked = FlowField(gamma, a, empty, 2.2, 0.0), FlowField(gamma, a, empty, 2.2,
                                                                         eps_den)
    times, tripped = [], []
    call = FlowField.__call__

    def recorded(self, z, t, *args):
        (times if self is unguarded else tripped).append(np.atleast_1d(t))
        return call(self, z, t, *args)

    monkeypatch.setattr(FlowField, "__call__", recorded)
    _rk4_stacked(unguarded, H.copy(), t_nodes, seg_of_step)
    with pytest.raises(ChiGuardError) as got:
        _rk4_stacked(stacked, H, t_nodes, seg_of_step)
    # four field calls per stacked call, the last one made the one that raised
    c = (len(tripped) - 1) // 4
    stage_times = set(np.concatenate(times[4 * c:4 * c + 4]).tolist())
    assert got.value.t in stage_times and want.value.t in stage_times
    assert got.value.value <= eps_den and want.value.value <= eps_den


def test_field_with_gamma_given_equals_lookup():
    gamma = Path([0.25, 0.4 + 0.1j, 0.5 + 0.3j, 0.3 + 0.45j, 0.1 + 0.35j])
    f = field_for(gamma, FilteredSet(0, [(1, 1.0)], 6.0), FilteredSet(0, [(2, 2.0)], 6.0), 2.5)
    zs = np.stack([np.linspace(0.05, 0.2, 6) * (1 + 0.5j)] * 3)
    ts, segs = np.array([0.1, 0.5, 0.8]), np.array([0, 2, 3])
    at = gamma.points_at(ts, segs), f.gamma_prime(segs)
    assert f(zs, ts, None, at).tobytes() == f(zs, ts, segs).tobytes()


def test_field_takes_one_segment_per_row():
    gamma = Path([0.25, 0.4 + 0.1j, 0.5 + 0.3j, 0.3 + 0.45j, 0.1 + 0.35j])
    f = field_for(gamma, FilteredSet(0, [(1, 1.0)], 6.0), FilteredSet(0, [(2, 2.0)], 6.0), 2.5)
    zs = np.linspace(0.05, 0.2, 6) * (1 + 0.5j)
    ts = np.array([0.1, 0.5, 0.8])
    segs = np.array([0, 2, 3])
    got = f(np.stack([zs, 2 * zs, 0.5 * zs]), ts, segs)
    for row, z in enumerate([zs, 2 * zs, 0.5 * zs]):
        assert got[row].tobytes() == f(z, ts[row], int(segs[row])).tobytes()
    # without segments each row looks its own up
    got = f(np.stack([zs, 2 * zs, 0.5 * zs]), ts)
    assert got[1].tobytes() == f(2 * zs, ts[1]).tobytes()


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
    # stacked rows: the error names the time of the row that tripped
    with pytest.raises(ChiGuardError) as info:
        f(np.array([[0.1 + 0j], [1.0 + 0j]]), np.array([0.5, t]))
    assert info.value.t == t and info.value.value == 0.0


def fast_path_call(f, z, t, segs):
    """f at the stacked state z through the fast path, as the stepper calls it."""
    at = f.gamma.points_at(t, segs)[:, None], f.gamma_prime(segs)[:, None]
    out = np.empty(z.shape, dtype=complex)
    return f(z, t, None, at, out, f.workspace(z.shape))


def test_field_fast_path_gives_the_bits_of_the_general_path():
    gamma = Path([0.25, 0.4 + 0.1j, 0.5 + 0.3j])
    a, b = FilteredSet(0, [(1, 1.0), (0.5j, 0.9)], 6.0), FilteredSet(0, [(2, 2.0)], 6.0)
    f, g = field_for(gamma, a, b, 2.5), field_for(gamma, a, b, 2.5)
    zs = np.linspace(0.01, 0.3, 33) * (1 + 0.4j)
    z = np.stack([zs, 1.1 * zs, 0.9 * zs])
    t, segs = np.array([0.1, 0.1, 0.6]), np.array([0, 0, 1])
    got = fast_path_call(f, z, t, segs)
    assert got.tobytes() == g(z, t, segs).tobytes()
    assert f.min_chi == g.min_chi < math.inf


def test_field_fast_path_guard_names_the_time_value_and_bound_of_the_general_path():
    gamma = Path([0.25, 3.0])
    a = b = FilteredSet(0, [(1, 1.0)], 6.0)
    t_hit = float((2.0 - 0.25) / 2.75)  # gamma(t_hit) == 2, a plain-sum pair with z = 1
    z = np.array([[0.1 + 0j, 0.2 + 0j], [0.3 + 0j, 1.0 + 0j], [0.1 + 0j, 1.0 + 0j]])
    t, segs = np.array([0.5, t_hit, t_hit]), np.zeros(3, dtype=int)
    errors = []
    for call in (lambda f: fast_path_call(f, z, t, segs), lambda f: f(z, t, segs)):
        with pytest.raises(ChiGuardError) as info:
            call(FlowField(gamma, a, b, 4.0, 1e-3))
        errors.append(info.value)
    fast, general = errors
    assert (fast.t, fast.value, fast.bound) == (general.t, general.value, general.bound)
    assert fast.t == t_hit and fast.value <= 1e-3 == fast.bound


# -- time nodes ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 12_345), st.floats(0.01, 1.0), st.floats(0.0, 2 * math.pi))
@example(n_t=8, size=0.25, angle=0.0)
@example(n_t=12_345, size=1.0, angle=1.0)
def test_single_segment_takes_exactly_n_t_steps(n_t, size, angle):
    gamma = Path([0.1, 0.1 + size * cmath.exp(1j * angle)])
    t_nodes, seg_of_step = _t_nodes_for(gamma, n_t)
    # the nodes j / n_t of a uniform split, bit for bit
    assert t_nodes.tobytes() == (np.arange(n_t + 1) / n_t).tobytes()
    assert seg_of_step.tobytes() == np.zeros(n_t, dtype=int).tobytes()


@st.composite
def polylines(draw):
    """A route of up to 4 segments, then a regular polygon of 3-32 sides
    closed on the route's end, built as the probe builds its circle."""
    verts = [complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))]
    for _ in range(draw(st.integers(0, 4))):
        step = draw(st.floats(1e-3, 1.0)) * cmath.exp(1j * draw(st.floats(0, 2 * math.pi)))
        verts.append(verts[-1] + step)
    sides = draw(st.integers(3, 32))
    radius = draw(st.floats(1e-3, 1.0))
    centre = verts[-1] + radius * cmath.exp(1j * draw(st.floats(0, 2 * math.pi)))
    phi0 = cmath.phase(verts[-1] - centre)
    circle = [centre + radius * cmath.exp(1j * (phi0 + 2 * math.pi * k / sides))
              for k in range(1, sides)]
    return Path(verts + circle + [verts[-1]]), sides


@settings(max_examples=100, deadline=None)
@given(polylines(), st.integers(8, 4096))
@example(path_sides=(Path([0.0, 1.0, 2.0, 3.0, 4.0]), 4), n_t=8)
@example(path_sides=(Path([0.0, 1.0, 2.0, 3.0, 4.0]), 4), n_t=10)
def test_time_steps_are_equal_on_equal_sides_and_at_most_the_mean(path_sides, n_t):
    gamma, sides = path_sides
    t_nodes, seg_of_step = _t_nodes_for(gamma, n_t)
    n_seg = len(gamma.seg_lengths)
    counts = np.bincount(seg_of_step, minlength=n_seg)
    assert len(counts) == n_seg and np.all(counts >= 1)
    # n_t is a floor: each segment rounds its share up
    assert n_t <= len(t_nodes) - 1 < n_t + n_seg
    # the polygon's sides are equal up to rounding, and so are their counts
    assert len(set(counts[-sides:])) == 1
    # every vertex is a node, and no step is longer than |gamma| / n_t
    fracs = gamma.vertex_fractions()
    assert np.array_equal(t_nodes[np.cumsum(np.concatenate([[0], counts]))], fracs)
    assert np.max(np.diff(t_nodes)) <= (1.0 + 1e-9) / n_t


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


@pytest.mark.parametrize("kw", [{"eps_den": math.nan}, {"eps_den": math.inf},
                                {"delta_len": math.nan}, {"delta_len": math.inf},
                                {"delta_len": 0.0}, {"delta_len": -1.0}])
def test_deform_rejects_non_finite_guards(kw):
    gamma, s = straight_config()
    with pytest.raises(PreconditionError):
        deform(gamma, s, s, 2.0, n_s=16, n_t=64, **kw)


@pytest.mark.parametrize("value", [True, "0.1", 0.1 + 0j, math.nan])
@pytest.mark.parametrize("name", ["eps_den", "delta_len"])
def test_deform_refuses_a_guard_that_is_not_a_real_number(name, value):
    gamma, s = straight_config()
    with pytest.raises(PreconditionError):
        deform(gamma, s, s, 2.0, n_s=16, n_t=64, **{name: value})


@pytest.mark.parametrize("delta_len", [True, "0.1", 0.1 + 0j, math.nan])
def test_validate_refuses_a_length_budget_that_is_not_a_real_number(delta_len):
    gamma, s = straight_config()
    grid = deform(gamma, s, s, 2.0, n_s=16, n_t=64)
    with pytest.raises(PreconditionError, match="length budget"):
        validate(grid, delta_len=delta_len)


@pytest.mark.parametrize("delta_len", [math.nan, math.inf, 0.0, -1.0])
def test_validate_rejects_a_length_budget_deform_rejects(delta_len):
    # the same check as deform's, not a failing report
    gamma, s = straight_config()
    grid = deform(gamma, s, s, 2.0, n_s=16, n_t=64)
    with pytest.raises(PreconditionError, match="length budget"):
        validate(grid, delta_len=delta_len)
    assert validate(grid, delta_len=1e-3).length_ok


@pytest.mark.parametrize("kw", [{"n_s": 16.5}, {"n_s": np.float64(16)}, {"n_t": 16.0},
                                {"n_t": True}, {"n_s": "16"}])
def test_deform_rejects_a_grid_size_that_is_not_an_integer(kw):
    # as ConvolveConfig does; numpy integers are integers
    gamma, s = straight_config()
    sizes = {"n_s": 16, "n_t": 64, **kw}
    with pytest.raises(PreconditionError, match="must be an integer"):
        deform(gamma, s, s, 2.0, **sizes)
    assert deform(gamma, s, s, 2.0, n_s=np.int64(16), n_t=np.int32(16)).H.shape == (17, 17)


def test_deform_guard_trips_near_fine_sum_point():
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [], 6.0)
    gamma = Path([0.25, 1 + 1e-3j, 1.75])
    with pytest.raises(ChiGuardError):
        deform(gamma, a, b, 2.2, n_s=16, n_t=64, eps_den=1e-2)


def test_guard_error_names_time_value_and_bound():
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [], 6.0)
    gamma = Path([0.25, 1 + 1e-3j, 1.75])
    with pytest.raises(ChiGuardError) as info:
        deform(gamma, a, b, 2.2, n_s=16, n_t=64, eps_den=1e-2)
    err = info.value
    assert all(isinstance(x, float) for x in (err.t, err.value, err.bound))
    assert err.bound == 1e-2
    assert err.value <= err.bound
    assert 0.0 <= err.t <= 1.0
    assert f"t={err.t:.6f}" in str(err)


def test_deform_length_tolerance_violation():
    a = FilteredSet(0, [(0.26j, 0.3)], 3.0)
    b = FilteredSet(0, [(2.0, 2.0)], 3.0)
    # a straight gamma's residual is exactly 0, as its top row is gamma; this
    # one's is a rounding above 0
    gamma = Path([0.25, 0.4 + 0.1j, 0.5 + 0.3j, 0.3 + 0.45j, 0.1 + 0.35j])
    with pytest.raises(ToleranceError) as info:
        deform(gamma, a, b, 1.5, n_s=16, n_t=32, delta_len=1e-18)
    # the residual the identity measured, against the budget it broke
    exc = info.value
    assert exc.stage == "length identity" and exc.bound == 1e-18 < exc.value
    grid = deform(gamma, a, b, 1.5, n_s=16, n_t=32)
    assert exc.value == grid.length_residual


def test_length_residual_bits_equal_whole_grid_formula():
    gamma = Path([0.25, 0.4 + 0.1j, 0.5 + 0.3j, 0.3 + 0.45j, 0.1 + 0.35j])
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [(2, 2.0)], 6.0)
    grid = deform(gamma, a, b, 2.5, n_s=40, n_t=128)  # 41 rows: a short last block
    g_vals = grid.gamma_values()
    rows = np.abs(np.diff(grid.H, axis=1)).sum(axis=1)
    mirrors = np.abs(np.diff(g_vals[None, :] - grid.H, axis=1)).sum(axis=1)
    want = max(float(np.max(rows + mirrors - gamma.length)), 0.0)
    assert grid.length_residual == want
    assert validate(grid).length_residual == want


def test_validate_residuals_bits_equal_whole_grid_formulas():
    gamma = Path([0.25, 0.4 + 0.1j, 0.5 + 0.3j, 0.3 + 0.45j, 0.1 + 0.35j])
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [(2, 2.0)], 6.0)
    grid = deform(gamma, a, b, 2.5, n_s=40, n_t=128)  # 41 rows: three blocks and a short one
    g_vals = grid.gamma_values()
    d_gamma = np.abs(np.diff(g_vals))
    d_rows = np.abs(np.diff(grid.H, axis=1))
    d_mirror = np.abs(np.diff(g_vals[None, :] - grid.H, axis=1))
    speed = np.max(np.abs(d_rows + d_mirror - d_gamma) / d_gamma)
    assert validate(grid).speed_residual == float(speed)
    # the node re-check alone, against sets that put a plain-sum pair on
    # node (20, 64), in the second block of rows: chi is 0 there only
    z = grid.H[20, 64]
    a2 = FilteredSet(0, [(z, 0.5)], 6.0)
    b2 = FilteredSet(0, [(g_vals[64] - z, 0.5)], 6.0)
    tampered = DeformationGrid(**{**vars(grid), "set_a": a2, "set_b": b2, "min_chi": math.inf})
    chi = eta(a2.at_level(2.5), grid.H) + eta(b2.at_level(2.5), g_vals - grid.H)
    assert np.min(chi) == 0.0 and np.sum(chi == 0.0) == 1
    assert validate(tampered).min_chi == 0.0


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
    m = mirror(grid.H)
    assert np.all(m[0, :] == 0)
    g_vals = grid.H[-1, :]
    assert np.all(m[-1, :] == g_vals)
    i = 5
    assert np.all(m[i, :] == g_vals - grid.H[grid.n_s - i, :])


def test_mirror_of_a_column_is_that_column_of_the_mirror():
    a = FilteredSet(0, [(0.26j, 0.3)], 3.0)
    b = FilteredSet(0, [(2.0, 2.0)], 3.0)
    grid = deform(Path([0.2 + 0.2j, 0.8 + 0.2j, 0.9 + 0.5j]), a, b, 1.5, n_s=16, n_t=64)
    m = mirror(grid.H)
    for j in range(grid.n_t + 1):
        assert mirror(grid.H[:, j]).tobytes() == m[:, j].tobytes()


@pytest.mark.parametrize("n_s", [8, 9, 16, 63, 96, 512, 4096])
def test_s_nodes_are_graded_toward_both_ends(n_s):
    s = row_nodes(n_s)
    assert s[0] == 0.0 and s[-1] == 1.0
    assert np.all(np.diff(s) > 0)
    # symmetric about 1/2, so row i and its mirror row n_s - i sit at s and 1 - s
    assert np.max(np.abs(s + s[::-1] - 1.0)) <= np.spacing(1.0)
    # Chebyshev-Lobatto: the end cells are about pi^2 / (4 n_s^2) long
    assert s[1] == pytest.approx((1.0 - math.cos(math.pi / n_s)) / 2.0, rel=1e-12)
    gamma, fset = straight_config()
    grid = deform(gamma, fset, fset, 2.0, n_s=n_s, n_t=8)
    assert grid.s_nodes.tobytes() == s.tobytes()
    assert grid.H[:, 0].tobytes() == (s.astype(complex) * gamma.start).tobytes()


@pytest.mark.parametrize("n_s", [96, 512])
def test_every_other_row_is_the_grid_at_half_n_s(n_s):
    # row_nodes' docstring: for even n_s every other node is bit for bit the
    # nodes at n_s / 2, and so is every other row of the flow
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [(2, 2.0)], 6.0)
    gamma = Path(CURVED_GAMMA)
    fine = deform(gamma, a, b, 2.5, n_s=n_s, n_t=64)
    half = deform(gamma, a, b, 2.5, n_s=n_s // 2, n_t=64)
    assert fine.s_nodes[::2].tobytes() == half.s_nodes.tobytes()
    assert fine.H[::2].tobytes() == half.H.tobytes()


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
        t_nodes=grid.t_nodes, H=grid.H,
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
