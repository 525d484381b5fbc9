"""Contour deformation by a non-autonomous flow.

Given a target endpoint path gamma and two filtered sets A, B at a working
budget L, the initial straight segment s -> s*gamma(0) is dragged by the
flow of

    X(z, t) = eta_A(z) / (eta_A(z) + eta_B(gamma(t) - z)) * gamma'(t)

where eta_S is the euclidean distance to the members of S at level L.  The
denominator vanishes exactly on pairs realizing a plain-sum point, which an
allowed gamma avoids; numerically we refuse to integrate through
near-singular denominators (chi guard) and ask the caller to reroute.

The family is sampled at graded rows s_k (`row_nodes`, Chebyshev-Lobatto on
[0, 1]), dense at both ends of the contour: the centre is a member of A at
every level, so the field goes like |z| there and the rows leave it
geometrically; the mirror does the same at the far end.

The resulting family H_t(s) fixes the centre (H_t(0) = 0), ends on gamma
(H_t(1) = gamma(t)), and the ratio structure of X makes the speeds of a
deformed path and of its mirror complement add up exactly to the speed of
gamma, so the pair of factor paths always fits in the budget L split two
ways.  That length bookkeeping is validated on every node.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ChiGuardError, PreconditionError, ToleranceError
from .filtered_set import FilteredSet
from .paths import (
    CONCAT_TOL,
    INCIDENCE_TOL,
    AdmissibleLevelInterval,
    Path,
    _dedupe_consecutive,
    admissible_levels,
    concat,
)

ENDPOINT_TOL = 1e-6       # validate: top row against gamma
SPEED_TOL = 1e-3          # validate: relative defect of |dH| + |dH_mirror| = |dgamma|
LENGTH_BUDGET_REL = 1e-4  # default length budget, relative to |seed+gamma|
LENGTH_ROWS = 16          # grid rows per block of the length identity check


def eta(points, z):
    """Euclidean distance of z (scalar or array) to a finite point set;
    +inf for the empty set, exactly 0 on the set."""
    pts = np.asarray(points, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if pts.size == 0:
        return np.full(z.shape, np.inf) if z.shape else math.inf
    # reduce over the points on the leading axis: a minimum over a short
    # inner axis per element costs several times more
    d = np.minimum.reduce(np.abs(pts.reshape((-1,) + (1,) * z.ndim) - z), axis=0)
    return d if z.shape else float(d)


class FlowField:
    """The deformation field for one (gamma, A, B, L) configuration.

    Tracks the minimum denominator chi seen across all evaluations; an
    evaluation with chi <= eps_den raises ChiGuardError.
    """

    def __init__(self, gamma: Path, set_a: FilteredSet, set_b: FilteredSet,
                 level: float, eps_den: float | None = None):
        self.gamma = gamma
        self.level = float(level)
        self.pts_a = np.array(set_a.at_level(level), dtype=complex)
        self.pts_b = np.array(set_b.at_level(level), dtype=complex)
        self.speed = gamma.length  # |gamma'| in the standardized parametrization
        self.eps_den = (1e-8 * max(1.0, self.speed)) if eps_den is None else float(eps_den)
        self.min_chi = math.inf

    def gamma_prime(self, seg):
        """gamma' on segment seg (an int, or an array of them)."""
        g = self.gamma
        if g.is_constant():
            return 0.0 + 0.0j
        return g.seg_dirs[seg] * g.length

    def workspace(self, shape) -> tuple[np.ndarray, ...]:
        """What a field call at states of exactly the given shape needs
        besides them, ready to use: the members of A and of B, shaped to
        broadcast against a state; the stacked differences to them and
        their distances, whole and as their A and B slices; and buffers for
        eta_A, eta_B and chi."""
        shape = tuple(shape)
        lead, n_a = (-1,) + (1,) * len(shape), len(self.pts_a)
        diffs = np.empty((n_a + len(self.pts_b),) + shape, dtype=complex)
        dists = np.empty(diffs.shape)
        return (self.pts_a.reshape(lead), self.pts_b.reshape(lead),
                diffs, diffs[:n_a], diffs[n_a:], dists, dists[:n_a], dists[n_a:],
                np.empty(shape), np.empty(shape), np.empty(shape))

    def __call__(self, z, t, seg=None, at=None, out=None, work=None):
        """The deformation field X at state z (scalar or array) and time t,
        on segment seg of gamma (found from t when not given).  t is a
        scalar, or a 1-D array with one time per leading row of z (stacked
        RK4 stages); seg is then one segment for all rows or one per row.
        `at` is gamma's point and gamma' at t, when the caller has them
        (deform computes both for every stage once); seg is then not read.

        The fast path, taken when `at`, `out` and `work` are all given,
        serves the stepper: z is a complex array, `at` is already shaped to
        broadcast against it, `out` is an array of z's shape that receives
        X and is returned, and `work` is `workspace(z.shape)`.  It does no
        conversion, shape logic or allocation.  Any other call takes the
        general path, which shapes its arguments and buffers that way and
        then runs the same operations, so both give the same bits.

        |X| <= |gamma'| always; X vanishes on the members of A and equals
        gamma' where gamma(t) - z is a member of B (in particular along
        gamma itself).

        eta_A and eta_B reduce one stacked table of distances over its
        members; every element takes the operations of `eta`, in the same
        order."""
        scalar = False
        if at is None or out is None or work is None:
            if at is None:
                if seg is None:
                    seg = self.gamma.segments_at(t)
                at = self.gamma.points_at(t, seg), self.gamma_prime(seg)
            z = np.asarray(z, dtype=complex)
            scalar = not z.ndim
            z = np.atleast_1d(z)
            out, work = np.empty(z.shape, dtype=complex), self.workspace(z.shape)
            g, dg = at
            if np.ndim(t) and np.ndim(g) < z.ndim:
                rows = (1,) * (z.ndim - 1)
                at = g.reshape(g.shape + rows), np.reshape(dg, np.shape(dg) + rows)
        g, dg = at
        pts_a, pts_b, diffs, diff_a, diff_b, dists, dist_a, dist_b, ea, eb, chi = work
        np.subtract(pts_a, z, out=diff_a)
        np.subtract(g, z, out=out)  # gamma(t) - z, until X overwrites it
        np.subtract(pts_b, out, out=diff_b)
        np.abs(diffs, out=dists)
        np.minimum.reduce(dist_a, axis=0, out=ea)
        np.minimum.reduce(dist_b, axis=0, out=eb)
        np.add(ea, eb, out=chi)
        m = float(np.minimum.reduce(chi, axis=None))
        if m < self.min_chi:
            self.min_chi = m
        if m <= self.eps_den:
            t_min = t[np.unravel_index(np.argmin(chi), chi.shape)[0]] if np.ndim(t) else t
            raise ChiGuardError(
                f"flow denominator {m:.3e} <= {self.eps_den:.3e} at t={t_min:.6f}: "
                "the path passes too close to a plain-sum point at this level",
                t=float(t_min), value=m, bound=self.eps_den,
            )
        np.divide(ea, chi, out=ea)
        np.multiply(ea, dg, out=out)
        return out[0] if scalar else out


def row_nodes(n_s: int) -> np.ndarray:
    """The grid's rows on [0, 1]: Chebyshev-Lobatto nodes (1 - cos(pi k /
    n_s)) / 2, k = 0..n_s.  The ends are exactly 0 and 1, and k / n_s is a
    true division, so for even n_s every other node is bit for bit the
    nodes at n_s / 2."""
    return 0.5 * (1.0 - np.cos(np.pi * (np.arange(n_s + 1) / n_s)))


def _allocate_steps(seg_lengths, n_t: int):
    """Steps per segment: ceil(len_k / h) with h = |gamma| / n_t, at least
    one.  No step is longer than h, equal segments get equal counts (which
    keeps the trapezoid rule on a regular polygon symmetric), and the total
    lies in [n_t, n_t + len(seg_lengths)).  The quotient is shrunk by a
    relative 1e-9 before rounding up, so one that rounding lifted just
    above an integer keeps that integer: a single segment gets exactly n_t,
    and a step may exceed h by that 1e-9."""
    raw = np.asarray(seg_lengths) / float(np.sum(seg_lengths)) * n_t
    return np.maximum(1, np.ceil(raw * (1.0 - 1e-9)).astype(int))


def _t_nodes_for(gamma: Path, n_t: int):
    """Node parameters with every vertex on a node; uniform within each
    segment, with the step counts of `_allocate_steps`.  Returns (t_nodes,
    seg_of_step); n_t is a floor on the step count: len(t_nodes) is n_t + 1
    for a single segment or a constant gamma, and less than n_t + 1 +
    the number of segments otherwise."""
    if gamma.is_constant():
        return np.linspace(0.0, 1.0, n_t + 1), np.zeros(n_t, dtype=int)
    fracs = gamma.vertex_fractions()
    alloc = _allocate_steps(gamma.seg_lengths, n_t)
    nodes = [0.0]
    seg_of_step = []
    for k, nk in enumerate(alloc):
        t0, t1 = fracs[k], fracs[k + 1]
        for j in range(1, nk + 1):
            # land on the vertex parameter exactly at the segment end
            nodes.append(t1 if j == nk else t0 + (t1 - t0) * j / nk)
            seg_of_step.append(k)
    nodes[-1] = 1.0
    return np.array(nodes), np.array(seg_of_step, dtype=int)


@dataclass
class DeformationGrid:
    """Sampled deformation family and its mirror.

    H[i, j] is the deformed path at budget position s_i and time t_j, the
    s_i graded toward both ends (`row_nodes`); row 0 is identically the
    centre, the last row is gamma(t_j), column 0 is the initial straight
    seed segment s_i * gamma(0).  The mirror is derived, never stored: see
    `mirror`.  richardson_error estimates the error of one RK4 step over
    two time intervals (`_rk4_stacked`).
    """

    gamma: Path
    set_a: FilteredSet
    set_b: FilteredSet
    level: float
    t_nodes: np.ndarray
    H: np.ndarray
    lambda0gamma_length: float
    min_chi: float
    eps_den: float
    richardson_error: float
    length_residual: float

    @property
    def n_s(self) -> int:
        return self.H.shape[0] - 1

    @property
    def n_t(self) -> int:
        return self.H.shape[1] - 1

    @property
    def s_nodes(self) -> np.ndarray:
        return row_nodes(self.n_s)

    def gamma_values(self) -> np.ndarray:
        return self.gamma.points_at(self.t_nodes)


def mirror(H: np.ndarray) -> np.ndarray:
    """Mirror family: H_star_t(s) = H_t(1) - H_t(1 - s), exact arithmetic
    on the grid (row i maps to row N_s - i).  H is a whole grid or one
    column of it; a column's mirror is that column of the grid's mirror,
    bit for bit."""
    return H[-1] - H[::-1]


def _check_integer(name: str, value) -> None:
    """Refuse a grid size or count that is not an integer (PreconditionError)."""
    # bool is an Integral, but True is no grid size
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise PreconditionError(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value) -> None:
    """Refuse a level or guard that is not a real number (PreconditionError)."""
    # bool is a Real, but True is no level or guard
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise PreconditionError(f"{name} must be a real number, got {value!r}")


def _check_length_budget(delta_len: float | None) -> None:
    """Refuse a length budget that is given but not a positive, finite real."""
    if delta_len is None:
        return
    _check_real("length budget", delta_len)
    if not (delta_len > 0.0 and math.isfinite(delta_len)):
        raise PreconditionError(f"length budget must be positive and finite, got {delta_len}")


def _length_excess(grid: DeformationGrid, g_vals: np.ndarray,
                   delta_len: float | None) -> tuple[float, float]:
    """The length identity of a grid: the worst excess (at least 0) of
    |row| + |mirror row| over |gamma|, and the budget it must stay within
    (delta_len, or LENGTH_BUDGET_REL times |seed+gamma| when not given)."""
    # a few rows at a time: whole-grid temporaries would be twice the grid
    worst = []
    for i in range(0, grid.n_s + 1, LENGTH_ROWS):
        H = grid.H[i:i + LENGTH_ROWS]
        rows = np.abs(np.diff(H, axis=1)).sum(axis=1)
        mirrors = np.abs(np.diff(g_vals[None, :] - H, axis=1)).sum(axis=1)
        worst.append(np.max(rows + mirrors - grid.gamma.length))
    excess = float(np.max(worst))
    if delta_len is None:
        delta_len = LENGTH_BUDGET_REL * grid.lambda0gamma_length
    return max(excess, 0.0), delta_len


def seed_levels(gamma: Path, fine: FilteredSet) -> tuple[Path, AdmissibleLevelInterval]:
    """The seed segment from the centre to gamma(0) followed by gamma, and
    its admissible budgets against the fine sum `fine` of the two factor
    sets; raises PreconditionError when there are none."""
    lam0 = Path([0.0, gamma.start])
    lam0gamma = concat(lam0, gamma) if not gamma.is_constant() else lam0
    iv = admissible_levels(lam0gamma, fine)
    if iv.empty:
        raise PreconditionError(
            "seed+gamma is not allowed for the fine sum: "
            f"admissible interval ({iv.lower}, {iv.upper}]"
        )
    return lam0gamma, iv


def deform(gamma: Path, set_a: FilteredSet, set_b: FilteredSet, level: float,
           n_s: int = 64, n_t: int = 256, eps_den: float | None = None,
           delta_len: float | None = None) -> DeformationGrid:
    """Drag the seed segment along the flow so its endpoint path is gamma.

    Preconditions: both sets centred at 0; 0 < |gamma(0)| < min(rho_A,
    rho_B); the seed segment followed by gamma is allowed for the fine sum
    of the two sets at the working level.  n_t is a floor on the number of
    time intervals: each segment of gamma gets ceil(n_t * its length /
    |gamma|) of them (`_allocate_steps`), and the grid's `n_t` reports the
    count taken.  Integration is classical RK4, one step per two intervals
    of a segment (vertices of gamma are nodes, so each step sees a smooth
    field) whose first half step gives the node between, plus a
    two-half-steps error estimate (`_rk4_stacked`).  The top row is gamma.

    The discrete length bookkeeping |F_s| + |F*_(1-s)| <= |seed|+|gamma| +
    delta_len is checked for every row; a violation signals an
    under-resolved integration and raises ToleranceError.
    """
    return _deform(gamma, set_a, set_b, level, n_s, n_t, eps_den, delta_len, None)


def _deform(gamma: Path, set_a: FilteredSet, set_b: FilteredSet, level: float,
            n_s: int, n_t: int, eps_den: float | None, delta_len: float | None,
            levels: tuple[Path, AdmissibleLevelInterval] | None) -> DeformationGrid:
    """`deform`, given `seed_levels(gamma, fine sum)` as `levels` when the
    caller has it (None: computed here, after the other checks)."""
    if abs(set_a.centre) > CONCAT_TOL or abs(set_b.centre) > CONCAT_TOL:
        raise PreconditionError("deformation requires both sets centred at 0")
    _check_integer("n_s", n_s)
    _check_integer("n_t", n_t)
    _check_real("level", level)
    if n_s < 8 or n_t < 8:
        raise PreconditionError("grid sizes must be at least 8")
    if eps_den is not None:
        _check_real("denominator guard", eps_den)
        if not (eps_den >= 0.0 and math.isfinite(eps_den)):
            raise PreconditionError(
                f"denominator guard must be nonnegative and finite, got {eps_den}")
    _check_length_budget(delta_len)
    seed = complex(gamma.start)
    rho_min = min(set_a.rho, set_b.rho)
    if not (0.0 < abs(seed) < rho_min):
        raise PreconditionError(
            f"|gamma(0)| = {abs(seed)} must lie in (0, {rho_min}) "
            "(inside both seed discs)"
        )
    lam0gamma, iv = levels or seed_levels(gamma, set_a.fine_sum(set_b))
    if not iv.contains(level):
        raise PreconditionError(
            f"seed+gamma not allowed for the fine sum at level {level}: "
            f"admissible interval ({iv.lower}, {iv.upper}]"
        )

    t_nodes, seg_of_step = _t_nodes_for(gamma, n_t)

    field = FlowField(gamma, set_a, set_b, level, eps_den)
    H = np.empty((n_s + 1, len(t_nodes)), dtype=complex)
    Z = row_nodes(n_s).astype(complex) * seed
    H[:, 0] = Z
    rich = 0.0
    if gamma.is_constant():
        H[:] = Z[:, None]
    else:
        rich = _rk4_stacked(field, H, t_nodes, seg_of_step)

    grid = DeformationGrid(
        gamma=gamma, set_a=set_a, set_b=set_b, level=float(level),
        t_nodes=t_nodes, H=H, lambda0gamma_length=lam0gamma.length,
        min_chi=field.min_chi, eps_den=field.eps_den,
        richardson_error=rich, length_residual=0.0,
    )

    residual, delta_len = _length_excess(grid, grid.gamma_values(), delta_len)
    grid.length_residual = residual
    if residual > delta_len:
        raise ToleranceError(
            f"length identity violated by {residual:.3e} > {delta_len:.3e}; "
            "increase n_t", stage="length identity", value=residual, bound=delta_len)
    return grid


def _rk4_stacked(field: FlowField, H: np.ndarray, t_nodes, seg_of_step) -> float:
    """Classical RK4 from the state H[:, 0], one step per two intervals of
    a segment of gamma (one at a segment's odd end), writing each step's
    state and the first half step of a two-interval one into the columns of
    their end nodes.  Row 0, the centre, is frozen at 0 and row n_s is set
    to gamma(t_j), which the flow carries exactly; the field is still
    evaluated on both, so the guard sees gamma's distance to A.  Returns the
    Richardson estimate: the largest 16/15 |full step - two half steps|.

    One field call per stage evaluates every row of a stacked state of
    three rows.  Call j stacks step j's full step and first half step (rows
    0 and 1, sharing k1) with the second half step of step j - 1 (row 2),
    which starts from that step's first half; a last call takes the second
    half of the final step.  Call 0 has no second half to take and the last
    call no step to start, so their missing rows repeat a row of the same
    call: call 0's row 2 its row 1, the last call's rows 0 and 1 its row 2.
    A repeated row has the bits of the row it repeats, so it leaves every
    other row, min_chi and the time a guard reports (the first of equal
    denominators) as they are.  So a step costs 4 field calls, where its
    three single-state steps take 12, and each row has the bits of the
    single-state step it replaces: its own start time, step size and
    segment, and the same operations in the same order.  The guard trips in
    the call where single-state steps would stop, but it reports the
    smallest chi of the call's rows at its first stage that trips, which
    can lie up to one step past where they stop (ChiGuardError).

    Every call's start times, step sizes and segments are known before the
    first step, so gamma's point and gamma' at every stage time are
    computed in one pass; the loop binds each call's views of them once.
    The stage states, k1..k4 and the field's workspaces (one for the three
    rows, one for k1's two) are allocated once, every field call takes the
    field's fast path (`FlowField.__call__`), and every stage writes into
    the buffers with the operations, in the order, of z + (h/2) k1 and
    z + (h/6) (k1 + 2 k2 + 2 k3 + k4).
    """
    # steps start at each segment's even intervals (counted from the segment's
    # first, which searchsorted finds) and end where the next step starts
    first = np.searchsorted(seg_of_step, seg_of_step)
    starts = np.flatnonzero((np.arange(len(seg_of_step)) - first) % 2 == 0)
    ends = np.append(starts[1:], len(seg_of_step))
    n = len(starts)
    h = t_nodes[ends] - t_nodes[starts]
    ts, hs = np.empty((n + 1, 3)), np.empty((n + 1, 3))
    segs = np.empty((n + 1, 3), dtype=int)
    ts[:-1, 0] = ts[:-1, 1] = t_nodes[starts]
    ts[1:, 2] = t_nodes[starts] + h / 2
    hs[:-1, 0], hs[:-1, 1], hs[1:, 2] = h, h / 2, h / 2
    segs[:-1, 0] = segs[:-1, 1] = segs[1:, 2] = seg_of_step[starts]
    for a in (ts, hs, segs):  # the repeated rows of the first and last calls
        a[0, 2], a[-1, :2] = a[0, 1], a[-1, 2]
    stage_ts = np.stack([ts, ts + 0.5 * hs, ts + hs])  # k1, k2 and k3, k4
    # gamma's point and gamma' with an axis for the row's points
    g = field.gamma.points_at(stage_ts, segs)[..., None]
    dg = field.gamma_prime(segs)[..., None]
    hc = hs[..., None]
    hc_half, hc_sixth = 0.5 * hc, hc / 6.0

    shape = (3, H.shape[0])
    Z, k1, k2, k3, k4, st = (np.empty(shape, dtype=complex) for _ in range(6))
    work = field.workspace(shape)
    # k1 once per distinct start: rows 1 and 2, with a workspace of their own
    Z_k1, k1_k1 = Z[1:], k1[1:]
    work_k1 = field.workspace(Z_k1.shape)
    # the centre trajectory is frozen exactly, and the top row rides gamma
    H[0, 1:], H[-1, 1:] = 0.0, field.gamma.points_at(t_nodes[1:])

    Z[2] = H[:, 0]
    gaps = np.empty((n, H.shape[0]), dtype=complex)  # full step - two half steps
    # each call's stage times, gamma's point and gamma' at them, and step
    # factors, as views bound once per call
    calls = zip(stage_ts[0, :, 1:], zip(g[0, :, 1:], dg[:, 1:]), stage_ts[1], zip(g[1], dg),
                stage_ts[2], zip(g[2], dg), hc_half, hc, hc_sixth)
    for j, (t1, at1, t_mid, at_mid, t4, at4, h_half, h_full, h_sixth) in enumerate(calls):
        Z[0] = Z[1] = H[:, starts[j]] if j < n else Z[2]
        # every call is positional, as a wrapped field (a tracer's) may take them
        field(Z_k1, t1, None, at1, k1_k1, work_k1)
        k1[0] = k1[1]
        for k_in, k_out in ((k1, k2), (k2, k3)):
            np.multiply(h_half, k_in, out=st)
            np.add(Z, st, out=st)
            field(st, t_mid, None, at_mid, k_out, work)
        np.multiply(h_full, k3, out=st)
        np.add(Z, st, out=st)
        field(st, t4, None, at4, k4, work)
        # z + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.multiply(2.0, k2, out=k2)
        np.add(k1, k2, out=k2)
        np.multiply(2.0, k3, out=k3)
        np.add(k2, k3, out=k2)
        np.add(k2, k4, out=k2)
        np.multiply(h_sixth, k2, out=st)
        np.add(Z, st, out=st)
        if j:
            np.subtract(H[:, ends[j - 1]], st[2], out=gaps[j - 1])
        if j < n:
            H[1:-1, ends[j]] = st[0, 1:-1]
            if ends[j] - starts[j] == 2:
                H[1:-1, starts[j] + 1] = st[1, 1:-1]
            Z[2] = st[1]
    return float(np.max(np.abs(gaps))) * 16.0 / 15.0


@dataclass
class RowAdmissibility:
    s: float
    interval_a: AdmissibleLevelInterval
    interval_b: AdmissibleLevelInterval
    level_a: float
    level_b: float
    ok: bool


@dataclass
class ValidationReport:
    """Contract check of a deformation grid.

    endpoint: max |H[-1, j] - gamma(t_j)|, 0 by construction for deform's grids.
    speed_residual: worst relative defect of |dH| + |dH_mirror| = |dgamma|
    over interior nodes (finite differences).
    length_residual: worst excess of the two-sided discrete length over the
    seed+gamma length.
    rows: per-row admissibility of the deformed factor paths, with a budget
    split summing to at most the working level.
    min_chi: smallest flow denominator met during integration and on the
    grid nodes.
    richardson_error: the grid's estimate for one two-interval RK4 step.
    """

    endpoint_error: float
    speed_residual: float
    length_residual: float
    min_chi: float
    eps_den: float
    richardson_error: float
    level: float
    rows: list[RowAdmissibility] = field(default_factory=list)
    endpoint_ok: bool = False
    speed_ok: bool = False
    length_ok: bool = False
    admissible_ok: bool = False
    chi_ok: bool = False

    @property
    def passed(self) -> bool:
        return (self.endpoint_ok and self.speed_ok and self.length_ok
                and self.admissible_ok and self.chi_ok)

    def to_dict(self) -> dict:
        def num(x):
            return float(x) if math.isfinite(x) else None

        return {
            "endpoint_error": num(self.endpoint_error),
            "speed_residual": num(self.speed_residual),
            "length_residual": num(self.length_residual),
            "min_chi": num(self.min_chi),
            "eps_den": num(self.eps_den),
            "richardson_error": num(self.richardson_error),
            "level": num(self.level),
            "endpoint_ok": self.endpoint_ok,
            "speed_ok": self.speed_ok,
            "length_ok": self.length_ok,
            "admissible_ok": self.admissible_ok,
            "chi_ok": self.chi_ok,
            "passed": self.passed,
            "rows": [
                {
                    "s": num(r.s),
                    "interval_a": [num(r.interval_a.lower), num(r.interval_a.upper)],
                    "interval_b": [num(r.interval_b.lower), num(r.interval_b.upper)],
                    "level_a": num(r.level_a),
                    "level_b": num(r.level_b),
                    "ok": r.ok,
                }
                for r in self.rows
            ],
        }


def _trajectory_path(traj: np.ndarray) -> Path:
    """The seed segment from the centre, then the trajectory.  Vertices
    within the incidence tolerance of the last one kept are dropped:
    sub-tolerance wiggle (integration roundoff) is below the resolution at
    which hits are even defined and must not register as movement."""
    return Path(_dedupe_consecutive(np.concatenate([[0.0 + 0.0j], traj]), INCIDENCE_TOL))


def _split_levels(iv_a: AdmissibleLevelInterval, iv_b: AdmissibleLevelInterval,
                  level: float):
    """A budget split L1 + L2 <= level with L1, L2 admissible, if any."""
    slack = level - iv_a.lower - iv_b.lower
    if slack <= 0 or iv_a.empty or iv_b.empty:
        return None
    l1 = min(iv_a.upper, iv_a.lower + 0.5 * slack)
    l2 = min(iv_b.upper, level - l1)
    if not (iv_a.contains(l1) and iv_b.contains(l2)):
        return None
    return l1, l2


def validate(grid: DeformationGrid, delta_len: float | None = None) -> ValidationReport:
    """Check every grid contract and report residuals with pass flags.  The
    length residual is recomputed from H, not read from the grid."""
    _check_length_budget(delta_len)
    g_vals = grid.gamma_values()
    endpoint = float(np.max(np.abs(grid.H[-1, :] - g_vals)))

    # the speed identity and chi on the grid nodes, LENGTH_ROWS rows at a
    # time as in _length_excess
    d_gamma = np.abs(np.diff(g_vals))
    mask = d_gamma > 0
    pts_a = grid.set_a.at_level(grid.level)
    pts_b = grid.set_b.at_level(grid.level)
    resid, chi = [], []
    for i in range(0, grid.n_s + 1, LENGTH_ROWS):
        H = grid.H[i:i + LENGTH_ROWS]
        d_rows = np.abs(np.diff(H, axis=1))[:, mask]
        d_rows += np.abs(np.diff(g_vals[None, :] - H, axis=1))[:, mask]
        resid.append(np.max(np.abs(d_rows - d_gamma[mask]) / d_gamma[mask], initial=-math.inf))
        chi.append(np.min(eta(pts_a, H) + eta(pts_b, g_vals - H)))
    speed_resid = float(np.max(resid)) if mask.any() else 0.0
    chi_grid = float(np.min(chi)) if not grid.gamma.is_constant() else math.inf
    min_chi = min(grid.min_chi, chi_grid)

    len_resid, delta_len = _length_excess(grid, g_vals, delta_len)

    # row i: the factor path up to s_i, and its complement gamma - H_i
    rows = []
    all_ok = True
    s_nodes = grid.s_nodes
    for i in range(grid.n_s + 1):
        iv_a = admissible_levels(_trajectory_path(grid.H[i, :]), grid.set_a)
        iv_b = admissible_levels(_trajectory_path(g_vals - grid.H[i, :]), grid.set_b)
        split = _split_levels(iv_a, iv_b, grid.level)
        ok = split is not None
        all_ok = all_ok and ok
        l1, l2 = split if ok else (math.nan, math.nan)
        rows.append(RowAdmissibility(float(s_nodes[i]), iv_a, iv_b, l1, l2, ok))

    rep = ValidationReport(
        endpoint_error=endpoint, speed_residual=speed_resid,
        length_residual=len_resid, min_chi=min_chi, eps_den=grid.eps_den,
        richardson_error=grid.richardson_error, level=grid.level, rows=rows,
    )
    rep.endpoint_ok = endpoint <= ENDPOINT_TOL
    rep.speed_ok = speed_resid <= SPEED_TOL
    rep.length_ok = len_resid <= delta_len
    rep.admissible_ok = all_ok
    rep.chi_ok = min_chi > grid.eps_den
    return rep
