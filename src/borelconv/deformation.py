"""Contour deformation by a non-autonomous flow.

Given a target endpoint path gamma and two filtered sets A, B at a working
budget L, the initial straight segment s -> s*gamma(0) is dragged by the
flow of

    X(z, t) = eta_A(z) / (eta_A(z) + eta_B(gamma(t) - z)) * gamma'(t)

where eta_S is the euclidean distance to the members of S at level L.  The
denominator vanishes exactly on pairs realizing a plain-sum point, which an
allowed gamma avoids; numerically we refuse to integrate through
near-singular denominators (chi guard) and ask the caller to reroute.

The resulting family H_t(s) fixes the centre (H_t(0) = 0), ends on gamma
(H_t(1) = gamma(t)), and the ratio structure of X makes the speeds of a
deformed path and of its mirror complement add up exactly to the speed of
gamma, so the pair of factor paths always fits in the budget L split two
ways.  That length bookkeeping is validated on every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChiGuardError, PreconditionError, ToleranceError
from .filtered_set import FilteredSet
from .paths import (
    INCIDENCE_TOL,
    AdmissibleLevelInterval,
    Path,
    _dedupe_consecutive,
    admissible_levels,
    concat,
)


def eta(points, z):
    """Euclidean distance of z (scalar or array) to a finite point set;
    +inf for the empty set, exactly 0 on the set."""
    pts = np.asarray(points, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if pts.size == 0:
        return np.full(z.shape, np.inf) if z.shape else math.inf
    d = np.abs(z[..., None] - pts).min(axis=-1)
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

    def gamma_prime(self, seg: int) -> complex:
        g = self.gamma
        if g.is_constant():
            return 0.0 + 0.0j
        return g.seg_dirs[seg] * g.length

    def __call__(self, z, t: float, seg: int | None = None):
        """The deformation field X at state z (scalar or vector) and time t,
        on segment seg of gamma (found from t when not given).

        |X| <= |gamma'| always; X vanishes on the members of A and equals
        gamma' where gamma(t) - z is a member of B (in particular along
        gamma itself)."""
        if seg is None:
            seg = self.gamma.segments_at(t)
        z = np.asarray(z, dtype=complex)
        ea = eta(self.pts_a, z)
        eb = eta(self.pts_b, self.gamma.points_at(t, seg) - z)
        chi = ea + eb
        m = float(np.min(chi))
        if m < self.min_chi:
            self.min_chi = m
        if m <= self.eps_den:
            raise ChiGuardError(
                f"flow denominator {m:.3e} <= {self.eps_den:.3e} at t={t:.6f}: "
                "the path passes too close to a plain-sum point at this level"
            )
        return (ea / chi) * self.gamma_prime(seg)


def _allocate_steps(seg_lengths, n_total: int):
    """Distribute n_total steps over segments proportionally to length,
    at least one per segment (largest remainder rounding)."""
    n_seg = len(seg_lengths)
    total = float(np.sum(seg_lengths))
    raw = np.asarray(seg_lengths) / total * n_total
    base = np.maximum(1, np.floor(raw).astype(int))
    while base.sum() > n_total:
        k = int(np.argmax(base - raw))
        if base[k] <= 1:
            break
        base[k] -= 1
    while base.sum() < n_total:
        k = int(np.argmin(base - raw))
        base[k] += 1
    assert base.sum() >= n_seg
    return base


def _t_nodes_for(gamma: Path, n_t: int):
    """Node parameters with every vertex on a node; uniform within each
    segment.  Returns (t_nodes, seg_of_step) with len(t_nodes) = n_t + 1."""
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

    H[i, j] is the deformed path at budget position s_i and time t_j; row 0
    is identically the centre, the last row coincides with gamma, column 0
    is the initial straight seed segment.  The mirror satisfies
    H_star[i, j] = H[-1, j] - H[N_s - i, j] exactly by construction.
    """

    gamma: Path
    set_a: FilteredSet
    set_b: FilteredSet
    level: float
    s_nodes: np.ndarray
    t_nodes: np.ndarray
    H: np.ndarray
    H_star: np.ndarray
    seed: complex
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

    def gamma_values(self) -> np.ndarray:
        return self.gamma.points_at(self.t_nodes)


def mirror(H: np.ndarray | DeformationGrid) -> np.ndarray:
    """Mirror family: H_star_t(s) = H_t(1) - H_t(1 - s), exact arithmetic
    on the grid (row i maps to row N_s - i)."""
    if isinstance(H, DeformationGrid):
        H = H.H
    return H[-1, :][None, :] - H[::-1, :]


def _row_lengths(H: np.ndarray) -> np.ndarray:
    return np.abs(np.diff(H, axis=1)).sum(axis=1)


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
    of the two sets at the working level.  Integration is classical RK4
    with a fixed step per time node (vertices of gamma are always nodes so
    each step sees a smooth field) plus a two-half-steps error estimate.

    The discrete length bookkeeping |F_s| + |F*_(1-s)| <= |seed|+|gamma| +
    delta_len is checked for every row; a violation signals an
    under-resolved integration and raises ToleranceError.
    """
    if abs(set_a.centre) > 1e-12 or abs(set_b.centre) > 1e-12:
        raise PreconditionError("deformation requires both sets centred at 0")
    if n_s < 8 or n_t < 8:
        raise PreconditionError("grid sizes must be at least 8")
    if eps_den is not None and eps_den < 0.0:
        raise PreconditionError("denominator guard must be nonnegative")
    if delta_len is not None and delta_len <= 0.0:
        raise PreconditionError("length budget must be positive")
    seed = complex(gamma.start)
    rho_min = min(set_a.rho, set_b.rho)
    if not (0.0 < abs(seed) < rho_min):
        raise PreconditionError(
            f"|gamma(0)| = {abs(seed)} must lie in (0, {rho_min}) "
            "(inside both seed discs)"
        )
    lam0gamma, iv = seed_levels(gamma, set_a.fine_sum(set_b))
    if not iv.contains(level):
        raise PreconditionError(
            f"seed+gamma not allowed for the fine sum at level {level}: "
            f"admissible interval ({iv.lower}, {iv.upper}]"
        )

    s_nodes = np.linspace(0.0, 1.0, n_s + 1)
    t_nodes, seg_of_step = _t_nodes_for(gamma, n_t)
    n_t_eff = len(t_nodes) - 1

    field = FlowField(gamma, set_a, set_b, level, eps_den)
    H = np.empty((n_s + 1, n_t_eff + 1), dtype=complex)
    Z = s_nodes.astype(complex) * seed
    H[:, 0] = Z
    rich = 0.0
    if gamma.is_constant():
        for j in range(1, n_t_eff + 1):
            H[:, j] = Z
    else:
        for j in range(n_t_eff):
            t0, t1 = t_nodes[j], t_nodes[j + 1]
            seg = int(seg_of_step[j])
            h = t1 - t0
            z_full = _rk4_step(field, Z, t0, h, seg)
            z_half = _rk4_step(field, Z, t0, h / 2, seg)
            z_half = _rk4_step(field, z_half, t0 + h / 2, h / 2, seg)
            rich = max(rich, float(np.max(np.abs(z_full - z_half))) * 16.0 / 15.0)
            Z = z_full
            Z[0] = 0.0  # the centre trajectory is frozen exactly
            H[:, j + 1] = Z

    grid = DeformationGrid(
        gamma=gamma, set_a=set_a, set_b=set_b, level=float(level),
        s_nodes=s_nodes, t_nodes=t_nodes, H=H, H_star=mirror(H),
        seed=seed, lambda0gamma_length=lam0gamma.length,
        min_chi=field.min_chi, eps_den=field.eps_den,
        richardson_error=rich, length_residual=0.0,
    )

    if delta_len is None:
        delta_len = 1e-4 * lam0gamma.length
    g_vals = grid.gamma_values()
    len_rows = _row_lengths(H)
    len_mirror = _row_lengths(g_vals[None, :] - H)
    residual = float(np.max(len_rows + len_mirror - gamma.length))
    grid.length_residual = max(residual, 0.0)
    if residual > delta_len:
        raise ToleranceError(
            f"length identity violated by {residual:.3e} > {delta_len:.3e}; "
            "increase n_t"
        )
    return grid


def _rk4_step(field: FlowField, Z, t0: float, h: float, seg: int):
    k1 = field(Z, t0, seg)
    k2 = field(Z + 0.5 * h * k1, t0 + 0.5 * h, seg)
    k3 = field(Z + 0.5 * h * k2, t0 + 0.5 * h, seg)
    k4 = field(Z + h * k3, t0 + h, seg)
    return Z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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

    endpoint: max |H[-1, j] - gamma(t_j)|.
    speed_residual: worst relative defect of |dH| + |dH_mirror| = |dgamma|
    over interior nodes (finite differences).
    length_residual: worst excess of the two-sided discrete length over the
    seed+gamma length.
    rows: per-row admissibility of the deformed factor paths, with a budget
    split summing to at most the working level.
    min_chi: smallest flow denominator met during integration and on the
    grid nodes.
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
    return Path(_dedupe_consecutive([0.0 + 0.0j] + list(traj), INCIDENCE_TOL))


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


def validate(grid: DeformationGrid, tol_endpoint: float = 1e-6,
             tol_speed: float = 1e-3, delta_len: float | None = None) -> ValidationReport:
    """Check every grid contract and report residuals with pass flags."""
    g_vals = grid.gamma_values()
    endpoint = float(np.max(np.abs(grid.H[-1, :] - g_vals)))

    d_gamma = np.abs(np.diff(g_vals))
    d_rows = np.abs(np.diff(grid.H, axis=1))
    d_mirror = np.abs(np.diff(g_vals[None, :] - grid.H, axis=1))
    mask = d_gamma > 0
    if mask.any():
        resid = np.abs(d_rows[:, mask] + d_mirror[:, mask] - d_gamma[mask]) / d_gamma[mask]
        speed_resid = float(np.max(resid))
    else:
        speed_resid = 0.0

    if delta_len is None:
        delta_len = 1e-4 * grid.lambda0gamma_length
    len_resid = float(np.max(_row_lengths(grid.H) + _row_lengths(g_vals[None, :] - grid.H)
                             - grid.gamma.length))
    len_resid = max(len_resid, 0.0)

    # row i: the factor path up to s_i, and its complement gamma - H_i
    rows = []
    all_ok = True
    for i in range(grid.n_s + 1):
        iv_a = admissible_levels(_trajectory_path(grid.H[i, :]), grid.set_a)
        iv_b = admissible_levels(_trajectory_path(g_vals - grid.H[i, :]), grid.set_b)
        split = _split_levels(iv_a, iv_b, grid.level)
        ok = split is not None
        all_ok = all_ok and ok
        l1, l2 = split if ok else (math.nan, math.nan)
        rows.append(RowAdmissibility(float(grid.s_nodes[i]), iv_a, iv_b, l1, l2, ok))

    # recheck chi on the stored grid nodes as well
    chi_grid = math.inf
    if not grid.gamma.is_constant():
        chi_grid = float(np.min(eta(grid.set_a.at_level(grid.level), grid.H)
                                + eta(grid.set_b.at_level(grid.level), g_vals - grid.H)))
    min_chi = min(grid.min_chi, chi_grid)

    rep = ValidationReport(
        endpoint_error=endpoint, speed_residual=speed_resid,
        length_residual=len_resid, min_chi=min_chi, eps_den=grid.eps_den,
        richardson_error=grid.richardson_error, level=grid.level, rows=rows,
    )
    rep.endpoint_ok = endpoint <= tol_endpoint
    rep.speed_ok = speed_resid <= tol_speed
    rep.length_ok = len_resid <= delta_len
    rep.admissible_ok = all_ok
    rep.chi_ok = min_chi > grid.eps_den
    return rep
