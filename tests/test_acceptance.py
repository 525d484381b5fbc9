"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured margins.
"""

import cmath
import math
import time

import numpy as np

from borelconv import (
    ConvolveConfig,
    FilteredSet,
    Germ,
    Path,
    convolve_along,
    convolve_at,
    deform,
    glimpsed,
    glimpsed_by_filtration,
    validate,
)
from conftest import (
    CURVED_GAMMA,
    circle_oracle_error,
    pole_pole_oracle,
    random_directional_config,
    random_set,
    sets_equal,
)


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _cluster_ids(points, tol=1e-9):
    reps, ids = [], []
    for p in points:
        for k, q in enumerate(reps):
            if abs(p - q) <= tol:
                ids.append(k)
                break
        else:
            reps.append(p)
            ids.append(len(reps) - 1)
    return reps, np.array(ids, dtype=int)


def _brute_vs_stored(a, b, op, L_grid):
    """Vectorized membership comparison over the budget grid: activation of
    pair decompositions versus the stored levels of the computed set."""
    w = a.centre
    result = {"union": a.union, "sum": a.sum, "fine": a.fine_sum}[op](b)
    mem_a = [(w, 0.0)] + list(a.entries)
    mem_b = [(w, 0.0)] + list(b.entries)
    cand_pts, cand_lo = [], []
    if op == "union":
        for p, lv in list(a.entries) + list(b.entries):
            cand_pts.append(p)
            cand_lo.append(lv)
    else:
        for p, lp in mem_a:
            for q, lq in mem_b:
                c = p + q - w
                if abs(c - w) <= 1e-9:
                    continue
                cand_pts.append(c)
                cand_lo.append(max(lp, lq, abs(c - w)) if op == "sum" else lp + lq)
    all_pts = cand_pts + [p for p, _ in result.entries]
    _, ids = _cluster_ids(all_pts)
    n_cand = len(cand_pts)
    n_cluster = int(ids.max()) + 1 if len(ids) else 0
    L = np.asarray(L_grid)
    brute = np.zeros((n_cluster, len(L)), dtype=bool)
    stored = np.zeros((n_cluster, len(L)), dtype=bool)
    if n_cand:
        act = np.asarray(cand_lo)[:, None] < L[None, :]
        np.logical_or.at(brute, ids[:n_cand], act)
    if len(result.entries):
        act = np.array([lv for _, lv in result.entries])[:, None] < L[None, :]
        np.logical_or.at(stored, ids[n_cand:], act)
    return bool(np.array_equal(brute, stored))


def test_criterion_1_algebra_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    pairs = [(random_set(rng, horizon=rng.uniform(4.0, 10.0)),
              random_set(rng, horizon=rng.uniform(4.0, 10.0)))
             for _ in range(100)]
    ok = True
    for a, b in pairs:
        h = min(a.horizon, b.horizon)
        grid = rng.uniform(1e-6, h, size=1000)
        for op in ("union", "sum", "fine"):
            ok = ok and _brute_vs_stored(a, b, op, grid)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(1, ok, f"100 pairs x 3 ops x 1000 budgets exact, {elapsed:.2f}s < 5s")
    test_criterion_1_algebra_oracle.sets = [s for pair in pairs for s in pair]


def test_criterion_2_saturation():
    sat = FilteredSet(0, [(1, 1.0)], 4.5).saturate()
    want = FilteredSet(0, [(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)], 4.5)
    ok = sets_equal(sat, want)
    sets = getattr(test_criterion_1_algebra_oracle, "sets", None)
    if sets is None:
        rng = np.random.default_rng(2024)
        sets = [random_set(rng, horizon=rng.uniform(4.0, 10.0)) for _ in range(200)]
    idem = all(sets_equal(s.saturate(), s.saturate().saturate()) for s in sets)
    ok = ok and idem
    report(2, ok, f"single generator to horizon 4.5 exact; idempotent on {len(sets)} sets")


def test_criterion_3_glimpse_equivalence():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(100):
        s, theta, _ = random_directional_config(rng)
        g = glimpsed(s, theta)
        o = glimpsed_by_filtration(s, theta)
        same = len(g.points) == len(o.points) and all(
            abs(p - q) <= 1e-12 and abs(lv - lw) <= 1e-12
            for (p, lv), (q, lw) in zip(g.points, o.points))
        ok = ok and same
    report(3, ok, "closed form == filtration walk on 100 directional configs")


def test_criterion_4_deformation_contracts():
    t0 = time.perf_counter()
    target = 0.5 + 0.2j
    gamma = Path([target / 4, target])
    s = FilteredSet(0, [(1, 1.0)], 3.0)
    grid = deform(gamma, s, s, 2.0, n_s=64, n_t=512)
    rep = validate(grid)
    ok_endpoint = rep.endpoint_error <= 1e-6
    ok_speed = rep.speed_residual <= 1e-3
    ok_rows = rep.admissible_ok and all(
        r.level_a + r.level_b <= grid.level + 1e-9 for r in rep.rows)

    # order check on the pinned configuration: the nearest member never
    # switches along any trajectory here and the integrator is exact up to
    # roundoff, so the halving factor is reported as exactness when both
    # errors sit on the floor
    g1024 = deform(gamma, s, s, 2.0, n_s=64, n_t=1024)
    gref = deform(gamma, s, s, 2.0, n_s=64, n_t=8192)
    e512 = float(np.max(np.abs(grid.H - gref.H[:, ::16])))
    e1024 = float(np.max(np.abs(g1024.H - gref.H[:, ::8])))
    exact_floor = 1e-12
    if e512 <= exact_floor and e1024 <= exact_floor:
        ok_conv = True
        conv_note = f"integrator exact on this config (errors {e512:.1e}, {e1024:.1e})"
    else:
        ok_conv = e512 / max(e1024, 1e-300) >= 8.0
        conv_note = f"halving factor {e512 / max(e1024, 1e-300):.1f}"
    # companion configuration with a genuinely curved flow and no nearest-
    # member switching: the measurable fourth-order factor
    a2 = FilteredSet(0, [(0.26j, 0.3)], 3.0)
    b2 = FilteredSet(0, [(2.0, 2.0)], 3.0)
    g2 = Path([0.2 + 0.2j, 0.8 + 0.2j])
    gs = {nt: deform(g2, a2, b2, 1.5, n_s=16, n_t=nt) for nt in (64, 128, 2048)}
    idx64 = np.searchsorted(gs[2048].t_nodes, gs[64].t_nodes)
    idx128 = np.searchsorted(gs[2048].t_nodes, gs[128].t_nodes)
    f2 = (np.max(np.abs(gs[64].H - gs[2048].H[:, idx64]))
          / np.max(np.abs(gs[128].H - gs[2048].H[:, idx128])))
    ok_conv = ok_conv and f2 >= 8.0
    elapsed = time.perf_counter() - t0
    ok = (ok_endpoint and ok_speed and ok_rows and ok_conv
          and rep.passed and elapsed < 10.0)
    report(4, ok,
           f"endpoint {rep.endpoint_error:.2e} <= 1e-6, speed {rep.speed_residual:.2e}"
           f" <= 1e-3, all {len(rep.rows)} rows allowed with split <= 2, "
           f"{conv_note}, curved-config factor {f2:.1f} >= 8, {elapsed:.2f}s < 10s")


def test_criterion_5_convolution_oracles():
    t0 = time.perf_counter()
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [(2, 2.0)], 6.0)
    one = Germ.poly([1])
    cfg = ConvolveConfig(n_s=128, n_t=256, n_q=16)

    tr_ones = convolve_along(one, one, Path([0.25, 0.5]), a, b, cfg)
    err_ones = float(np.max(np.abs(tr_ones.values - tr_ones.grid.gamma_values())))
    ok_ones = err_ones <= 1e-10

    t_set = FilteredSet(0, [], 5.0)
    z_end = 0.3 + 0.1j
    grid_m = deform(Path([z_end / 4, z_end]), t_set, t_set, 2.0, n_s=128, n_t=32)
    err_mono = 0.0
    for pa in range(7):
        for pb in range(7):
            phi = Germ.poly([0] * pa + [1 / math.factorial(pa)])
            psi = Germ.poly([0] * pb + [1 / math.factorial(pb)])
            got = convolve_at(phi, psi, grid_m, grid_m.n_t, cfg=ConvolveConfig(n_q=16))
            want = z_end ** (pa + pb + 1) / math.factorial(pa + pb + 1)
            err_mono = max(err_mono, abs(got - want) / abs(want))
    ok_mono = err_mono <= 1e-9

    # the same identity at every time node of a curved gamma whose contour
    # the flow bends: the integrand is entire and Gauss of order 16 is exact
    # on each cell's cubic, so only rounding separates the two
    grid_c = deform(Path(CURVED_GAMMA), a, b, 2.5, n_s=64, n_t=64)
    z_c = grid_c.gamma_values()
    err_curved = 0.0
    for pa in range(7):
        for pb in range(7):
            got = convolve_at(Germ.poly([0] * pa + [1]), Germ.poly([0] * pb + [1]), grid_c,
                              np.arange(grid_c.n_t + 1), cfg=ConvolveConfig(n_q=16))
            want = (math.factorial(pa) * math.factorial(pb) / math.factorial(pa + pb + 1)
                    * z_c ** (pa + pb + 1))
            err_curved = max(err_curved, float(np.max(np.abs(got - want) / np.abs(want))))
    ok_curved = err_curved <= 1e-12

    tr_pp = convolve_along(Germ.pole(1), Germ.pole(2), Path([0.25, 0.5]), a, b, cfg)
    want = pole_pole_oracle(tr_pp.path)
    err_pp = abs(tr_pp.end_value - want) / abs(want)
    ok_pp = err_pp <= 1e-6

    elapsed = time.perf_counter() - t0
    ok = ok_ones and ok_mono and ok_curved and ok_pp and elapsed < 30.0
    report(5, ok,
           f"1*1 err {err_ones:.1e} <= 1e-10, monomials a,b<=6 rel {err_mono:.1e}"
           f" <= 1e-9, on a curved gamma at every node {err_curved:.1e} <= 1e-12,"
           f" pole*pole rel {err_pp:.1e} <= 1e-6, {elapsed:.2f}s < 30s")


def test_criterion_6_branch_continuation():
    a = FilteredSet(0, [(1, 1.0)], 6.0)
    b = FilteredSet(0, [(2, 2.0)], 6.0)
    r = 0.3
    circle = [1 + r * cmath.exp(1j * (math.pi + 2 * math.pi * k / 16))
              for k in range(1, 16)] + [1 - r]
    loop = Path([0.25, 1 - r] + circle + [0.5])
    cfg = ConvolveConfig(n_s=128, n_t=1024, n_q=8)
    tr = convolve_along(Germ.pole(1), Germ.pole(2), loop, a, b, cfg)
    want = pole_pole_oracle(loop)
    err = abs(tr.end_value - want) / abs(want)
    report(6, err <= 1e-5,
           f"loop around 1 back to 0.5: rel err {err:.1e} <= 1e-5 against the "
           "closed form continued along the loop")


def test_criterion_7_singularity_containment(pole_pair_probes):
    got, details, worst = {}, [], 0.0
    for cand, rep in pole_pair_probes.items():
        got[cand] = rep.classification
        err = circle_oracle_error(rep)
        worst = max(worst, err)
        details.append(f"{cand}:{rep.classification[:4]}"
                       f"(d={rep.defect_rel:.0e},r={rep.ring_rel:.0e},e={err:.0e})")
    ok = (all(got[c] == "singular-like" for c in (1.0, 2.0, 3.0))
          and all(got[c] == "regular" for c in (1.5, 2.5))
          and worst <= 1e-9)
    report(7, ok, "probes " + " ".join(details)
           + f"; circle values within {worst:.1e} <= 1e-9 of the continued closed form")


def test_criterion_8_series_backend_parity():
    from borelconv import continue_along

    ser = Germ.series([1.0] * 64, 1.0)
    s = FilteredSet(0, [(1, 1.0)], 10.0)
    paths = [
        Path([0, 0.3j, 0.4 + 0.3j, 0.4 - 0.2j]),
        Path([0, -0.5, -0.5 - 0.5j, 0.2 - 0.6j]),
        Path([0, 0.5j, -0.3 + 0.6j, -0.6 + 0.1j]),
    ]
    worst = 0.0
    for p in paths:
        tr = continue_along(ser, p, s)
        exact = 1.0 / (1.0 - np.array([p.point_at(t) for t in tr.ts]))
        worst = max(worst, float(np.max(np.abs(tr.values - exact))))
    report(8, worst <= 1e-6,
           f"truncated series vs closed form on 3 non-straight paths: "
           f"max err {worst:.1e} <= 1e-6")
