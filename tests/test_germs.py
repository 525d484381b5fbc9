import cmath
import dataclasses
import math

import numpy as np
import pytest

from borelconv import (
    ContinuationTrace,
    ConvolveConfig,
    FilteredSet,
    Germ,
    Path,
    PreconditionError,
    ToleranceError,
    continue_along,
    convolve_along,
    convolve_at,
    deform,
    eval_local,
    singularity_probe,
)

TWO_PI_I = 2j * math.pi


def pole_pair_sets(horizon=6.0):
    return (FilteredSet(0, [(1, 1.0)], horizon),
            FilteredSet(0, [(2, 2.0)], horizon))


def pole_pole_oracle(z, a=1.0, b=2.0, branch_shift=0.0):
    """Convolution of 1/(a - z) and 1/(b - z): the partial fraction
    1/((a-h)(b-z+h)) = [1/(a+b-z)] * [1/(a-h) + 1/(b-z+h)] integrates to
    log(a*b / ((a-z)(b-z))) / (a+b-z); branch_shift adds 2*pi*i windings
    picked up around a."""
    return (np.log(a) + np.log(b) - (np.log(a - z) + branch_shift * TWO_PI_I)
            - np.log(b - z)) / (a + b - z)


def circle_vertices(centre, radius, segments=16, start_angle=math.pi):
    pts = [centre + radius * cmath.exp(1j * (start_angle + 2 * math.pi * k / segments))
           for k in range(1, segments)]
    pts.append(centre + radius * cmath.exp(1j * start_angle))
    return pts


# -- local evaluation -----------------------------------------------------------


def test_eval_local_pole():
    assert eval_local(Germ.pole(1), 0) == 1.0


def test_eval_local_poly():
    assert eval_local(Germ.poly([0, 1]), 0.3 + 0.1j) == 0.3 + 0.1j


def test_eval_local_log_at_centre():
    assert eval_local(Germ.log_pole(1), 0) == 0.0


def test_eval_local_outside_disc():
    with pytest.raises(PreconditionError):
        eval_local(Germ.pole(1), 1.5)
    with pytest.raises(PreconditionError):
        eval_local(Germ.series([1, 1], 0.5), 0.7)


def test_germ_parameter_validation():
    with pytest.raises(PreconditionError):
        Germ.pole(0)
    with pytest.raises(PreconditionError):
        Germ.series([1], 0.0)


# -- continuation ----------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: Germ.poly([1, math.inf]),
    lambda: Germ.pole(math.nan),
    lambda: Germ.pole(complex(1, math.inf)),
    lambda: Germ.log_pole(-math.inf),
    lambda: Germ.series([1, math.nan], 1.0),
    lambda: Germ.series([1], math.inf),
])
def test_germ_rejects_non_finite(make):
    with pytest.raises(PreconditionError):
        make()


def test_convolve_config_is_immutable():
    cfg = ConvolveConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_s = 8


def test_continue_pole_segment():
    s = FilteredSet(0, [(1, 1.0)], 6.0)
    tr = continue_along(Germ.pole(1), Path([0, 0.5]), s)
    assert abs(tr.end_value - 2.0) < 1e-12


def test_continue_log_around_parameter_winds():
    s = FilteredSet(0, [(1, 1.0)], 8.0)
    loop = Path([0, 0.7] + circle_vertices(1.0, 0.3) + [0.7, 0.5])
    tr = continue_along(Germ.log_pole(1), loop, s)
    assert abs(tr.end_value - (cmath.log(0.5) + TWO_PI_I)) < 1e-9
    assert tr.windings is not None and tr.windings[-1] == 1


def test_continue_series_matches_pole():
    s = FilteredSet(0, [(1, 1.0)], 10.0)
    tr = continue_along(Germ.series([1.0] * 64, 1.0), Path([0, 0.4 + 0.3j]), s)
    z = 0.4 + 0.3j
    assert abs(tr.end_value - 1.0 / (1.0 - z)) < 1e-8


def test_continue_requires_allowed_path():
    s = FilteredSet(0, [(1, 1.0)], 5.0)
    with pytest.raises(PreconditionError):
        continue_along(Germ.poly([1]), Path([0, 1.5]), s)


def test_continue_pole_rejects_path_through_parameter():
    s = FilteredSet(0, [(1, 2.0)], 5.0)
    with pytest.raises(PreconditionError):
        continue_along(Germ.pole(1), Path([0, 1.5]), s)


def test_continue_series_refuses_outside_assured_disc():
    s = FilteredSet(0, [(1, 1.0)], 10.0)
    with pytest.raises(ToleranceError):
        continue_along(Germ.series([1.0] * 64, 1.0), Path([0, 0.5j, 1.4 + 0.5j]), s)


def test_trace_samples_ordered_and_finite():
    s = FilteredSet(0, [(1, 1.0)], 6.0)
    tr = continue_along(Germ.pole(1), Path([0, 0.3, 0.5 - 0.2j]), s)
    ts = [t for t, _, _ in tr.samples]
    assert ts == sorted(ts)
    assert all(np.isfinite(v) for _, v, _ in tr.samples)
    assert all(r > 0 for _, _, r in tr.samples)


# -- convolve_at -------------------------------------------------------------------


def test_convolve_ones_gives_endpoint_any_column():
    a, b = pole_pair_sets()
    grid = deform(Path([0.25, 0.5]), a, b, 2.5, n_s=32, n_t=64)
    one = Germ.poly([1])
    for j in (0, 17, 64):
        got = convolve_at(one, one, grid, j, n_q=4)
        assert abs(got - grid.gamma_values()[j]) < 1e-12


def test_convolve_monomial_against_identity():
    t = FilteredSet(0, [], 5.0)
    z_end = 0.3 + 0.1j
    gamma = Path([z_end / 4, z_end])
    grid = deform(gamma, t, t, 2.0, n_s=32, n_t=32)
    phi = Germ.poly([0, 1])
    one = Germ.poly([1])
    got = convolve_at(phi, one, grid, 32, n_q=8)
    assert abs(got - z_end ** 2 / 2) < 1e-13


def test_convolve_pole_pole_closed_form():
    a, b = pole_pair_sets()
    grid = deform(Path([0.25, 0.5]), a, b, 2.5, n_s=128, n_t=128)
    got = convolve_at(Germ.pole(1), Germ.pole(2), grid, grid.n_t, n_q=16)
    want = pole_pole_oracle(0.5)
    assert abs(got - want) / abs(want) < 1e-9


def test_convolve_bilinear_in_each_slot():
    t = FilteredSet(0, [], 5.0)
    gamma = Path([0.1 + 0.05j, 0.4 + 0.2j])
    grid = deform(gamma, t, t, 2.0, n_s=32, n_t=32)
    rng = np.random.default_rng(41)
    c1 = rng.normal(size=4) + 1j * rng.normal(size=4)
    c2 = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = Germ.poly([0.5, -0.25, 1j])
    al, be = 1.3 - 0.2j, -0.7 + 0.4j
    combo = Germ.poly(al * c1 + be * c2)
    j = grid.n_t
    lhs = convolve_at(combo, psi, grid, j, n_q=8)
    rhs = (al * convolve_at(Germ.poly(c1), psi, grid, j, n_q=8)
           + be * convolve_at(Germ.poly(c2), psi, grid, j, n_q=8))
    assert abs(lhs - rhs) < 1e-10


def test_convolve_commutes():
    a, b = pole_pair_sets()
    phi, psi = Germ.pole(1), Germ.pole(2)
    gamma = Path([0.25, 0.5])
    cfg = ConvolveConfig(n_s=96, n_t=64, n_q=12)
    t1 = convolve_along(phi, psi, gamma, a, b, cfg)
    t2 = convolve_along(psi, phi, gamma, b, a, cfg)
    assert np.max(np.abs(t1.values - t2.values)) < 1e-8


def test_convolve_at_rejects_bad_index():
    a, b = pole_pair_sets()
    grid = deform(Path([0.25, 0.5]), a, b, 2.5, n_s=16, n_t=16)
    with pytest.raises(PreconditionError):
        convolve_at(Germ.poly([1]), Germ.poly([1]), grid, 99)


# -- convolve_along -----------------------------------------------------------------


def test_trace_of_ones_equals_gamma():
    a, b = pole_pair_sets()
    gamma = Path([0.2 + 0.1j, 0.5 + 0.2j, 0.3 + 0.4j])
    one = Germ.poly([1])
    tr = convolve_along(one, one, gamma, a, b, ConvolveConfig(n_s=32, n_t=64, n_q=4))
    g_vals = tr.grid.gamma_values()
    assert np.max(np.abs(tr.values - g_vals)) < 1e-12


def test_trace_pole_pole_same_parameter():
    s = FilteredSet(0, [(1, 1.0)], 6.0)
    tr = convolve_along(Germ.pole(1), Germ.pole(1), Path([0.25, 0.5]), s, s,
                        ConvolveConfig(n_s=96, n_t=64, n_q=12))
    want = -2 * np.log(1 - 0.5) / (2 - 0.5)
    assert abs(tr.end_value - want) / abs(want) < 1e-8


def test_trace_branch_shift_around_first_pole():
    a, b = pole_pair_sets()
    loop = Path([0.25, 0.7] + circle_vertices(1.0, 0.3) + [0.7, 0.5])
    cfg = ConvolveConfig(n_s=128, n_t=1024, n_q=8)
    tr = convolve_along(Germ.pole(1), Germ.pole(2), loop, a, b, cfg)
    want = pole_pole_oracle(0.5, branch_shift=1.0)
    assert abs(tr.end_value - want) / abs(want) < 1e-6


def test_quadrature_error_decreases_with_resolution():
    a, b = pole_pair_sets()
    gamma = Path([0.25, 0.5])
    want = pole_pole_oracle(0.5)
    errs = []
    for n_s, n_q in ((32, 4), (64, 8), (128, 16)):
        tr = convolve_along(Germ.pole(1), Germ.pole(2), gamma, a, b,
                            ConvolveConfig(n_s=n_s, n_t=32, n_q=n_q))
        errs.append(abs(tr.end_value - want))
    assert errs[2] <= errs[1] <= errs[0] or errs[2] < 1e-12


def test_convolve_rejects_disallowed_gamma():
    a, b = pole_pair_sets()
    with pytest.raises(PreconditionError):
        convolve_along(Germ.poly([1]), Germ.poly([1]), Path([0.25, 1.0]), a, b)


def test_convolve_series_backend_matches_pole_backend():
    a, b = pole_pair_sets()
    gamma = Path([0.25, 0.5])
    cfg = ConvolveConfig(n_s=96, n_t=64, n_q=12)
    tr_pole = convolve_along(Germ.pole(1), Germ.pole(2), gamma, a, b, cfg)
    psi_series = Germ.series([0.5 * 0.5 ** k for k in range(64)], 2.0)
    tr_mixed = convolve_along(Germ.pole(1), psi_series, gamma, a, b, cfg)
    assert np.max(np.abs(tr_pole.values - tr_mixed.values)) < 1e-8


def test_convolve_log_pole_matches_quadrature_and_commutes():
    a, b = pole_pair_sets()
    gamma = Path([0.25, 0.5])
    cfg = ConvolveConfig(n_s=96, n_t=64, n_q=12)
    t1 = convolve_along(Germ.log_pole(1), Germ.pole(2), gamma, a, b, cfg)
    t2 = convolve_along(Germ.pole(2), Germ.log_pole(1), gamma, b, a, cfg)
    assert np.max(np.abs(t1.values - t2.values)) < 1e-8
    # independent high-order quadrature of the seed integral on [0, 0.25]
    x, w = np.polynomial.legendre.leggauss(64)
    eta = 0.125 * (x + 1.0)
    want = np.sum(0.125 * w * np.log(1 - eta) / (2 - 0.25 + eta))
    assert abs(t1.values[0] - want) < 1e-10


# -- singularity probe -----------------------------------------------------------------


def test_probe_regular_between_poles():
    a, b = pole_pair_sets()
    rep = singularity_probe(Germ.pole(1), Germ.pole(2), a, b, 1.5, 0.2)
    assert rep.classification == "regular"


@pytest.mark.parametrize("radius", [-0.2, 0.0, math.inf, math.nan])
def test_probe_rejects_bad_radius(radius):
    a, b = pole_pair_sets()
    with pytest.raises(PreconditionError, match="probe radius"):
        singularity_probe(Germ.pole(1), Germ.pole(2), a, b, 1.5, radius)


def test_probe_pole_sum_point_is_singular():
    a, b = pole_pair_sets()
    rep = singularity_probe(Germ.pole(1), Germ.pole(2), a, b, 3.0, 0.2)
    assert rep.classification == "singular-like"
    # the defect stays tiny (a pole is single-valued); the residue term sees it
    assert rep.ring_rel > 1e-2
    assert rep.defect_rel < 1e-6


def test_probe_rotated_configuration():
    # the same singularity pattern rotated off the real axis: the detour
    # routing and branch tracking must be direction-independent
    w = cmath.exp(1j * math.pi / 6)
    a = FilteredSet(0, [(w, 1.0)], 6.0)
    b = FilteredSet(0, [(2 * w, 2.0)], 6.0)
    phi, psi = Germ.pole(w), Germ.pole(2 * w)
    expected = {w: "singular-like", 1.5 * w: "regular", 3 * w: "singular-like"}
    for cand, want in expected.items():
        rep = singularity_probe(phi, psi, a, b, cand, 0.2)
        assert rep.classification == want


def test_probe_entire_convolution_regular_everywhere():
    t = FilteredSet(0, [], 8.0)
    one = Germ.poly([1])
    rep = singularity_probe(one, one, t, t, 1.5 + 0.5j, 0.2,
                            cfg=ConvolveConfig(n_s=96, n_t=512, n_q=4))
    assert rep.classification == "regular"


# -- serialization helpers ----------------------------------------------------------


def test_trace_csv_rows_shape():
    from borelconv.jsonio import trace_csv_rows

    s = FilteredSet(0, [(1, 1.0)], 6.0)
    tr = continue_along(Germ.pole(1), Path([0, 0.5]), s)
    rows = trace_csv_rows(tr)
    assert len(rows) == len(tr.ts)
    assert all(len(r) == 5 for r in rows)
