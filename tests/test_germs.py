import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
from borelconv.filtered_set import POINT_TOL
from borelconv.germs import CELL_REFUSE, TOL_MONO
from conftest import (CURVED_GAMMA, _continued_log, circle_oracle_error, log_probe_oracles,
                      pole_pole_oracle)

TWO_PI_I = 2j * math.pi


def pole_pair_sets(horizon=6.0):
    return (FilteredSet(0, [(1, 1.0)], horizon),
            FilteredSet(0, [(2, 2.0)], horizon))


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


@pytest.mark.parametrize("make", [lambda: Germ.poly([]), lambda: Germ.series([], 1.0)])
def test_germ_rejects_empty_coefficients(make):
    with pytest.raises(PreconditionError, match="at least one coefficient"):
        make()


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


@pytest.mark.parametrize("make", [
    lambda: Germ.pole(True),
    lambda: Germ.log_pole(True),
    lambda: Germ.series([1.0, 0.5], True),
], ids=["pole", "log_pole", "series_radius"])
def test_germ_refuses_a_bool_parameter(make):
    # complex(True) and float(True) are 1: a bool would pass as a point or radius
    with pytest.raises(PreconditionError):
        make()


@pytest.mark.parametrize("germ", [
    Germ.poly([1.0, 0.5j, -2.0]), Germ.pole(1.5 + 0.5j), Germ.log_pole(2.0 - 1.0j),
    Germ.series([1.0, 0.5, 0.25], 2.0),
], ids=["poly", "pole", "log_pole", "series"])
def test_germ_values_write_only_their_own_array(germ):
    from borelconv.germs import _germ_values

    rng = np.random.default_rng(7)
    z = 0.3 * (rng.normal(size=(3, 4, 5)) + 1j * rng.normal(size=(3, 4, 5)))
    u = 1.0 - 0.3 * (rng.normal(size=(3, 4, 1)) + 1j * rng.normal(size=(3, 4, 1))) / (2.0 - 1.0j)
    base = (np.log(u), u)
    before = [x.tobytes() for x in (z, *base)]
    got = _germ_values(germ, z, base)
    assert [x.tobytes() for x in (z, *base)] == before
    assert got.shape == z.shape and not any(np.shares_memory(got, x) for x in (z, *base))
    # the bits of the plain expressions
    if germ.kind == "pole":
        assert got.tobytes() == (1.0 / (germ.a - z)).tobytes()
    if germ.kind == "log_pole":
        assert got.tobytes() == (base[0] + np.log((1.0 - z / germ.a) / base[1])).tobytes()


def test_convolution_and_probe_leave_their_grid_as_deform_made_it(monkeypatch):
    from borelconv import germs

    made = []
    core = germs.deform

    def frozen(*args):
        grid = core(*args)
        made.append((grid, grid.H.copy()))
        grid.H.flags.writeable = False  # a write into H raises
        return grid

    monkeypatch.setattr(germs, "deform", frozen)
    a, b = pole_pair_sets()
    convolve_along(Germ.log_pole(1), Germ.series([0.5 ** k for k in range(24)], 2.0),
                   Path([0.25, 0.4 + 0.1j, 0.5]), a, b, ConvolveConfig(n_s=16, n_t=16, n_q=6))
    singularity_probe(Germ.pole(1), Germ.log_pole(2), a, b, 3.0, 0.2)
    assert len(made) == 2
    for grid, H in made:
        assert grid.H.tobytes() == H.tobytes()


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


def test_continue_series_uses_every_coefficient():
    # every one of 200 terms of 1/(1 - z) counts: the first 65 alone leave a
    # tail estimate of 2.6e-5 at 0.85
    s = FilteredSet(0, [(1, 1.0)], 10.0)
    tr = continue_along(Germ.series([1.0] * 200, 1.0), Path([0, 0.85]), s)
    assert abs(tr.end_value - 1.0 / (1.0 - 0.85)) < 1e-12


def test_continue_series_tail_is_absolute_at_the_largest_modulus():
    from borelconv.germs import TOL_TAIL

    # q^65 / (1 - q) at q = 0.72 is 1.90e-9, above TOL_TAIL: the bound is
    # absolute, not scaled by the value 1 / (1 - 0.72)
    s = FilteredSet(0, [(1, 1.0)], 10.0)
    with pytest.raises(ToleranceError) as info:
        continue_along(Germ.series([1.0] * 65, 1.0), Path([0, 0.72]), s)
    exc = info.value
    assert exc.stage == "series tail" and exc.bound == TOL_TAIL
    assert exc.value == pytest.approx(0.72 ** 65 / 0.28, rel=1e-12)


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
    with pytest.raises(ToleranceError) as info:
        continue_along(Germ.series([1.0] * 64, 1.0), Path([0, 0.5j, 1.4 + 0.5j]), s)
    # the largest |z| met, the path's end, against the assured radius
    exc = info.value
    assert exc.stage == "series disc" and exc.bound == 1.0
    assert exc.value == pytest.approx(abs(1.4 + 0.5j), rel=1e-15)


def test_series_with_zero_tail_refuses_outside_assured_disc():
    # a zero tail has no truncation error, but the disc still bounds the germ
    ser = Germ.series([1.0] + [0.0] * 8, 0.5)
    s = FilteredSet(0, [(1, 1.0)], 10.0)
    with pytest.raises(PreconditionError):
        eval_local(ser, 0.9)
    with pytest.raises(ToleranceError):
        continue_along(ser, Path([0, 0.9]), s)
    a, b = pole_pair_sets()
    with pytest.raises(ToleranceError):
        convolve_along(ser, Germ.pole(2), Path([0.25, 0.9]), a, b,
                       ConvolveConfig(n_s=16, n_t=16, n_q=6))


def test_convolve_series_uses_every_coefficient():
    # the pair of perfbench's series_trace at 200 terms: the first 65 alone
    # leave a tail estimate of 1.19e-6 at 0.8
    a, b = pole_pair_sets()
    phi = Germ.series([1.0] * 200, 1.0)
    psi = Germ.series([0.5 ** (k + 1) for k in range(200)], 2.0)
    tr = convolve_along(phi, psi, Path([0.25, 0.8]), a, b, ConvolveConfig(n_s=32, n_t=32, n_q=16))
    z = 0.8
    assert abs(tr.end_value - cmath.log(2.0 / ((1.0 - z) * (2.0 - z))) / (3.0 - z)) < 1e-12


def test_convolve_series_refuses_large_tail():
    from borelconv.germs import TOL_TAIL

    a, b = pole_pair_sets()
    with pytest.raises(ToleranceError, match="tail estimate") as info:
        convolve_along(Germ.series([1.0] * 8, 1.0), Germ.pole(2), Path([0.25, 0.5]), a, b,
                       ConvolveConfig(n_s=16, n_t=16, n_q=6))
    # the tail estimate at the largest |z| over the cells' hulls, against TOL_TAIL
    exc = info.value
    assert exc.stage == "series tail" and exc.bound == TOL_TAIL < exc.value < 1.0


def test_series_tail_precheck_agrees_with_per_point_check():
    from borelconv.germs import TOL_TAIL, _germ_values, _prove_series, _series_tail

    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(8, 65))
        ser = Germ.series([1.0] * n, 1.0)
        z = rng.uniform(0.0, rng.uniform(0.2, 0.95), 6) * np.exp(2j * math.pi * rng.uniform(size=6))
        # the single test at the largest |z| refuses exactly when some
        # point's estimate is above TOL_TAIL
        refuse = bool(np.any(_series_tail(ser, np.abs(z)) > math.log(TOL_TAIL)))
        seen.add(refuse)
        if refuse:
            with pytest.raises(ToleranceError):
                _prove_series(ser, z)
        else:
            _prove_series(ser, z)
            v = np.polynomial.polynomial.polyval(z, np.ones(n))
            assert np.allclose(_germ_values(ser, z), v, rtol=1e-14, atol=0)
    assert seen == {True, False}


def test_series_horner_matches_polyval_bits():
    from borelconv.germs import _germ_values

    rng = np.random.default_rng(3)
    for n in (1, 2, 17, 48):
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        ser = Germ.series(c * 1e-12, 1.0)
        z = 0.4 * (rng.uniform(-1, 1, (5, 7)) + 1j * rng.uniform(-1, 1, (5, 7)))
        want = np.polynomial.polynomial.polyval(z, c * 1e-12)
        assert _germ_values(ser, z).tobytes() == want.tobytes()
        # built from its first k coefficients, the Horner sum of the first k
        k = max(1, n // 2)
        cut = Germ.series(c[:k] * 1e-12, 1.0)
        want = np.polynomial.polynomial.polyval(z, c[:k] * 1e-12)
        assert _germ_values(cut, z).tobytes() == want.tobytes()


@pytest.mark.parametrize("level", ["2.5", 2.5 + 0j, True, None, math.nan, math.inf, 9.0])
def test_level_must_be_an_admissible_real_number(level):
    # a string, a complex, a bool or None is no level; nan, inf and 9.0 lie
    # outside the admissible interval (0.5, 6]
    typed = level is None or isinstance(level, (str, complex, bool))
    match = "real number" if typed else "not allowed"
    a, b = pole_pair_sets()
    with pytest.raises(PreconditionError, match=match):
        deform(Path([0.25, 0.5]), a, b, level, n_s=16, n_t=16)
    if level is not None:  # a config's level None picks the midpoint
        with pytest.raises(PreconditionError, match=match):
            convolve_along(Germ.poly([1]), Germ.poly([1]), Path([0.25, 0.5]), a, b,
                           ConvolveConfig(level=level, n_s=16, n_t=16, n_q=4))


@pytest.mark.parametrize("field, value", [("n_s", 16.5), ("n_t", 64.0), ("n_q", 2.5),
                                          ("n_s", "128"), ("n_t", None), ("n_q", 1),
                                          ("n_q", 0), ("n_q", -4)])
def test_convolve_config_rejects_bad_grid_sizes(field, value):
    with pytest.raises(PreconditionError, match=field):
        ConvolveConfig(**{field: value})


@pytest.mark.parametrize("field", ["n_s", "n_t", "n_q"])
@pytest.mark.parametrize("value", [True, False])
def test_convolve_config_rejects_booleans(field, value):
    # bool is an Integral, so only an explicit check keeps True from being 1
    with pytest.raises(PreconditionError, match=f"{field} must be an integer"):
        ConvolveConfig(**{field: value})


def test_convolve_config_accepts_numpy_integer_grid_sizes():
    cfg = ConvolveConfig(n_s=np.int64(16), n_t=np.int32(16), n_q=np.int64(2))
    assert (cfg.n_s, cfg.n_t, cfg.n_q) == (16, 16, 2)


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
        got = convolve_at(one, one, grid, j, cfg=ConvolveConfig(n_q=4))
        assert abs(got - grid.gamma_values()[j]) < 1e-12


def test_convolve_monomial_against_identity():
    t = FilteredSet(0, [], 5.0)
    z_end = 0.3 + 0.1j
    gamma = Path([z_end / 4, z_end])
    grid = deform(gamma, t, t, 2.0, n_s=32, n_t=32)
    phi = Germ.poly([0, 1])
    one = Germ.poly([1])
    got = convolve_at(phi, one, grid, 32, cfg=ConvolveConfig(n_q=8))
    assert abs(got - z_end ** 2 / 2) < 1e-13


def test_convolve_pole_pole_closed_form():
    a, b = pole_pair_sets()
    grid = deform(Path([0.25, 0.5]), a, b, 2.5, n_s=128, n_t=128)
    got = convolve_at(Germ.pole(1), Germ.pole(2), grid, grid.n_t, cfg=ConvolveConfig(n_q=16))
    want = pole_pole_oracle(grid.gamma)
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
    lhs = convolve_at(combo, psi, grid, j, cfg=ConvolveConfig(n_q=8))
    rhs = (al * convolve_at(Germ.poly(c1), psi, grid, j, cfg=ConvolveConfig(n_q=8))
           + be * convolve_at(Germ.poly(c2), psi, grid, j, cfg=ConvolveConfig(n_q=8)))
    assert abs(lhs - rhs) < 1e-10


def test_convolve_commutes():
    a, b = pole_pair_sets()
    phi, psi = Germ.pole(1), Germ.pole(2)
    gamma = Path([0.25, 0.5])
    cfg = ConvolveConfig(n_s=96, n_t=64, n_q=12)
    t1 = convolve_along(phi, psi, gamma, a, b, cfg)
    t2 = convolve_along(psi, phi, gamma, b, a, cfg)
    assert np.max(np.abs(t1.values - t2.values)) < 1e-8


# one pair of each kind whose factors stay valid on the columns of
# CURVED_GAMMA (|H| reaches 1.6): the series are 1/(4 - z) and exp truncated
CURVED_GERMS = {
    "poly": (Germ.poly([1, 0.5j, -0.25]), Germ.poly([0.3, 1])),
    "pole": (Germ.pole(1), Germ.pole(2)),
    "log_pole": (Germ.log_pole(1), Germ.log_pole(2)),
    "series": (Germ.series([0.25 ** (k + 1) for k in range(48)], 4.0),
               Germ.series([1 / math.factorial(k) for k in range(40)], 8.0)),
}


def curved_grids():
    """Grids of CURVED_GAMMA for the pole pair's sets, and with them swapped."""
    a, b = pole_pair_sets()
    gamma = Path(CURVED_GAMMA)
    return deform(gamma, a, b, 2.5, n_s=32, n_t=32), deform(gamma, b, a, 2.5, n_s=32, n_t=32)


@pytest.mark.parametrize("kind", sorted(CURVED_GERMS))
def test_convolve_commutes_on_a_curved_gamma(kind):
    phi, psi = CURVED_GERMS[kind]
    grid, swapped = curved_grids()
    js = np.arange(grid.n_t + 1)
    v = convolve_at(phi, psi, grid, js, cfg=ConvolveConfig(n_q=8))
    w = convolve_at(psi, phi, swapped, js, cfg=ConvolveConfig(n_q=8))
    # measured at most 2.4e-15 over the four kinds
    assert np.max(np.abs(v - w)) <= 1e-12 * np.max(np.abs(v))


@pytest.mark.parametrize("kind", sorted(CURVED_GERMS))
def test_convolve_bilinear_on_a_curved_gamma(kind):
    # each germ of the kind against combinations of polynomials in the other
    # slot (a pole or log germ has no combinations of its own)
    phi, psi = CURVED_GERMS[kind]
    grid, _ = curved_grids()
    js = np.arange(grid.n_t + 1)
    rng = np.random.default_rng(43)
    c1, c2 = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    al, be = 1.3 - 0.2j, -0.7 + 0.4j
    P = Germ.poly
    for conv in (lambda g: convolve_at(phi, g, grid, js, cfg=ConvolveConfig(n_q=8)),
                 lambda g: convolve_at(g, psi, grid, js, cfg=ConvolveConfig(n_q=8))):
        lhs = conv(P(al * c1 + be * c2))
        rhs = al * conv(P(c1)) + be * conv(P(c2))
        # measured at most 3.8e-16 over the four kinds
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(lhs))


def test_convolve_at_rejects_bad_index():
    a, b = pole_pair_sets()
    grid = deform(Path([0.25, 0.5]), a, b, 2.5, n_s=16, n_t=16)
    with pytest.raises(PreconditionError):
        convolve_at(Germ.poly([1]), Germ.poly([1]), grid, 99)


BLOCK_GERMS = {
    "poly": (Germ.poly([1, 0.5j, -0.25]), Germ.poly([0.3, 1])),
    "pole": (Germ.pole(1), Germ.pole(2)),
    "log_pole": (Germ.log_pole(1), Germ.log_pole(2)),
    "series": (Germ.series([1.0] * 48, 1.0),
               Germ.series([0.5 ** (k + 1) for k in range(48)], 2.0)),
}


def block_grid():
    a, b = pole_pair_sets()
    return deform(Path([0.25, 0.4 + 0.1j, 0.5]), a, b, 2.5, n_s=16, n_t=16)


@pytest.mark.parametrize("kind", sorted(BLOCK_GERMS))
def test_convolve_at_block_equals_columns(kind):
    phi, psi = BLOCK_GERMS[kind]
    grid = block_grid()
    js = np.arange(grid.n_t + 1)
    cfg = ConvolveConfig(n_q=6)
    # blocks of 5 columns over grid.n_t + 1 = 18 (9 + 8 steps): the last block holds 3
    blocks = [convolve_at(phi, psi, grid, js[k:k + 5], cfg=cfg) for k in range(0, len(js), 5)]
    assert [len(v) for v in blocks] == [5, 5, 5, 3]
    single = np.array([convolve_at(phi, psi, grid, int(j), cfg=cfg) for j in js])
    assert np.concatenate(blocks).tobytes() == single.tobytes()
    shuffled = js[::-3]
    assert convolve_at(phi, psi, grid, shuffled, cfg=cfg).tobytes() == single[shuffled].tobytes()
    assert convolve_at(phi, psi, grid, js[:0], cfg=cfg).shape == (0,)


@pytest.mark.parametrize("columns", [1, 16, 33])
def test_stacked_products_keep_the_bits_of_one_product_per_column(columns):
    # the loop of one matmul per column, as the reference for the stacked call
    from borelconv.cells import _bernstein_rule, _products

    rng = np.random.default_rng(columns)
    x = rng.normal(size=(columns, 64, 4)) + 1j * rng.normal(size=(columns, 64, 4))
    for planes in _bernstein_rule(16):
        want = np.empty((columns, 64, 16), dtype=complex)
        for k in range(columns):
            np.matmul(x[k].view(float), planes, out=want[k].view(float))
        assert _products(x, planes).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", sorted(BLOCK_GERMS))
def test_convolve_at_blocks_keep_the_bits_of_one_column_at_the_probe_shape(kind):
    # the probe's n_s and n_q: each column's cubics are one BLAS product of
    # the same shape, whatever the block
    phi, psi = BLOCK_GERMS[kind]
    a, b = pole_pair_sets()
    grid = deform(Path([0.25, 0.4 + 0.1j, 0.5]), a, b, 2.5, n_s=1024, n_t=8)
    js = np.arange(grid.n_t + 1)
    cfg = ConvolveConfig(n_q=8)
    single = np.array([convolve_at(phi, psi, grid, int(j), cfg=cfg) for j in js])
    for size in range(1, 10):
        blocks = [convolve_at(phi, psi, grid, js[k:k + size], cfg=cfg)
                  for k in range(0, len(js), size)]
        assert np.concatenate(blocks).tobytes() == single.tobytes(), size


def lagrange_basis(offsets, xs):
    """Values and derivatives of the Lagrange basis on `offsets` at `xs`."""
    vals, ders = np.empty((2, len(offsets), len(xs)))
    for m, om in enumerate(offsets):
        num = [o for o in offsets if o != om]
        poly = np.polynomial.Polynomial.fromroots(num) / np.prod([om - o for o in num])
        vals[m], ders[m] = poly(xs), poly.deriv()(xs)
    return vals, ders


def unblocked_pole_column(a, b, grid, j, n_q):
    """The one-column quadrature of a pole pair, written out in the
    stencil-Lagrange form: each cell's cubic through its four stencil
    samples (centred on the cell, shifted at the two end cells) by its
    Lagrange basis at the Gauss nodes, with the Gauss weights."""
    n_s = grid.n_s
    col = grid.H[:, j]
    x, w = np.polynomial.legendre.leggauss(n_q)
    xi, w, h = 0.5 * (x + 1.0), 0.5 * w, 1.0 / n_s
    lo = np.clip(np.arange(n_s) - 1, 0, n_s - 3)
    bval, bder = map(np.array, zip(*(lagrange_basis([k - (c - l) for k in range(4)], xi)
                                     for c, l in enumerate(lo))))
    samples = col[lo[:, None] + np.arange(4)]
    Z = np.einsum("cm,cmg->cg", samples, bval)
    dZ = np.einsum("cm,cmg->cg", samples, bder) / h
    return complex(np.sum(w[None, :] * (1.0 / (a - Z)) * (1.0 / (b - (col[-1] - Z))) * dZ) * h)


def test_convolve_at_block_matches_unblocked_column_formula():
    # the kernel integrates each cell from its Bezier control points, by
    # BLAS sums in an order of its own; the stencil-Lagrange form of the
    # same cubics agrees to rounding, not bit for bit, end cells included,
    # on 16 cells at order 6 and at the probe's shape, 64 cells at order 16
    a, b = pole_pair_sets()
    for n_s, n_q in ((16, 6), (64, 16)):
        grid = deform(Path([0.25, 0.4 + 0.1j, 0.5]), a, b, 2.5, n_s=n_s, n_t=16)
        js = np.arange(grid.n_t + 1)
        got = convolve_at(Germ.pole(1), Germ.pole(2), grid, js, cfg=ConvolveConfig(n_q=n_q))
        want = np.array([unblocked_pole_column(1.0, 2.0, grid, j, n_q) for j in js])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), n_s


def test_convolve_at_integrates_at_the_order_of_its_config():
    # on a curved grid of 16 cells the 4-node rule is off the 16-node rule
    # by 8e-9 relative; convolve_at gives the 4-node value within rounding
    a, b = pole_pair_sets()
    grid = deform(Path(CURVED_GAMMA), a, b, 2.5, n_s=16, n_t=16)
    j = grid.n_t
    got = convolve_at(Germ.pole(1), Germ.pole(2), grid, j, cfg=ConvolveConfig(n_q=4))
    want = unblocked_pole_column(1.0, 2.0, grid, j, 4)
    assert abs(got - want) <= 1e-14 * abs(want)
    assert abs(want - unblocked_pole_column(1.0, 2.0, grid, j, 16)) > 1e-9 * abs(want)
    # the order comes by the config only: a stray positional int is refused
    with pytest.raises(TypeError):
        convolve_at(Germ.pole(1), Germ.pole(2), grid, j, 4)


# block_grid takes 17 steps, so column 18 is one past its last
@pytest.mark.parametrize("j", [np.array([0, 3, 18]), np.array([-1, 2]), [0, 99],
                               np.array([[0, 1]]), np.array([0.0, 1.0])])
def test_convolve_at_rejects_bad_index_in_block(j):
    grid = block_grid()
    with pytest.raises(PreconditionError):
        convolve_at(Germ.pole(1), Germ.pole(2), grid, j, cfg=ConvolveConfig(n_q=6))


# blocks of about 4 columns over the grid's 18: round(18 / 4) = 4 blocks of
# near-equal size, the larger late, for closed forms and series alike
@pytest.mark.parametrize("kind, sizes", [("log_pole", [4, 5, 4, 5]), ("series", [4, 5, 4, 5])])
def test_convolve_along_blocks_equal_columns(monkeypatch, kind, sizes):
    from borelconv import germs

    phi, psi = BLOCK_GERMS[kind]
    a, b = pole_pair_sets()
    cfg = ConvolveConfig(n_s=16, n_t=16, n_q=6)
    monkeypatch.setattr(germs, "BLOCK_NODES", 4 * 16 * 6 + 5)
    calls = []
    block_kernel = germs.convolve_at
    monkeypatch.setattr(germs, "convolve_at",
                        lambda *args, **kw: calls.append(len(args[3])) or block_kernel(*args, **kw))
    tr = convolve_along(phi, psi, Path([0.25, 0.4 + 0.1j, 0.5]), a, b, cfg)
    assert calls == sizes and sum(sizes) == tr.grid.n_t + 1
    single = np.array([block_kernel(phi, psi, tr.grid, j, cfg=cfg) for j in range(tr.grid.n_t + 1)])
    assert tr.values.tobytes() == single.tobytes()


@pytest.mark.parametrize("block_nodes", [1, 7, 64, 1000, 1 << 14])
def test_block_columns_cut_the_columns_in_order_into_near_equal_blocks(monkeypatch, block_nodes):
    from types import SimpleNamespace

    from borelconv import germs

    monkeypatch.setattr(germs, "BLOCK_NODES", block_nodes)
    for n_s, per_cell in itertools.product((8, 16, 64), (4, 8, 16)):
        grid = SimpleNamespace(n_s=n_s)
        b = max(1, block_nodes // (n_s * per_cell))
        for n in range(300):
            js = np.arange(5, 5 + n)
            blocks = germs._block_columns(grid, js, per_cell)
            assert len(blocks) == (max(1, round(n / b)) if n else 0)
            # every column in exactly one block, in order
            assert np.concatenate([js[:0], *blocks]).tobytes() == js.tobytes()
            sizes = [len(block) for block in blocks]
            assert max(sizes, default=0) - min(sizes, default=0) <= 1
            if n_s * per_cell <= block_nodes:  # else one column alone exceeds the bound
                assert max(sizes, default=0) * n_s * per_cell <= 1.5 * block_nodes


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
    want = pole_pole_oracle(loop)
    assert abs(tr.end_value - want) / abs(want) < 1e-6


def test_quadrature_error_decreases_with_resolution():
    a, b = pole_pair_sets()
    gamma = Path([0.25, 0.5])
    want = pole_pole_oracle(gamma)
    errs = []
    for n_s, n_q in ((32, 4), (64, 8), (128, 16)):
        tr = convolve_along(Germ.pole(1), Germ.pole(2), gamma, a, b,
                            ConvolveConfig(n_s=n_s, n_t=32, n_q=n_q))
        errs.append(abs(tr.end_value - want))
    assert errs[2] <= errs[1] <= errs[0] or errs[2] < 1e-12


@pytest.mark.parametrize("vertices", [
    [0.25, 0.5 + 0.2j, 0.6 + 0.5j, 0.3 + 0.6j],
    [0.25, 0.4 - 0.3j, 1.0 - 0.5j, 1.6 - 0.2j],
    # once around 1, clockwise, and back below it
    [0.25, 0.8 + 0.3j, 1.3 + 0.1j, 1.2 - 0.3j, 0.8 - 0.2j, 0.6],
])
def test_convolve_along_default_grid_matches_continued_closed_form(vertices):
    a, b = pole_pair_sets()
    tr = convolve_along(Germ.pole(1), Germ.pole(2), Path(vertices), a, b)
    want = pole_pole_oracle(tr.path, tr.ts)
    assert np.max(np.abs(tr.values - want)) <= 1e-10 * np.max(np.abs(want))


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


def series_series_oracle(a, b, z):
    """Exact convolution of two polynomials: z^m * z^n = m! n! / (m+n+1)! z^(m+n+1)."""
    c = np.zeros(len(a) + len(b), dtype=complex)
    for m, am in enumerate(a):
        for n, bn in enumerate(b):
            c[m + n + 1] += am * bn * (math.factorial(m) * math.factorial(n)
                                       / math.factorial(m + n + 1))
    return np.polynomial.polynomial.polyval(z, c)


@pytest.mark.parametrize("vertices", [[0.25, 0.3j, -0.3 + 0.3j, -0.45],
                                      [0.25, 0.35 + 0.15j, 0.5 - 0.1j]])
def test_convolve_series_series_matches_taylor_oracle(vertices):
    phi, psi = BLOCK_GERMS["series"]
    a, b = pole_pair_sets()
    tr = convolve_along(phi, psi, Path(vertices), a, b, ConvolveConfig(n_s=16, n_t=16, n_q=6))
    want = series_series_oracle(phi.coeffs, psi.coeffs, tr.grid.gamma_values())
    assert np.max(np.abs(tr.values - want) / np.abs(want)) <= 1e-12


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("arg", ["candidate", "seed"])
def test_probe_rejects_a_non_finite_point(arg, value):
    a, b = pole_pair_sets()
    points = {"candidate": 1.5, "seed": 0.25, arg: value}
    with pytest.raises(PreconditionError, match=f"^{arg} must be finite"):
        singularity_probe(Germ.pole(1), Germ.pole(2), a, b, radius=0.2, **points)


@pytest.mark.parametrize("arg", ["radius", "candidate", "seed"])
def test_probe_refuses_a_bool(arg):
    a, b = pole_pair_sets()
    given = {"candidate": 1.5, "seed": 0.25, "radius": 0.2, arg: True}
    with pytest.raises(PreconditionError, match=arg):
        singularity_probe(Germ.pole(1), Germ.pole(2), a, b, **given)


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
    expected = {w: "singular-like", 1.5 * w: "regular", 2 * w: "singular-like",
                3 * w: "singular-like"}
    for cand, want in expected.items():
        rep = singularity_probe(phi, psi, a, b, cand, 0.2)
        assert rep.classification == want
        assert circle_oracle_error(rep, w, 2 * w) <= 1e-9, cand


def test_probe_entire_convolution_regular_everywhere():
    t = FilteredSet(0, [], 8.0)
    one = Germ.poly([1])
    rep = singularity_probe(one, one, t, t, 1.5 + 0.5j, 0.2,
                            cfg=ConvolveConfig(n_s=96, n_t=512, n_q=4))
    assert rep.classification == "regular"


def test_probe_matches_the_closed_form_at_the_cli_default_radius():
    # radius 0.1 (`convolve --probe-radius`'s default) on the default grid:
    # the graded rows resolve the contour's ends at every candidate
    a, b = pole_pair_sets()
    for cand in (1.0, 1.5, 2.0, 2.5, 3.0):
        rep = singularity_probe(Germ.pole(1), Germ.pole(2), a, b, cand, 0.1)
        assert circle_oracle_error(rep) <= 1e-9, cand
        assert rep.classification == ("regular" if cand in (1.5, 2.5) else "singular-like")


@pytest.mark.parametrize("phi", [Germ.pole(1), Germ.log_pole(1)], ids=["pole", "log_pole"])
def test_probe_with_log_factor_runs_at_the_plain_sum_point(phi):
    # the default grid's cells near B's point 2 are proven to keep
    # log(1 - z/2) on its anchor's branch along every column
    a, b = pole_pair_sets()
    rep = singularity_probe(phi, Germ.log_pole(2), a, b, 2.0, 0.2)
    assert rep.classification == "singular-like"
    assert min(rep.defect_rel, rep.ring_rel) > 1e-3


@pytest.mark.parametrize("phi, psi", [(Germ.pole(1), Germ.log_pole(2)),
                                      (Germ.log_pole(1), Germ.pole(2)),
                                      (Germ.log_pole(1), Germ.log_pole(2))],
                         ids=["pole-log_pole", "log_pole-pole", "log_pole-log_pole"])
def test_probe_with_log_factor_runs_at_the_sum_of_both_points(phi, psi):
    # with pole*log and log*log at 2.0 above, the five log probes that a
    # heuristic branch guard (|du| < 0.95 |u| per chord) refused at 256 rows:
    # the exact cell condition proves every cell of the default grid
    a, b = pole_pair_sets()
    rep = singularity_probe(phi, psi, a, b, 3.0, 0.2)
    in_fine_sum = np.min(np.abs(a.fine_sum(b).points - 3.0)) <= 1e-9
    assert in_fine_sum and rep.classification == "singular-like"


def test_log_probes_match_the_integrals_of_the_pole_pair_closed_form():
    # pole*log, log*pole and log*log on the default grid, within 1e-12 of
    # the integrals of pole(1)*pole(2) along the loop; each classification
    # as the fine sum says, with margins
    a, b = pole_pair_sets()
    fine = a.fine_sum(b).points
    pairs = {"pole-log": ("pole", "log_pole"), "log-pole": ("log_pole", "pole"),
             "log-log": ("log_pole", "log_pole")}
    for cand in (1.0, 1.5, 2.0, 2.5, 3.0):
        reps = {name: singularity_probe(getattr(Germ, f)(1), getattr(Germ, g)(2), a, b, cand, 0.2)
                for name, (f, g) in pairs.items()}
        single, double = log_probe_oracles(reps["pole-log"])
        singular = np.min(np.abs(fine - cand)) <= 1e-9
        for name, want in (("pole-log", single), ("log-pole", single), ("log-log", double)):
            rep = reps[name]
            err = np.max(np.abs(rep.trace.values - want)) / np.max(np.abs(want))
            assert err <= 1e-12, (cand, name)
            assert err <= max(rep.cell_error_rel, 1e-12), (cand, name)
            signal = max(rep.defect_rel, rep.ring_rel)
            if singular:
                assert rep.classification == "singular-like" and signal >= 10 * TOL_MONO
            else:
                assert rep.classification == "regular" and signal <= TOL_MONO / 100


def test_log_probe_continues_the_log_along_the_arcs_of_split_cells():
    # at candidate 3 the contour hugs the sets' points, and some chords cut
    # across them where the cubics pass on the contour's side: the log is
    # continued along the arcs, on phi's column (A = {1}) and, with the
    # sets swapped, on psi's mirror (B = {1})
    a, b = pole_pair_sets()
    for (sa, sb), (pa, pb) in (((a, b), (1.0, 2.0)), ((b, a), (2.0, 1.0))):
        for f, g in (("log_pole", "pole"), ("log_pole", "log_pole"), ("pole", "log_pole")):
            rep = singularity_probe(getattr(Germ, f)(pa), getattr(Germ, g)(pb), sa, sb, 3.0, 0.2)
            single, double = log_probe_oracles(rep, pa, pb)
            want = double if f == g else single
            err = np.max(np.abs(rep.trace.values - want)) / np.max(np.abs(want))
            assert err <= 1e-12, (pa, f, g)
            assert rep.cells_split > 0


def test_probe_refuses_a_cell_error_above_its_bound():
    # Gauss order 2 on 16 rows: at the deepest split the estimate stays above
    # CELL_REFUSE * TOL_MONO of the values' scale
    a, b = pole_pair_sets()
    with pytest.raises(ToleranceError, match="probe quadrature not resolved") as info:
        singularity_probe(Germ.pole(1), Germ.pole(2), a, b, 1.5, 0.2,
                          cfg=ConvolveConfig(n_s=16, n_t=64, n_q=2))
    exc = info.value
    assert exc.stage == "probe cell error"
    assert exc.value > exc.bound == CELL_REFUSE * TOL_MONO


PROBE_CFG = ConvolveConfig(n_s=64, n_t=256, n_q=8)


@pytest.mark.parametrize("candidate", [1.5, 2.5])
def test_probe_ring_rule_resolves_regular_points_at_every_n_t(candidate):
    # ring_rel of a regular point is the trapezoid rule's error on the
    # 16-sided circle.  Equal step counts on its equal sides make that rule
    # converge geometrically; uneven counts (5 or 6 steps a side) read up to
    # 3.3e-4 at n_t 64, above TOL_MONO.
    a, b = pole_pair_sets()
    for n_t in (48, 64, 96, 128, 256):
        rep = singularity_probe(Germ.pole(1), Germ.pole(2), a, b, candidate, 0.2,
                                cfg=ConvolveConfig(n_s=256, n_t=n_t, n_q=16))
        assert rep.classification == "regular", n_t
        assert rep.ring_rel <= 1e-6, n_t
        # the circle's 17 vertices are time nodes, with as many steps between each two
        corners = rep.loop.vertex_fractions()[-17:]
        at = np.searchsorted(rep.trace.ts, corners)
        assert np.array_equal(rep.trace.ts[at], corners), n_t
        assert len(set(np.diff(at))) == 1, n_t


def test_probe_cell_error_bounds_the_oracle_error_at_the_default_grid(pole_pair_probes):
    # the estimate of the values reported: at least their error wherever
    # that exceeds 1e-12, and the values within 1e-12 of the closed form
    for cand, rep in pole_pair_probes.items():
        err = circle_oracle_error(rep)
        assert err <= 1e-12, cand
        assert rep.cell_error_rel <= 1e-5, cand
        assert err <= max(rep.cell_error_rel, 1e-12), cand


def test_probe_cell_error_bounds_the_oracle_error_at_the_cli_default_radius():
    a, b = pole_pair_sets()
    for cand in (1.0, 1.5, 2.0, 2.5, 3.0):
        rep = singularity_probe(Germ.pole(1), Germ.pole(2), a, b, cand, 0.1)
        err = circle_oracle_error(rep)
        assert err <= 1e-12, cand
        assert err <= max(rep.cell_error_rel, 1e-12), cand
        assert rep.cell_error_rel <= TOL_MONO, cand


@pytest.mark.parametrize("candidate, radius, cfg", [
    (1.0, 0.2, PROBE_CFG), (2.0, 0.2, PROBE_CFG), (2.5, 0.2, PROBE_CFG),
    (3.0, 0.2, PROBE_CFG),
    (2.0, 0.1, None),  # the default grid at the CLI's default radius
    (2.0, 0.025, None),  # the default grid at an eighth of the radius: not resolved
])
def test_probe_cell_error_flags_an_under_resolved_grid(candidate, radius, cfg):
    # a probe refuses, or its values are within TOL_MONO of the closed form
    # and its estimate at least their error
    a, b = pole_pair_sets()
    try:
        rep = singularity_probe(Germ.pole(1), Germ.pole(2), a, b, candidate, radius, cfg=cfg)
    except ToleranceError as exc:
        assert exc.stage in ("cell hull", "column winding", "probe cell error")
        return
    err = circle_oracle_error(rep)
    assert err <= TOL_MONO
    assert err <= max(rep.cell_error_rel, 1e-12)


def test_probe_refuses_the_wrong_side_of_a_point_at_the_default_grid():
    # radius 0.025, candidate 2: a cubic of the default grid passes a set's
    # point on the other side than the contour does, which no Gauss order
    # mends (unrefused, n_q up to 256 stayed off by 1.2)
    a, b = pole_pair_sets()
    with pytest.raises(ToleranceError, match="grid too coarse") as info:
        singularity_probe(Germ.pole(1), Germ.pole(2), a, b, 2.0, 0.025)
    exc = info.value
    assert exc.stage == "column winding" and exc.value > exc.bound == math.pi


def test_probe_cell_error_is_finite_for_odd_n_s():
    a, b = pole_pair_sets()
    rep = singularity_probe(Germ.pole(1), Germ.pole(2), a, b, 1.5, 0.2,
                            cfg=dataclasses.replace(PROBE_CFG, n_s=63))
    assert 0.0 <= rep.cell_error_rel <= CELL_REFUSE * TOL_MONO
    assert rep.classification == "regular"


def test_probe_cell_error_is_finite_with_a_log_factor_at_the_sum_point():
    # the cells around the log's branch point are proven or split, and the
    # estimate integrates the same cells at n_q // 2
    a, b = pole_pair_sets()
    rep = singularity_probe(Germ.log_pole(1), Germ.pole(2), a, b, 3.0, 0.2)
    assert 0.0 <= rep.cell_error_rel <= CELL_REFUSE * TOL_MONO
    assert rep.classification == "singular-like"


@pytest.mark.parametrize("candidate", [1.5, 3.0])
def test_probe_circle_equals_slice_of_full_trace(candidate):
    a, b = pole_pair_sets()
    phi, psi = Germ.pole(1), Germ.pole(2)
    rep = singularity_probe(phi, psi, a, b, candidate, 0.2, cfg=PROBE_CFG)
    full = convolve_along(phi, psi, rep.loop, a, b,
                          dataclasses.replace(PROBE_CFG, level=rep.level))
    # the trace holds the circle only: from its first vertex to the end
    k = len(full.values) - len(rep.trace.values)
    assert full.ts[k] == rep.loop.vertex_fractions()[-17]
    assert rep.trace.ts.tobytes() == full.ts[k:].tobytes()
    assert rep.trace.radii.tobytes() == full.radii[k:].tobytes()
    # each value has the full trace's bits, or its cells were split for the
    # error estimate and it is no farther from the closed form
    vals, pts = rep.trace.values, full.grid.gamma_values()[k:]
    moved = vals != full.values[k:]
    want = pole_pole_oracle(rep.loop, rep.trace.ts)
    scale = float(np.max(np.abs(want)))
    assert np.all(np.abs(vals - want)[moved] <= np.abs(full.values[k:] - want)[moved] + 1e-13 * scale)
    assert rep.cells_split > 0 or not moved.any()
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    defect = abs(vals[-1] - vals[0]) / scale
    ring = complex(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(pts)))
    ring_rel = abs(ring) / (2 * math.pi * 0.2 * scale)
    assert rep.defect_rel == float(defect) and rep.ring_rel == float(ring_rel)
    want = "singular-like" if max(defect, ring_rel) > 1e-4 else "regular"
    assert rep.classification == want == ("regular" if candidate == 1.5 else "singular-like")


def count_columns(monkeypatch, set_a):
    """Columns each set's check sees (set_a's as "a", the other's as "b"),
    and columns integrated without and with the error estimate, per probe."""
    from borelconv import germs

    seen = {"a": 0, "b": 0, "integrated": 0, "estimated": 0}
    check, integrate = germs._check_columns, germs._integrate

    def counted_check(pts, fset, level):
        seen["a" if fset is set_a else "b"] += pts.shape[1]
        return check(pts, fset, level)

    def counted_integrate(phi, psi, grid, js, cfg, estimate):
        seen["estimated" if estimate else "integrated"] += len(js)
        return integrate(phi, psi, grid, js, cfg, estimate)

    monkeypatch.setattr(germs, "_check_columns", counted_check)
    monkeypatch.setattr(germs, "_integrate", counted_integrate)
    return seen


EXP_SERIES = Germ.series([1.0 / math.factorial(k) for k in range(40)], 8.0)


@pytest.mark.parametrize("factors, candidate, cfg, want", [
    ((Germ.pole(1), Germ.pole(2), *pole_pair_sets()), 3.0, PROBE_CFG, "singular-like"),
    # exp as a series: its tail is proven over the cells' hulls, so its
    # probe integrates no more of the route than a pole pair's does
    ((EXP_SERIES, Germ.pole(2), FilteredSet(0, [], 8.0), FilteredSet(0, [(2, 2.0)], 8.0)),
     1.5, None, "regular"),
    ((EXP_SERIES, Germ.pole(2), FilteredSet(0, [], 8.0), FilteredSet(0, [(2, 2.0)], 8.0)),
     2.0, None, "singular-like"),
], ids=["pole-3.0", "series-1.5", "series-2.0"])
def test_probe_checks_every_column_and_integrates_the_circle(monkeypatch, factors, candidate,
                                                             cfg, want):
    # every loop column is checked once, and the circle's are integrated,
    # once each, with their error estimate; of the route's, only the last
    # is integrated (by convolve_at, the name perfbench counts)
    phi, psi, a, b = factors
    seen = count_columns(monkeypatch, a)
    rep = singularity_probe(phi, psi, a, b, candidate, 0.2, cfg=cfg)
    n, columns = len(rep.trace.values), rep.trace.grid.n_t + 1
    assert rep.classification == want
    assert seen["a"] == seen["b"] == columns
    assert seen["integrated"] == 1
    assert seen["estimated"] == n < columns - 1
    if phi.kind == "series":
        # no cell is split at 1.5; at 2.0 the estimate refines pieces
        assert (rep.cells_split == 0) == (candidate == 1.5)
    if rep.cells_split == 0:
        # unsplit, the circle keeps the bits of the whole loop's trace
        monkeypatch.undo()
        cfg = dataclasses.replace(cfg or ConvolveConfig(n_s=64, n_t=64, n_q=16), level=rep.level)
        full = convolve_along(phi, psi, rep.loop, a, b, cfg)
        assert rep.trace.values.tobytes() == full.values[-n:].tobytes()


def test_log_probe_circle_keeps_its_bits_in_any_block(monkeypatch):
    # a split log cell's branch bases run within the cell, so a column's
    # values and estimate do not depend on the columns sharing its block
    from borelconv import germs

    a, b = pole_pair_sets()
    reports = []
    for columns in (16, 5):
        monkeypatch.setattr(germs, "BLOCK_NODES", 64 * 16 * columns)
        reports.append(singularity_probe(Germ.log_pole(1), Germ.log_pole(2), a, b, 3.0, 0.2))
    assert reports[0].cells_split > 0
    assert reports[0].trace.values.tobytes() == reports[1].trace.values.tobytes()
    assert reports[0].cell_error_rel == reports[1].cell_error_rel


def test_probe_with_log_factor_checks_every_column_and_integrates_the_circle(monkeypatch):
    # the chord and cell conditions of a log germ are decided from samples
    # alone, so the route's columns are checked and, but for the last, not
    # integrated, as for pole germs; every column passes the cell check once
    from borelconv import germs

    a, b = pole_pair_sets()
    phi, psi = Germ.pole(1), Germ.log_pole(2)
    seen = count_columns(monkeypatch, a)
    cells = []
    check_cells = germs._check_cells
    monkeypatch.setattr(germs, "_check_cells",
                        lambda points, ctrl: cells.append(ctrl.shape) or check_cells(points, ctrl))
    rep = singularity_probe(phi, psi, a, b, 1.5, 0.2, cfg=PROBE_CFG)
    n, columns = len(rep.trace.values), rep.trace.grid.n_t + 1
    assert seen["a"] == seen["b"] == columns
    assert seen["integrated"] == 1 and seen["estimated"] == n < columns - 1
    assert 0.0 <= rep.cell_error_rel <= CELL_REFUSE * TOL_MONO
    assert sum(j for j, rows, _ in cells) == columns
    assert all(rows == PROBE_CFG.n_s for _, rows, _ in cells)
    monkeypatch.undo()
    full = convolve_along(phi, psi, rep.loop, a, b, dataclasses.replace(PROBE_CFG, level=rep.level))
    assert rep.trace.ts.tobytes() == full.ts[-n:].tobytes()
    scale = float(np.max(np.abs(full.values[-n:])))
    assert np.max(np.abs(rep.trace.values - full.values[-n:])) <= 1e-12 * scale


def test_probe_refuses_route_column_through_pole_parameter(monkeypatch):
    # the seed column's middle sample is the pole parameter of phi; the
    # column lies on the route, so it is continued but not integrated
    a, b = pole_pair_sets()
    seen = count_columns(monkeypatch, a)
    with pytest.raises(PreconditionError, match="pole parameter"):
        singularity_probe(Germ.pole(0.125), Germ.pole(2), a, b, 1.5, 0.2, cfg=PROBE_CFG)
    assert seen["integrated"] == seen["estimated"] == 0


# -- the containment theorem ---------------------------------------------------------


def polar(modulus, argument):
    """A complex number from a strategy of moduli and one of arguments."""
    return st.builds(lambda r, t: r * cmath.exp(1j * t), modulus, argument)


ANY_ARGUMENT = st.floats(0.0, 2 * math.pi)
FACTOR = polar(st.floats(0.8, 2.0), ANY_ARGUMENT)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(a=FACTOR, b=FACTOR, candidate=polar(st.floats(0.6, 4.0), ANY_ARGUMENT),
       kinds=st.tuples(*[st.sampled_from(["pole", "log_pole"])] * 2))
def test_probe_finds_the_convolution_regular_off_the_fine_sum(a, b, candidate, kinds):
    # the paper's main result: phi * psi continues along every path that
    # avoids the fine sum of A = {a} and B = {b}, so a point off {0, a, b,
    # a + b} is regular
    assume(min(abs(candidate - p) for p in (0.0, a, b, a + b)) >= 0.6)
    set_a, set_b = FilteredSet(0, [(a, abs(a))], 8.0), FilteredSet(0, [(b, abs(b))], 8.0)
    phi, psi = getattr(Germ, kinds[0])(a), getattr(Germ, kinds[1])(b)
    rep = singularity_probe(phi, psi, set_a, set_b, candidate, 0.2)
    assert rep.classification == "regular", (rep.defect_rel, rep.ring_rel)
    if kinds == ("pole", "pole"):
        assert circle_oracle_error(rep, a, b) <= 1e-11


@pytest.mark.parametrize("kinds", list(itertools.product(["pole", "log_pole"], repeat=2)),
                         ids="-".join)
def test_probe_seed_clears_a_circle_near_the_centre(kinds):
    # a quarter of min rho toward the candidate lies inside this circle, so
    # the default seed sits halfway between the centre and the circle
    a, b, candidate = -1.61 - 0.45j, 0.77 - 1.76j, 0.38 - 0.48j
    set_a, set_b = FilteredSet(0, [(a, abs(a))], 8.0), FilteredSet(0, [(b, abs(b))], 8.0)
    assert abs(abs(candidate) - 0.25 * min(set_a.rho, set_b.rho)) <= 0.2
    rep = singularity_probe(getattr(Germ, kinds[0])(a), getattr(Germ, kinds[1])(b),
                            set_a, set_b, candidate, 0.2)
    seed = rep.loop.vertices[0]
    assert abs(seed) == pytest.approx(0.5 * (abs(candidate) - 0.2), rel=1e-15)
    assert abs(seed / abs(seed) - candidate / abs(candidate)) <= 1e-15
    assert rep.classification == "regular", (rep.defect_rel, rep.ring_rel)
    if kinds == ("pole", "pole"):
        assert circle_oracle_error(rep, a, b) <= 1e-11


# -- monodromy ----------------------------------------------------------------------


POLY = [1.0, -0.5j, 0.25, 0.1]
GEOMETRIC = [4.0 ** -(k + 1) for k in range(48)]  # 1/(4 - z), truncated
EXP = [1.0 / math.factorial(k) for k in range(40)]


def polynomial_factor(coeffs):
    """A polynomial's values and the values of its integral from 0."""
    P = np.polynomial.polynomial
    return (lambda w: complex(P.polyval(w, coeffs)),
            lambda w: complex(P.polyval(w, P.polyint(coeffs))))


# psi, its values and the values of its integral from 0, in closed form
MONODROMY_PSI = {
    "pole": (Germ.pole(2), lambda w: 1.0 / (2.0 - w), lambda w: -cmath.log(1.0 - w / 2.0)),
    "log_pole": (Germ.log_pole(2), lambda w: cmath.log(1.0 - w / 2.0),
                 lambda w: (w - 2.0) * cmath.log(1.0 - w / 2.0) - w),
    "poly": (Germ.poly(POLY), *polynomial_factor(POLY)),
    "series_geometric": (Germ.series(GEOMETRIC, 4.0), *polynomial_factor(GEOMETRIC)),
    "series_exp": (Germ.series(EXP, 8.0), *polynomial_factor(EXP)),
}


def assert_monodromy(phi_kind, psi_kind, z):
    # the contours of two allowed paths to z, one passing above phi's
    # point 1 and one below, differ by a turn around 1 alone.  That turn
    # leaves 2 pi i psi(z - 1) for phi = pole(1), and for phi = log_pole(1),
    # whose branches differ by 2 pi i along [1, z], -2 pi i int_0^{z-1} psi.
    # The closed forms share no code with the convolution.
    psi, values, integral = MONODROMY_PSI[psi_kind]
    a, b = pole_pair_sets()
    above = Path([0.25, 0.9 + 0.35j, 1.1 + 0.35j, z])
    below = Path([0.25, 0.9 - 0.35j, 1.1 - 0.35j, 1.35 - 0.1j, z])
    cfg = ConvolveConfig(n_s=64, n_t=128, n_q=16)
    phi = getattr(Germ, phi_kind)(1)
    got = (convolve_along(phi, psi, above, a, b, cfg).end_value
           - convolve_along(phi, psi, below, a, b, cfg).end_value)
    want = TWO_PI_I * values(z - 1) if phi_kind == "pole" else -TWO_PI_I * integral(z - 1)
    assert abs(got - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("psi_kind", sorted(MONODROMY_PSI))
@pytest.mark.parametrize("phi_kind", ["pole", "log_pole"])
def test_monodromy_around_phis_point_matches_its_residue(phi_kind, psi_kind):
    assert_monodromy(phi_kind, psi_kind, 1.5 + 0.3j)


@settings(max_examples=15, deadline=None)
@given(x=st.floats(1.2, 1.9), y=st.floats(0.05, 0.55),
       phi_kind=st.sampled_from(["pole", "log_pole"]),
       psi_kind=st.sampled_from(sorted(MONODROMY_PSI)))
def test_monodromy_around_phis_point_holds_over_end_points(x, y, phi_kind, psi_kind):
    # end points z in [1.2, 1.9] x [0.05, 0.55], where every kind pair
    # answers (on a 9 x 9 grid of it, within 4.0e-15), and the loop the two
    # paths close winds around no singular point but 1 (2 and 3 lie to the
    # right of the box)
    assert_monodromy(phi_kind, psi_kind, complex(x, y))


HOMOTOPY_PATHS = {
    "straight": [0.25, 1.5 + 0.3j],
    "above": [0.25, 0.9 + 0.35j, 1.1 + 0.35j, 1.5 + 0.3j],
    "wiggle": [0.25, 0.6 - 0.1j, 0.9 + 0.5j, 1.3 + 0.45j, 1.5 + 0.3j],
    "below": [0.25, 0.9 - 0.35j, 1.1 - 0.35j, 1.35 - 0.1j, 1.5 + 0.3j],
}


@pytest.mark.parametrize("kinds", [("pole", "pole"), ("pole", "log_pole"),
                                   ("log_pole", "log_pole")])
def test_homotopic_paths_give_one_value(kinds):
    # the continuation depends on an allowed path only through its homotopy
    # class: the straight, "above" and "wiggle" paths to 1.5+0.3i pass above
    # phi's point 1 and agree, and the path passing below 1 lies in another
    # class and does not.  The oracle is the value itself, on other contours.
    a, b = pole_pair_sets()
    phi, psi = getattr(Germ, kinds[0])(1), getattr(Germ, kinds[1])(2)
    ends = {name: convolve_along(phi, psi, Path(v), a, b).end_value
            for name, v in HOMOTOPY_PATHS.items()}
    scale = abs(ends["straight"])
    for name in ("above", "wiggle"):
        assert abs(ends[name] - ends["straight"]) <= 1e-11 * scale, name
    assert abs(ends["below"] - ends["straight"]) > 0.1 * scale


def count_fine_sums(monkeypatch):
    calls = []
    fine_sum = FilteredSet.fine_sum
    monkeypatch.setattr(FilteredSet, "fine_sum",
                        lambda self, other: calls.append(1) or fine_sum(self, other))
    return calls


def test_one_fine_sum_per_convolution_and_per_probe(monkeypatch):
    # the caller's fine sum serves the grid's seed levels too
    a, b = pole_pair_sets()
    calls = count_fine_sums(monkeypatch)
    convolve_along(Germ.pole(1), Germ.pole(2), Path([0.25, 0.5]), a, b,
                   ConvolveConfig(n_s=16, n_t=16, n_q=8))
    assert len(calls) == 1
    singularity_probe(Germ.pole(1), Germ.pole(2), a, b, 1.5, 0.2)
    assert len(calls) == 2


# -- branch conditions of log germs ---------------------------------------------------


def column_grid(column):
    """The pole pair's grid of a straight gamma with its columns replaced
    by one hand-built column (a grid with n_t = 0)."""
    a, b = pole_pair_sets()
    grid = deform(Path([0.25, 0.5]), a, b, 2.5, n_s=16, n_t=16)
    return dataclasses.replace(grid, H=np.asarray(column, dtype=complex)[:, None])


@pytest.mark.parametrize("side", ["phi", "psi"])
@pytest.mark.parametrize("stage", ["series disc", "series tail"])
def test_series_factor_is_refused_from_its_cells_hulls_before_any_node(monkeypatch, stage, side):
    # every sample lies in the disc and within the tail budget, but the
    # cubics through the arc's samples bulge past them (a Bezier arc's inner
    # control points lie outside its circle).  The series is refused from
    # the control points, before `_integrand` evaluates a node.
    from borelconv import germs
    from borelconv.cells import _cell_rule, _cubics
    from borelconv.germs import TOL_TAIL

    col = np.concatenate([[0.0, 0.3, 0.6], 0.9 * np.exp(1j * np.linspace(0.0, 1.2, 4))])
    ctrl = _cubics(col[None], *_cell_rule(len(col) - 1))
    # psi's arguments are gamma(t_j) minus phi's
    samples, points = (col, ctrl) if side == "phi" else (col[-1] - col, col[-1] - ctrl)
    r_samples, r_ctrl = np.max(np.abs(samples)), np.max(np.abs(points))
    assert r_samples < r_ctrl
    r_mid = 0.5 * (r_samples + r_ctrl)
    if stage == "series disc":
        # a tail of zeros: only the disc can refuse
        series, want, bound = Germ.series([1.0] + [0.0] * 8, r_mid), r_ctrl, r_mid
    else:
        # 48 coefficients c at radius 4: the estimate c 4^47 q^48 / (1 - q)
        # at q = r / 4 is TOL_TAIL at r_mid
        def tail(r):
            return 4.0 ** 47 * (r / 4.0) ** 48 / (1.0 - r / 4.0)
        c = TOL_TAIL / tail(r_mid)
        series, want, bound = Germ.series([c] * 48, 4.0), c * tail(r_ctrl), TOL_TAIL
    plain = Germ.poly([1.0])
    phi, psi = (series, plain) if side == "phi" else (plain, series)
    calls = []
    integrand = germs._integrand
    monkeypatch.setattr(germs, "_integrand", lambda *args: calls.append(args) or integrand(*args))
    with pytest.raises(ToleranceError) as info:
        convolve_at(phi, psi, column_grid(col), 0, cfg=ConvolveConfig(n_q=8))
    exc = info.value
    assert (exc.stage, exc.bound) == (stage, bound)
    assert exc.value == pytest.approx(want, rel=1e-12)
    assert not calls


def test_convolution_evaluates_no_pole_poly_or_series_factor_at_its_samples(monkeypatch):
    # only a log factor's value depends on the path it was continued along:
    # a pole, polynomial or series factor is evaluated from its germ at the
    # quadrature nodes alone, never at the (J, n_s + 1) samples of a block
    # of columns
    from borelconv import germs

    a, b = pole_pair_sets()
    cfg = ConvolveConfig(n_s=16, n_t=16, n_q=8)
    # the inputs of perfbench's series_trace, then a series x pole column
    series_phi = Germ.series([1.0] * 48, 1.0)
    series_psi = Germ.series([0.5 ** (k + 1) for k in range(48)], 2.0)

    def convolve():
        trace = convolve_along(series_phi, series_psi, Path([0.25, 0.5]), a, b, cfg)
        grid = trace.grid
        return [*trace.values, *(convolve_at(phi, psi, grid, grid.n_t, cfg=cfg) for phi, psi in (
            (series_phi, Germ.pole(2)), (Germ.poly([1.0, 0.5j]), series_psi)))]

    assert np.all(np.isfinite(convolve()))
    calls = []
    germ_values = germs._germ_values

    def recorded(germ, z, base=None):
        calls.append((germ.kind, np.shape(z)))
        return germ_values(germ, z, base)

    monkeypatch.setattr(germs, "_germ_values", recorded)
    convolve()
    assert {kind for kind, _ in calls} == {"series", "pole", "poly"}
    assert not [shape for _, shape in calls if shape[-1:] == (cfg.n_s + 1,)]


def test_log_column_through_the_branch_point_is_refused():
    col = np.linspace(0.0, 0.6 + 0.2j, 9)
    grid = column_grid(col)
    cfg = ConvolveConfig(n_q=8)
    # at a sample: the path passes through the parameter
    for phi, psi in ((Germ.log_pole(col[3]), Germ.pole(2)),
                     (Germ.pole(2), Germ.log_pole(col[-1] - col[3]))):
        with pytest.raises(PreconditionError, match="log parameter"):
            convolve_at(phi, psi, grid, 0, cfg=cfg)
    # between samples: the chord passes through it, or 1e-12 from it
    mid = 0.5 * (col[3] + col[4])
    normal = 1j * (col[4] - col[3]) / abs(col[4] - col[3])
    for offset in (0.0, 1e-12):
        w = mid + offset * normal
        for phi, psi in ((Germ.log_pole(w), Germ.pole(2)),
                         (Germ.pole(2), Germ.log_pole(col[-1] - w))):
            with pytest.raises(ToleranceError, match="chord") as info:
                convolve_at(phi, psi, grid, 0, cfg=cfg)
            exc = info.value
            assert exc.stage == "log chord" and exc.bound == POINT_TOL
            assert exc.value == pytest.approx(offset, abs=1e-15)
    # and well clear of it, the column integrates
    assert np.isfinite(convolve_at(Germ.log_pole(mid + 0.05j), Germ.pole(2), grid, 0, cfg=cfg))


def test_log_cell_bending_around_the_branch_point_is_refused():
    # samples 2..5 lie on the circle of radius 0.3 about w, a quarter turn
    # apart; the cubic of cell 3 (from w + 0.3i to w + 0.3) bulges out to
    # about 0.265 from w at its middle, while its chord passes at 0.212
    w = 0.5
    col = [0, 0.1, w - 0.3, w + 0.3j, w + 0.3, w - 0.3j, 0.3 - 0.4j, 0.2 - 0.5j, 0.1 - 0.6j]
    arc_mid = w + (9 * (0.3j + 0.3) - (-0.3 - 0.3j)) / 16
    zeta = w + 0.24 * cmath.exp(0.25j * math.pi)
    assert abs(zeta - w) < abs(arc_mid - w) and abs(zeta - w) > abs(0.5 * (col[3] + col[4]) - w)
    grid = column_grid(col)
    for phi, psi in ((Germ.log_pole(zeta), Germ.pole(2)),
                     (Germ.pole(2), Germ.log_pole(col[-1] - zeta))):
        with pytest.raises(ToleranceError, match="cell"):
            convolve_at(phi, psi, grid, 0, cfg=ConvolveConfig(n_q=8))


# the Gauss nodes of order 8 in the cell coordinate
NODES = 0.5 * (np.polynomial.legendre.leggauss(8)[0] + 1.0)


def dense_cubics(col, m):
    """Each cell's cubic through its four stencil samples (centred on the
    cell, shifted at the two end cells), by a polynomial fit, at m uniform
    points of the cell coordinate in [0, 1] and at the cell's Gauss nodes;
    returns the points in order along the column and the indices of the
    nodes among them."""
    n_s = len(col) - 1
    pts, nodes = [], []
    for c in range(n_s):
        lo = min(max(c - 1, 0), n_s - 3)
        fit = np.polynomial.Polynomial.fit(np.arange(4) + lo - c, col[lo:lo + 4], 3,
                                           domain=[-1, 2], window=[-1, 2])
        xs, where = np.unique(np.concatenate([np.linspace(0, 1, m), NODES]), return_inverse=True)
        nodes.extend(sum(map(len, pts)) + where[m:])
        pts.append(fit(xs))
    return np.concatenate(pts), np.array(nodes)


def test_de_casteljau_halves_reproduce_the_parent_cubic():
    from borelconv.cells import _de_casteljau

    def bezier(ctrl, u):
        u = u[:, None]
        return ((1 - u) ** 3 * ctrl[:, 0] + 3 * u * (1 - u) ** 2 * ctrl[:, 1]
                + 3 * u ** 2 * (1 - u) * ctrl[:, 2] + u ** 3 * ctrl[:, 3])

    rng = np.random.default_rng(17)
    ctrl = rng.normal(size=(64, 4)) + 1j * rng.normal(size=(64, 4))
    left, right = _de_casteljau(ctrl)
    # the outer points keep their bits, and the halves share their middle
    assert left[:, 0].tobytes() == ctrl[:, 0].tobytes()
    assert right[:, 3].tobytes() == ctrl[:, 3].tobytes()
    assert left[:, 3].tobytes() == right[:, 0].tobytes()
    u = np.linspace(0.0, 1.0, 65)
    scale = np.max(np.abs(ctrl))
    assert np.max(np.abs(bezier(left, u) - bezier(ctrl, 0.5 * u))) <= 1e-15 * scale
    assert np.max(np.abs(bezier(right, u) - bezier(ctrl, 0.5 + 0.5 * u))) <= 1e-15 * scale


def test_cubic_bending_around_a_pole_is_split_and_proven_or_refused():
    # the bending column of the log test above, with a pole on the ray at
    # 45 degrees from w: between the chord (0.212 from w) and the arc (0.265)
    # the cubic passes on the other side of the pole than the samples do,
    # off by the residue 2 pi i, and must be refused; beyond the arc, inside
    # the Bezier hull, the cell is split until proven
    w = 0.5
    col = np.array([0, 0.1, w - 0.3, w + 0.3j, w + 0.3, w - 0.3j, 0.3 - 0.4j, 0.2 - 0.5j,
                    0.1 - 0.6j])
    grid = column_grid(col)
    cfg = ConvolveConfig(n_q=8)
    one = Germ.poly([1])
    for rad in (0.22, 0.24, 0.26):
        with pytest.raises(ToleranceError, match="grid too coarse"):
            convolve_at(Germ.pole(w + rad * cmath.exp(0.25j * math.pi)), one, grid, 0, cfg=cfg)

    from borelconv.germs import _estimate_columns

    dense, _ = dense_cubics(col, 4000)
    for rad in (0.27, 0.28, 0.3):
        zeta = w + rad * cmath.exp(0.25j * math.pi)
        # the integral of dZ / (zeta - Z) along the cubics
        want = -_continued_log(1.0 - dense / zeta)[-1]
        # Gauss error of order 8 on the cells, up to 0.48 here, not a residue
        assert abs(convolve_at(Germ.pole(zeta), one, grid, 0, cfg=cfg) - want) < 1.0, rad
        values, errors, n_split, depth = _estimate_columns(Germ.pole(zeta), one, grid,
                                                           np.array([0]), cfg)
        assert abs(values[0] - want) <= 1e-12 * abs(want) <= errors[0], rad
        assert n_split > 0 and depth > 0


@pytest.mark.parametrize("seed", range(3))
def test_log_values_on_proven_cells_follow_the_continued_log_along_the_cubics(seed):
    # random curved columns and branch points near them: wherever the cells
    # pass, the quadrature nodes' values, each taking its branch at its
    # cell's first sample, are the log continued along the cubics, tracked
    # on a dense polyline (no code shared with the check)
    from borelconv.cells import _bernstein_rule, _cell_rule, _check_cells, _cubics, _products
    from borelconv.germs import _continue_log, _germ_values, _singular_points

    rng = np.random.default_rng(seed)
    n_s = 8
    s = np.linspace(0.0, 1.0, n_s + 1)
    passed = refused = off_principal = 0
    for trial in itertools.count():
        if passed == 12:
            break
        coef = rng.normal(size=3) + 1j * rng.normal(size=3)
        coef[1:] *= 4
        col = s * coef[0] + s ** 2 * coef[1] + s ** 3 * coef[2]
        k = rng.integers(1, n_s - 1)
        cell = abs(col[k + 1] - col[k])
        if trial % 3 == 0:
            # near sample k, off by 1/100 to 2 cells
            zeta = col[k] + cell * 10 ** rng.uniform(-2, 0.3) * cmath.exp(2j * math.pi * rng.uniform())
        elif trial % 3 == 1:
            # on the line from the middle of cell k's chord through the
            # middle of its cubic: between the two, or beyond the cubic
            chord_mid = 0.5 * (col[k] + col[k + 1])
            arc_mid = (9 * (col[k] + col[k + 1]) - col[k - 1] - col[k + 2]) / 16
            zeta = chord_mid + rng.uniform(0.2, 3.0) * (arc_mid - chord_mid)
        else:
            # short of sample k toward the centre: the column crosses the
            # log's cut at sample k
            zeta = col[k] * (1.0 - cell * rng.uniform(0.05, 1.0) / abs(col[k]))
        if min(abs(zeta), abs(col[-1] - zeta)) < 1e-3:
            continue
        cols = col[None, :]
        phi, psi = Germ.log_pole(zeta), Germ.log_pole(col[-1] - zeta)
        try:
            phi_log = _continue_log(phi, cols)
            psi_log = _continue_log(psi, (col[-1] - col[::-1])[None, :])
        except ToleranceError:
            refused += 1
            continue
        points = [b for b, _, _ in _singular_points(phi, psi, cols[:, -1])]
        ctrl = _cubics(cols, *_cell_rule(n_s))
        if _check_cells(points, ctrl).any():
            refused += 1
            continue
        dense, nodes = dense_cubics(col, 400)
        if np.min(np.abs(dense - zeta)) < 0.02 * cell:
            continue  # the polyline's steps would be too long to track the log
        passed += 1
        Z = _products(ctrl, _bernstein_rule(8)[0])
        # cell c starts at sample c of the column and at sample n_s - c of
        # its mirror, which psi travels from the top row down
        first = (lambda log, at: (log[0][:, at, None], log[1][:, at, None]))
        got_phi = _germ_values(phi, Z, first(phi_log, np.s_[:-1])).ravel()
        got_psi = _germ_values(psi, col[-1] - Z, first(psi_log, np.s_[:0:-1])).ravel()
        want_phi = _continued_log(1.0 - dense / zeta)[nodes]
        # psi travels the mirror: from gamma's end back to the centre
        mirrored = (col[-1] - dense)[::-1]
        want_psi = _continued_log(1.0 - mirrored / psi.a)[::-1][nodes]
        assert np.max(np.abs(got_phi - want_phi)) <= 1e-10
        assert np.max(np.abs(got_psi - want_psi)) <= 1e-10
        off_principal += np.any(np.abs(got_phi - np.log(1.0 - Z.ravel() / zeta)) > 1.0)
    # both outcomes, and columns that wind past the principal branch
    assert refused > 0 and off_principal > 0


def unfiltered_check_raises(pts, fset, level):
    """The column check without its prefilter: the exact distance of every
    segment to every member at the level."""
    from borelconv.paths import INCIDENCE_TOL, _segment_distances

    members = fset.points[fset.levels < level]
    return bool((_segment_distances(members, pts[:-1].ravel(), pts[1:].ravel())
                 <= INCIDENCE_TOL).any())


@pytest.mark.parametrize("seed", range(6))
def test_check_columns_prefilter_keeps_the_outcome_of_the_exact_check(seed):
    from borelconv.germs import _check_columns

    rng = np.random.default_rng(seed)
    members = rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3)
    fset = FilteredSet(0, [(p, abs(p) + 0.5 * k) for k, p in enumerate(members)], 8.0)
    level = float(rng.uniform(abs(members[0]), 7.0))
    # offsets of a segment from a member: through it, at a sample, on either
    # side of INCIDENCE_TOL, and clear of it
    offsets = [0.0, 0.5e-9, 1e-9 * (1 - 1e-6), 1e-9, 1e-9 * (1 + 1e-6), 2e-9, 1e-6, 0.1]
    outcomes = set()
    for trial in range(60):
        pts = rng.uniform(-3, 3, (17, 5)) + 1j * rng.uniform(-3, 3, (17, 5))
        if trial % 4:
            p = members[rng.integers(len(members))]
            i, k = rng.integers(16), rng.integers(5)
            u = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            mid = p + 1j * u * offsets[rng.integers(len(offsets))]
            pts[i, k] = mid - rng.uniform(0, 0.3) * u
            pts[i + 1, k] = mid + rng.choice([0.0, rng.uniform(0, 0.3)]) * u
        want = unfiltered_check_raises(pts, fset, level)
        outcomes.add(want)
        if want:
            with pytest.raises(PreconditionError) as info:
                _check_columns(pts, fset, level)
            assert str(info.value) == "contour column hits a filtration point at the working level"
        else:
            _check_columns(pts, fset, level)
    assert outcomes == {True, False}


# -- serialization helpers ----------------------------------------------------------


def test_trace_csv_rows_shape():
    from borelconv.jsonio import trace_csv_rows

    s = FilteredSet(0, [(1, 1.0)], 6.0)
    tr = continue_along(Germ.pole(1), Path([0, 0.5]), s)
    rows = trace_csv_rows(tr)
    assert len(rows) == len(tr.ts)
    assert all(len(r) == 5 for r in rows)
