import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from borelconv.cli import _build_parser, main
from borelconv.jsonio import (CSV_BLOCK_ROWS, ParseError, atomic_write, dumps, germ_from_doc,
                              grid_csv_rows, load_json, set_from_doc, write_csv)

from conftest import sets_equal
from borelconv import (ChiGuardError, ConvolveConfig, FilteredSet, Germ, Path, convolve_along,
                       deform, mirror)
from borelconv.deformation import CONVOLVE_STEP_INTERVALS
from borelconv.germs import singularity_probe


def write(path, doc):
    path.write_text(dumps(doc))
    return str(path)


def set_doc(entries, horizon, centre=(0.0, 0.0)):
    return {"centre": list(centre),
            "entries": [{"z": [z.real, z.imag], "level": lv} for z, lv in entries],
            "horizon": horizon}


def path_doc(vertices):
    return {"vertices": [[complex(v).real, complex(v).imag] for v in vertices]}


# -- set-op -----------------------------------------------------------------------


def test_set_op_fine_sum(tmp_path):
    a = write(tmp_path / "a.json", set_doc([(1 + 0j, 1.0)], 6.0))
    b = write(tmp_path / "b.json", set_doc([(2 + 0j, 2.0)], 6.0))
    out = tmp_path / "out.json"
    assert main(["set-op", "fine-sum", a, b, "-o", str(out)]) == 0
    got = set_from_doc(load_json(str(out)))
    want = FilteredSet(0, [(1, 1.0), (2, 2.0), (3, 3.0)], 6.0)
    assert sets_equal(got, want)


def test_set_op_saturate(tmp_path):
    a = write(tmp_path / "a.json", set_doc([(1 + 0j, 1.0)], 4.5))
    out = tmp_path / "out.json"
    assert main(["set-op", "saturate", a, "-o", str(out)]) == 0
    got = set_from_doc(load_json(str(out)))
    want = FilteredSet(0, [(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)], 4.5)
    assert sets_equal(got, want)


def test_set_op_union_roundtrip_bits(tmp_path):
    a = write(tmp_path / "a.json", set_doc([(0.1 + 0.2j, 1.7)], 5.0))
    b = write(tmp_path / "b.json", set_doc([(0.3 - 0.4j, 2.3)], 6.0))
    o1, o2 = tmp_path / "o1.json", tmp_path / "o2.json"
    assert main(["set-op", "union", a, b, "-o", str(o1)]) == 0
    assert main(["set-op", "union", a, b, "-o", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    # loading and re-dumping the output reproduces it exactly
    assert dumps(load_json(str(o1))) == o1.read_text()


# -- exit codes --------------------------------------------------------------------


def test_exit_2_on_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out.json"
    assert main(["set-op", "saturate", str(bad), "-o", str(out)]) == 2


def test_exit_2_on_schema_violation(tmp_path):
    bad = write(tmp_path / "bad.json", {"centre": [0.0], "horizon": 1.0})
    out = tmp_path / "out.json"
    assert main(["set-op", "saturate", str(bad), "-o", str(out)]) == 2


def test_exit_3_on_centre_mismatch(tmp_path):
    a = write(tmp_path / "a.json", set_doc([], 2.0))
    b = write(tmp_path / "b.json", set_doc([], 2.0, centre=(1.0, 0.0)))
    out = tmp_path / "out.json"
    assert main(["set-op", "union", a, b, "-o", str(out)]) == 3


def test_exit_4_on_flow_guard(tmp_path):
    a = write(tmp_path / "a.json", set_doc([(1 + 0j, 1.0)], 6.0))
    b = write(tmp_path / "b.json", set_doc([], 6.0))
    g = write(tmp_path / "g.json", path_doc([0.25, 1 + 1e-3j, 1.75]))
    outdir = tmp_path / "out"
    code = main(["deform", g, a, b, "--level", "2.2", "--ns", "16",
                 "--nt", "64", "--eps-den", "0.01", "-o", str(outdir)])
    assert code == 4


def test_flow_guard_through_deform_and_convolve_has_stage_flow_and_exit_4(tmp_path):
    # the configuration above, and gamma 5e-9 from A's entry, within the
    # default guard 1e-8 |gamma|, for convolve (which takes no --eps-den)
    a_set, empty = FilteredSet(0, [(1, 1.0)], 6.0), FilteredSet(0, [], 6.0)
    with pytest.raises(ChiGuardError) as got:
        deform(Path([0.25, 1 + 1e-3j, 1.75]), a_set, empty, 2.2, n_s=16, n_t=64, eps_den=0.01)
    assert got.value.stage == "flow"
    near = Path([0.25, 1 + 5e-9j, 1.75])
    cfg = ConvolveConfig(level=2.2, n_s=16, n_t=64, n_q=8)
    with pytest.raises(ChiGuardError) as got:
        convolve_along(Germ.pole(3), Germ.pole(3), near, a_set, empty, cfg)
    assert got.value.stage == "flow" and got.value.value <= got.value.bound
    phi = write(tmp_path / "phi.json", {"kind": "pole", "a": [3.0, 0.0]})
    a = write(tmp_path / "a.json", set_doc([(1 + 0j, 1.0)], 6.0))
    b = write(tmp_path / "b.json", set_doc([], 6.0))
    g = write(tmp_path / "g.json", path_doc([0.25, 1 + 5e-9j, 1.75]))
    assert main(["convolve", phi, phi, g, a, b, "--level", "2.2", "--ns", "16", "--nt", "64",
                 "--nq", "8", "-o", str(tmp_path / "out")]) == 4


def test_exit_5_on_length_tolerance(tmp_path):
    a = write(tmp_path / "a.json", set_doc([(0.26j, 0.3)], 3.0))
    b = write(tmp_path / "b.json", set_doc([(2 + 0j, 2.0)], 3.0))
    # a gamma whose length residual is a rounding above 0 (a straight one's is 0)
    g = write(tmp_path / "g.json", path_doc([0.25, 0.4 + 0.1j, 0.5 + 0.3j, 0.3 + 0.45j,
                                              0.1 + 0.35j]))
    outdir = tmp_path / "out"
    code = main(["deform", g, a, b, "--level", "1.5", "--ns", "16",
                 "--nt", "32", "--delta-len", "1e-18", "-o", str(outdir)])
    assert code == 5


# -- path-check ----------------------------------------------------------------------


def test_path_check_report(tmp_path):
    p = write(tmp_path / "p.json", path_doc([0, 0.5]))
    s = write(tmp_path / "s.json", set_doc([(1 + 0j, 1.0)], 10.0))
    out = tmp_path / "report.json"
    csv = tmp_path / "p.csv"
    assert main(["path-check", p, s, "-o", str(out), "--csv", str(csv)]) == 0
    doc = load_json(str(out))
    assert doc["allowed"] is True
    assert doc["lower"] == 0.5
    assert doc["upper"] == 10.0
    assert abs(doc["distance_lower_bound"] - 0.5) < 1e-12
    header = csv.read_text().splitlines()[0]
    assert header == "t,re,im,s"


def test_path_check_disallowed(tmp_path):
    p = write(tmp_path / "p.json", path_doc([0, 1.5]))
    s = write(tmp_path / "s.json", set_doc([(1 + 0j, 1.0)], 10.0))
    out = tmp_path / "report.json"
    assert main(["path-check", p, s, "-o", str(out)]) == 0
    doc = load_json(str(out))
    assert doc["allowed"] is False
    assert "distance_lower_bound" not in doc


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_path_check_exit_2_on_non_finite_vertex(tmp_path, bad):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"vertices": [[0, 0], [bad, 0.5]]}))
    s = write(tmp_path / "s.json", set_doc([(1 + 0j, 1.0)], 10.0))
    assert main(["path-check", str(p), s, "-o", str(tmp_path / "out.json")]) == 2


@pytest.mark.parametrize("field, bad", [("level", math.nan), ("horizon", math.inf),
                                        ("radius", -math.inf)])
def test_exit_2_on_non_finite_number(tmp_path, field, bad):
    docs = {
        "a": set_doc([(1 + 0j, 1.0)], 6.0),
        "phi": {"kind": "series", "coeffs": [[1.0, 0.0]], "radius": 1.0},
        "g": path_doc([0.25, 0.5]),
    }
    if field == "radius":
        docs["phi"]["radius"] = bad
    elif field == "horizon":
        docs["a"]["horizon"] = bad
    else:
        docs["a"]["entries"][0]["level"] = bad
    files = {}
    for name, doc in docs.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    argv = ["convolve", files["phi"], files["phi"], files["g"], files["a"], files["a"],
            "-o", tmp_path / "out"]
    assert main([str(x) for x in argv]) == 2


@pytest.mark.parametrize("field", ["point", "level", "horizon", "pole", "radius"])
def test_exit_2_on_boolean_number(tmp_path, capsys, field):
    # JSON true is no number, though Python's float(True) is 1.0: each case
    # would otherwise read as the entry 1 @ 1, a pole at 1 or a radius of 1
    a = set_doc([(1 + 0j, 1.0)], 6.0)
    phi = {"kind": "series", "coeffs": [[1.0, 0.0]], "radius": 1.0}
    if field == "point":
        a["entries"][0]["z"] = [True, False]
    elif field == "level":
        a["entries"][0]["level"] = True
    elif field == "horizon":
        a["horizon"] = True
    elif field == "pole":
        phi = {"kind": "pole", "a": [True, 0]}
    else:
        phi["radius"] = True
    files = [write(tmp_path / "phi.json", phi), write(tmp_path / "g.json", path_doc([0.25, 0.5])),
             write(tmp_path / "a.json", a)]
    argv = ["convolve", files[0], files[0], files[1], files[2], files[2], "-o", tmp_path / "out"]
    assert main([str(x) for x in argv]) == 2
    assert "true" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["level", "horizon", "radius", "point", "coeff"])
def test_exit_2_on_string_number(tmp_path, capsys, field):
    # JSON "1.5" is no number, though Python's float("1.5") is 1.5: each case
    # would otherwise read as the entry 1 @ 1.5, a horizon of 6 or a radius of 1
    a = set_doc([(1 + 0j, 1.0)], 6.0)
    phi = {"kind": "series", "coeffs": [[1.0, 0.0]], "radius": 1.0}
    if field == "level":
        a["entries"][0]["level"] = "1.5"
    elif field == "horizon":
        a["horizon"] = "6"
    elif field == "radius":
        phi["radius"] = "1e0"
    elif field == "point":
        a["entries"][0]["z"] = ["1", 0]
    else:
        phi["coeffs"] = [["1", 0]]
    files = [write(tmp_path / "phi.json", phi), write(tmp_path / "g.json", path_doc([0.25, 0.5])),
             write(tmp_path / "a.json", a)]
    argv = ["convolve", files[0], files[0], files[1], files[2], files[2], "-o", tmp_path / "out"]
    assert main([str(x) for x in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_documents_reject_strings_as_numbers_in_process():
    good = set_doc([(1 + 0j, 1.0)], 6.0)
    assert sets_equal(set_from_doc(good), FilteredSet(0, [(1, 1.0)], 6.0))
    for bad in ({**good, "horizon": "6"},
                {**good, "entries": [{"z": [1.0, 0.0], "level": "1.5"}]},
                {**good, "centre": ["0", 0]}):
        with pytest.raises(ParseError, match="number|pair"):
            set_from_doc(bad)
    series = {"kind": "series", "coeffs": [[1.0, 0.0]], "radius": 1.0}
    assert germ_from_doc(series) == Germ.series([1.0], 1.0)
    for bad in ({**series, "radius": "1e0"}, {**series, "coeffs": [["1", 0]]},
                {"kind": "pole", "a": ["2", 0]}, {"kind": "log_pole", "a": [2.0, "0"]}):
        with pytest.raises(ParseError, match="number|pair"):
            germ_from_doc(bad)


@pytest.mark.parametrize("doc", [{"kind": "pole"}, {"kind": "poly", "coeffs": 5},
                                 {"kind": "series", "coeffs": [[1.0, 0.0]]}])
def test_exit_2_on_malformed_germ(tmp_path, doc):
    phi = write(tmp_path / "phi.json", doc)
    one = write(tmp_path / "one.json", {"kind": "poly", "coeffs": [[1.0, 0.0]]})
    t = write(tmp_path / "t.json", set_doc([], 5.0))
    g = write(tmp_path / "g.json", path_doc([0.2 + 0.1j, 0.6 + 0.3j]))
    assert main(["convolve", phi, one, g, t, t, "-o", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("doc", [{"kind": "poly", "coeffs": []},
                                 {"kind": "series", "coeffs": [], "radius": 1.0}])
def test_exit_3_on_germ_without_coefficients(tmp_path, doc):
    phi = write(tmp_path / "phi.json", doc)
    one = write(tmp_path / "one.json", {"kind": "poly", "coeffs": [[1.0, 0.0]]})
    t = write(tmp_path / "t.json", set_doc([], 5.0))
    g = write(tmp_path / "g.json", path_doc([0.2 + 0.1j, 0.6 + 0.3j]))
    assert main(["convolve", phi, one, g, t, t, "-o", str(tmp_path / "out")]) == 3


def test_convolve_uses_every_series_coefficient(tmp_path):
    # 200 terms of 1/(1 - z) and 1/(2 - z), all used: the first 65 alone would be
    # refused at 0.8
    phi = write(tmp_path / "phi.json", {"kind": "series", "coeffs": [[1.0, 0.0]] * 200,
                                        "radius": 1.0})
    psi = write(tmp_path / "psi.json", {"kind": "series", "radius": 2.0,
                                        "coeffs": [[0.5 ** (k + 1), 0.0] for k in range(200)]})
    a = write(tmp_path / "a.json", set_doc([(1 + 0j, 1.0)], 6.0))
    b = write(tmp_path / "b.json", set_doc([(2 + 0j, 2.0)], 6.0))
    g = write(tmp_path / "g.json", path_doc([0.25, 0.8]))
    outdir = tmp_path / "out"
    assert main(["convolve", phi, psi, g, a, b, "--ns", "32", "--nt", "32", "--nq", "16",
                 "-o", str(outdir)]) == 0
    last = (outdir / "trace.csv").read_text().splitlines()[-1]
    value = complex(*(float(x) for x in last.split(",")[3:]))
    assert abs(value - math.log(2.0 / (0.2 * 1.2)) / 2.2) < 1e-12


def test_exit_2_on_the_removed_nser_flag(tmp_path):
    ser = write(tmp_path / "ser.json", {"kind": "series", "coeffs": [[1.0, 0.0]] * 4, "radius": 1.0})
    t = write(tmp_path / "t.json", set_doc([], 5.0))
    g = write(tmp_path / "g.json", path_doc([0.2 + 0.1j, 0.4 + 0.2j]))
    with pytest.raises(SystemExit) as info:
        main(["convolve", ser, ser, g, t, t, "--ns", "16", "--nt", "16", "--nq", "4",
              "--nser", "10", "-o", str(tmp_path / "out")])
    assert info.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("nq", ["0", "1", "-3"])
def test_exit_3_on_bad_quadrature_order(tmp_path, capsys, nq):
    one = write(tmp_path / "one.json", {"kind": "poly", "coeffs": [[1.0, 0.0]]})
    t = write(tmp_path / "t.json", set_doc([], 5.0))
    g = write(tmp_path / "g.json", path_doc([0.2 + 0.1j, 0.4 + 0.2j]))
    assert main(["convolve", one, one, g, t, t, "--ns", "16", "--nt", "16", "--nq", nq,
                 "-o", str(tmp_path / "out")]) == 3
    assert "n_q" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_2_on_non_list_vertices_or_entries(tmp_path):
    p = write(tmp_path / "p.json", {"vertices": 5})
    s = write(tmp_path / "s.json", set_doc([], 5.0))
    bad = write(tmp_path / "bad.json", {"centre": [0.0, 0.0], "entries": 5, "horizon": 5.0})
    assert main(["path-check", p, s, "-o", str(tmp_path / "o1.json")]) == 2
    assert main(["set-op", "saturate", bad, "-o", str(tmp_path / "o2.json")]) == 2


@pytest.mark.parametrize("cmd, option, value", [
    ("glimpse", "--theta", "nan"),
    ("deform", "--level", "nan"),
    ("deform", "--eps-den", "nan"),
    ("deform", "--delta-len", "inf"),
    ("convolve", "--level", "inf"),
    ("convolve", "--probe-radius", "inf"),
    ("convolve", "--probe", "nan,0"),
    ("convolve", "--probe", "1.5,inf"),
    ("convolve", "--probe", "1.5"),
])
def test_exit_2_on_non_finite_option(tmp_path, cmd, option, value):
    a = write(tmp_path / "a.json", set_doc([(1 + 0j, 1.0)], 6.0))
    g = write(tmp_path / "g.json", path_doc([0.25, 0.5]))
    phi = write(tmp_path / "phi.json", {"kind": "pole", "a": [1.0, 0.0]})
    out = str(tmp_path / "out")
    argv = {
        "glimpse": ["glimpse", a, "-o", out],
        "deform": ["deform", g, a, a, "--level", "2", "-o", out],
        "convolve": ["convolve", phi, phi, g, a, a, "-o", out],
    }[cmd]
    if option in argv:
        argv[argv.index(option) + 1] = value
    else:
        argv += [option, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# -- glimpse -------------------------------------------------------------------------


def test_glimpse_lattice_with_verify(tmp_path):
    entries = []
    for k in range(1, 6):
        entries.append((k + 0j, float(k)))
        entries.append((-k + 0j, float(k)))
    s = write(tmp_path / "s.json", set_doc(entries, 5.5))
    out = tmp_path / "g.json"
    assert main(["glimpse", s, "--theta", "0", "--verify", "-o", str(out)]) == 0
    doc = load_json(str(out))
    assert doc["verified"] is True
    assert [p["z"][0] for p in doc["points"]] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert doc["seen"] == [1.0, 0.0]


# -- deform --------------------------------------------------------------------------


def test_deform_artifacts(tmp_path):
    a = write(tmp_path / "a.json", set_doc([(1 + 0j, 1.0)], 3.0))
    g = write(tmp_path / "g.json", path_doc([0.125 + 0.05j, 0.5 + 0.2j]))
    outdir = tmp_path / "out"
    assert main(["deform", g, a, a, "--level", "2", "--ns", "16",
                 "--nt", "64", "-o", str(outdir)]) == 0
    rep = load_json(str(outdir / "report.json"))
    assert rep["passed"] is True
    grid_lines = (outdir / "grid.csv").read_text().splitlines()
    assert grid_lines[0] == "s,t,re_h,im_h,re_hstar,im_hstar"
    assert len(grid_lines) == 1 + 17 * 65
    svg = (outdir / "overlay.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_deform_deterministic(tmp_path):
    a = write(tmp_path / "a.json", set_doc([(1 + 0j, 1.0)], 3.0))
    g = write(tmp_path / "g.json", path_doc([0.125 + 0.05j, 0.5 + 0.2j]))
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    for d in (d1, d2):
        assert main(["deform", g, a, a, "--level", "2", "--ns", "16",
                     "--nt", "64", "-o", str(d)]) == 0
    for name in ("grid.csv", "report.json", "overlay.svg"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# -- convolve ------------------------------------------------------------------------


def test_convolve_ones_trace(tmp_path):
    one = write(tmp_path / "one.json", {"kind": "poly", "coeffs": [[1.0, 0.0]]})
    t = write(tmp_path / "t.json", set_doc([], 5.0))
    g = write(tmp_path / "g.json", path_doc([0.2 + 0.1j, 0.6 + 0.3j]))
    outdir = tmp_path / "out"
    assert main(["convolve", one, one, g, t, t, "--ns", "16", "--nt", "32",
                 "--nq", "4", "-o", str(outdir)]) == 0
    rows = (outdir / "trace.csv").read_text().splitlines()
    assert rows[0] == "t,re_gamma,im_gamma,re_value,im_value"
    for line in rows[1:]:
        t_, rg, ig, rv, iv = (float(x) for x in line.split(","))
        assert math.hypot(rv - rg, iv - ig) < 1e-12


def test_convolve_defaults_are_the_library_defaults():
    args = _build_parser().parse_args(["convolve", "phi", "psi", "g", "a", "b", "-o", "out"])
    cfg = ConvolveConfig(level=args.level, n_s=args.ns, n_t=args.nt, n_q=args.nq)
    assert cfg == ConvolveConfig()


def test_convolve_runs_on_the_library_defaults(tmp_path, monkeypatch):
    from borelconv import germs

    class Stop(Exception):
        pass

    seen = []

    def capture(phi, psi, gamma, set_a, set_b, cfg):
        seen.append(cfg)
        raise Stop

    monkeypatch.setattr(germs, "convolve_along", capture)
    one = write(tmp_path / "one.json", {"kind": "poly", "coeffs": [[1.0, 0.0]]})
    t = write(tmp_path / "t.json", set_doc([], 5.0))
    g = write(tmp_path / "g.json", path_doc([0.2, 0.6]))
    with pytest.raises(Stop):
        main(["convolve", one, one, g, t, t, "-o", str(tmp_path / "out")])
    assert seen == [ConvolveConfig()]


def run_convolve_with_probe(tmp_path, candidate="1.5,0", radius="0.2"):
    """Exit code and output directory of `convolve --probe` on the pole
    pair (1.5 at radius 0.2 by default)."""
    phi = write(tmp_path / "phi.json", {"kind": "pole", "a": [1.0, 0.0]})
    psi = write(tmp_path / "psi.json", {"kind": "pole", "a": [2.0, 0.0]})
    a = write(tmp_path / "a.json", set_doc([(1 + 0j, 1.0)], 6.0))
    b = write(tmp_path / "b.json", set_doc([(2 + 0j, 2.0)], 6.0))
    g = write(tmp_path / "g.json", path_doc([0.25, 0.5]))
    outdir = tmp_path / "out"
    code = main(["convolve", phi, psi, g, a, b, "--ns", "64", "--nt", "64",
                 "--probe", candidate, "--probe-radius", radius, "-o", str(outdir)])
    return code, outdir


def convolve_with_probe(tmp_path, candidate="1.5,0", radius="0.2"):
    """probe.json of `run_convolve_with_probe`, which must exit 0."""
    code, outdir = run_convolve_with_probe(tmp_path, candidate, radius)
    assert code == 0
    return load_json(str(outdir / "probe.json"))


def test_convolve_with_probe(tmp_path, capsys):
    probe = convolve_with_probe(tmp_path)
    assert set(probe) == {"candidate", "radius", "classification", "defect_rel", "ring_rel",
                          "tol_mono", "cell_error_rel", "cells_split", "split_depth", "level",
                          "n_s", "n_t", "n_q", "flow_steps"}
    assert probe["classification"] == "regular"
    assert probe["tol_mono"] == 1e-4
    assert 0.0 <= probe["cell_error_rel"] <= 1e-5
    # the probe's own grid, not the trace's --ns and --nt; its n_t is the
    # loop's step count: each segment rounds its share of the default 64 up
    rep = singularity_probe(Germ.pole(1), Germ.pole(2), FilteredSet(0, [(1, 1.0)], 6.0),
                            FilteredSet(0, [(2, 2.0)], 6.0), 1.5, 0.2, seed=0.25)
    assert (probe["n_s"], probe["n_t"], probe["n_q"]) == (64, rep.trace.grid.n_t, 16)
    # the loop grid's RK4 steps, one per up to CONVOLVE_STEP_INTERVALS intervals
    assert probe["flow_steps"] == rep.trace.grid.flow_steps
    assert probe["n_t"] / CONVOLVE_STEP_INTERVALS <= probe["flow_steps"] < probe["n_t"] / 2
    assert 64 < probe["n_t"] < 64 + len(rep.loop.seg_lengths)
    assert (probe["cell_error_rel"], probe["cells_split"], probe["split_depth"]) == (
        rep.cell_error_rel, rep.cells_split, rep.split_depth)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("candidate, radius, want", [
    ("1.5,0", "0.1", "regular"), ("1.5,0", "0.2", "regular"),
    ("2.0,0", "0.2", "singular-like"), ("2.5,0", "0.2", "regular"),
])
def test_convolve_with_probe_and_a_series_factor(tmp_path, capsys, candidate, radius, want):
    # exp as a series against 1/(2 - z): probes whose estimate needs no cell
    # split, in some block of columns or in all of them
    coeffs = [[1.0 / math.factorial(k), 0.0] for k in range(40)]
    phi = write(tmp_path / "phi.json", {"kind": "series", "coeffs": coeffs, "radius": 8.0})
    psi = write(tmp_path / "psi.json", {"kind": "pole", "a": [2.0, 0.0]})
    a = write(tmp_path / "a.json", set_doc([], 8.0))
    b = write(tmp_path / "b.json", set_doc([(2 + 0j, 2.0)], 8.0))
    g = write(tmp_path / "g.json", path_doc([0.25, 0.5]))
    outdir = tmp_path / "out"
    code = main(["convolve", phi, psi, g, a, b, "--probe", candidate,
                 "--probe-radius", radius, "-o", str(outdir)])
    assert code == 0 and capsys.readouterr().err == ""
    assert load_json(str(outdir / "probe.json"))["classification"] == want


def test_convolve_with_probe_refuses_a_cell_error_above_its_bound(tmp_path, monkeypatch, capsys):
    # an estimate above CELL_REFUSE * TOL_MONO after the deepest split: exit
    # 5, the trace written, no probe.json
    from borelconv import germs

    estimate = germs._estimate_columns

    def unresolved(*args):
        values, errors, n_split, depth = estimate(*args)
        return values, errors + 1e-5 * np.max(np.abs(values)), n_split, depth

    monkeypatch.setattr(germs, "_estimate_columns", unresolved)
    code, outdir = run_convolve_with_probe(tmp_path)
    assert code == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: probe quadrature not resolved")
    assert (outdir / "trace.csv").exists() and not (outdir / "probe.json").exists()


def test_convolve_with_probe_refuses_where_the_grid_does_not_resolve_the_circle(tmp_path, capsys):
    # at radius 0.025 a cubic of the default grid passes candidate 2's loop
    # on the wrong side of a set's point: refused (exit 5), not reported
    code, outdir = run_convolve_with_probe(tmp_path, candidate="2.0,0", radius="0.025")
    assert code == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: grid too coarse")
    assert (outdir / "trace.csv").exists() and not (outdir / "probe.json").exists()


# -- writers -----------------------------------------------------------------


def _csv_one_shot(header, table):
    """Reference: the whole table formatted as one string."""
    row = ",".join(["%.17g"] * table.shape[1])
    lines = [",".join(header)] + [row % r for r in map(tuple, table.tolist())]
    return "\n".join(lines) + "\n"


def test_write_csv_streams_the_bytes_of_one_shot(tmp_path):
    rng = np.random.default_rng(61)
    n = 2 * CSV_BLOCK_ROWS + 5  # three chunks, the last one short
    table = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    table[0] = [-0.0, 5e-324, 1.7976931348623157e308]
    table[-1] = [0.1, 1 / 3, -2.0]
    out = tmp_path / "t.csv"
    write_csv(str(out), ["a", "b", "c"], table)
    data = out.read_bytes()
    assert data == _csv_one_shot(["a", "b", "c"], table).encode()
    assert data.startswith(b"a,b,c\n") and data.endswith(b"\n0.10000000000000001,0.33333333333333331,-2\n")
    assert data.count(b"\n") == n + 1
    write_csv(str(out), ["x"], np.empty((0, 1)))
    assert out.read_bytes() == b"x\n"


def test_grid_csv_streams_the_bytes_of_the_whole_table(tmp_path):
    # a grid of more columns than CSV_BLOCK_ROWS (one grid row a block) and
    # one of fewer (several), against the whole table in one piece
    gamma = Path([0.125 + 0.05j, 0.5 + 0.2j])
    s = FilteredSet(0, [(1, 1.0)], 3.0)
    for n_s, n_t in ((8, CSV_BLOCK_ROWS + 7), (40, 100)):
        grid = deform(gamma, s, s, 2.0, n_s=n_s, n_t=n_t)
        H, H_star = grid.H, mirror(grid.H)
        table = np.stack(np.broadcast_arrays(
            grid.s_nodes[:, None], grid.t_nodes[None, :], H.real, H.imag,
            H_star.real, H_star.imag), axis=-1).reshape(-1, 6)
        out = tmp_path / "grid.csv"
        header = ["s", "t", "re_h", "im_h", "re_hstar", "im_hstar"]
        write_csv(str(out), header, grid_csv_rows(grid))
        assert out.read_bytes() == _csv_one_shot(header, table).encode()


def test_grid_csv_refuses_a_non_finite_grid_before_writing(tmp_path):
    gamma = Path([0.125 + 0.05j, 0.5 + 0.2j])
    s = FilteredSet(0, [(1, 1.0)], 3.0)
    grid = deform(gamma, s, s, 2.0, n_s=8, n_t=8)
    grid.H[-1, -1] = complex(0.0, math.inf)
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "grid.csv"), ["s", "t", "re_h", "im_h", "re_hstar", "im_hstar"],
                  grid_csv_rows(grid))
    assert list(tmp_path.iterdir()) == []


def test_write_csv_refuses_non_finite_before_writing(tmp_path):
    table = np.ones((2 * CSV_BLOCK_ROWS + 5, 2))
    table[-1, 1] = math.nan  # in the last chunk
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "t.csv"), ["a", "b"], table)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, np.float64(-math.inf)])
def test_dumps_refuses_non_finite_floats(bad):
    with pytest.raises(ValueError):
        dumps({"x": [1.0, bad]})


def test_dumps_writes_17_digits_of_python_and_numpy_floats():
    assert dumps({"x": [0.1, np.float64(1 / 3)], "n": np.int64(2)}) == (
        '{"x": [0.10000000000000001, 0.33333333333333331], "n": 2}\n')


def test_atomic_write_failing_mid_stream_keeps_the_old_file(tmp_path):
    out = tmp_path / "t.txt"
    out.write_text("old\n")

    def chunks():
        yield "new\n"
        raise RuntimeError("formatter failed")

    with pytest.raises(RuntimeError):
        atomic_write(str(out), chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["t.txt"]
    assert out.read_text() == "old\n"


# -- misc --------------------------------------------------------------------


def test_path_document_roundtrip():
    from borelconv.jsonio import path_from_doc, path_to_doc
    from borelconv import Path

    p = Path([0, 0.1 + 0.2j, -0.3 + 0.7j])
    assert path_from_doc(path_to_doc(p)).vertices == p.vertices


def test_germ_roundtrip():
    from borelconv.jsonio import germ_from_doc, germ_to_doc
    from borelconv import Germ

    for g in (Germ.poly([1, 2j]), Germ.pole(1.5), Germ.log_pole(-2j),
              Germ.series([0.5, 0.25], 1.5)):
        assert germ_from_doc(germ_to_doc(g)) == g


# -- import boundaries --------------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HEAVY = {"borelconv.germs", "borelconv.deformation", "borelconv.cells", "borelconv.viz"}


def modules_after(code, *argv):
    """The borelconv modules loaded by `code` run in a fresh interpreter."""
    code = f"import json, sys; {code}; print(json.dumps([m for m in sys.modules if m.startswith('borelconv')]))"
    out = subprocess.run([sys.executable, "-c", code, *argv], check=True,
                         env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


@pytest.mark.parametrize("command", ["set-op", "path-check", "glimpse"])
def test_light_commands_load_no_flow_germ_cell_or_drawing_layer(tmp_path, command):
    a = write(tmp_path / "a.json", set_doc([(1 + 0j, 1.0)], 6.0))
    lam = write(tmp_path / "lam.json", path_doc([0, 0.5]))
    argv = {"set-op": ["set-op", "saturate", a],
            "path-check": ["path-check", lam, a, "--csv", str(tmp_path / "lam.csv")],
            "glimpse": ["glimpse", a, "--theta", "0", "--verify"]}[command]
    argv += ["-o", str(tmp_path / "out.json")]
    loaded = modules_after("from borelconv.cli import main; assert main(sys.argv[1:]) == 0", *argv)
    assert "borelconv.cli" in loaded and not loaded & HEAVY
    assert (tmp_path / "out.json").exists()


def test_public_names_resolve_lazily():
    assert modules_after("import borelconv") == {"borelconv"}
    # dir lists the public names without importing them
    assert modules_after("import borelconv; "
                         "assert set(borelconv.__all__) <= set(dir(borelconv))") == {"borelconv"}
    # a submodule is an attribute before anything imported it
    assert "borelconv.deformation" in modules_after("import borelconv; borelconv.deformation.FlowField")
    loaded = modules_after("from borelconv import *; import borelconv; "
                           "assert all(globals()[n] is getattr(borelconv, n) for n in borelconv.__all__)")
    assert HEAVY - loaded == {"borelconv.viz"}
    import borelconv

    for name in borelconv.__all__:
        value = getattr(borelconv, name)
        assert getattr(sys.modules[value.__module__], name) is value
    assert borelconv.__all__ == sorted(borelconv.__all__) and len(borelconv.__all__) == 36
    with pytest.raises(AttributeError):
        borelconv.no_such_name
