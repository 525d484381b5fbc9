"""`tools/bytecheck.py --compare`: one line per file, exit 1 on a one-sided file."""

import os
import subprocess
import sys

import numpy as np

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tools", "bytecheck.py")


def compare(old, new):
    proc = subprocess.run([sys.executable, SCRIPT, "--compare", str(old), str(new)],
                          capture_output=True, text=True)
    lines = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    return proc.returncode, lines


def test_compare_reports_identical_and_relative_float_differences(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        (d / "sub").mkdir(parents=True)
    values = np.array([1.0 + 2.0j, -4.0 + 0.5j])
    (old / "values.bin").write_bytes(values.tobytes())
    (new / "values.bin").write_bytes((values + [0.0, 2.0 ** -44]).tobytes())
    (old / "same.bin").write_bytes(values.tobytes())
    (new / "same.bin").write_bytes(values.tobytes())
    (old / "sub" / "probe.txt").write_text(f"regular\nscale {(8.0).hex()} nan\n")
    (new / "sub" / "probe.txt").write_text(f"regular\nscale {(8.0 + 2 ** -40).hex()} nan\n")
    (old / "r.json").write_text('{"a": 0.5, "b": [1, 2.5]}')
    (new / "r.json").write_text('{"a": 0.5, "b": [1, 2.75]}')
    # a count that moves by one, beside a small float that moves by 2^-52 of itself
    small = 2.0 ** -10
    (old / "counts.txt").write_text(f"cells_split 1705\nvalue {small.hex()}\n")
    (new / "counts.txt").write_text(f"cells_split 1704\nvalue {(small * (1 + 2 ** -52)).hex()}\n")
    (old / "c.txt").write_text("regular 0x1p+0\n")
    (new / "c.txt").write_text("singular-like 0x1p+0\n")
    (old / "fmt.json").write_text('{"a": 1.0}')
    (new / "fmt.json").write_text('{"a": 1}')
    code, lines = compare(old, new)
    assert code == 0
    assert lines["same.bin"] == "identical"
    # 2^-44 on the real part of the second value, against the largest |float| 4.0
    assert lines["values.bin"] == "floats differ by 1.42e-14 relative (1 of 4)"
    # a text file's floats each against their own magnitude, its integers apart
    assert lines[os.path.join("sub", "probe.txt")] == "floats differ by 1.14e-13 relative (1 of 2)"
    assert lines["r.json"] == "floats differ by 1.00e-01 relative (1 of 2)"
    assert lines["counts.txt"] == ("floats differ by 2.22e-16 relative (1 of 1); "
                                   "integers differ (1 of 1)")
    assert lines["c.txt"] == "differs in text"
    assert lines["fmt.json"] == "identical floats, other bytes differ"


def test_compare_exits_1_when_a_file_is_on_one_side_only(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "both.txt").write_text("0x1p+0\n")
    (new / "both.txt").write_text("0x1p+0\n")
    (old / "gone.bin").write_bytes(b"\0" * 8)
    (new / "added.bin").write_bytes(b"\0" * 8)
    code, lines = compare(old, new)
    assert code == 1
    assert lines == {"added.bin": f"only in {new}", "both.txt": "identical",
                     "gone.bin": f"only in {old}"}


def load_script():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bytecheck", SCRIPT)
    bytecheck = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bytecheck)
    return bytecheck


def test_outcome_writes_a_tolerance_errors_stage_value_and_bound():
    import borelconv as bc

    def refuse(**named):
        def run():
            raise bc.ToleranceError("refused", **named)
        return run

    outcome = load_script()._outcome
    assert outcome(bc, refuse(stage="series disc", value=0.75, bound=0.5)) == (
        "ToleranceError stage='series disc' value=0x1.8000000000000p-1 "
        "bound=0x1.0000000000000p-1")
    assert outcome(bc, refuse()) == "ToleranceError stage=None value=None bound=None"
    assert outcome(bc, lambda: None) == "ok"


def test_log_probe_dump_holds_the_circle_values(tmp_path):
    # each log-type probe that answers writes its circle's values, bit for
    # bit; one that is refused writes its error class alone
    import types

    bytecheck = load_script()

    class Refused(Exception):
        pass

    values = np.array([1.0 + 2.0j, 3.0 - 0.5j, 1.0 + 2.0j + 1e-16])

    def probe(phi, psi, a, b, c, radius):
        if c == 3.0:
            raise Refused
        trace = types.SimpleNamespace(values=values * c)
        return types.SimpleNamespace(classification="regular", defect_rel=0.0, ring_rel=0.0,
                                     cell_error_rel=0.0, cells_split=0, split_depth=0,
                                     trace=trace)

    bc = types.SimpleNamespace(FilteredSet=lambda *args: None, BorelConvError=Refused,
                               Germ=types.SimpleNamespace(pole=str, log_pole=str),
                               singularity_probe=probe)
    bytecheck._log_probes(bc, bytecheck.Dump(str(tmp_path)))
    for name in bytecheck.LOG_PROBES:
        for c in bytecheck.CANDIDATES:
            text = (tmp_path / f"log_probe_{name}_{c}.txt").read_text()
            circle = tmp_path / f"log_probe_{name}_{c}_circle_values.bin"
            if c == 3.0:
                assert text == "Refused\n" and not circle.exists()
            else:
                assert text.startswith("ok\nregular\n")
                assert circle.read_bytes() == (values * c).tobytes()
