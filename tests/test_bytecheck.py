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
    (old / "r.json").write_text('{"a": 0.5, "b": [1, 2]}')
    (new / "r.json").write_text('{"a": 0.5, "b": [1, 2.5]}')
    (old / "c.txt").write_text("regular 0x1p+0\n")
    (new / "c.txt").write_text("singular-like 0x1p+0\n")
    (old / "fmt.json").write_text('{"a": 1.0}')
    (new / "fmt.json").write_text('{"a": 1}')
    code, lines = compare(old, new)
    assert code == 0
    assert lines["same.bin"] == "identical"
    # 2^-44 on the real part of the second value, against the largest |float| 4.0
    assert lines["values.bin"] == "floats differ by 1.42e-14 relative (1 of 4)"
    assert lines[os.path.join("sub", "probe.txt")] == "floats differ by 1.14e-13 relative (1 of 2)"
    assert lines["r.json"] == "floats differ by 2.50e-01 relative (1 of 3)"
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
