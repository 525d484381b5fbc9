"""Peak memory of command-line runs whose output outgrows their input.

`deform` on a long grid writes a CSV row per node, and `path-check` with
many samples bounds the distance to a large saturated set.  Both must cost
the grid or the samples plus one bounded block over a bare import of the
CLI, not memory in proportion to samples × entries or to the CSV text.

Each command runs in its own child, which reports its own peak resident
set (VmHWM).  Its `ru_maxrss` would not do: Linux carries the peak of the
process that started a child over `exec`, so the test runner's own peak
would read as the child's.
"""

import math
import os
import subprocess
import sys

import pytest

from borelconv import FilteredSet
from borelconv.jsonio import set_to_doc, write_json

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Measured on x86-64 Linux with numpy 2.4, over an import-only child of
# 29.5 MB: deform --ns 64 --nt 4096 peaks 12.3 MB higher (H, and validate's
# blocks of rows beside it), path-check --samples 4096 against 1 495
# entries 3.9 MB higher.  With a 6-column table of every grid node beside H
# and its mirror, deform peaked 23.7 MB higher; written in one piece and
# computed in one (samples × entries) step, they peaked 131 and 142 MB
# higher.  The bounds leave margins of about 8 and 6 MB.
DEFORM_EXCESS_MB = 20.0
PATH_CHECK_EXCESS_MB = 10.0

_REPORT = ("\nwith open('/proc/self/status') as status:\n"
           "    for line in status:\n"
           "        if line.startswith('VmHWM:'):\n"
           "            print(int(line.split()[1]) / 1024.0)\n")
_IMPORT = "import borelconv.cli" + _REPORT
_RUN_CLI = ("import runpy, sys\n"
            "sys.argv = ['borelconv'] + sys.argv[1:]\n"
            "try:\n"
            "    runpy.run_module('borelconv.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    if exc.code:\n"
            "        raise\n" + _REPORT)


def _write(path, doc):
    write_json(str(path), doc)
    return str(path)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_cli_peak_memory_is_bounded_by_blocks(tmp_path):
    lattice = [(complex(math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3)), 1.0)
               for k in range(3)] + [(1.5j, 1.5)]
    saturated = FilteredSet(0, lattice, 16.0).saturate()
    assert len(saturated.points) == 1495
    sat = _write(tmp_path / "saturated.json", set_to_doc(saturated))
    a = _write(tmp_path / "a.json", set_to_doc(FilteredSet(0, [(1, 1.0)], 6.0)))
    b = _write(tmp_path / "b.json", set_to_doc(FilteredSet(0, [(2, 2.0)], 6.0)))
    gamma = _write(tmp_path / "gamma.json", {"vertices": [[0.25, 0.0], [0.5, 0.0]]})
    walk = _write(tmp_path / "walk.json", {"vertices": [[0.0, 0.0], [0.3, 0.1], [0.6, 0.45],
                                                         [0.2, 0.7], [-0.3, 0.4]]})
    runs = {
        "import": [_IMPORT],
        "deform": [_RUN_CLI, "deform", gamma, a, b, "--level", "2.5", "--ns", "64",
                   "--nt", "4096", "-o", str(tmp_path / "deform_out")],
        "path-check": [_RUN_CLI, "path-check", walk, sat, "--samples", "4096",
                       "-o", str(tmp_path / "walk_check.json")],
    }
    env = dict(os.environ, PYTHONPATH=SRC)
    # the three children are independent: run them side by side
    procs = {name: subprocess.Popen([sys.executable, "-c", *argv], env=env, text=True,
                                    stdout=subprocess.PIPE)
             for name, argv in runs.items()}
    peak = {}
    for name, proc in procs.items():
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, name
        peak[name] = float(out.split()[-1])
    assert (tmp_path / "deform_out" / "grid.csv").stat().st_size > 0
    assert peak["deform"] - peak["import"] < DEFORM_EXCESS_MB, peak
    assert peak["path-check"] - peak["import"] < PATH_CHECK_EXCESS_MB, peak
