"""`tools/abtime.py`: one checkout against itself at a tiny size."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_abtime():
    spec = importlib.util.spec_from_file_location("abtime", os.path.join(ROOT, "tools", "abtime.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["probe", "series"])
def test_same_checkout_on_both_sides_gives_equal_digests(workload):
    res = load_abtime().compare(ROOT, ROOT, workload, pairs=2, size="tiny")
    assert res["pairs"] == 2 and 0 <= res["wins"] <= 2
    assert all(t > 0.0 for t in res["median_s"])
    assert res["ratio"][1] <= res["ratio"][0] <= res["ratio"][2]
    assert res["digests"][0] == res["digests"][1]
