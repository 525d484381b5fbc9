"""The benchmark wraps pipeline names from outside (perfbench/tracing.py);
every name it wraps must still exist, or its metrics read as absent."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    targets = [t for ts in tracing.SPANS.values() for t in ts]
    targets += [t for ts, _ in tracing.COUNTERS.values() for t in ts]
    missing = [t for t in targets if tracing._resolve(t) is None]
    assert not missing, f"names the benchmark wraps are gone: {missing}"
