"""The benchmark wraps pipeline names from outside (perfbench/tracing.py);
every name it wraps must still exist, or its metrics read as absent."""

import importlib.util
import pathlib

from borelconv import FilteredSet, Germ, singularity_probe

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


def test_a_default_grid_probe_deforms_through_the_traced_names():
    # the probe's loop grid is deformed through germs.deform and a column
    # is integrated through germs.convolve_at, names the benchmark wraps, so
    # its flow is timed and counted and its time per column is defined
    tracer = load_tracing().Tracer()
    a, b = FilteredSet(0, [(1, 1.0)], 6.0), FilteredSet(0, [(2, 2.0)], 6.0)
    with tracer:
        singularity_probe(Germ.pole(1), Germ.pole(2), a, b, 1.5, 0.2)
    assert tracer.self_s["deformation.deform"] > 0.0
    assert tracer.counts["deformation.field_evals"] > 0
    assert tracer.counts["germs.columns"] > 0
    assert not tracer.missing, f"names the benchmark wraps are gone: {tracer.missing}"
