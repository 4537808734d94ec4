"""The benchmark in perfbench/ traces the program from outside, by patching
names in the package; these tests guard the names it relies on."""

import importlib.util
from pathlib import Path

from hopfgalois import cli, integral, linalg

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_its_targets():
    tracing = _tracing()
    # every traced method is looked up by name: a missing one raises KeyError
    targets = tracing.Tracer()._targets()
    assert tracing.wrapped_attributes() == []
    originals = {id(orig) for _, _, orig, _ in targets}
    # by-name imports that the tracer patches and perfbench/smoke.py checks
    for module, attr in ((cli, "is_generator"), (cli, "descend"),
                         (integral, "is_generator")):
        assert id(getattr(module, attr, None)) in originals, \
            f"{module.__name__}.{attr}"


def test_benchmark_tracer_spans_the_linalg_entry_points():
    # perfbench/worker.py reads these spans as per-layer metrics; a renamed
    # or inlined function would leave them reading zero
    targets = _tracing().Tracer()._targets()
    names = {name for _, _, _, name in targets}
    for name in ("linalg.rank", "linalg.int_det", "linalg.invert",
                 "linalg.hnf"):
        assert name in names, name
    traced = {(owner, attr) for owner, attr, _, _ in targets}
    for method in ("__init__", "solve"):
        assert (linalg.LinearSolver, method) in traced, method
