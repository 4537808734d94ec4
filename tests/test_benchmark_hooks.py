"""The benchmark in perfbench/ traces the program from outside, by patching
names in the package; these tests guard the names it relies on."""

import importlib.util
import re
from pathlib import Path

from hopfgalois import cli, integral, linalg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# spans perfbench/worker.py reads that no traced function produces, so their
# metrics read 0: the transfer is a test oracle now, and both determinant
# spans were split off `linalg.det`, which has left the package.  Retiring or
# remapping them is the benchmark's to do.
KNOWN_GAPS = {"integral.transfer_element", "linalg.det_E", "linalg.det_Q"}


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


def test_every_span_the_worker_reads_is_traced():
    # a moved or renamed function must not silently zero another metric
    source = (PERFBENCH / "worker.py").read_text(encoding="utf-8")
    read = set(re.findall(r'\b(?:calls|incl|self_s)\("([^"]+)"\)', source))
    assert "descent.is_generator" in read  # the pattern sees the worker's reads
    names = {name for _, _, _, name in _tracing().Tracer()._targets()}
    assert read - names == KNOWN_GAPS
