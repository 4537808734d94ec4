"""Runs one workload in this (fresh) interpreter and prints one JSON line.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                [--size full|tiny] [--setup-only]
                                [--trace-out FILE]

It is started by run.py: once its timings are taken, it writes "probe" on
standard output and reads the runner's speed samples from standard input.

Set-up (import, parse, coset space, enumeration, descent, ideals) is timed
first and excluded from the timed phase.  The timed phase is a single-threaded
closed loop: operations run one after another, each timed on its own, with
whole batches (a round or a pass) run while the previous batch's duration
still fits in the time left, and at least one batch.

With --trace 1 the same operations are run twice: once untraced, and once
under the tracer.  The difference is the tracing overhead; the traced run
gives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROGRAM_MODULES = ("cli", "descent", "fixtures", "integral", "linalg",
                   "numberfield", "perm", "transition")

sys.path.insert(0, str(HERE))

from tracing import OP_SPAN, Tracer, wrapped_attributes  # noqa: E402
from probe import SpeedProbe, median  # noqa: E402
from workloads import WORKLOADS, CheckFailed, p90  # noqa: E402


def import_program():
    """Import hopfgalois from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "hopfgalois" / "__init__.py").is_file():
        raise SystemExit(f"error: no hopfgalois sources under {SRC}")
    sys.path.insert(0, str(SRC))
    hg = SimpleNamespace(package=importlib.import_module("hopfgalois"))
    if Path(hg.package.__file__).resolve().parent != SRC / "hopfgalois":
        raise SystemExit(f"error: imported hopfgalois from {hg.package.__file__}")
    for name in PROGRAM_MODULES:
        setattr(hg, name, importlib.import_module(f"hopfgalois.{name}"))
    return hg


def run_ops(batches, budget, count=None, tracer=None):
    """Run whole batches until the next would overrun `budget` seconds (or
    exactly `count` batches), and return them."""
    perf = time.perf_counter
    done = []
    started = perf()
    op_id = 0
    for batch in batches:
        batch_start = perf()
        for op in batch.ops:
            t0 = perf()
            try:
                if tracer is None:
                    op.value = op.fn(*op.args)
                else:
                    op.value = tracer.run_op(op_id, op.fn, *op.args)
            except Exception as err:  # an operation failure is data, not a crash
                op.error = f"{type(err).__name__}: {err}"
            op.start = t0
            op.seconds = perf() - t0
            op_id += 1
        done.append(batch)
        now = perf()
        if count is not None:
            if len(done) == count:
                break
        elif now - started + (now - batch_start) > budget:
            break
    return done


def check(batches):
    """Turn operation values into observations; record wrong outputs."""
    for batch in batches:
        for op in batch.ops:
            if op.error is None and op.check is not None:
                try:
                    op.observation = op.check(op.value)
                except CheckFailed as err:
                    op.error = f"check failed: {err}"
        if batch.post is not None:
            batch.post(batch)


def compare_expected(workload, batches, seed):
    expected = json.loads((HERE / "expected.json").read_text())
    observed = workload.observations(batches)
    if workload.name == "freeness":
        return workload.compare(observed, expected["freeness"])
    per_seed = expected[workload.name].get(str(seed))
    return [] if per_seed is None else workload.compare(observed, per_seed)


def layer_metrics(tracer: Tracer, untraced_ops, traced_ops):
    """The per-layer metrics of a traced run (set-up and operations).  The
    tracing overhead compares the same operations traced and untraced at
    reference speed, because the machine's speed drifts between the two."""
    stats, op_stats = tracer.aggregate()
    counters = tracer.counters

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self(prefix):
        return sum(v[2] for k, v in stats.items() if k.startswith(prefix))

    def ratio(num, den):
        return num / den if den else 0.0

    untraced = sum(op.ref_seconds for op in untraced_ops)
    overhead = sum(op.ref_seconds for op in traced_ops) - untraced
    ops_wall = op_stats.get(OP_SPAN, (0, 0.0, 0.0))[1]
    glue = op_stats.get(OP_SPAN, (0, 0.0, 0.0))[2]
    layer_sum = sum(v[2] for k, v in op_stats.items() if k != OP_SPAN)
    searches = calls("integral.freeness_search")
    m = {
        "linalg.det_E.self_s": (self_s("linalg.det_E"), "s"),
        "linalg.det_E.calls": (calls("linalg.det_E"), "count"),
        "linalg.det_Q.self_s": (self_s("linalg.det_Q"), "s"),
        "linalg.rank.self_s": (self_s("linalg.rank"), "s"),
        "linalg.int_det.calls": (calls("linalg.int_det"), "count"),
        "linalg.int_det.self_s": (self_s("linalg.int_det"), "s"),
        "linalg.hnf.self_s": (self_s("linalg.hnf"), "s"),
        "linalg.invert.self_s": (self_s("linalg.invert"), "s"),
        "linalg.self_s": (layer_self("linalg."), "s"),
        "numberfield.mul.calls": (calls("numberfield.mul"), "count"),
        "numberfield.inverse.calls": (calls("numberfield.inverse"), "count"),
        "numberfield.self_s": (layer_self("numberfield."), "s"),
        "descent.is_generator.calls": (calls("descent.is_generator"), "count"),
        "descent.is_generator.self_s": (self_s("descent.is_generator"), "s"),
        "descent.is_generator.true_ratio": (ratio(
            counters.get("descent.is_generator.true", 0),
            calls("descent.is_generator")), "ratio"),
        "descent.descend.s": (incl("descent.descend"), "s"),
        "descent.verify_commuting.s": (incl("descent.verify_commuting"), "s"),
        "descent.verify_hopf_galois.s": (incl("descent.verify_hopf_galois"), "s"),
        "fixtures.algebra.calls": (calls("fixtures.algebra"), "count"),
        "fixtures.algebra.hit_ratio": (1.0 - ratio(
            calls("descent.descend"), calls("fixtures.algebra"))
            if calls("fixtures.algebra") else 0.0, "ratio"),
        "fixtures.parse.s": (incl("fixtures.parse_text"), "s"),
        "transition.det_symbolic.calls": (calls("transition.det_symbolic"), "count"),
        "transition.det_symbolic.s": (incl("transition.det_symbolic"), "s"),
        "perm.enumerate.s": (incl("perm.enumerate"), "s"),
        "perm.opposite.calls": (calls("perm.opposite"), "count"),
        "perm.centralizer_bruteforce.s": (incl("perm.centralizer_bruteforce"), "s"),
        "integral.associated_order.s": (incl("integral.associated_order"), "s"),
        "integral.freeness_search.calls": (searches, "count"),
        "integral.freeness_search.s": (incl("integral.freeness_search"), "s"),
        "integral.box_candidates": (counters.get("integral.box_candidates", 0),
                                    "count"),
        "integral.box_hit_ratio": (ratio(
            counters.get("integral.freeness_search.free", 0), searches), "ratio"),
        "integral.transfer_element.calls": (calls("integral.transfer_element"),
                                            "count"),
        "cli.self_s": (layer_self("cli."), "s"),
        "trace.ops_wall_s": (ops_wall, "s"),
        "trace.untraced_ops_wall_s": (sum(op.seconds for op in untraced_ops), "s"),
        "trace.overhead_ref_s": (overhead, "s"),
        "trace.overhead_ratio": (ratio(overhead, untraced), "ratio"),
        "trace.layer_self_sum_s": (layer_sum, "s"),
        "trace.self_coverage": (ratio(layer_sum, ops_wall), "ratio"),
        "trace.unattributed_s": (glue, "s"),
        "trace.spans": (len(tracer.start), "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    hg = import_program()
    workload = WORKLOADS[args.workload](hg, args.size)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.setup()
    t1 = time.perf_counter()
    if tracer:
        tracer.uninstall()
    if args.setup_only:
        probe = SpeedProbe.from_runner()
        print(json.dumps({"setup_s": probe.reference_seconds(t0, t1),
                          "setup_wall_s": t1 - t0}))
        return 0

    unwrapped = not wrapped_attributes()
    budget = args.seconds / 2 if tracer else args.seconds
    batches = run_ops(workload.batches(args.seed), budget)
    traced = []
    if tracer:
        tracer.install()
        traced = run_ops(workload.batches(args.seed), budget,
                         count=len(batches), tracer=tracer)
        tracer.uninstall()
    probe = SpeedProbe.from_runner()
    ops = [op for b in batches for op in b.ops]
    traced_ops = [op for b in traced for op in b.ops]
    for op in ops + traced_ops:
        op.ref_seconds = probe.reference_seconds(op.start, op.start + op.seconds)
    out = {"setup_s": probe.reference_seconds(t0, t1), "unwrapped": unwrapped,
           "restored": not wrapped_attributes()}
    if tracer:
        out["layers"] = layer_metrics(tracer, ops, traced_ops)
        if args.trace_out is not None:
            tracer.write(args.trace_out)

    check(batches + traced)
    out["mismatches"] = compare_expected(workload, batches, args.seed)
    if tracer:
        out["mismatches"] += compare_expected(workload, traced, args.seed)
        if workload.observations(traced) != workload.observations(batches):
            out["mismatches"].append("traced outputs differ from untraced ones")
    out["attempted"] = len(ops) + len(traced_ops)
    out["errors"] = [f"{op.label}: {op.error}" for op in ops + traced_ops
                     if op.error]
    times = [op.ref_seconds for op in ops]
    out["ops_per_s"] = len(times) / sum(times)
    # Percentiles over the distinct operations (a structure's generator test,
    # a search, a suite command) of each one's median time in the run.  A
    # pooled median of the generator tests would sit in the tail of the fast
    # fixtures' tests, and move with every stray delay.
    per_op = {}
    for op in ops:
        per_op.setdefault(op.label, []).append(op.ref_seconds)
    typical = [median(t) for t in per_op.values()]
    out["op_ms.p50"] = 1000 * median(typical)
    out["op_ms.p90"] = 1000 * p90(typical)
    detail = workload.detail(ops)
    detail["timed_ops"] = (len(ops), "count")
    detail["wall.ops_s"] = (sum(op.seconds for op in ops), "s")
    detail["wall.setup_s"] = (t1 - t0, "s")
    detail["probe.slowdown"] = (probe.slowdown(ops[0].start, ops[-1].start
                                               + ops[-1].seconds), "ratio")
    out["detail"] = {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
