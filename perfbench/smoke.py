"""Smoke test of the benchmark itself, at tiny sizes (about 30 s).

    python3 perfbench/smoke.py

It checks that:
1. every end-to-end and every per-layer metric named in BENCHMARK.json is
   emitted, with a unit, on every workload;
2. a planted wrong expected digest makes the command fail;
3. planted extra work in every generator test raises the reported median
   test time by about the planted amount, at reference speed;
4. with tracing off the layer functions are the original objects, not the
   tracer's wrappers, and uninstalling the tracer restores them;
5. a traced run's layer self times sum to its traced operation wall time;
6. in a directory holding only BENCHMARK.json and the benchmark, the command
   fails without printing a result.

Plants are made in copies of the benchmark and the program under
.perfbench_out/smoke/, never in the checkout itself.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys

from probe import KERNEL_REF_S
from tracing import LAYERS, Tracer, wrapped_attributes
from worker import HERE, ROOT, import_program, run_ops
from workloads import WORKLOADS

OUT = ROOT / ".perfbench_out" / "smoke"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py", seconds=1):
    cmd = [sys.executable, str(script), "--seconds", str(seconds), "--size",
           "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in SPEC[key]}
        for w in SPEC["workloads"]:
            proc = bench("--workload", w["name"], "--seed", "0", "--trace", str(trace))
            assert proc.returncode == 0, (w["name"], trace, proc.stdout, proc.stderr)
            res = last_json(proc)
            assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
            assert set(res["metrics"]) == names, (
                w["name"], trace, names ^ set(res["metrics"]))
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
                assert m["unit"], (name, m)
            if trace:
                m = res["metrics"]
                total = (m["trace.layer_self_sum_s"]["value"]
                         + m["trace.unattributed_s"]["value"])
                assert abs(total - m["trace.ops_wall_s"]["value"]) < 1e-6, m
                assert m["trace.self_coverage"]["value"] > 0.95, m
    print("ok: every metric is emitted with a unit; self times sum to the "
          "traced wall time")


def copy_checkout(name, program=True):
    """A copy of BENCHMARK.json, the benchmark and (if `program`) `src/`."""
    dest = OUT / name
    shutil.rmtree(dest, ignore_errors=True)
    for path in SPEC["paths"] + (["src"] if program else []):
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def check_planted_digest():
    copy = copy_checkout("planted-digest")
    expected_file = copy / "perfbench" / "expected.json"
    expected = json.loads(expected_file.read_text())
    name = "qi"  # a fixture of the tiny suite
    expected["suite"]["0"][name] = "0" * 64
    expected_file.write_text(json.dumps(expected))
    proc = bench("--workload", "suite", "--seed", "0", cwd=copy,
                 script=copy / "perfbench" / "run.py")
    assert proc.returncode != 0, proc.stdout
    assert last_json(proc)["correct"] is False
    assert f"suite {name}: report sha256" in proc.stdout, proc.stdout
    shutil.rmtree(copy)
    print(f"ok: a planted wrong digest for suite {name} fails the run")


# Appended to the copied program's descent.py: every generator test first runs
# the probe's kernel KERNELS times, KERNELS * KERNEL_REF_S seconds of work at
# reference speed.
KERNELS = 160
PLANTED_WORK = f"""

from probe import kernel as _planted_kernel

_unplanted_is_generator = is_generator


def is_generator(*args, **kwargs):
    for _ in range({KERNELS}):
        _planted_kernel()
    return _unplanted_is_generator(*args, **kwargs)
"""


def check_planted_work():
    copy = copy_checkout("planted-work")
    with open(copy / "src" / "hopfgalois" / "descent.py", "a") as f:
        f.write(PLANTED_WORK)
    p50 = []
    for cwd in (ROOT, copy):
        proc = bench("--workload", "generators", "--seed", "0", cwd=cwd,
                     script=cwd / "perfbench" / "run.py", seconds=3)
        assert proc.returncode == 0, (proc.stdout, proc.stderr)
        p50.append(last_json(proc)["metrics"]["op_ms.p50"]["value"])
    planted = 1000 * KERNELS * KERNEL_REF_S
    rise = p50[1] - p50[0]
    assert 0.75 < rise / planted < 1.33, (p50, planted)
    shutil.rmtree(copy)
    print(f"ok: {planted:.1f} ms of planted work per generator test raised "
          f"op_ms.p50 by {rise:.1f} ms, from {p50[0]:.1f} to {p50[1]:.1f}")


def check_unwrapped():
    hg = import_program()
    layer_mods = [importlib.import_module(f"hopfgalois.{m}") for m in LAYERS]
    before = {(mod.__name__, k): v for mod in layer_mods + [hg.package]
              for k, v in vars(mod).items() if callable(v)}
    methods = {(cls.__name__, k): v for mod in layer_mods
               for cls in vars(mod).values() if isinstance(cls, type)
               and cls.__module__ == mod.__name__
               for k, v in vars(cls).items()}
    for name, cls in WORKLOADS.items():
        workload = cls(hg, "tiny")
        workload.setup()
        run_ops(workload.batches(0), 0, count=1)
        assert not wrapped_attributes(), wrapped_attributes()
    tracer = Tracer()
    tracer.install()
    assert hasattr(hg.cli.is_generator, "__perfbench_span__")
    assert hasattr(hg.integral.is_generator, "__perfbench_span__")
    assert hasattr(hg.cli.descend, "__perfbench_span__")
    tracer.uninstall()
    after = {(mod.__name__, k): v for mod in layer_mods + [hg.package]
             for k, v in vars(mod).items() if callable(v)}
    assert all(after[k] is v for k, v in before.items()), "module attribute changed"
    for mod in layer_mods:
        for cls in vars(mod).values():
            if isinstance(cls, type) and cls.__module__ == mod.__name__:
                for k, v in vars(cls).items():
                    assert methods[(cls.__name__, k)] is v, (cls, k)
    assert not wrapped_attributes()
    print("ok: untraced runs call the original layer functions; the tracer "
          "restores them")


def check_bare_directory():
    bare = copy_checkout("bare", program=False)
    proc = bench("--workload", "suite", "--seed", "0", cwd=bare,
                 script=bare / "perfbench" / "run.py")
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    shutil.rmtree(bare)
    print("ok: without the program the command fails and prints no result")


def main() -> int:
    check_unwrapped()
    check_metrics()
    check_planted_digest()
    check_planted_work()
    check_bare_directory()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
