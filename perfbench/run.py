"""The hopfgalois benchmark: one workload per call, each in fresh interpreters.

    python3 perfbench/run.py --workload generators|freeness|suite|all
                             --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
(see README.md in this directory).  The lines before it print the
workload-specific figures by name, with units.

At most two processes run at once: this one, and one child interpreter that
either only sets up (to sample `setup_s`) or sets up and runs the workload.
Both are pinned to one CPU, where this process probes the machine's speed
while the child runs (see probe.py).
The command exits 1 when an output is wrong or differs from the values
recorded in expected.json, and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from probe import SpeedProbe  # noqa: E402

WORKLOAD_NAMES = ("generators", "freeness", "suite")
SETUP_SAMPLES = 3         # set-ups per run; `setup_s` is their median
RUN_LIMIT_S = 170         # one run must end within 180 s


def _worker(args, extra, deadline):
    """Run one worker, probing the machine's speed until it asks for the
    samples, and return its result."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE)
    try:
        probe = SpeedProbe()
        reply = probe.watch(proc.stdout.fileno(), deadline)
        if reply == SpeedProbe.READY:
            out, _ = proc.communicate(probe.dumps().encode() + b"\n",
                                      timeout=max(1.0, deadline - time.monotonic()))
        elif reply:
            raise SystemExit(f"error: worker wrote {reply[:200]!r} before "
                             "asking for the probe samples")
    finally:  # a worker that did not finish properly is stopped here
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(args, ["--setup-only"], deadline)["setup_s"])
    extra = []
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        extra = ["--trace-out",
                 str(out_dir / f"spans-{args.workload}-seed{args.seed}")]
    res = _worker(args, extra, deadline)
    setups.append(res["setup_s"])

    problems = [f"failed operation {e}" for e in res["errors"]]
    problems += [f"mismatch: {m}" for m in res["mismatches"]]
    if not res["unwrapped"]:
        problems.append("layer functions were wrapped during the untraced run")
    if not res["restored"]:
        problems.append("layer functions were not restored after tracing")
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": _metric(sorted(setups)[len(setups) // 2], "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
            "ops_per_s": _metric(res["ops_per_s"], "1/s"),
            "op_ms.p50": _metric(res["op_ms.p50"], "ms"),
            "op_ms.p90": _metric(res["op_ms.p90"], "ms"),
        }
    failed = len(res["errors"])
    detail = dict(res["detail"])
    detail["fail_ratio"] = _metric(failed / res["attempted"], "ratio")
    return {"correct": not problems, "attempted": res["attempted"],
            "failed": failed, "metrics": metrics, "detail": detail,
            "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs small fixtures, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hopfgalois" / "__init__.py").is_file():
        print(f"error: no hopfgalois sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    # The probe must run on the worker's CPU: the speeds of the two drift apart.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:  # one workload at a time, never concurrently
        results[name] = run_workload(argparse.Namespace(**{**vars(args),
                                                           "workload": name}))
    for name, res in results.items():
        for problem in res["problems"]:
            print(f"{name}: {problem}")
        for key, m in {**res["metrics"], **res["detail"]}.items():
            print(f"{name:10s} {key:34s} {m['value']:>16.6g} {m['unit']}")
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        res = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{name}.{key}": m for name, r in results.items()
                   for key, m in r["metrics"].items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
