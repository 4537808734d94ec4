"""Repeat the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload suite --seeds 0 1 2 3 4 [--trace 0]
                                [--seconds 30] [--out FILE]

For each end-to-end metric it prints the median, the first and third quartile
(`statistics.quantiles(values, n=4)`) and the spread, (q3 - q1) / median, next
to the metric's bound from BENCHMARK.json.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"machine": {"python": platform.python_version(),
                           "cpus": len(__import__("os").sched_getaffinity(0)),
                           "platform": platform.platform()},
               "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and res["correct"] and not res["failed"]
            runs.append(res)
            print(f"{workload} seed {seed}: exit {proc.returncode} "
                  f"correct {res['correct']} attempted {res['attempted']} "
                  f"failed {res['failed']}", flush=True)
        table = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            table[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "unit": runs[0]["metrics"][name]["unit"],
                           "values": values}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and args.trace == 0:
                flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:34s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:7.4f} bound {bound} {flag}", flush=True)
        summary["workloads"][workload] = table
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
