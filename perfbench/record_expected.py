"""Record the expected outputs that every benchmark run compares against.

    python3 perfbench/record_expected.py [--seeds 10] [--rounds 12]

For seeds 0 .. seeds-1 it records the verdict vectors of the first `rounds`
generator rounds and the sha256 of every suite report; the freeness statuses,
witnesses and certificates do not depend on the seed and are recorded once.
Run it only on a commit whose outputs are known to be right: expected.json is
the reference that later changes must reproduce byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from worker import HERE, check, import_program, run_ops
from workloads import WORKLOADS


def observe(workload, seed, count):
    batches = run_ops(workload.batches(seed), 0, count=count)
    check(batches)
    errors = [f"{op.label}: {op.error}" for b in batches for op in b.ops
              if op.error]
    if errors:
        raise SystemExit(f"refusing to record failed operations: {errors}")
    return workload.observations(batches)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    hg = import_program()
    out = {"seeds": list(range(args.seeds)), "rounds": args.rounds,
           "generators": {}, "freeness": {}, "suite": {}}
    for size in ("full", "tiny"):
        gen = WORKLOADS["generators"](hg, size)
        gen.setup()
        for seed in range(args.seeds):
            out["generators"].setdefault(str(seed), {}).update(
                observe(gen, seed, args.rounds))
        free = WORKLOADS["freeness"](hg, size)
        free.setup()
        out["freeness"].update(observe(free, 0, 1))
        suite = WORKLOADS["suite"](hg, size)
        suite.setup()
        for seed in range(args.seeds):
            out["suite"].setdefault(str(seed), {}).update(
                observe(suite, seed, 1))
            print(f"recorded {size} seed {seed}", file=sys.stderr, flush=True)
    (HERE / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True)
                                        + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
