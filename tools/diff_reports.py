"""Compare the reports of two checkouts of hopfgalois, command by command.

    python3 tools/diff_reports.py PARENT_DIR [CHILD_DIR]

CHILD_DIR defaults to the checkout holding this script.  Each command runs
in a fresh process, in the checkout's directory with PYTHONPATH=<dir>/src,
one after another; its stdout, stderr and exit code must be the same in
both checkouts.  The commands:

- `--json --seed 0|1|2 suite`, `--json validate` and `--json enumerate` on
  the bundled fixtures, tests/data/c5quintic.hgx and tests/data/zeta16.hgx;
- `--json --seed 0..4 verify generators` and `--json verify commuting` on
  the field fixtures among them.

Each differing command is printed with what differs, then one summary line.
The exit code is 1 when some command differs, 0 otherwise.  Only the
standard library is used.
"""

import os
import subprocess
import sys
from pathlib import Path

FIELD_FIXTURES = ["qi", "qzeta3", "c4quartic", "v4biquad", "qcbrt2",
                  "s3sextic", "tests/data/c5quintic.hgx",
                  "tests/data/zeta16.hgx"]
FIXTURES = FIELD_FIXTURES[:6] + ["metacyclic21", "d4", "q8"] + \
    FIELD_FIXTURES[6:]


def commands():
    """The argument lists to compare, in the order they run."""
    for fixture in FIXTURES:
        for seed in range(3):
            yield ["--json", "--seed", str(seed), "suite", fixture]
        yield ["--json", "validate", fixture]
        yield ["--json", "enumerate", fixture]
    for fixture in FIELD_FIXTURES:
        for seed in range(5):
            yield ["--json", "--seed", str(seed), "verify", "generators",
                   fixture]
        yield ["--json", "verify", "commuting", fixture]


def run(checkout: Path, argv):
    """(stdout, stderr, exit code) of the command in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run([sys.executable, "-m", "hopfgalois.cli", *argv],
                          cwd=checkout, env=env, capture_output=True)
    return done.stdout, done.stderr, done.returncode


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print("usage: python3 tools/diff_reports.py PARENT_DIR [CHILD_DIR]",
              file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    child = Path(argv[1] if len(argv) == 2
                 else Path(__file__).parent.parent).resolve()
    total = differing = 0
    for command in commands():
        total += 1
        before, after = run(parent, command), run(child, command)
        parts = [part for part, a, b in zip(("stdout", "stderr", "exit code"),
                                            before, after) if a != b]
        if parts:
            differing += 1
            print(f"differs ({', '.join(parts)}): {' '.join(command)}")
    print(f"{total} commands, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
