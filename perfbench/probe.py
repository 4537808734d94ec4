"""A machine-speed probe, so that timings survive a CPU whose speed drifts.

On a shared 2-vCPU machine the speed of pure-Python code drifts by up to a
factor of two over tens of seconds, with the process's own CPU time drifting
with it, and the drift differs between the two vCPUs.  While a worker runs,
the runner (`run.py`) wakes every PERIOD seconds, on the same CPU as the
worker, and times a fixed kernel of rational and integer matrix work, the two
kinds of work the program does.  The kernel runs in the runner's own
interpreter, so the program's garbage collector, allocator state and
interpreter hooks cannot speed it up or slow it down.  A timing from t0 to t1
(`time.perf_counter`, one clock for every process on Linux) is then reported at
reference speed: each stretch of the interval is scaled by
KERNEL_REF_S / (kernel time there).

KERNEL_REF_S is the kernel's usual time on the machine the baseline was
measured on, so reference seconds read as seconds on that machine at its usual
speed.  The time the runner spends probing, about 3% of the run, is taken
out of the worker's timings.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import sys
import time
from array import array
from fractions import Fraction

PERIOD = 0.03          # seconds between probes
KERNEL_REF_S = 240e-6  # usual kernel time on the baseline machine (2 vCPU, Python 3.11.7)
MARGIN = 0.25          # probes this close to an interval also describe it


_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, (i + j) % 4 + 1) for j in range(4)]
           for i in range(4)]
_VECTOR = (2, -1, 3, 0, -2, 1)
_ACTION = [[(5 * i + 3 * j) % 7 - 3 for j in range(6)] for i in range(6)]


def kernel() -> tuple[Fraction, int]:
    """The two kinds of work the program does: a 4x4 rational determinant by
    Gaussian elimination (the Fraction arithmetic of the generator tests and
    the suite), and two 6x6 integer determinants by fraction-free (Bareiss)
    elimination of matrices built from a rotated vector (the work of one
    freeness box candidate)."""
    m = [list(row) for row in _MATRIX]
    rational = Fraction(1)
    for c in range(4):
        p = next(i for i in range(c, 4) if m[i][c])
        m[c], m[p] = m[p], m[c]
        rational *= m[c][c] if p == c else -m[c][c]
        for i in range(c + 1, 4):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    integer = 0
    for shift in range(2):
        v = _VECTOR[shift:] + _VECTOR[:shift]
        m = [[sum(_ACTION[(k + i) % 6][j] * v[j] for j in range(6))
              for k in range(6)] for i in range(6)]
        sign, prev = 1, 1
        for k in range(5):
            if m[k][k] == 0:
                swap = next((i for i in range(k + 1, 6) if m[i][k]), None)
                if swap is None:
                    sign = 0
                    break
                m[k], m[swap] = m[swap], m[k]
                sign = -sign
            pivot = m[k][k]
            for i in range(k + 1, 6):
                row_i, row_k, mik = m[i], m[k], m[i][k]
                for j in range(k + 1, 6):
                    row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
                row_i[k] = 0
            prev = pivot
        integer += sign * m[5][5]
    return rational, integer


class SpeedProbe:
    """Samples of the kernel's duration, taken by the runner while a worker
    runs, and the worker's conversion of its timings to reference speed.

    Sample i times the kernel from at[i] to end[i], after a first, untimed
    call that starts at begin[i].  From begin[i] to end[i] the runner holds
    the CPU that it shares with the worker, so that time is taken out of the
    worker's timings."""

    READY = b"probe\n"  # what a worker writes when it wants the samples

    def __init__(self, begin=(), at=(), end=()):
        self.begin = array("d", begin)
        self.at = array("d", at)
        self.end = array("d", end)

    def sample(self):
        """Time the kernel once it is warm: the first call brings the
        runner's code and data back into a cache that the worker filled."""
        self.begin.append(time.perf_counter())
        kernel()
        self.at.append(time.perf_counter())
        kernel()
        self.end.append(time.perf_counter())

    def watch(self, fd: int, deadline: float) -> bytes:
        """Sample every PERIOD seconds until the worker writes READY on `fd`
        or closes it; return what it wrote."""
        data = b""
        while not data.endswith(b"\n"):
            if time.monotonic() > deadline:
                raise TimeoutError("worker ran past the run's time limit")
            ready, _, _ = select.select([fd], [], [], PERIOD)
            if not ready:
                self.sample()
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            data += chunk
        return data

    def dumps(self) -> str:
        return json.dumps({"begin": list(self.begin), "at": list(self.at),
                           "end": list(self.end)})

    @classmethod
    def from_runner(cls) -> "SpeedProbe":
        """In a worker: ask the runner for its samples of the run so far."""
        sys.stdout.buffer.write(cls.READY)
        sys.stdout.flush()
        data = json.loads(sys.stdin.readline())
        probe = cls(data["begin"], data["at"], data["end"])
        probe.finish()
        return probe

    def finish(self):
        """Smooth each probe with its four neighbours (a running median), so
        that one preempted probe cannot skew a timing."""
        c = [e - a for a, e in zip(self.at, self.end)]
        self.smooth = array("d", (median(c[max(0, i - 2): i + 3])
                                  for i in range(len(c))))

    def slowdown(self, t0: float, t1: float) -> float:
        """Median probe time near [t0, t1], relative to the reference."""
        lo = bisect.bisect_left(self.at, t0 - MARGIN)
        hi = bisect.bisect_right(self.at, t1 + MARGIN)
        if lo >= hi:  # no probe that close: use the nearest one
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            hi = lo + 1
        return median(self.smooth[lo:hi]) / KERNEL_REF_S

    def worker_seconds(self, t0: float, t1: float) -> float:
        """Wall time in [t0, t1] less the time the runner spent probing."""
        total = t1 - t0
        for i in range(bisect.bisect_right(self.end, t0), len(self.begin)):
            if self.begin[i] >= t1:
                break
            total -= min(t1, self.end[i]) - max(t0, self.begin[i])
        return total

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The worker's time in the interval at reference speed: each stretch
        of it is scaled by the speed its nearest probe saw."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        if hi - lo < 3:
            return self.worker_seconds(t0, t1) / self.slowdown(t0, t1)
        total = 0.0
        left = t0
        for i in range(lo, hi):
            right = t1 if i == hi - 1 else (self.at[i] + self.at[i + 1]) / 2
            total += self.worker_seconds(left, right) * KERNEL_REF_S / self.smooth[i]
            left = right
        return total


def median(values) -> float:
    """Median of a non-empty sequence."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
