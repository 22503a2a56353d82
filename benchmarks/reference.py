"""A fixed reference computation that measures the host's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pure-Python work takes up to twice as long from one few-second window
to the next (2 vCPU, CPython 3.11.7). Raw wall times of one run therefore
say as much about the neighbours as about the program.

So the closed loop measures a fixed reference just before every op, and
each op's wall time is scaled by the reference's nominal time over its
measured time around that op (the median over a window of neighbouring
ops). That gives the op's time at a fixed reference speed: a program change
moves it, a slower host does not. In-process ops use ``timed_kernel``, exact
rational elimination plus JSON and dict work, the same kind of work as the
package's. Ops that start an interpreter use ``timed_child``, which starts
one that runs the kernel once, since start-up and loading speed drift apart
from pure Python speed. Neither uses anything from the package, so no change
to the package moves them.

The benchmark pins itself, and so every child, to one CPU: the two vCPUs of
a shared host drift apart, and a reference measured on one says nothing
about an op that ran on the other.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# The references' typical times on the reference host (2 vCPU, CPython
# 3.11.7). Only the unit of the scaled times depends on them: they read as
# milliseconds at that host's typical speed.
KERNEL_MS = 2.2
CHILD_MS = 80.0
# Kernel runs per measurement, of which the fastest counts.
REPEATS = 3
# Ops on each side of an op whose reference times give its host speed.
WINDOW = 4

_N = 7
_MATRIX = [
    [Fraction((3 * i + 7 * j) % 11 + 1, (i * j) % 5 + 1) for j in range(_N + 1)]
    for i in range(_N)
]
_DOC = json.dumps({
    "advertisers": [{"name": f"A{i}", "value": f"{i}/7"} for i in range(40)],
    "ads": [[f"A{j}" for j in range(i, i + 5)] for i in range(30)],
})


def kernel() -> Fraction:
    """Gauss-Jordan elimination of a fixed rational system, then a document
    parse and some sums over it. Always the same work."""
    rows = [list(row) for row in _MATRIX]
    for c in range(_N):
        p = next(r for r in range(c, _N) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(_N):
            if r != c and rows[r][c] != 0:
                factor = rows[r][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    doc = json.loads(_DOC)
    values = {entry["name"]: Fraction(entry["value"]) for entry in doc["advertisers"]}
    return rows[-1][-1] + max(sum(values[name] for name in ad) for ad in doc["ads"])


def timed_kernel() -> float:
    """Seconds the fastest of REPEATS back-to-back kernel runs took. The
    repeats warm the caches the previous op left cold, so the figure follows
    the host rather than the op before it."""
    fastest = float("inf")
    for _ in range(REPEATS):
        began = time.perf_counter()
        kernel()
        fastest = min(fastest, time.perf_counter() - began)
    return fastest


def timed_child() -> float:
    """Seconds a fresh interpreter took to start, run the kernel and exit."""
    began = time.perf_counter()
    # Captured output makes the wait end at the child's exit: without pipes,
    # a wait with a timeout polls at up to 50 ms intervals.
    subprocess.run([sys.executable, __file__], check=True, capture_output=True, timeout=60)
    return time.perf_counter() - began


def pin_to_one_cpu() -> int:
    """Pin this process, and the children it starts from now on, to the
    lowest CPU it may run on; return that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def scale_ms(seconds: list[float], reference_seconds: list[float], nominal_ms: float) -> list[float]:
    """Each op's wall time in ms at the reference speed.

    ``reference_seconds[k]`` is the reference measured just before op k,
    ``nominal_ms`` its typical time. Op k is scaled by the median reference
    time over ops k - WINDOW .. k + WINDOW, so that one noisy reference does
    not move it but a drift over a few seconds does.
    """
    scaled = []
    for k, op_seconds in enumerate(seconds):
        window = reference_seconds[max(0, k - WINDOW): k + WINDOW + 1]
        scaled.append(op_seconds * nominal_ms / statistics.median(window))
    return scaled


if __name__ == "__main__":
    kernel()
