"""A fixed reference kernel that the end-to-end pass times are divided by.

The benchmark's reference host is a shared 2-vCPU virtual machine.  For
minutes at a time the same code runs up to 1.5-2x slower there, in process CPU time as well as in wall
time, so absolute pass times of identical code spread by a quarter or more
between runs, however long each run is.  Each pass is therefore also timed
against this kernel, run right before and right after it in the benchmark
process: the pass's CPU time over the mean CPU time of the two kernel runs
is the pass's cost in kernel units.  On that host the run medians of these
ratios spread 3-7% between 30 s runs on ten seeds, where run medians of the
raw times spread 16-27% between 26 s windows.

The kernel does the kinds of work a ccwinner pass does (JSON decoding,
building dicts and lists of small ints, a per-voter integer loop, tuple-keyed
tables) and imports nothing from ccwinner, so a change to the program moves
the ratio only through the pass time.  It must stay fixed: any change to it
rescales every ratio the benchmark reports.
"""

from __future__ import annotations

import gc
import json
import random
import time

_RNG = random.Random(12345)
_DOC = json.dumps({"rankings": [_RNG.sample(range(1, 31), 30) for _ in range(2400)]})


def kernel() -> int:
    rankings = json.loads(_DOC)["rankings"]
    pos = [{c: i for i, c in enumerate(r)} for r in rankings]
    seen: dict = {}
    for r in rankings:
        seen.setdefault(tuple(r[:4]), []).append(r[0])
    n = len(rankings)
    best = [0] * n
    for v in range(1, n):
        p, q = pos[v], pos[v - 1]
        s = 0
        for c in range(1, 31):
            d = p[c] - q[c]
            s += d if d > 0 else -d
        best[v] = min(best[v - 1] + s, s * 2)
    table = {}
    for i in range(60):
        for j in range(i, 60):
            table[(i, j)] = [min(best[i * 10 : (j + 1) * 10] or [0]), j - i]
    return len(seen) + len(table) + best[-1]


def kernel_cpu_seconds() -> float:
    """Process CPU time of one run of the kernel, after a full collection."""
    gc.collect()
    t0 = time.process_time()
    kernel()
    return time.process_time() - t0
