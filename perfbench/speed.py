"""A fixed reference loop that gauges how fast the host runs right now.

The benchmark runs on a few cores of a shared host, and the speed of those
cores moves by tens of percent within seconds and across minutes while the
process keeps its CPU (process time tracks wall time).  Timing this loop
next to each timed stage gauges the speed at that moment:
``scaled(wall, before, after)`` is the stage's wall time on a host that
runs the loop in ``REF_S`` seconds.  ``REF_S`` is a round figure near the
loop's fastest times on a shared 2 GHz Xeon with two cores, so scaled
times read close to that host's wall seconds in its quiet spells.

Contention slows kinds of work by different amounts, so the loop blends
five kinds the pipeline does, in parts of about equal time: a traversal of
Python lists and sets, numpy row operations on small arrays, numpy
streaming over an array larger than a core's cache, tokenising edge-list
text into a dict, and gathers from a large list.  It is the benchmark's own
code on fixed data and calls nothing in downcolor, so a change to the
library never changes it.
"""
from __future__ import annotations

import random
import time

import numpy as np

REF_S = 0.012

_rng = random.Random(20070611)
_N = 4000
_KIDS = [[_rng.randrange(_N) for _ in range(3)] for _ in range(_N)]
_np_rng = np.random.default_rng(20070611)
_ROWS = _np_rng.integers(0, 2**62, size=(256, 48), dtype=np.int64)
_STREAM = _np_rng.integers(0, 2**62, size=1 << 18, dtype=np.int64)
_TEXT = "".join(f"v{_rng.randrange(3000)} v{_rng.randrange(3000)}\n"
                for _ in range(3000))
_LIST = [i & 255 for i in range(1 << 18)]
_INDEX = [_rng.randrange(1 << 18) for _ in range(40000)]


def _traversal() -> int:
    total = 0
    for start in range(0, _N, 1600):
        seen = {start}
        stack = [start]
        while stack:
            for v in _KIDS[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        total += len(seen)
    return total


def _rows() -> int:
    acc = _ROWS.copy()
    for _ in range(5):
        for i in range(1, len(acc)):
            acc[i] |= acc[i - 1] & _ROWS[i]
    return int(acc[-1, 0] & 1)


def _stream() -> int:
    x = _STREAM
    for _ in range(2):
        x = (x ^ (x >> 3)) | _STREAM
    return int(x[0] & 1)


def _text() -> int:
    kids: dict[str, list[str]] = {}
    for line in _TEXT.splitlines():
        u, v = line.split()
        kids.setdefault(u, []).append(v)
    return len(sorted(kids))


def _gather() -> int:
    lst = _LIST
    return sum(lst[i] for i in _INDEX)


PARTS = (_traversal, _rows, _stream, _text, _gather)


def reference() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    for part in PARTS:
        part()
    return time.perf_counter() - t0


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` at reference speed, the speed taken as the mean of the
    reference times just before and just after it."""
    return wall * 2 * REF_S / (before + after)
