"""Wait for a quiet host before every pass.

The hosts this benchmark runs on share their cores and caches with
other tenants.  Identical work is never faster than its quiet time and,
for seconds to a minute at a stretch, 20-100 % slower; no statistic of
passes taken inside such a stretch recovers the quiet time.  So the
harness times a small fixed piece of Python that uses nothing of the
engine before every pass.  The 1st percentile of all its timings is the
host's quiet level, known within a few percent after a second even on a
busy host, because the interference comes in bursts of milliseconds.
The median of nine timings over that level says how busy the host is
now.  A pass starts when the host is quiet; when patience runs out,
measuring goes on regardless, so a host that never calms costs time,
not a failure.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

#: Busy is a median reference timing this far above the quiet level.
#: Calm stretches read 1.03-1.2, the disturbed ones that move a pass by
#: 20 % and more read 1.3-2.3.
THRESHOLD = 1.25
READINGS = 9
POLL_SECONDS = 0.1


class _Node:
    __slots__ = ("key", "value", "children")

    def __init__(self, key: int, value: tuple) -> None:
        self.key = key
        self.value = value
        self.children: List["_Node"] = []


def _reference(count: int = 2500) -> int:
    """About two milliseconds of allocation, attribute access, list and
    dict traffic: the instruction mix of an interpreter at work."""
    table = {}
    stack: List[_Node] = []
    kept = []
    for i in range(count):
        node = _Node(i, (i, str(i & 63)))
        if stack and i % 3:
            stack[-1].children.append(node)
        stack.append(node)
        if i % 5 == 0 and len(stack) > 1:
            stack.pop()
        table[i & 1023] = node
        if i % 7 == 0:
            kept.append((node.key, len(node.children)))
    return len(kept)


class QuietGate:
    """``patience`` is the seconds one run may spend waiting for quiet."""

    def __init__(self, patience: float) -> None:
        self.patience = patience
        self.spent = 0.0
        self._timings: List[float] = []
        for _ in range(5):
            self.noise()

    def noise(self) -> float:
        """How busy the host is now: 1.0 is its quiet level."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            timings = []
            for _ in range(READINGS):
                start = time.perf_counter()
                _reference()
                timings.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        self._timings.extend(timings)
        quiet_level = sorted(self._timings)[len(self._timings) // 100]
        return statistics.median(timings) / quiet_level

    def wait(self) -> None:
        """Return once the host is quiet, or patience is used up."""
        while self.spent < self.patience:
            start = time.perf_counter()
            if self.noise() <= THRESHOLD:
                return
            time.sleep(POLL_SECONDS)
            self.spent += time.perf_counter() - start
