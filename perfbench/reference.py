"""A fixed reference workload that measures how fast the machine runs now.

On a shared virtual machine the same Python code runs up to twice as fast
or as slow from one minute to the next, because other tenants load the
physical cores.  A single run of a workload cannot tell a slower program
from a slower minute.  The benchmark therefore interleaves this reference,
which is pure Python, uses no qube code and never changes, with the
workload's ops, and reports times scaled to the speed at which one
reference unit takes ``UNIT_S`` seconds.  In twelve 8-second windows on a
2-core Intel Xeon VM, the interquartile spread of the time of
``enumerate_cycles(4)`` was 46% of its median; that of its ratio to the
reference time was 2.5%.
"""

from __future__ import annotations

import time

UNIT_S = 0.0025  # one unit on a 2-core Intel Xeon VM, CPython 3.11
SHARE = 0.2  # reference time run after each op, as a share of the op's time
WINDOW_UNITS = 40  # reference units behind one local speed estimate


def unit() -> None:
    """Count the solutions of the 8-queens puzzle by bitmask backtracking,
    the same kind of work (small-int bit tests, recursion) as qube's
    searches."""
    n, count = 8, 0

    def place(row: int, cols: int, diag: int, anti: int) -> None:
        nonlocal count
        if row == n:
            count += 1
            return
        for c in range(n):
            if not (cols >> c & 1 or diag >> (row + c) & 1 or anti >> (row - c + n) & 1):
                place(row + 1, cols | 1 << c, diag | 1 << (row + c), anti | 1 << (row - c + n))

    place(0, 0, 0, 0)
    if count != 92:
        raise AssertionError(f"reference unit found {count} solutions, not 92")


class Speed:
    """Reference time gathered alongside measured work, one sample per op."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, int]] = []  # (seconds, units)

    def sample(self, busy_s: float) -> None:
        """Run reference units for about ``SHARE`` of ``busy_s`` (at least one)."""
        spent, units = 0.0, 0
        while units == 0 or spent < SHARE * busy_s:
            start = time.perf_counter()
            unit()
            spent += time.perf_counter() - start
            units += 1
        self.samples.append((spent, units))

    @property
    def slowdown(self) -> float:
        """How much slower than nominal the machine ran while sampled."""
        return sum(s for s, _ in self.samples) / sum(u for _, u in self.samples) / UNIT_S

    def local_slowdown(self, i: int) -> float:
        """The slowdown while the op before sample i ran: the mean of the
        rates seen just before the op and just after it, each over at least
        ``WINDOW_UNITS`` // 2 units of the nearest samples."""
        rates = []
        for window in (range(i - 1, -1, -1), range(i, len(self.samples))):
            seconds, units = 0.0, 0
            for j in window:
                seconds += self.samples[j][0]
                units += self.samples[j][1]
                if units >= WINDOW_UNITS // 2:
                    break
            if units:
                rates.append(seconds / units)
        return sum(rates) / len(rates) / UNIT_S
