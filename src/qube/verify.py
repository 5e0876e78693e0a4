"""Property sweeps: check one structural property on every cycle of a corpus.

:func:`sweep` checks any iterable of cycles, which it reads one cycle at a
time.  :func:`sweep_exhaustive` checks every Hamiltonian cycle of the
n-cube: one shard per search prefix, run in this process or in a pool of
worker processes (:func:`~qube.enumeration.map_shards`), and folded
through :meth:`Tally.merge`, which gives the same tally as one pass over
:func:`~qube.enumeration.enumerate_cycles`.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Iterable

from .cycles import (
    HamiltonianCycle,
    check_chromatic_conditions,
    chromatic_vector,
    dimension_profiles,
)
from .enumeration import check_search_args, enumerate_cycles, map_shards, path_prefixes
from .squares import check_threshold_implication, has_square

# isomorphism is a property of the cube, not of a cycle: the CLI checks it
# with isomorphism_violations, and sweep rejects it
PROPERTIES = ("balance", "segments", "squares", "chromatic", "isomorphism", "threshold")

SQUARE_FREE_FILE = "square_free_counterexamples_n{n}.jsonl"


def _cycle_violations(prop: str, cyc: HamiltonianCycle, mode: str) -> list[dict]:
    """Violation records for one cycle; empty list when the property holds."""
    if prop == "balance":
        return [{"dim": p.dim} for p in dimension_profiles(cyc) if not p.balanced]
    if prop == "segments":
        return [{"dim": p.dim} for p in dimension_profiles(cyc) if not p.segment_sums_ok]
    if prop == "chromatic":
        report = check_chromatic_conditions(chromatic_vector(cyc), cyc.n)
        return [{"failed": report.failures()}] if not report.ok else []
    if prop == "squares":
        return [] if has_square(cyc) else [{"square_free": True}]
    if prop == "threshold":
        report = check_threshold_implication(cyc, mode)
        return [{"dim": i} for i in report.violations]
    raise ValueError(f"unknown property {prop!r}")


@dataclass
class Tally:
    """What a sweep found.  ``first`` pairs a sort key, (cycle sequence,
    first violation record), with the counterexample it names; the least
    key wins, so merged shards report the same counterexample in any
    order.  ``square_free`` holds the square-free cycles in sweep order."""

    checked: int = 0
    violations: int = 0
    first: tuple | None = None
    square_free: list[dict] = field(default_factory=list)

    @property
    def first_counterexample(self) -> dict | None:
        return self.first[1] if self.first else None

    def merge(self, other: Tally) -> Tally:
        """Add ``other``, the tally of the cycles that follow, to this one."""
        self.checked += other.checked
        self.violations += other.violations
        self.square_free += other.square_free
        if other.first is not None and (self.first is None or other.first[0] < self.first[0]):
            self.first = other.first
        return self


def sweep(prop: str, cycles: Iterable[HamiltonianCycle], mode: str = "equi") -> Tally:
    """Check ``prop`` on each cycle; ``mode`` is the threshold flavour of
    the ``threshold`` property (see :func:`~qube.squares.rim_threshold`)."""
    tally = Tally()
    for cyc in cycles:
        tally.checked += 1
        records = _cycle_violations(prop, cyc, mode)
        if not records:
            continue
        tally.violations += len(records)
        if prop == "squares":
            tally.square_free.append(cyc.to_dict())
        key = (cyc.seq, json.dumps(records[0], sort_keys=True))
        if tally.first is None or key < tally.first[0]:
            tally.first = (key, {"cycle": cyc.to_dict(), **records[0]})
    return tally


def _sweep_shard(task: tuple) -> Tally:
    n, prop, mode, prefix = task
    return sweep(prop, enumerate_cycles(n, prefix=prefix), mode)


def sweep_exhaustive(n: int, prop: str, mode: str = "equi", workers: int = 1) -> Tally:
    """:func:`sweep` over every Hamiltonian cycle of the n-cube, sharded by
    search prefix over ``workers`` processes (1: this process)."""
    check_search_args(n)
    tasks = [(n, prop, mode, p) for p in path_prefixes(n, 2 if n <= 4 else 3)]
    shards = map_shards(_sweep_shard, tasks, workers)
    return functools.reduce(Tally.merge, shards, Tally())


def persist_square_free(n: int, cycles: list[dict]) -> str | None:
    """Append square-free cycles to ``SQUARE_FREE_FILE`` in the working
    directory, one JSON object per line; return the path, or None when
    there is nothing to write."""
    if not cycles:
        return None
    path = SQUARE_FREE_FILE.format(n=n)
    with open(path, "a", encoding="utf-8") as f:
        for obj in cycles:
            f.write(json.dumps(obj) + "\n")
            f.flush()
    return path
