"""Exhaustive and sampled generation of Hamiltonian cycles of the n-cube.

Cycles are counted as undirected edge sets: every cycle is emitted exactly
once, in canonical form, by a deterministic backtracking search from
vertex 0 that tries neighbors in increasing dimension order.  The search
tree can be partitioned into fixed-depth path prefixes for splitting work
across processes; the union of the per-prefix emissions equals the
sequential stream.

Two sound prunes are available (the emitted set never changes, only the
work): *balance feasibility* abandons a partial path when some dimension's
class imbalance already exceeds the edges that could still restore it, and
*dimension liveness* abandons it when some dimension has no used and no
addable edge left.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .cycles import HamiltonianCycle
from .hypercube import check_dimension, check_vertex, edge_dim, parity_excluding

MAX_SAMPLE_DIM = 16
MAX_CONSECUTIVE_FAILURES = 200


@dataclass(frozen=True)
class PruneConfig:
    """Which sound search-space reductions to apply during enumeration."""

    balance_feasibility: bool = True
    dimension_liveness: bool = True

    @classmethod
    def all(cls) -> "PruneConfig":
        return cls(True, True)

    @classmethod
    def none(cls) -> "PruneConfig":
        return cls(False, False)


def canonical_form(h: HamiltonianCycle) -> HamiltonianCycle:
    """The unique representative among all rotations and reflections:
    starts at vertex 0, and the first edge's dimension is smaller than the
    last edge's dimension."""
    rot = h.rotated(h.seq.index(0))
    first = edge_dim(rot.seq[0], rot.seq[1])
    last = edge_dim(rot.seq[-1], rot.seq[0])
    return rot if first < last else rot.reversed_cycle()


class _SearchState:
    """Backtracking state: the partial path from vertex 0, the visited
    set, and per-dimension tallies of used and still-addable edges split
    by class.

    An edge is *addable* while it is unused and neither endpoint is strict
    interior of the path (interior = visited, but not vertex 0 and not the
    current path end; those two can still take one more edge each).
    """

    __slots__ = ("n", "size", "path", "visited", "used", "addable")

    def __init__(self, n: int):
        self.n = n
        self.size = 1 << n
        self.path: list[int] = [0]
        self.visited = 1
        self.used = [[0, 0] for _ in range(n)]
        per_class = 1 << (n - 2)
        self.addable = [[per_class, per_class] for _ in range(n)]

    def push(self, v: int) -> None:
        path = self.path
        u = path[-1]
        d = edge_dim(u, v)
        self.used[d][parity_excluding(u, d)] += 1
        self.addable[d][parity_excluding(u, d)] -= 1
        if u != 0:
            # u becomes interior: its remaining unused edges whose other
            # endpoint is still open leave the addable pool
            pred = path[-2]
            visited = self.visited
            for i in range(self.n):
                w = u ^ (1 << i)
                if w == v or w == pred:
                    continue
                if w == 0 or not visited >> w & 1:
                    self.addable[i][parity_excluding(u, i)] -= 1
        path.append(v)
        self.visited |= 1 << v

    def pop(self) -> None:
        path = self.path
        v = path.pop()
        u = path[-1]
        if u != 0:
            pred = path[-2]
            visited = self.visited
            for i in range(self.n):
                w = u ^ (1 << i)
                if w == v or w == pred:
                    continue
                if w == 0 or not visited >> w & 1:
                    self.addable[i][parity_excluding(u, i)] += 1
        self.visited &= ~(1 << v)
        d = edge_dim(u, v)
        self.used[d][parity_excluding(u, d)] -= 1
        self.addable[d][parity_excluding(u, d)] += 1


def _prunes_ok(st: _SearchState, cfg: PruneConfig) -> bool:
    if cfg.balance_feasibility:
        for i in range(st.n):
            z, o = st.used[i]
            add = st.addable[i]
            if z > o and add[1] < z - o:
                return False
            if o > z and add[0] < o - z:
                return False
    if cfg.dimension_liveness:
        for i in range(st.n):
            if not (st.used[i][0] or st.used[i][1] or st.addable[i][0] or st.addable[i][1]):
                return False
    return True


def _extend(st: _SearchState, cfg: PruneConfig) -> Iterator[HamiltonianCycle]:
    path = st.path
    if len(path) == st.size:
        last = path[-1]
        if last.bit_count() == 1:  # closing edge to vertex 0 exists
            first_dim = (path[0] ^ path[1]).bit_length() - 1
            if first_dim < last.bit_length() - 1:
                yield HamiltonianCycle(st.n, tuple(path))
        return
    u = path[-1]
    visited = st.visited
    for i in range(st.n):
        v = u ^ (1 << i)
        if visited >> v & 1:
            continue
        st.push(v)
        if _prunes_ok(st, cfg):
            yield from _extend(st, cfg)
        st.pop()
        visited = st.visited


def enumerate_cycles(
    n: int,
    prunes: PruneConfig | None = None,
    prefix: Sequence[int] | None = None,
) -> Iterator[HamiltonianCycle]:
    """Yield every Hamiltonian cycle of the n-cube exactly once, in
    canonical form, in deterministic branch order.

    ``prefix`` restricts the search to completions of the given simple
    path from vertex 0 (see :func:`path_prefixes`).
    """
    check_dimension(n)
    if n < 2:
        raise ValueError("enumeration needs n >= 2")
    cfg = PruneConfig() if prunes is None else prunes
    st = _SearchState(n)
    if prefix is not None:
        steps = list(prefix)
        if not steps or steps[0] != 0:
            raise ValueError("prefix must start at vertex 0")
        for v in steps[1:]:
            check_vertex(v, n)
            if st.visited >> v & 1:
                raise ValueError(f"prefix revisits vertex {v}")
            st.push(v)
        if not _prunes_ok(st, cfg):
            return
    yield from _extend(st, cfg)


def count_cycles(n: int, prunes: PruneConfig | None = None) -> int:
    """Number of Hamiltonian cycles of the n-cube (undirected, unrooted)."""
    return sum(1 for _ in enumerate_cycles(n, prunes))


def path_prefixes(n: int, depth: int) -> list[list[int]]:
    """All simple paths of ``depth`` edges from vertex 0, in branch order.

    The completions of these prefixes partition the full search tree, so
    enumerating each prefix independently and taking the union reproduces
    the sequential stream.
    """
    check_dimension(n)
    if not 1 <= depth < (1 << n):
        raise ValueError(f"depth {depth} out of range")
    out: list[list[int]] = []

    def rec(path: list[int], visited: int) -> None:
        if len(path) == depth + 1:
            out.append(path.copy())
            return
        u = path[-1]
        for i in range(n):
            v = u ^ (1 << i)
            if not visited >> v & 1:
                path.append(v)
                rec(path, visited | 1 << v)
                path.pop()

    rec([0], 1)
    return out


def write_prefixes(prefixes: Sequence[Sequence[int]]) -> str:
    """Checkpoint text: one space-separated path prefix per line."""
    return "".join(" ".join(str(v) for v in p) + "\n" for p in prefixes)


def read_prefixes(text: str) -> list[list[int]]:
    """Parse the checkpoint text produced by :func:`write_prefixes`."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            out.append([int(tok) for tok in line.split()])
    return out


def sample_cycles(
    n: int, seed: int, k: int, max_nodes_per_attempt: int = 500_000
) -> list[HamiltonianCycle]:
    """k Hamiltonian cycles found by randomized-order backtracking, one
    fresh randomized search per cycle.

    Deterministic for a fixed seed.  The sampling distribution is *not*
    uniform over Hamiltonian cycles: cycles reachable through luckier
    early branch choices are favored, and independent attempts may repeat
    a cycle.  Searches that exceed the node budget are abandoned and
    restarted with the next draws from the same generator; a long streak
    of abandoned attempts means the budget is too small and raises
    ValueError instead of looping forever.
    """
    check_dimension(n)
    if n < 2 or n > MAX_SAMPLE_DIM:
        raise ValueError(f"sampling supports 2 <= n <= {MAX_SAMPLE_DIM}")
    if k < 1:
        raise ValueError("k must be positive")
    rng = random.Random(seed)
    out: list[HamiltonianCycle] = []
    size = 1 << n
    failures = 0
    while len(out) < k:
        cyc = _random_cycle(n, size, rng, max_nodes_per_attempt)
        if cyc is not None:
            out.append(cyc)
            failures = 0
        else:
            failures += 1
            if failures >= MAX_CONSECUTIVE_FAILURES:
                raise ValueError(
                    f"{failures} abandoned searches in a row; "
                    f"max_nodes_per_attempt={max_nodes_per_attempt} is too "
                    f"small to sample cycles of the {n}-cube"
                )
    return out


def _random_cycle(
    n: int, size: int, rng: random.Random, budget: int
) -> HamiltonianCycle | None:
    neigh = [sum(1 << (v ^ (1 << i)) for i in range(n)) for v in range(size)]
    path = [0]
    visited = 1

    def ordered_unvisited(u: int) -> list[int]:
        """Unvisited neighbors, most-constrained last (tried first), with
        random tie-breaking; flushing tight vertices early keeps the walk
        from stranding them."""
        cands = [u ^ (1 << i) for i in range(n) if not visited >> (u ^ (1 << i)) & 1]
        rng.shuffle(cands)
        cands.sort(key=lambda v: -(neigh[v] & ~visited).bit_count())
        return cands

    stack = [ordered_unvisited(0)]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > budget:
            return None
        cands = stack[-1]
        if not cands:
            stack.pop()
            v = path.pop()
            visited &= ~(1 << v)
            continue
        v = cands.pop()
        path.append(v)
        visited |= 1 << v
        if len(path) == size:
            if v.bit_count() == 1:
                return HamiltonianCycle(n, tuple(path))
            path.pop()
            visited &= ~(1 << v)
            continue
        # the walk must be able to re-enter vertex 0 at the very end
        if neigh[0] & ~visited:
            stack.append(ordered_unvisited(v))
        else:
            path.pop()
            visited &= ~(1 << v)
    return None
