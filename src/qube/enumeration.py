"""Exhaustive and sampled generation of Hamiltonian cycles of the n-cube.

Cycles are counted as undirected edge sets: every cycle is emitted exactly
once, in canonical form, by a deterministic backtracking search from
vertex 0 that tries neighbors in increasing dimension order.  The search
tree can be partitioned into fixed-depth path prefixes for splitting work
across runs or machines; the union of the per-prefix emissions equals the
sequential stream.

Three sound rules are applied, all or none as :class:`PruneConfig` says
(the emitted set never changes, only the work).  They count *addable*
edges: an edge is addable while it is unused, neither endpoint is strict
interior of the path (visited, but not vertex 0 and not the path end),
and it is not a closing edge that the canonical form rules out; an edge
that stops being addable never becomes addable again below that node.

- *Free edges* abandons a partial path when an unvisited vertex has fewer
  than two addable edges, or vertex 0 has no addable edge left to close
  the cycle: a cycle through the path uses two edges at each unvisited
  vertex and one more at vertex 0, all of them addable now.
- *Canonical closing edge* retires vertex 0's edges {0, e_j} with j < f
  at the first step, whose dimension is f: a canonical cycle closes
  through some {e_j, 0} with j > f, so the search no longer walks the
  orientation that the canonical-form test at the leaf would discard
  (canonical augmentation, McKay 1998).  When f = n - 1 vertex 0 would
  keep no free edge to close with, so the free-edges rule does not take
  that first step; when f = n - 2 the branch dies as soon as e_(n-1)
  would become interior.
- *Forced step* takes the path end's one unvisited neighbour with exactly
  two addable edges as its only next step, and abandons the path when
  there are two: such a neighbour needs both edges, one of them to the
  end, and the end has one edge left (the degree-2 rule of Vandegriend
  and Culberson, JAIR 9, 1998).  It is what the free-edges test at the
  end's expansion (below) leaves when one unvisited neighbour falls.

The search is one iterative loop over an explicit stack.  It reads the
cube's :func:`~qube.hypercube.edge_rows`, each vertex's neighbours in
dimension order, and never writes them; one flat list counts each
vertex's free edges, those on the path or addable.  Any step from the
path end v makes v interior, so when v is expanded its edges to open
vertices retire at once, in one pass over its row; a child hands its own
edge back while it is on the path, and the pop of v restores the rest.
v passed the prunes and only those counts fell, so the open vertices
that the pass leaves with fewer than two free edges decide every child:
with none, every step passes; one unvisited neighbour is the only step,
the forced step; vertex 0, or two vertices, leave none.  So no step that
breaks a rule is pushed, the steps of a prefix included: a prefix is cut
before its first step that breaks one.  The first step, to e_f, retires
{0, e_j} with j < f and leaves vertex 0 n - f free edges, so the prunes
take f <= n - 2 at the root.  Both passes test a neighbour w only for
being unvisited, or vertex 0 with v > e_f: the vertex before v, interior
vertices and closing edges the first step holds or retired all fail it.
The stack keeps, for each depth, the candidate steps not yet tried, so
the path depth 2^n meets no recursion limit.  The rows are kept per
process up to ``NEAR_TABLE_MAX_DIM`` = 12 dimensions, so a search of
another prefix of such a cube builds nothing, and are built at each call
above: n·2^n entries, about 13 MB and 0.06 s at n = 16, so enumeration
supports 2 <= n <= ``MAX_ENUMERATION_DIM`` = 16.

The stream keeps a *completion memo* on cubes of at most
``MEMO_MAX_DIM`` = 6 dimensions, where a visited set fits a 64-bit mask
(the state of Held and Karp's dynamic programme, J. SIAM 10, 1962, here
used to enumerate).  A state is the visited set and the path end.  When
the search pops a state it records the range of cycles it emitted below
it; when a later step would push the same state, the search yields those
cycles again behind the current path, in the same order, and does not
search the state.  The replay is exact: a state's completions and their
branch order depend only on the visited set, the end and the first step
(the leaf's canonical test and the closing-edge rule read it), and the
prunes cut only subtrees without a completion.  So the memo lives for one
first step and is cleared when the search pops back to vertex 0.  It is
dropped once its states plus the cycles it holds pass ``MEMO_CAP``, and
states pushed before a drop are not recorded, which bounds its memory.

:func:`count_cycles` runs the same kernel in *first-use* mode, one S_n
orbit at a time (orderly generation, McKay 1998).  Coordinate
permutations act freely on the directed cycles from vertex 0, because
every cycle uses all n dimensions, and each orbit holds one cycle whose
dimension word brings in new dimensions in the order 0, 1, 2, ....  The
kernel keeps, per depth, how many dimensions the path uses, and a step
may take only those and the next one: the first part of the vertex's
row.  It counts every closing path, builds no cycle, and the count is
n!·words/2.  Free edges and the forced step do not depend on the
coordinate labels, so they stay sound there; the first
step is in dimension 0, so the closing-edge rule retires nothing and the
leaf's canonical test passes every closing path.  The count shares the
memo: a first-use path has used the dimensions below its largest vertex's
bit length, so the state also fixes the steps it may take.  The memo
holds each state's count of words, a hit adds it, and the count runs on
outside the memo, so a drop loses hits but no word, and the states on the
path are still recorded after it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from math import factorial
from typing import Iterator, Sequence

from .cycles import HamiltonianCycle
from .hypercube import (
    NEAR_TABLE_MAX_DIM, check_dimension, check_vertex, edge_dim, edge_rows, near_table,
)

MAX_ENUMERATION_DIM = 16
MAX_CONSECUTIVE_FAILURES = 200
MAX_PREFIX_VERTICES = 1 << 23
MEMO_MAX_DIM = 6
# Q6 has about 3.6·10^22 Hamiltonian cycles (Haanpää and Östergård, 2014)
MAX_WHOLE_CUBE_DIM = 5
MEMO_CAP = 1 << 16
NO_CYCLES = (0, 0)  # the memo's shared range for the many states without a cycle


@dataclass(frozen=True)
class PruneConfig:
    """Whether enumeration applies its sound search-space reductions:
    free edges, the canonical closing edge and the forced step, all or
    none."""

    enabled: bool = True

    @classmethod
    def all(cls) -> "PruneConfig":
        return cls(True)

    @classmethod
    def none(cls) -> "PruneConfig":
        return cls(False)


def check_search_args(n: int, prefix: Sequence[int] | None = None) -> None:
    """Raise ValueError unless :func:`enumerate_cycles` accepts ``n`` and
    ``prefix``, a simple path from vertex 0.  The generator runs these
    checks itself, but only at its first ``next()``; a caller that must
    fail before any side effect, such as opening an output file, calls
    this first."""
    check_dimension(n)
    if not 2 <= n <= MAX_ENUMERATION_DIM:
        raise ValueError(f"enumeration supports 2 <= n <= {MAX_ENUMERATION_DIM}")
    if prefix is None:
        return
    if not prefix or prefix[0] != 0:
        raise ValueError("prefix must start at vertex 0")
    visited = {0}
    for u, v in zip(prefix, prefix[1:]):
        check_vertex(v, n)
        if v in visited:
            raise ValueError(f"prefix revisits vertex {v}")
        edge_dim(u, v)
        visited.add(v)


def check_whole_cube(n: int) -> None:
    """Raise ValueError unless :func:`check_search_args` accepts ``n`` and a
    search of every cycle of the n-cube can finish: n <= ``MAX_WHOLE_CUBE_DIM``.
    A stream, or a count of given prefixes, may run on larger cubes."""
    check_search_args(n)
    if n > MAX_WHOLE_CUBE_DIM:
        raise ValueError(
            f"a search of every cycle supports n <= {MAX_WHOLE_CUBE_DIM}: "
            "the 6-cube alone has about 3.6e22 Hamiltonian cycles"
        )


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
    yield from _search(n, prunes, prefix, first_use=False)


def _search(
    n: int,
    prunes: PruneConfig | None,
    prefix: Sequence[int] | None,
    first_use: bool,
) -> Iterator[HamiltonianCycle | int]:
    """The search kernel.  It yields the canonical cycles that complete
    ``prefix``, or, in first-use mode, counts that add up to the closing
    paths that complete it and bring in new dimensions in the order 0, 1,
    2, ... (``prefix`` must do so too): 1 per closing path it walks, and a
    state's count when the memo holds it."""
    steps = [0] if prefix is None else list(prefix)
    check_search_args(n, steps)
    prune = (PruneConfig() if prunes is None else prunes).enabled
    table = edge_rows(n)
    moves = steps[1:]  # moves[k]: the prefix step from depth k to k + 1

    size = 1 << n
    base = len(moves)
    # free[w]: edges at w that are on the path or addable.  An edge is
    # addable while it is unused, neither endpoint is strict interior of the
    # path (visited, but not vertex 0 and not the path end), and it is not
    # a closing edge {0, e_j} below the first step's dimension.  For an open
    # vertex (unvisited, or vertex 0) only the expansion of a neighbour and
    # the first step lower it, and a cycle through the path needs two of
    # them: the free-edges prune.  Only the prunes read these counts, so
    # without them the expansions and their pops walk the empty rows of
    # ``retire``, and no count falls to decide the children.
    free = [n] * size
    retire = table if prune else ((),) * size
    path = [0] * size
    seen = bytearray(size)
    seen[0] = 1
    last = size - 1  # the depth of a full path, which is not expanded
    # tries[k] yields the candidate steps from path[k] not yet tried: the
    # prefix step within the prefix, unless it breaks a rule, and the
    # neighbours in order beyond.  A first step in dimension f leaves
    # vertex 0 n - f free edges, so the prunes take f <= n - 2; first-use
    # mode takes dimension 0 alone.
    roots = table[0][: 1 if first_use else n - 1 if prune else n]
    if moves:
        roots = moves[:1] if moves[0] in roots else ()
    tries: list[Iterator[int] | None] = [None] * size
    tries[0] = iter(roots)
    # width[k]: how many dimensions path[0..k] uses, kept in first-use
    # mode, where a step from path[k] may take only a used dimension or
    # dimension width[k], the next one
    width = [0] * size
    # lim: e_f, the first step.  The edge from a vertex u to vertex 0 is
    # addable only when u > lim: {0, e_f} is on the path and the first step
    # retires {0, e_j} with j < f, so the expansion and the restore at its
    # pop retire and restore neither.
    lim = 0
    # The completion memo on small cubes: memo[mask << 6 | v] is the range
    # (a, b) of the running count ``count`` of closing paths that the search
    # found below the state whose visited set less v is ``mask`` and whose
    # path end is v; the stream keeps its cycles as ``emitted[a:b]``.
    # keys[k] is the visited set of path[0..k] shifted by 6, so a step from
    # path[k] to v has the key keys[k] | v, and start[k] is ``count`` when
    # path[k] was pushed, or -1 when the stream's memo was dropped since,
    # and path[k] is not recorded then.  Only the pops grow the memo of a
    # count, so only they drop it.  ``room`` is ``MEMO_CAP`` less the
    # states and cycles the memo holds, lowered wherever either grows, and
    # the memo is dropped when it goes below 0.
    memo = None if n > MEMO_MAX_DIM else {}
    emitted: list[tuple[int, ...]] = []
    count = 0
    cap = room = MEMO_CAP
    slots = size if memo is not None else 0  # a larger cube keeps neither list
    keys = [64] * slots
    start = [0] * slots
    k = 0
    while True:
        for v in tries[k]:
            if not seen[v]:
                if memo is None:
                    break
                got = memo.get(keys[k] | v)
                if got is None:
                    break
                # the state was searched before: its count, or its
                # completions again, behind this path, in the same order
                a, b = got
                count += b - a
                if first_use:
                    yield b - a
                else:
                    head = tuple(path[: k + 1])
                    for seq in emitted[a:b]:
                        seq = head + seq[k + 1 :]
                        emitted.append(seq)
                        yield HamiltonianCycle(n, seq)
                    room -= b - a
                    if room < 0:
                        memo.clear()
                        emitted.clear()
                        count = 0
                        room = cap
                        start[: k + 1] = [-1] * (k + 1)
        else:
            if k == 0:
                return
            v = path[k]
            if memo is not None:
                if k == 1:
                    # the next first step changes the canonical test at the
                    # leaf and the retired closing edges
                    memo.clear()
                    emitted.clear()
                    count = 0
                    room = cap
                else:
                    a = start[k]
                    if a >= 0:
                        memo[keys[k - 1] | v] = (a, count) if a < count else NO_CYCLES
                        room -= 1
                    if room < 0:
                        memo.clear()
                        room = cap
                        if not first_use:
                            # the stream's ranges index ``emitted``, which
                            # restarts; a count of words runs on
                            emitted.clear()
                            count = 0
                            start[:k] = [-1] * k
            if k != last:
                # the edges that v's expansion retired return
                for w in retire[v]:
                    if not seen[w] or not w and v > lim:
                        free[w] += 1
            k -= 1
            if path[k]:
                # the edge to v is retired again, for the next sibling
                free[v] -= 1
            else:
                # back at vertex 0: the closing edges the first step retired
                # return
                f = v.bit_length() - 1
                for j in range(f):
                    free[1 << j] += 1
                free[0] += f
            seen[v] = 0
            continue

        u = path[k]
        seen[v] = 1
        if u:
            # u's expansion retired its edges to open vertices; the one to v
            # is on the path now
            free[v] += 1
        else:
            # The first step fixes f.  A canonical cycle closes through some
            # {e_j, 0} with j > f, so the edges {0, e_j} with j < f retire
            # until the pop back to vertex 0, and ``lim`` keeps the
            # expansions off them.  e_j keeps n - 1 >= 2 free edges, as the
            # prunes take f = 0 at n = 2; vertex 0 keeps n - f (``roots``).
            f = v.bit_length() - 1
            lim = v
            for j in range(f):
                free[1 << j] -= 1
            free[0] -= f
        k += 1
        path[k] = v
        if memo is not None:
            keys[k] = keys[k - 1] | 64 << v
            start[k] = count
        if first_use:
            w = width[k - 1]
            width[k] = w + (u ^ v == 1 << w)
        if k == last:
            # a full path closes to vertex 0 when v is a unit vector, and is
            # canonical when its first dimension is below its last
            if v & (v - 1) == 0 and path[1] < v:
                if first_use:
                    yield 1
                else:
                    seq = tuple(path)
                    if memo is not None:
                        emitted.append(seq)
                        room -= 1
                    yield HamiltonianCycle(n, seq)
                count += 1
            tries[k] = iter(())
            continue
        # The expansion of v.  Any step from v makes it interior, so its
        # edges to open vertices retire here, once, and each child hands its
        # own edge back while it is on the path.  This node passed the
        # prunes and only these counts fall, so the open vertices that fall
        # below two free edges decide the children: with none every step
        # passes; an unvisited one needs both its edges, one of them to v,
        # so it is the only step (the forced step); vertex 0, or two of
        # them, leave none.
        cands = table[v]
        fell = 0
        for w in retire[v]:
            if not seen[w] or not w and v > lim:
                rest = free[w] - 1
                free[w] = rest
                if rest < 2:
                    fell += 1
                    low = w
        if fell:
            cands = (low,) if fell == 1 and low else ()
        if k < base:
            cands = moves[k : k + 1] if moves[k] in cands else ()
        elif first_use:
            # rows run in increasing dimension, so the steps in the used
            # dimensions and the next one are a prefix of v's row.  A forced
            # step is one of them: the path stays in the subcube of the used
            # dimensions, a neighbour outside it keeps all n of its edges,
            # and at n = 2 the one such neighbour is in the next dimension.
            cands = cands[: width[k] + 1]
        tries[k] = iter(cands)


def count_cycles(n: int, prunes: PruneConfig | None = None) -> int:
    """Number of Hamiltonian cycles of the n-cube (undirected, unrooted).

    The search runs in first-use mode and builds no cycle.  Every cycle
    uses all n dimensions, so a coordinate permutation that maps a
    directed cycle from vertex 0 to itself fixes every dimension of its
    word: S_n acts freely on the directed cycles from vertex 0, and each
    orbit holds exactly one whose word brings in new dimensions in the
    order 0, 1, 2, ....  Each undirected cycle is two directed ones, so
    the count is n!·words/2.  On cubes of at most ``MEMO_MAX_DIM``
    dimensions the words are counted through the stream's completion
    memo, which holds each state's count of words instead of its cycles.
    Larger cubes are refused (:func:`check_whole_cube`).
    """
    check_whole_cube(n)
    return factorial(n) * sum(_search(n, prunes, None, first_use=True)) // 2


def path_prefixes(n: int, depth: int) -> list[list[int]]:
    """All simple paths of ``depth`` edges from vertex 0, in branch order.

    The completions of these prefixes partition the full search tree, so
    enumerating each prefix independently and taking the union reproduces
    the sequential stream.  The paths are listed one length at a time, and
    a ValueError is raised once the paths of one length would hold more
    than ``MAX_PREFIX_VERTICES`` vertices in total.
    """
    check_dimension(n)
    if not 1 <= depth < (1 << n):
        raise ValueError(f"depth {depth} out of range")
    bits = [1 << i for i in range(n)]
    paths = [[0]]
    # one level at a time, each path extended by its unvisited neighbours
    # in increasing dimension, which keeps the branch order
    for size in range(2, depth + 2):
        # running totals of the next level's size: a level over the cap is
        # refused before it is counted in full, let alone built
        fresh = (set(map(p[-1].__xor__, bits)).difference(p) for p in paths)
        totals = accumulate(map(len, fresh))
        if any(total * size > MAX_PREFIX_VERTICES for total in totals):
            raise ValueError(
                f"listing the depth-{depth} prefixes of the {n}-cube takes more "
                f"than {MAX_PREFIX_VERTICES} path vertices; use a smaller depth"
            )
        paths = [
            p + [v] for p in paths for v in map(p[-1].__xor__, bits) if v not in p
        ]
    return paths


def write_prefixes(prefixes: Sequence[Sequence[int]]) -> str:
    """Checkpoint text: one space-separated path prefix per line."""
    return "".join(" ".join(str(v) for v in p) + "\n" for p in prefixes)


def read_prefixes(text: str) -> list[list[int]]:
    """Parse the checkpoint text produced by :func:`write_prefixes`."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            prefix = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if prefix:
            out.append(prefix)
    return out


def attempt_budget(n: int) -> int:
    """The nodes one sampler attempt in the n-cube may take before it is
    abandoned and restarted: one pass over the 2**n vertices plus 256 from
    n = 7, and two passes plus 8192 up to n = 6.

    A successful attempt at n = 7..12 takes about 2**n nodes, or about
    2**n + 230 to 250, or about 5.7k, or about 181k; the last two kinds
    barely depend on n.  In 400 fresh attempts per n = 7..12, as many
    succeeded within 2**n + 256 nodes as within 2**n + 512, so the cutoff
    keeps the first two kinds and restarts every other attempt just after
    its first pass: a fixed cutoff is the cheap restart policy (Luby,
    Sinclair and Zuckerman, 1993).  Up to n = 6 the budget is the one the
    pinned n = 5 and 6 corpora were drawn with; their largest attempts
    take 51 and 5,720 nodes.  In the draws of seeds 0-99 at n = 11 and 12,
    at most 39 and 68 attempts in a row were abandoned, well under
    ``MAX_CONSECUTIVE_FAILURES``.
    """
    return (2 << n) + 8192 if n <= 6 else (1 << n) + 256


def sample_cycles(n: int, seed: int, k: int) -> list[HamiltonianCycle]:
    """k Hamiltonian cycles found by randomized-order backtracking, one
    fresh randomized search per cycle.

    The sampling distribution is *not* uniform over Hamiltonian cycles:
    cycles reachable through luckier early branch choices are favored, and
    independent attempts may repeat a cycle.  Searches that exceed the node
    budget ``attempt_budget(n)``, (1 << n) + 256 from n = 7 and
    (2 << n) + 8192 below, are abandoned and restarted with the next
    draws from the same generator;
    ``MAX_CONSECUTIVE_FAILURES`` abandoned attempts in a row mean the budget
    is too small and raise RuntimeError instead of looping forever.

    The stream is fixed for a seed, and seeded corpora are pinned test
    data: the same generator calls (the calls ``Random.shuffle`` makes on
    each candidate list of two or more vertices) in the same order give
    the same cycles.  Which attempts are abandoned depends on the budget
    and on how nodes are counted.  One node is either a push of a vertex
    onto the path, including a push that is undone at once (it takes
    vertex 0's last unvisited neighbour), or the retreat from a vertex
    whose candidates are exhausted.  The push that fills the path closes
    the cycle; a dead end, a vertex with no unvisited neighbour, is
    charged its push and its retreat, two nodes, and never touches the
    path.  An attempt is abandoned at the first node past the budget.

    The search keeps the unvisited vertices as the bits of one integer and
    reads each vertex's neighbours as a mask from the per-process table of
    :func:`~qube.hypercube.near_table`, 4**n / 8 bytes.  So sampling
    supports 2 <= n <= ``NEAR_TABLE_MAX_DIM`` = 12, where that table is
    kept (2 MB at n = 12), and refuses a larger n before any draw: the
    table grows fourfold per dimension, to 512 MB at n = 16.  The rows of
    neighbours in dimension order, which order each candidate list, are
    the search's :func:`~qube.hypercube.edge_rows`, kept for the process
    too (0.02 MB at n = 7, 0.7 MB at n = 12), so a draw does no set-up of
    its own.
    """
    check_dimension(n)
    if not 2 <= n <= NEAR_TABLE_MAX_DIM:
        raise ValueError(
            f"sampling supports 2 <= n <= {NEAR_TABLE_MAX_DIM}, "
            "the cubes whose neighbour-mask table is kept"
        )
    if k < 1:
        raise ValueError("k must be positive")
    rng = random.Random(seed)
    rows = edge_rows(n)
    budget = attempt_budget(n)
    out: list[HamiltonianCycle] = []
    failures = 0
    while len(out) < k:
        cyc = _random_cycle(n, rows, rng, budget)
        if cyc is not None:
            out.append(cyc)
            failures = 0
        else:
            failures += 1
            if failures >= MAX_CONSECUTIVE_FAILURES:
                raise RuntimeError(
                    f"{failures} abandoned searches in a row; a budget of "
                    f"{budget} nodes per attempt is too small to sample "
                    f"cycles of the {n}-cube"
                )
    return out


# Random.shuffle's steps on a list of m items, as (i, k) for i from m - 1
# down to 1: it swaps item i with item _randbelow(i + 1), which draws
# getrandbits(k), k = (i + 1).bit_length(), until the value is below i + 1.
_SHUFFLE_STEPS = tuple(
    tuple((i, (i + 1).bit_length()) for i in range(m - 1, 0, -1))
    for m in range(NEAR_TABLE_MAX_DIM + 1)
)


def _random_cycle(
    n: int, rows: Sequence[tuple[int, ...]], rng: random.Random, budget: int
) -> HamiltonianCycle | None:
    """One search from vertex 0, or None once it passes ``budget`` nodes.

    Each path vertex's unvisited neighbours are shuffled and then stably
    sorted by how many of their own neighbours are visited, and the last
    one (the most constrained) is tried first: flushing tight vertices
    early keeps the walk from stranding them.  Lists of fewer than two
    vertices need neither step, and ``shuffle`` draws nothing for them: a
    vertex with one unvisited neighbour steps on to it at once, and its
    level of the stack is an empty tuple.  Every other list, vertex 0's
    first one included, is shuffled inline by the draws ``Random.shuffle``
    makes for it (``_SHUFFLE_STEPS``), without its call per list and its
    call of ``_randbelow`` per item; a pair is also ordered by one
    comparison in place of the sort.

    The unvisited vertices are the set bits of one integer, ``unseen``, so
    with the neighbour masks of :func:`near_table` a dead end costs one
    AND, a forced step is the one bit left, and a neighbour's count of
    unvisited neighbours, the sort key in reverse, is one ``bit_count``.
    A list of candidates, in ``rows[v]`` order, is built only for two or
    more.
    """
    near = near_table(n)
    unseen = (1 << len(rows)) - 2  # every vertex but 0
    getrandbits = rng.getrandbits
    steps = _SHUFFLE_STEPS
    units = near[0]  # vertex 0's neighbours
    path = [0]
    last = len(rows) - 1  # the path length before the push that fills it

    def free_count(w: int) -> int:
        return (near[w] & unseen).bit_count()

    cands = list(rows[0])
    for i, k in steps[n]:
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        cands[i], cands[j] = cands[j], cands[i]
    cands.sort(key=free_count, reverse=True)
    stack = [cands]
    left = budget
    while True:
        while cands:
            v = cands.pop()
            while True:
                left -= 1  # the push of v
                if left < 0:
                    return None
                if not v & (v - 1):
                    # every push leaves a unit vector unvisited (below),
                    # so the push that fills the path takes one and closes
                    if len(path) == last:
                        return HamiltonianCycle(n, (*path, v))
                    # the walk must be able to re-enter vertex 0 at the
                    # very end: no push takes its last unvisited neighbour
                    if units & unseen == 1 << v:
                        break
                free = near[v] & unseen
                if not free:
                    # a dead end: its retreat is charged at once, and the
                    # path is never touched
                    left -= 1
                    if left < 0:
                        return None
                    break
                unseen ^= 1 << v
                path.append(v)
                if not free & (free - 1):
                    # a forced step: its level holds no candidate, and its
                    # retreat still costs one node
                    stack.append(())
                    cands = ()
                    v = free.bit_length() - 1
                    continue
                # a plain loop, cheaper here than a comprehension, which
                # is a function call of its own in CPython 3.11
                c = []
                for w in rows[v]:
                    if free >> w & 1:
                        c.append(w)
                if len(c) == 2:
                    # Random.shuffle's draw for a pair, _randbelow(2), then
                    # the stable sort of the pair
                    r = getrandbits(2)
                    while r > 1:
                        r = getrandbits(2)
                    if not r:
                        c.reverse()
                    if (near[c[0]] & unseen).bit_count() < (near[c[1]] & unseen).bit_count():
                        c.reverse()
                else:
                    for i, k in steps[len(c)]:
                        j = getrandbits(k)
                        while j > i:
                            j = getrandbits(k)
                        c[i], c[j] = c[j], c[i]
                    c.sort(key=free_count, reverse=True)
                stack.append(c)
                cands = c
                break
        left -= 1
        if left < 0:
            return None
        stack.pop()
        if not stack:
            return None
        unseen ^= 1 << path.pop()
        cands = stack[-1]
