"""Exact independence and balanced-independence solvers.

``max_independent_set`` relabels the graph's rows into (degree, index)
order, one C-level string permutation per row, complements them in the
new labels, and runs branch and bound for a maximum clique there, with a
greedy coloring upper bound; only the color classes that could still beat
the incumbent are branched on.  Given the pair labels of a pair graph,
as the reduction route passes them, it reads two covers by cliques off
them: the pairs at each class-0 coordinate, and those at each class-1
coordinate, since pairs that share a coordinate conflict.  It then also
cuts a node whose candidates meet fewer cliques of a cover than a
better set needs, as an independent set takes at most one vertex of
each.  Neither bound changes a witness: each only cuts subtrees that
cannot beat the incumbent, which changes only on a strict improvement,
and the branch order does not depend on the bounds.

The pair labels also turn on the pair-swap rule.
Pairs (a, c) and (b, d) with no conflict unpack to the same four vertices
as (a, d) and (b, c), and a set holding either two has a twin of the same
size holding the other two.  So when a branch x = (a, c) follows an
earlier sibling (a, v') at its node, every pair (u', v') is blocked in
x's subtree; after a sibling (u', c), every pair (u', v'') is.  A set
holding x and a blocked pair y has a twin holding the sibling, and the
twin lies in a subtree searched before x's (at this node, or at the
first ancestor where an earlier sibling is in it), so the incumbent is
at least its size when x is branched.  Blocked pairs are not branched
on and do not count towards the covers, but they stay in the coloring,
so the branch order, every size and every witness are those of the
search without labels.  A blocked sibling blocks nothing more: the
blocked pairs are whole coordinate classes, so the class it would block
is blocked already, or it shares the blocked class with the later
sibling, which is blocked too.  With the labels, the clique search
visits 3,298 nodes on the pair graphs of 40 seeded 20-vertex induced
subgraphs of Q6, against 25,890 without, and 627 on those of Q3-Q5,
against 1,183; without the cover cut it would visit 6,369 and 662.
The route solves the 6-cube's 832-vertex pair graph: 20, with a
checked witness, in 34-38 s at a 17 MB peak on a 2-core Intel Xeon VM.

``equi_independence`` computes the largest *balanced* independent set of a
bipartite graph (equally many vertices from each class) by two separate
routes that must agree:

* ``reduction`` -- build the pair graph (one vertex per cross-class
  non-edge, edges between conflicting pairs) and take a maximum
  independent set there; a pair set of size k unpacks to a balanced
  independent set of size 2k.
* ``direct`` -- branch over subsets of one class, tracking the common
  non-neighbors in the other class; the answer is twice the best
  min(chosen, compatible) reached.  Each child is bounded twice before
  it is entered: by min(|chosen| + |candidates|, |compatible|), and by
  König's theorem on the bipartite graph between the candidates and the
  compatible side, where any matching M caps a completion's two sides at
  |candidates| + |compatible| - |M| together.

``brute_force_equi`` is an exhaustive subset scan kept as an oracle for
small graphs.  ``cube_pair_graph_size`` counts the n-cube's pair graph in
closed form, without building it.
"""

from __future__ import annotations

from math import comb
from operator import itemgetter
from typing import Iterable, Sequence

from .graphs import (
    BipartiteGraph,
    ReducedGraph,
    SizeLimitExceeded,
    UndirectedGraph,
    check_solver_cap,
    is_balanced,
    is_independent,
)
from .hypercube import check_dimension

BRUTE_FORCE_LIMIT = 20

# The largest n-cube the reduction is run on: on a 2-core Intel Xeon VM
# it solves the 6-cube in 34-38 s, where the direct route takes 0.03 s,
# and it has not been run on the 7-cube's 3,648-vertex pair graph.
REDUCTION_MAX_N = 5
# The largest n-cube the direct route is run on: on the same VM it solves
# the 7-cube in about 3.5 minutes, while no solve of the 8-cube has
# finished.
DIRECT_MAX_N = 7


def _check_oracle_cap(n: int) -> None:
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitExceeded(f"{n} vertices exceeds the oracle cap {BRUTE_FORCE_LIMIT}")


def _permute_rows(rows: Iterable[int], source: Sequence[int], width: int) -> list[int]:
    """Each row of ``width`` bits rewritten so that its bit p is its bit
    ``source[p]``, for a permutation ``source`` of 0..width-1.  A row
    takes four C calls and no Python loop: it is written as a binary
    string, its characters are picked in the new order and joined, and
    the result is read back.  A row must have no bit from ``width`` up."""
    # bin(row | top) is "0b1" and then the row's bits from width - 1 down,
    # so bit w is character width + 2 - w; the picked string ends in bit 0
    pick = itemgetter(*[width + 2 - w for w in reversed(source)])
    top = 1 << width
    return [int("".join(pick(bin(row | top))), 2) for row in rows]


def _greedy_clique(adj: list[int]) -> list[int]:
    """A maximal clique grown greedily by lowest label; seeds the bound."""
    best: list[int] = []
    for start in range(min(len(adj), 16)):
        clique = [start]
        cand = adj[start]
        while cand:
            v = (cand & -cand).bit_length() - 1
            clique.append(v)
            cand &= adj[v]
        if len(clique) > len(best):
            best = clique
    return best


def _pairs_at(
    rows: Sequence[int], pairs: Sequence[tuple[int, int]]
) -> tuple[dict[int, int], dict[int, int]]:
    """The masks of the vertices at each class-0 coordinate and at each
    class-1 coordinate of ``pairs``, one label per row of ``rows``.
    Refuses rows that are not the pair graph of their labels: (u, v) and
    (u', v') must be adjacent exactly when they share a coordinate or
    (u, v') or (u', v) is no label, as ``equi_reduction`` builds it."""
    at_u: dict[int, int] = {}
    at_v: dict[int, int] = {}
    bit = 1
    for u, v in pairs:
        at_u[u] = at_u.get(u, 0) | bit
        at_v[v] = at_v.get(v, 0) | bit
        bit <<= 1
    # reach_u[u]: the pairs (u', v') with (u, v') a label; reach_v alike
    reach_u = dict.fromkeys(at_u, 0)
    reach_v = dict.fromkeys(at_v, 0)
    for u, v in pairs:
        reach_u[u] |= at_v[v]
        reach_v[v] |= at_u[u]
    # (u, v)'s non-neighbours are the pairs that share no coordinate with it
    # and are in both reaches
    free_u = {u: mask & ~at_u[u] for u, mask in reach_u.items()}
    free_v = {v: mask & ~at_v[v] for v, mask in reach_v.items()}
    full = (1 << len(rows)) - 1
    bit = 1
    for (u, v), row in zip(pairs, rows):
        if row ^ full != free_u[u] & free_v[v] | bit:
            raise ValueError("the graph is not the pair graph of its labels")
        bit <<= 1
    return at_u, at_v


def max_independent_set(
    g: UndirectedGraph, pairs: Sequence[tuple[int, int]] | None = None
) -> tuple[int, list[int]]:
    """Exact maximum independent set (size and one witness), computed as a
    maximum clique of the complement graph by branch and bound with a
    greedy-coloring upper bound.  Deterministic: vertices are relabeled by
    (degree in ``g``, index), so the coloring walks high complement degree
    first, and candidates are explored highest color first.

    A candidate of color c extends ``cur`` to at most len(cur) + c, so
    classes below kmin = best - len(cur) + 1 (the k_min rule of Konc and
    Janežič) are colored but not listed; the loop would stop before them.

    ``pairs`` labels each vertex of a pair graph with its pair (u, v), as
    ``equi_reduction`` builds it; a graph that is not the pair graph of
    its labels is refused, checked in the search's labels.  The pairs at
    each class-0 coordinate, and those at each class-1 coordinate, are
    then two covers of the graph by cliques.  An independent set takes
    at most one vertex of each clique, so a node whose candidates meet
    fewer than kmin cliques of either cover is cut on entry, before it
    is colored; counting stops at kmin.  Such a node holds no
    independent set that beats the incumbent, and the incumbent changes
    only on a strict improvement, so only the nodes below a cut node go.
    The labels also turn on the pair-swap rule: when a
    branch (a, c) follows an earlier sibling (a, v') at its node, the
    pairs (u', v') are blocked in its subtree, and after a sibling
    (u', c) the pairs (u', v'') are.  A set holding (a, c) and a blocked
    pair has a twin of the same size, the two pairs re-paired, that holds
    the earlier sibling and was searched before.  Blocked candidates are
    not branched on and are left out of the cover count, but they are
    still colored, so the branch order, the size and the witness are the
    same as without labels.
    """
    n = g.vertex_count
    check_solver_cap(n)
    if pairs is not None and (len(pairs) != n or len(set(pairs)) != n):
        raise ValueError("the pair labels must be one distinct pair per vertex")
    if n == 0:
        return 0, []
    degree = [row.bit_count() for row in g.adj]
    order = sorted(range(n), key=degree.__getitem__)  # stable: ties by index
    # g's rows in the new labels are the complement's non-neighbours
    nonadj = _permute_rows([g.adj[v] for v in order], order, n)
    full = (1 << n) - 1
    adj = [full & ~row & ~(1 << p) for p, row in enumerate(nonadj)]
    ends: list[tuple[int, int]] = []
    cliques: list[list[int]] = []
    if pairs is not None:
        ends = [pairs[v] for v in order]
        # checked in the new labels, so the masks are in them too; the
        # pairs at each coordinate are cliques, one cover per class
        at_u, at_v = _pairs_at(nonadj, ends)
        cliques = [list(at_u.values()), list(at_v.values())]

    best_clique = _greedy_clique(adj)
    best = len(best_clique)
    cur: list[int] = []

    def expand(cand: int, blocked: int) -> None:
        nonlocal best, best_clique
        kmin = best - len(cur) + 1
        # the unblocked candidates must meet kmin cliques of each cover; at
        # kmin <= 1 none is blocked (a blocked twin holds best >= len(cur) + 1)
        # and cand meets one clique of each
        if kmin > 1:
            live = cand & ~blocked
            for cover in cliques:
                met = 0
                for clique in cover:
                    if live & clique:
                        met += 1
                        if met == kmin:
                            break
                else:
                    return
        # greedy coloring of cand; out_v lists the classes from kmin up
        out_v: list[int] = []
        out_c: list[int] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                if color >= kmin:
                    out_v.append(v)
                    out_c.append(color)
                rest ^= low
                avail = (avail ^ low) & nonadj[v]
        # twin_u[a]: the pairs blocked below a branch (a, c) by the earlier
        # branches at a; twin_v[c] likewise by those at c
        twin_u: dict[int, int] = {}
        twin_v: dict[int, int] = {}
        for idx in range(len(out_v) - 1, -1, -1):
            if len(cur) + out_c[idx] <= best:
                return
            v = out_v[idx]
            below = blocked
            if ends:
                if blocked >> v & 1:
                    cand ^= 1 << v
                    continue
                a, c = ends[v]
                below |= twin_u.get(a, 0) | twin_v.get(c, 0)
                twin_u[a] = twin_u.get(a, 0) | at_v[c]
                twin_v[c] = twin_v.get(c, 0) | at_u[a]
            cur.append(v)
            nxt = cand & adj[v]
            if nxt:
                expand(nxt, below)
            elif len(cur) > best:
                best = len(cur)
                best_clique = cur.copy()
            cur.pop()
            cand ^= 1 << v

    expand(full, 0)
    return best, sorted(order[p] for p in best_clique)


def equi_reduction(b: BipartiteGraph) -> ReducedGraph:
    """Build the pair graph: vertices are cross-class non-edges (v0, v1);
    two pairs conflict (are adjacent) when they share a coordinate or when
    either cross combination is an edge of the original graph.

    Each original vertex w gets the mask of pairs that have w as a
    coordinate; OR-ing in its neighbours' masks gives the pairs that
    conflict through w, so a pair's row is the union over its two
    coordinates, less the pair itself.  The pair labels are what
    ``max_independent_set`` needs to cut by the pair graph's endpoint
    cliques and to skip re-paired twins.

    A pair graph above the solver cap is refused before any pair is
    listed: its |class0| * |class1| - |E| vertices have a row of that
    many bits each, so it takes about pairs**2 / 8 bytes.
    """
    check_solver_cap(len(b.class0) * len(b.class1) - b.graph.edge_count)
    adj = b.graph.adj
    pairs = [
        (u, v) for u in b.class0 for v in b.class1 if not adj[u] >> v & 1
    ]
    touching = [0] * b.vertex_count
    for k, (u, v) in enumerate(pairs):
        touching[u] |= 1 << k
        touching[v] |= 1 << k
    conflict = touching.copy()
    for w, row in enumerate(adj):
        while row:
            low = row & -row
            conflict[w] |= touching[low.bit_length() - 1]
            row ^= low
    rg = UndirectedGraph(len(pairs))
    rg.adj = [
        (conflict[u] | conflict[v]) & ~(1 << k) for k, (u, v) in enumerate(pairs)
    ]
    return ReducedGraph(rg, tuple(pairs))


def cube_pair_graph_size(n: int) -> tuple[int, int]:
    """The vertex and edge counts of the n-cube's pair graph,
    ``equi_reduction(hypercube_bipartite(n)).graph``, in closed form.

    Write h = 2**(n-1).  Each of the h even vertices u is adjacent to n
    of the h odd vertices, so there are V' = h * (h - n) pairs (u, v).
    As in ``equi_reduction``, (u, v) conflicts with the h - n - 1 other
    pairs at u, the h - n - 1 other pairs at v, the n * (h - n) pairs
    whose class-0 coordinate is a neighbour of v, and the n * (h - n)
    whose class-1 coordinate is a neighbour of u.  Only the last two sets
    meet, in the non-edges of N(v) x N(u).  u and v lie an odd distance
    of at least 3 apart; at distance 3 that product holds one edge for
    each of the 3! shortest paths from u to v, so n**2 - 6 non-edges,
    and farther apart none, so n**2.  Each even vertex has C(n, 3) odd
    vertices 3 apart, so the degrees sum to
    V' * (2 (n + 1) (h - n) - n**2 - 2) + 6 h C(n, 3), twice E'.
    """
    h = 1 << (n - 1)
    vertices = h * (h - n)
    return vertices, (vertices * (2 * (n + 1) * (h - n) - n * n - 2) + 6 * h * comb(n, 3)) // 2


def unpack_pair_witness(red: ReducedGraph, pair_set: list[int]) -> list[int]:
    """Flatten an independent set of pair-graph vertices back into the
    balanced vertex set of the original bipartite graph."""
    out: set[int] = set()
    for k in pair_set:
        u, v = red.pair_labels[k]
        out.add(u)
        out.add(v)
    return sorted(out)


def _direct_balanced(b: BipartiteGraph) -> tuple[int, list[int]]:
    """Branch and bound over subsets of one class.

    State: chosen vertices ``sel`` from the branch class and the bitmask
    ``tmask`` of vertices in the other class not adjacent to any chosen
    vertex.  Any (sel, tmask) yields a balanced independent set of size
    2 * min(|sel|, |tmask|), and both quantities only shrink along a
    branch, which gives the first pruning bound, min(|sel| + |cands|,
    |tmask|).  The masks are the graph's rows shifted down by ``lo``, the
    other class's lowest label, so bit p stands for vertex lo + p; in the
    cube's parity classes the other parity's labels stay zero bits.  Bits
    keep label order, so the nodes and the witness do not depend on how
    the classes are labelled.

    The second is König's.  A completion adds some S' of ``cands`` and
    keeps some T' of ``tmask`` with no edge between them, so S' ∪ T' is
    independent in the bipartite graph H between ``cands`` and ``tmask``,
    and |S'| + |T'| <= |cands| + |tmask| - |M| for any matching M of H.
    Its value is at most both |sel| + |S'| and |T'|, hence at most
    (|sel| + |cands| + |tmask| - |M|) // 2.  M is built greedily, each
    candidate in order taking its lowest free neighbour in ``tmask``;
    a maximum matching cuts more nodes but costs more than it saves (by
    augmenting paths, 67,145 nodes instead of 85,090 on Q3-Q6 and 600
    induced subgraphs of the benchmark's shapes, in more time).

    The parent applies both bounds to each child's filtered candidates
    and ``tmask`` before the call.  A cut child cannot improve the
    incumbent on entry either: its value min(|sel|, |tmask|) is at most
    the first bound and at most (|sel| + |tmask|) // 2 <= König's.
    Both bounds only cut subtrees that cannot beat the incumbent, and the
    incumbent changes only on a strict improvement, so the size and the
    witness do not depend on which bounds are applied.

    Two shortcuts skip work whose outcome is known, so neither changes a
    node.  A candidate survives the forward check when it meets fewer
    than |t2| - best vertices of the child's ``t2``; it meets at most
    ``maxdeg``, the largest degree in the branch class, so when
    |t2| - best exceeds that, the whole tail survives unfiltered.  And as
    |M| <= min(|tail|, |t2|), König's bound is at least
    (|sel| + 1 + max(|tail|, |t2|)) // 2; when that beats best, the
    matching could not cut and is not built.

    Both passes over a child's candidates are plain loops that stop once
    the cut is certain, and each stop decides as the full pass does.
    The forward check cuts when depth + 1 + |tail| <= best; each candidate
    it drops lowers the reachable |tail| by one, so the cut is certain at
    the (limit - pos)-th drop, limit = depth + |cands| - best, and the
    pass stops there.  The matching cuts when (depth + 1 + |tail| + |t2|
    - |M|) // 2 <= best; |M| only grows, so the cut is certain once |M|
    reaches depth + |tail| + |t2| - 2 * best, and the pass stops there.
    A pass that ends without a stop leaves the child uncut.  The loops
    are plain, not comprehensions: CPython 3.11 runs each comprehension
    as a call of its own, and a comprehension filter makes about 400k
    such calls on 200 induced 56-vertex subgraphs of Q6.
    """
    side0, side1, mask1 = b.class0, b.class1, b.mask1
    if len(side1) < len(side0):
        side0, side1, mask1 = side1, side0, b.mask0
    if not side0:
        return 0, []
    k1 = len(side1)
    adj = b.graph.adj
    lo = side1[0]
    neigh = [adj[v] >> lo for v in side0]
    full1 = mask1 >> lo
    nonadj = [full1 & ~m for m in neigh]
    n0 = len(side0)

    # greedy seed: grow while the compatible side stays ahead
    seed_sel: list[int] = []
    seed_mask = full1
    for idx in range(n0):
        t2 = seed_mask & nonadj[idx]
        if t2.bit_count() > len(seed_sel):
            seed_sel.append(idx)
            seed_mask = t2
    best = min(len(seed_sel), seed_mask.bit_count())
    best_state = (seed_sel.copy(), seed_mask)

    maxdeg = max(m.bit_count() for m in neigh)
    sel: list[int] = []

    def search(cands: list[int], tmask: int, tcount: int, depth: int) -> None:
        nonlocal best, best_state
        cur = depth if depth < tcount else tcount
        if cur > best:
            best = cur
            best_state = (sel.copy(), tmask)
        if depth >= tcount:
            return  # growing sel can only shrink the minimum
        depth1 = depth + 1
        # child pos can reach at most depth + len(cands) - pos, no more
        # than best from pos = limit on; best only grows in a recursive call
        limit = depth + len(cands) - best
        for pos, idx in enumerate(cands):
            if pos >= limit:
                break
            t2 = tmask & nonadj[idx]
            c2 = t2.bit_count()
            if c2 <= best:
                continue
            # forward-check: keep a candidate only if it leaves more than
            # best of t2, i.e. meets fewer than c2 - best of it
            slack = c2 - best
            if slack > maxdeg:
                # every candidate passes, and pos < limit leaves enough
                tail = cands[pos + 1 :]
            else:
                # the child is cut once limit - pos candidates are dropped
                tail = []
                spare = limit - pos
                for j in cands[pos + 1 :]:
                    if (t2 & neigh[j]).bit_count() < slack:
                        tail.append(j)
                    else:
                        spare -= 1
                        if not spare:
                            break
                if not spare:
                    continue
            # König bound with a greedy matching of tail into t2; as
            # matched <= min(ntail, c2), it cannot cut unless this holds
            ntail = len(tail)
            if (depth1 + (ntail if ntail > c2 else c2)) // 2 <= best:
                # the child is cut once need edges are matched
                need = depth1 + ntail + c2 - 2 * best - 1
                free = t2
                for j in tail:
                    hit = neigh[j] & free
                    if hit:
                        need -= 1
                        if not need:
                            break
                        free ^= hit & -hit
                if not need:
                    continue
            sel.append(idx)
            search(tail, t2, c2, depth1)
            sel.pop()
            limit = depth + len(cands) - best

    search(list(range(n0)), full1, k1, 0)
    if best == 0:
        return 0, []
    chosen0 = [side0[i] for i in best_state[0][:best]]
    chosen1: list[int] = []
    mask = best_state[1]
    while mask and len(chosen1) < best:
        low = mask & -mask
        chosen1.append(lo + low.bit_length() - 1)
        mask ^= low
    return 2 * best, sorted(chosen0 + chosen1)


def equi_independence(b: BipartiteGraph, method: str = "direct") -> tuple[int, list[int]]:
    """Largest balanced independent set of a bipartite graph: its size and
    one witness (empty when no nonempty balanced independent set exists).

    ``method`` selects the route: "reduction" (pair graph + maximum
    independent set, given the pair labels) or "direct"
    (balanced branch and bound).  The two
    always agree; keeping both is the point.  Either route's witness is
    checked before it is returned; a bad one raises RuntimeError
    (a fault in the solver, not in its input).  The reduction route's
    ``equi_reduction`` refuses a pair graph above the solver cap.
    """
    if method == "reduction":
        red = equi_reduction(b)
        size, pair_set = max_independent_set(red.graph, pairs=red.pair_labels)
        size, witness = 2 * size, unpack_pair_witness(red, pair_set)
    elif method == "direct":
        size, witness = _direct_balanced(b)
    else:
        raise ValueError(f"unknown method {method!r}")
    if not (is_independent(b.graph, witness) and is_balanced(b, witness)):
        raise RuntimeError(f"the {method} solver returned an invalid witness")
    return size, witness


def check_hypercube_caps(n: int, method: str) -> None:
    """Refuse, before the n-cube is built, a route whose input would exceed
    its cap: the pair graph's vertices (``cube_pair_graph_size``) for
    ``reduction``, the 2**n vertices for ``oracle`` and ``direct``.  The
    reduction is also refused above ``REDUCTION_MAX_N``: it takes more
    than half a minute on the 6-cube and has not been run on the 7-cube.
    The direct route is refused above ``DIRECT_MAX_N``, where no solve has
    finished."""
    check_dimension(n)
    if method == "direct":
        check_solver_cap(1 << n)
        if n > DIRECT_MAX_N:
            raise SizeLimitExceeded(
                f"the direct route solves the n-cube only for n <= {DIRECT_MAX_N} "
                f"(no solve of the {DIRECT_MAX_N + 1}-cube has finished)"
            )
    elif method == "reduction":
        check_solver_cap(cube_pair_graph_size(n)[0])
        if n > REDUCTION_MAX_N:
            raise SizeLimitExceeded(
                f"the reduction solves the n-cube only for n <= {REDUCTION_MAX_N} "
                f"(it takes more than half a minute on the {REDUCTION_MAX_N + 1}-cube); "
                "use the direct method"
            )
    elif method == "oracle":
        _check_oracle_cap(1 << n)
    else:
        raise ValueError(f"unknown method {method!r}")


def brute_force_equi(b: BipartiteGraph) -> int:
    """Exhaustive-scan oracle for the largest balanced independent set.

    Scans all vertex subsets; usable only for small graphs.
    """
    n = b.vertex_count
    _check_oracle_cap(n)
    adj = b.graph.adj
    mask0 = b.mask0
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size <= best or 2 * (mask & mask0).bit_count() != size:
            continue
        m = mask
        ok = True
        while m:
            low = m & -m
            if adj[low.bit_length() - 1] & mask:
                ok = False
                break
            m ^= low
        if ok:
            best = size
    return best
