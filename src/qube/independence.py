"""Exact independence and balanced-independence solvers.

``max_independent_set`` relabels the graph's sparse rows into (degree,
index) order, complements them in the new labels, and runs branch and
bound for a maximum clique there, with a greedy coloring upper bound; only
the color classes that could still beat the incumbent are branched on.

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
small graphs.  ``table1_rows`` reproduces the reference table of
balanced-independence numbers and pair-graph sizes for the n-cube.
"""

from __future__ import annotations

from .graphs import (
    MAX_SOLVER_VERTICES,
    BipartiteGraph,
    ReducedGraph,
    UndirectedGraph,
    hypercube_bipartite,
    is_balanced,
    is_independent,
)
from .hypercube import check_dimension, parity
from .squares import ALPHA_EQUI_HYPERCUBE

BRUTE_FORCE_LIMIT = 20

# Reference column of reduced-graph vertex counts as printed alongside the
# known balanced-independence numbers.  The n=6 entry is inconsistent with
# the pair construction itself (|class0| * |class1| - edges = 832); the
# table1 report computes the true value and flags the difference.
REFERENCE_REDUCED_VERTICES = {3: 4, 4: 32, 5: 176, 6: 882, 7: 3648}


class SizeLimitExceeded(ValueError):
    """The input is larger than the solver is rated for."""


def _check_solver_cap(n: int) -> None:
    if n > MAX_SOLVER_VERTICES:
        raise SizeLimitExceeded(f"{n} vertices exceeds the solver cap {MAX_SOLVER_VERTICES}")


def check_pair_graph_cap(b: BipartiteGraph) -> None:
    """Refuse, before it is built, a pair graph of ``b`` above the solver
    cap: its |class0| * |class1| - |E| vertices have a row of that many
    bits each, so it takes about pairs**2 / 8 bytes."""
    _check_solver_cap(len(b.class0) * len(b.class1) - b.graph.edge_count)


def _check_oracle_cap(n: int) -> None:
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitExceeded(f"{n} vertices exceeds the oracle cap {BRUTE_FORCE_LIMIT}")


def _relabel(row: int, pos: list[int]) -> int:
    """``row`` with each set bit w moved to bit ``pos[w]``."""
    acc = 0
    while row:
        low = row & -row
        acc |= 1 << pos[low.bit_length() - 1]
        row ^= low
    return acc


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


def max_independent_set(g: UndirectedGraph) -> tuple[int, list[int]]:
    """Exact maximum independent set (size and one witness), computed as a
    maximum clique of the complement graph by branch and bound with a
    greedy-coloring upper bound.  Deterministic: vertices are relabeled by
    (degree in ``g``, index), so the coloring walks high complement degree
    first, and candidates are explored highest color first.

    A candidate of color c extends ``cur`` to at most len(cur) + c, so
    classes below kmin = best - len(cur) + 1 (the k_min rule of Konc and
    Janežič) are colored but not listed; the loop would stop before them.
    """
    n = g.vertex_count
    _check_solver_cap(n)
    if n == 0:
        return 0, []
    order = sorted(range(n), key=lambda v: (g.adj[v].bit_count(), v))
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    # g's rows in the new labels are the complement's non-neighbours
    nonadj = [_relabel(g.adj[v], pos) for v in order]
    full = (1 << n) - 1
    adj = [full & ~row & ~(1 << p) for p, row in enumerate(nonadj)]

    best_clique = _greedy_clique(adj)
    best = len(best_clique)
    cur: list[int] = []

    def expand(cand: int) -> None:
        nonlocal best, best_clique
        # greedy coloring of cand; out_v lists the classes from kmin up
        kmin = best - len(cur) + 1
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
        for idx in range(len(out_v) - 1, -1, -1):
            if len(cur) + out_c[idx] <= best:
                return
            v = out_v[idx]
            cur.append(v)
            nxt = cand & adj[v]
            if nxt:
                expand(nxt)
            elif len(cur) > best:
                best = len(cur)
                best_clique = cur.copy()
            cur.pop()
            cand ^= 1 << v

    expand(full)
    return best, sorted(order[p] for p in best_clique)


def equi_reduction(b: BipartiteGraph) -> ReducedGraph:
    """Build the pair graph: vertices are cross-class non-edges (v0, v1);
    two pairs conflict (are adjacent) when they share a coordinate or when
    either cross combination is an edge of the original graph.

    Each original vertex w gets the mask of pairs that have w as a
    coordinate; OR-ing in its neighbours' masks gives the pairs that
    conflict through w, so a pair's row is the union over its two
    coordinates, less the pair itself.
    """
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
    |tmask|).

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
    """
    side0 = list(b.class0)
    side1 = list(b.class1)
    if len(side1) < len(side0):
        side0, side1 = side1, side0
    if not side0:
        return 0, []
    k1 = len(side1)
    full1 = (1 << k1) - 1
    pos1 = [0] * b.vertex_count
    for p, w in enumerate(side1):
        pos1[w] = p
    neigh = [_relabel(b.graph.adj[v], pos1) for v in side0]
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

    def search(cands: list[int], tmask: int, tcount: int) -> None:
        nonlocal best, best_state
        depth = len(sel)
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
                tail = [j for j in cands[pos + 1 :] if (t2 & neigh[j]).bit_count() < slack]
                if depth1 + len(tail) <= best:
                    continue
            # König bound with a greedy matching of tail into t2; as
            # matched <= min(ntail, c2), it cannot cut unless this holds
            ntail = len(tail)
            if (depth1 + (ntail if ntail > c2 else c2)) // 2 <= best:
                matched = 0
                free = t2
                for j in tail:
                    hit = neigh[j] & free
                    if hit:
                        free ^= hit & -hit
                        matched += 1
                if (depth1 + ntail + c2 - matched) // 2 <= best:
                    continue
            sel.append(idx)
            search(tail, t2, c2)
            sel.pop()
            limit = depth + len(cands) - best

    search(list(range(n0)), full1, k1)
    if best == 0:
        return 0, []
    chosen0 = [side0[i] for i in best_state[0][:best]]
    chosen1: list[int] = []
    mask = best_state[1]
    while mask and len(chosen1) < best:
        low = mask & -mask
        chosen1.append(side1[low.bit_length() - 1])
        mask ^= low
    return 2 * best, sorted(chosen0 + chosen1)


def equi_independence(b: BipartiteGraph, method: str = "direct") -> tuple[int, list[int]]:
    """Largest balanced independent set of a bipartite graph: its size and
    one witness (empty when no nonempty balanced independent set exists).

    ``method`` selects the route: "reduction" (pair graph + maximum
    independent set) or "direct" (balanced branch and bound).  The two
    always agree; keeping both is the point.  Either route's witness is
    checked before it is returned; a bad one raises RuntimeError
    (a fault in the solver, not in its input).  The reduction route checks
    the pair count against the solver cap before it builds the pair graph.
    """
    if method == "reduction":
        check_pair_graph_cap(b)
        red = equi_reduction(b)
        size, pair_set = max_independent_set(red.graph)
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
    its cap: the 4**(n-1) - n * 2**(n-1) cross-class non-edges of the pair
    graph for ``reduction``, the 2**n vertices for ``oracle`` and
    ``direct``.  The cube's rows alone take about 4**n / 8 bytes."""
    check_dimension(n)
    if method == "reduction":
        half = 1 << (n - 1)
        _check_solver_cap(half * half - n * half)
    elif method == "oracle":
        _check_oracle_cap(1 << n)
    elif method == "direct":
        _check_solver_cap(1 << n)
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


def lower_bound_set(n: int) -> list[int]:
    """A balanced maximal independent set of size 2**(n-2) in the n-cube.

    Construction: take the vertices whose first two entries are both b and
    whose total parity is b, for b = 0 and b = 1.  Needs n >= 3.
    """
    check_dimension(n)
    if n < 3:
        raise ValueError("the construction needs n >= 3")
    return [
        v
        for v in range(1 << n)
        if (v & 3) in (0, 3) and parity(v) == (v & 1)
    ]


def table1_rows(
    max_n: int, method: str = "direct", alpha_max_n: int | None = None
) -> list[dict]:
    """Reproduce the reference table: balanced-independence numbers and
    reduced-graph sizes for the n-cube, n = 3..max_n.

    Reduced-graph sizes are always computed (they are cheap).  The
    balanced-independence solve is run only for rows with n <= alpha_max_n
    (default: every row); capping it keeps large-n reports fast, since the
    exact solve grows steeply with n.  Skipped rows carry ``None`` in the
    solver-derived fields but still show the bundled reference value.
    """
    if not 3 <= max_n <= 8:
        raise ValueError("table rows cover 3 <= n <= 8")
    if alpha_max_n is None:
        alpha_max_n = max_n
    rows = []
    for n in range(3, max_n + 1):
        b = hypercube_bipartite(n)
        red = equi_reduction(b)
        ref_alpha = ALPHA_EQUI_HYPERCUBE.get(n)
        if n <= alpha_max_n:
            alpha, witness = equi_independence(b, method=method)
            matches = ref_alpha is None or ref_alpha == alpha
            attained = alpha == 1 << (n - 2)
        else:
            alpha = witness = matches = attained = None
        v_red = red.graph.vertex_count
        ref_v = REFERENCE_REDUCED_VERTICES.get(n)
        rows.append(
            {
                "n": n,
                "alpha_equi": alpha,
                "witness": witness,
                "reduced_vertices": v_red,
                "reduced_edges": red.graph.edge_count,
                "reference_reduced_vertices": ref_v,
                "reduced_vertices_mismatch": ref_v is not None and ref_v != v_red,
                "reference_alpha": ref_alpha,
                "alpha_matches_reference": matches,
                "lower_bound": 1 << (n - 2),
                "lower_bound_attained": attained,
            }
        )
    return rows
