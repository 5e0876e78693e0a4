"""Exact independence solvers: maximum independent set, the pair-graph
reduction, the direct balanced search, and the brute-force oracle."""

import hashlib
import itertools
import json
import os
import random
import sys
import types

import pytest

from qube import independence
from qube.bounds import lower_bound_set
from qube.graphs import (
    BipartiteGraph,
    UndirectedGraph,
    format_bipartite,
    hypercube_bipartite,
    hypercube_graph,
    is_balanced,
    is_independent,
    is_maximal_independent,
    parse_bipartite,
)
from qube.independence import (
    SizeLimitExceeded,
    brute_force_equi,
    check_hypercube_caps,
    cube_pair_graph_size,
    equi_independence,
    equi_reduction,
    max_independent_set,
    unpack_pair_witness,
)

from test_graphs import random_bipartite


class RowlessGraph:
    """Stands in for a graph whose adjacency rows must not be read: it has
    the graph's vertex and edge counts, and reading ``adj`` fails the test.
    Every pair-graph step reads the rows, so a cap check that runs after
    any of them fails too."""

    def __init__(self, graph: UndirectedGraph):
        self.vertex_count = graph.vertex_count
        self.edge_count = graph.edge_count

    @property
    def adj(self):
        raise AssertionError("a row was read before the cap check")


def rowless(b: BipartiteGraph) -> types.SimpleNamespace:
    """b with its graph replaced by a ``RowlessGraph``."""
    return types.SimpleNamespace(
        graph=RowlessGraph(b.graph),
        class0=b.class0,
        class1=b.class1,
        vertex_count=b.vertex_count,
    )


def brute_force_mis(g: UndirectedGraph) -> int:
    """Independent oracle: scan all subsets, largest first by size."""
    n = g.vertex_count
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        vs = [v for v in range(n) if mask >> v & 1]
        if is_independent(g, vs):
            best = len(vs)
    return best


def reference_direct_balanced(b: BipartiteGraph) -> tuple[int, list[int]]:
    """The direct search as it was before the König matching bound: the
    only bound is min(|sel| + |cands|, |tmask|), checked by each node on
    entry.  Kept as the reference that the bounded search must match,
    size and witness alike, wherever its bounds are applied."""
    side0 = list(b.class0)
    side1 = list(b.class1)
    if len(side1) < len(side0):
        side0, side1 = side1, side0
    if not side0:
        return 0, []
    adj = b.graph.adj
    k1 = len(side1)
    full1 = (1 << k1) - 1
    nonadj: list[int] = []
    for v in side0:
        m = 0
        for p, w in enumerate(side1):
            if not adj[v] >> w & 1:
                m |= 1 << p
        nonadj.append(m)
    n0 = len(side0)

    seed_sel: list[int] = []
    seed_mask = full1
    for idx in range(n0):
        t2 = seed_mask & nonadj[idx]
        if t2.bit_count() > len(seed_sel):
            seed_sel.append(idx)
            seed_mask = t2
    best = min(len(seed_sel), seed_mask.bit_count())
    best_state = (seed_sel.copy(), seed_mask)

    sel: list[int] = []

    def search(cands: list[int], tmask: int, tcount: int) -> None:
        nonlocal best, best_state
        cur = min(len(sel), tcount)
        if cur > best:
            best = cur
            best_state = (sel.copy(), tmask)
        if len(sel) >= tcount:
            return
        if min(len(sel) + len(cands), tcount) <= best:
            return
        depth1 = len(sel) + 1
        for pos, idx in enumerate(cands):
            t2 = tmask & nonadj[idx]
            c2 = t2.bit_count()
            if c2 <= best or min(depth1 + len(cands) - pos - 1, c2) <= best:
                continue
            sel.append(idx)
            tail = [
                j for j in cands[pos + 1 :] if (t2 & nonadj[j]).bit_count() > best
            ]
            search(tail, t2, c2)
            sel.pop()

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


def reference_greedy_clique(adj: list[int], order: list[int]) -> list[int]:
    """The greedy seed of the reference search: a maximal clique grown
    from each of the first 16 vertices of ``order``, always taking the
    first vertex in ``order`` adjacent to everything chosen."""
    best: list[int] = []
    for start in order[: min(len(order), 16)]:
        clique = [start]
        cand = adj[start]
        while cand:
            v = next(u for u in order if cand >> u & 1)
            clique.append(v)
            cand &= adj[v]
        if len(clique) > len(best):
            best = clique
    return best


def reference_max_clique(adj: list[int]) -> tuple[int, list[int]]:
    """The clique search as it was before the k_min rule: every color
    class is listed, and the complement rows are taken per step.  Kept as
    the reference that the pair-graph route must match exactly."""
    orig_n = len(adj)
    if orig_n == 0:
        return 0, []
    order = sorted(range(orig_n), key=lambda v: (-adj[v].bit_count(), v))
    pos = [0] * orig_n
    for p, v in enumerate(order):
        pos[v] = p
    remapped = [0] * orig_n
    for v in range(orig_n):
        row = adj[v]
        acc = 0
        while row:
            low = row & -row
            acc |= 1 << pos[low.bit_length() - 1]
            row ^= low
        remapped[pos[v]] = acc
    adj = remapped

    best_clique = reference_greedy_clique(adj, list(range(orig_n)))
    best = len(best_clique)
    cur: list[int] = []

    def color_sort(cand: int) -> tuple[list[int], list[int]]:
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
                out_v.append(v)
                out_c.append(color)
                rest ^= low
                avail = (avail ^ low) & ~adj[v]
        return out_v, out_c

    def expand(cand: int) -> None:
        nonlocal best, best_clique
        out_v, out_c = color_sort(cand)
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

    expand((1 << orig_n) - 1)
    return best, sorted(order[p] for p in best_clique)


def reference_reduction(b: BipartiteGraph) -> tuple[int, list[int]]:
    """The reduction route with the reference clique search."""
    red = equi_reduction(b)
    full = (1 << red.graph.vertex_count) - 1
    complement = [full & ~row & ~(1 << v) for v, row in enumerate(red.graph.adj)]
    size, pair_set = reference_max_clique(complement)
    return 2 * size, unpack_pair_witness(red, pair_set)


def induced_cube_subgraph(n: int, m: int, rng: random.Random) -> BipartiteGraph:
    """A random m-vertex induced subgraph of Q_n, even vertices first and
    forming class 0, each class in increasing label order."""
    chosen = rng.sample(range(1 << n), m)
    even = sorted(v for v in chosen if v.bit_count() % 2 == 0)
    odd = sorted(v for v in chosen if v.bit_count() % 2 == 1)
    index = {v: k for k, v in enumerate(even + odd)}
    edges = [
        (index[v], index[v ^ (1 << i)])
        for v in even
        for i in range(n)
        if v ^ (1 << i) in index
    ]
    return BipartiteGraph(UndirectedGraph(m, edges), range(len(even)), range(len(even), m))


def layered_balanced_set(n: int, low_weights: set[int], high_weights: set[int]) -> list[int]:
    """All n-cube vertices whose Hamming weight lies in one of the two
    weight windows; distinct windows two or more apart give independence."""
    return [
        v
        for v in range(1 << n)
        if v.bit_count() in low_weights or v.bit_count() in high_weights
    ]


class TestMaxIndependentSet:
    def test_three_cube(self):
        size, witness = max_independent_set(hypercube_graph(3))
        assert size == 4
        assert is_independent(hypercube_graph(3), witness)
        assert len(witness) == 4

    def test_single_edge(self):
        size, witness = max_independent_set(UndirectedGraph(2, [(0, 1)]))
        assert size == 1 and len(witness) == 1

    def test_pair_graph_of_the_three_cube(self):
        red = equi_reduction(hypercube_bipartite(3))
        size, _ = max_independent_set(red.graph)
        assert size == 1

    def test_empty_and_edgeless(self):
        assert max_independent_set(UndirectedGraph(0)) == (0, [])
        size, witness = max_independent_set(UndirectedGraph(5))
        assert size == 5 and witness == [0, 1, 2, 3, 4]

    def test_path_and_cycle(self):
        path = UndirectedGraph(3, [(0, 1), (1, 2)])
        assert max_independent_set(path)[0] == 2
        c5 = UndirectedGraph(5, [(k, (k + 1) % 5) for k in range(5)])
        assert max_independent_set(c5)[0] == 2

    def test_petersen_graph(self):
        # outer 5-cycle 0..4, inner 5-star 5..9, spokes k -- k+5
        edges = (
            [(k, (k + 1) % 5) for k in range(5)]
            + [(5 + k, 5 + (k + 2) % 5) for k in range(5)]
            + [(k, k + 5) for k in range(5)]
        )
        g = UndirectedGraph(10, edges)
        size, witness = max_independent_set(g)
        assert size == 4
        assert is_independent(g, witness)

    def test_against_subset_oracle(self):
        rng = random.Random(424)
        for _ in range(150):
            n = rng.randint(0, 11)
            g = UndirectedGraph(n)
            for u, v in itertools.combinations(range(n), 2):
                if rng.random() < rng.choice((0.15, 0.4, 0.7)):
                    g.add_edge(u, v)
            size, witness = max_independent_set(g)
            assert size == brute_force_mis(g)
            assert is_independent(g, witness)
            assert len(witness) == size

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            max_independent_set(UndirectedGraph(5001))


class TestEquiReduction:
    def test_three_cube_pair_graph(self):
        red = equi_reduction(hypercube_bipartite(3))
        assert red.graph.vertex_count == 4
        assert red.graph.edge_count == 6  # every two pairs conflict
        assert set(red.pair_labels) == {(0, 7), (3, 4), (5, 2), (6, 1)}

    def test_pair_labels_are_cross_class_non_edges(self):
        b = hypercube_bipartite(4)
        red = equi_reduction(b)
        for u, v in red.pair_labels:
            assert u in b.class0 and v in b.class1
            assert not b.graph.has_edge(u, v)
        assert red.graph.vertex_count == 32

    def test_conflict_rule_by_hand(self):
        # one even vertex 0, two odd vertices 1 and 2, no edges at all:
        # pairs (0,1) and (0,2) share the even coordinate, so they conflict
        g = UndirectedGraph(3)
        b = BipartiteGraph(g, [0], [1, 2])
        red = equi_reduction(b)
        assert red.graph.vertex_count == 2
        assert red.graph.edge_count == 1

    def test_cross_edge_conflicts(self):
        # evens 0,1; odds 2,3; one edge 0-3: pairs (0,2) and (1,3) conflict
        # through that edge even though they share no coordinate
        g = UndirectedGraph(4, [(0, 3)])
        b = BipartiteGraph(g, [0, 1], [2, 3])
        red = equi_reduction(b)
        labels = dict(enumerate(red.pair_labels))
        k02 = next(k for k, lab in labels.items() if lab == (0, 2))
        k13 = next(k for k, lab in labels.items() if lab == (1, 3))
        assert red.graph.has_edge(k02, k13)

    def test_complete_bipartite_reduces_to_nothing(self):
        g = UndirectedGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        b = BipartiteGraph(g, [0, 1], [2, 3])
        assert equi_reduction(b).graph.vertex_count == 0

    def test_a_pair_graph_above_the_cap_is_refused_before_any_row(self):
        # an edgeless 71 + 71 graph has 5,041 pairs, one over the cap
        b = BipartiteGraph(UndirectedGraph(142), range(71), range(71, 142))
        with pytest.raises(SizeLimitExceeded, match="^5041 vertices exceeds the solver cap 5000$"):
            equi_reduction(rowless(b))

    def test_rows_follow_the_conflict_rule(self):
        # reference: compare every pair with every other pair
        rng = random.Random(77)
        graphs = [hypercube_bipartite(n) for n in range(1, 7)]
        for _ in range(60):
            size = rng.randint(0, 16)
            side = [rng.randrange(2) for _ in range(size)]
            p = rng.random()
            g = UndirectedGraph(size)
            for u, v in itertools.combinations(range(size), 2):
                if side[u] != side[v] and rng.random() < p:
                    g.add_edge(u, v)
            graphs.append(
                BipartiteGraph(
                    g,
                    [v for v in range(size) if side[v] == 0],
                    [v for v in range(size) if side[v] == 1],
                )
            )
        assert any(b.class0 != tuple(range(len(b.class0))) for b in graphs)
        for b in graphs:
            adj = b.graph.adj
            pairs = [
                (u, v) for u in b.class0 for v in b.class1 if not adj[u] >> v & 1
            ]
            red = equi_reduction(b)
            assert red.pair_labels == tuple(pairs)
            assert red.graph.vertex_count == len(pairs)
            for k, (u0, u1) in enumerate(pairs):
                row = 0
                for m, (v0, v1) in enumerate(pairs):
                    if m != k and (
                        u0 == v0 or u1 == v1 or adj[u0] >> v1 & 1 or adj[u1] >> v0 & 1
                    ):
                        row |= 1 << m
                assert red.graph.adj[k] == row, (b.class0, k)


def scattered_bipartite(rng: random.Random, size: int, density: float) -> BipartiteGraph:
    """A random bipartite graph whose vertices join either class at random,
    so neither class is a contiguous label range (or either may be empty)."""
    side = [rng.randrange(2) for _ in range(size)]
    g = UndirectedGraph(size)
    for u, v in itertools.combinations(range(size), 2):
        if side[u] != side[v] and rng.random() < density:
            g.add_edge(u, v)
    return BipartiteGraph(
        g, [v for v in range(size) if side[v] == 0], [v for v in range(size) if side[v] == 1]
    )


def degree_rule(b: BipartiteGraph) -> list[int]:
    """Each pair's degree in ``equi_reduction(b).graph``, in its order, by
    the rule ``cube_pair_graph_size`` specialises to the cube: pair (u, v)
    has degree |C_u| + |C_v| - |C_u ∩ C_v| - 1.  C_w holds the pairs at w
    and those whose other coordinate is a neighbour of w; C_u ∩ C_v holds
    (u, v) itself and the pairs of N(v) x N(u) that are not edges."""
    adj = b.graph.adj
    nbrs = [[x for x in range(b.vertex_count) if row >> x & 1] for row in adj]
    at = [0] * b.vertex_count  # the pairs with w as a coordinate
    for side, other in ((b.class0, len(b.class1)), (b.class1, len(b.class0))):
        for w in side:
            at[w] = other - len(nbrs[w])
    reach = [at[w] + sum(at[x] for x in nbrs[w]) for w in range(b.vertex_count)]
    degrees = []
    for u in b.class0:
        for v in b.class1:
            if adj[u] >> v & 1:
                continue
            cross = sum((adj[y] & adj[u]).bit_count() for y in nbrs[v])
            shared = 1 + len(nbrs[u]) * len(nbrs[v]) - cross
            degrees.append(reach[u] + reach[v] - shared - 1)
    return degrees


class TestPairGraphSize:
    """The closed form counts what ``equi_reduction`` builds, and the degree
    rule it is derived from holds on any bipartite graph."""

    @staticmethod
    def built_degrees(b: BipartiteGraph) -> list[int]:
        return [row.bit_count() for row in equi_reduction(b).graph.adj]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_hypercubes(self, monkeypatch, n):
        # the 8-cube's 15,360 pairs are over the solver cap that
        # equi_reduction enforces, and this count needs them built
        monkeypatch.setattr("qube.graphs.MAX_SOLVER_VERTICES", 15360)
        g = equi_reduction(hypercube_bipartite(n)).graph
        assert cube_pair_graph_size(n) == (g.vertex_count, g.edge_count)

    def test_hypercube_values(self):
        sizes = [cube_pair_graph_size(n) for n in range(3, 9)]
        assert sizes == [(4, 6), (32, 448), (176, 9720), (832, 137536),
                         (3648, 1577184), (15360, 16103424)]

    def test_values_past_the_built_graphs(self):
        # what a count over the built cube's pairs and rows gave; the pair
        # graphs themselves take hundreds of MB and more to build
        assert cube_pair_graph_size(9) == (63232, 153623424)
        assert cube_pair_graph_size(10) == (257024, 1406362624)

    @pytest.mark.parametrize("density", [k / 10 for k in range(1, 10)])
    def test_random_bipartite_graphs(self, density):
        rng = random.Random(3000 + round(density * 10))
        for _ in range(170):
            b = scattered_bipartite(rng, rng.randint(0, 24), density)
            assert self.built_degrees(b) == degree_rule(b), (b.class0, b.class1)

    @pytest.mark.parametrize(
        "n0,n1,edges",
        [(0, 0, ()), (0, 5, ()), (4, 0, ()), (3, 5, ()), (6, 2, ()),
         (3, 4, tuple(itertools.product(range(3), range(3, 7)))),
         (2, 2, ((0, 2),))],
        ids=["empty", "no-class-0", "no-class-1", "edgeless", "edgeless-wide",
             "complete", "one-edge"],
    )
    def test_extreme_graphs(self, n0, n1, edges):
        b = BipartiteGraph(UndirectedGraph(n0 + n1, edges), range(n0), range(n0, n0 + n1))
        assert self.built_degrees(b) == degree_rule(b)
        if not edges:
            # pairs conflict only on a shared coordinate: each of the
            # n0 * n1 pairs meets n1 - 1 others on u and n0 - 1 on v
            assert self.built_degrees(b) == [n0 + n1 - 2] * (n0 * n1)


class TestEquiIndependence:
    def test_hypercubes_both_methods(self):
        for n, expected in ((3, 2), (4, 4), (5, 10)):
            b = hypercube_bipartite(n)
            for method in ("direct", "reduction"):
                size, witness = equi_independence(b, method=method)
                assert size == expected, (n, method)
                assert is_independent(b.graph, witness)
                assert is_balanced(b, witness)
                assert len(witness) == size

    def test_caps_refuse_an_unknown_method(self):
        with pytest.raises(ValueError, match="^unknown method 'greedy'$"):
            check_hypercube_caps(3, "greedy")

    def test_six_cube_direct(self):
        b = hypercube_bipartite(6)
        size, witness = equi_independence(b, method="direct")
        assert size == 20
        assert is_independent(b.graph, witness)
        assert is_balanced(b, witness)

    @pytest.mark.skipif(
        not os.environ.get("QUBE_ACCEPTANCE_FULL"),
        reason="solves the 832-vertex pair graph: about 45 s (QUBE_ACCEPTANCE_FULL=1)",
    )
    def test_six_cube_reduction(self):
        # REDUCTION_MAX_N caps only `equiind --hypercube` and table 1
        b = hypercube_bipartite(6)
        size, witness = equi_independence(b, method="reduction")
        assert size == len(witness) == 20
        assert is_independent(b.graph, witness)
        assert is_balanced(b, witness)

    def test_six_cube_layered_witness_is_maximal(self):
        # evens: the empty set and the 2-sets meeting {0,1}; odds: the
        # 3-sets inside {2,3,4,5} and all 5-sets -- ten of each
        evens = [0] + [
            (1 << i) | (1 << j)
            for i in range(6)
            for j in range(i + 1, 6)
            if i < 2 or j < 2
        ]
        odds = [
            sum(1 << i for i in combo)
            for combo in itertools.combinations((2, 3, 4, 5), 3)
        ] + [((1 << 6) - 1) ^ (1 << i) for i in range(6)]
        witness = evens + odds
        assert len(witness) == 20
        b = hypercube_bipartite(6)
        assert is_independent(b.graph, witness)
        assert is_balanced(b, witness)
        assert is_maximal_independent(b.graph, witness)

    def test_seven_cube_layered_witness(self):
        # weights {0,2} on the even side, {5,7} on the odd side: 44 vertices
        witness = layered_balanced_set(7, {0, 2}, {5, 7})
        assert len(witness) == 44
        b = hypercube_bipartite(7)
        assert is_independent(b.graph, witness)
        assert is_balanced(b, witness)

    def test_methods_agree_on_random_graphs(self):
        rng = random.Random(88)
        for _ in range(120):
            b = random_bipartite(rng, max_vertices=12)
            direct_size, direct_witness = equi_independence(b, "direct")
            red_size, red_witness = equi_independence(b, "reduction")
            assert direct_size == red_size
            for witness in (direct_witness, red_witness):
                assert len(witness) == direct_size
                assert is_independent(b.graph, witness)
                assert is_balanced(b, witness)

    def test_reduction_checks_the_cap_before_building_the_pair_graph(self):
        # Q_9 has 256 * 256 - 2304 = 63232 pairs; building them takes
        # seconds and hundreds of MB, so the cap must be checked before
        # any row of the graph is read
        with pytest.raises(SizeLimitExceeded, match="63232 vertices exceeds the solver cap 5000"):
            equi_independence(rowless(hypercube_bipartite(9)), method="reduction")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            equi_independence(hypercube_bipartite(3), method="guess")

    @pytest.mark.parametrize(
        "method,name,fake",
        [
            ("direct", "_direct_balanced", lambda b: (2, [0, 1])),
            ("reduction", "unpack_pair_witness", lambda red, pairs: [0, 1]),
        ],
        ids=["direct", "reduction"],
    )
    def test_an_invalid_witness_is_caught(self, monkeypatch, method, name, fake):
        # 0 and 1 are adjacent in the 3-cube: balanced, but not independent
        monkeypatch.setattr(f"qube.independence.{name}", fake)
        with pytest.raises(RuntimeError, match="invalid witness"):
            equi_independence(hypercube_bipartite(3), method=method)


class TestDirectSearchMatchesTheReference:
    """The König matching bound only cuts subtrees that cannot beat the
    incumbent, so the direct search must return the reference's size and
    witness exactly, not just an equally large set."""

    @pytest.mark.parametrize("n,m,count", [(6, 56, 30), (7, 48, 30), (6, 20, 60)])
    def test_induced_cube_subgraphs(self, n, m, count):
        rng = random.Random(20261018 + m)
        for _ in range(count):
            b = induced_cube_subgraph(n, m, rng)
            assert equi_independence(b, "direct") == reference_direct_balanced(b)

    @pytest.mark.parametrize("density", [0.1, 0.4, 0.75])
    def test_random_bipartite_graphs(self, density):
        rng = random.Random(int(density * 100))
        for _ in range(300):
            b = random_bipartite(rng, max_vertices=28, density=density)
            assert equi_independence(b, "direct") == reference_direct_balanced(b)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_hypercubes(self, n):
        b = hypercube_bipartite(n)
        assert equi_independence(b, "direct") == reference_direct_balanced(b)

    @pytest.mark.parametrize("n0,n1", [(1, 1), (1, 4), (3, 5), (5, 3), (12, 15), (16, 9)])
    def test_edgeless_graphs(self, n0, n1):
        # with no edge, every forward check keeps its whole tail unfiltered
        b = BipartiteGraph(UndirectedGraph(n0 + n1), range(n0), range(n0, n0 + n1))
        result = equi_independence(b, "direct")
        assert result == reference_direct_balanced(b)
        assert result[0] == 2 * min(n0, n1)

    @pytest.mark.parametrize("n,m", [(6, 40), (7, 48)])
    def test_graphs_whose_class_one_is_smaller(self, n, m):
        # the search branches over class 1 then, and relabels class 0
        rng = random.Random(29 + m)
        checked = 0
        while checked < 25:
            b = induced_cube_subgraph(n, m, rng)
            small, large = sorted((b.class0, b.class1), key=len)
            if len(small) == len(large):
                continue
            b = BipartiteGraph(b.graph, large, small)
            assert equi_independence(b, "direct") == reference_direct_balanced(b)
            checked += 1

    def test_direct_equals_reduction_on_induced_subgraphs(self):
        rng = random.Random(404)
        for k in range(12):
            b = induced_cube_subgraph(6, 20 + k % 5, rng)
            assert equi_independence(b, "direct")[0] == equi_independence(b, "reduction")[0]


class TestReductionMatchesTheReference:
    """The k_min rule only leaves out color classes that the clique search
    would never branch on, so the reduction route must return the
    reference's size and witness exactly.  A pair graph of the Q7 shape
    with 48 vertices did not solve in two minutes, so only the 20-vertex
    workload shape is swept here."""

    def test_induced_cube_subgraphs(self):
        rng = random.Random(20261018)
        for _ in range(80):
            b = induced_cube_subgraph(6, 20, rng)
            assert equi_independence(b, "reduction") == reference_reduction(b)

    @pytest.mark.parametrize("density", [0.1, 0.4, 0.75])
    def test_random_bipartite_graphs(self, density):
        rng = random.Random(int(density * 100) + 1)
        for _ in range(100):
            b = random_bipartite(rng, max_vertices=22, density=density)
            assert equi_independence(b, "reduction") == reference_reduction(b)

    @pytest.mark.parametrize("n", range(3, 6))
    def test_hypercubes(self, n):
        b = hypercube_bipartite(n)
        assert equi_independence(b, "reduction") == reference_reduction(b)


def relabel_by_bits(row: int, source: list[int]) -> int:
    """Oracle for ``_permute_rows``: move each set bit of ``row`` to its
    position in ``source``, one bit at a time."""
    pos = {w: p for p, w in enumerate(source)}
    acc = 0
    while row:
        low = row & -row
        acc |= 1 << pos[low.bit_length() - 1]
        row ^= low
    return acc


class TestPermuteRows:
    """``_permute_rows`` against the bit-by-bit relabel it replaced."""

    def test_one_vertex(self):
        # itemgetter of a single index returns a str, not a tuple
        assert independence._permute_rows([0, 1], [0], 1) == [0, 1]
        assert max_independent_set(UndirectedGraph(1)) == (1, [0])
        assert max_independent_set(UndirectedGraph(1), pairs=[(0, 1)]) == (1, [0])

    def test_no_rows(self):
        assert independence._permute_rows([], [2, 0, 1], 3) == []

    def test_all_zero_rows(self):
        for width in (1, 2, 7, 64, 65, 200):
            source = list(range(width))[::-1]
            assert independence._permute_rows([0] * 3, source, width) == [0] * 3

    def test_random_permutations(self):
        rng = random.Random(61)
        for _ in range(300):
            width = rng.randint(1, 90)
            source = rng.sample(range(width), width)
            rows = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(4)]
            rows.append((1 << width) - 1)
            expected = [relabel_by_bits(row, source) for row in rows]
            assert independence._permute_rows(rows, source, width) == expected


class TestPairLabels:
    """Given a pair graph's labels, ``max_independent_set`` cuts by the
    cliques of pairs at each coordinate and skips re-paired twins, and
    both only cut nodes that cannot beat the incumbent: with labels or
    without, the size and the witness are the same."""

    @pytest.mark.parametrize(
        "instances",
        [lambda: [hypercube_bipartite(n) for n in range(3, 6)],
         lambda: induced_cube_subgraphs(6, 20, 40),
         lambda: [hypercube_bipartite(n) for n in range(1, 3)],
         lambda: induced_cube_subgraphs(6, 24, 60),
         lambda: scattered_bipartites(67, 300, 16),
         lambda: [random_bipartite(random.Random(68), max_vertices=14) for _ in range(60)]],
        ids=["Q3-Q5", "Q6-20", "Q1-Q2", "Q6-24", "scattered", "random"],
    )
    def test_pair_graphs(self, instances):
        for b in instances():
            red = equi_reduction(b)
            assert max_independent_set(red.graph, pairs=red.pair_labels) == max_independent_set(red.graph)

    @pytest.mark.parametrize(
        "instances",
        [lambda: [hypercube_bipartite(n) for n in range(3, 6)],
         lambda: induced_cube_subgraphs(6, 20, 10),
         lambda: induced_cube_subgraphs(6, 24, 10)],
        ids=["Q3-Q5", "Q6-20", "Q6-24"],
    )
    def test_labels_cut_nodes(self, instances):
        reds = [equi_reduction(b) for b in instances()]
        plain = nested_calls(independence.max_independent_set, "expand",
                             [{"g": red.graph} for red in reds])
        labelled = nested_calls(independence.max_independent_set, "expand",
                                [{"g": red.graph, "pairs": red.pair_labels} for red in reds])
        assert labelled < plain

    def test_against_subset_oracle(self):
        rng = random.Random(64)
        checked = 0
        while checked < 100:
            red = equi_reduction(random_bipartite(rng, max_vertices=10))
            if red.graph.vertex_count > 16:
                continue
            size, witness = max_independent_set(red.graph, pairs=red.pair_labels)
            assert size == brute_force_mis(red.graph) == len(witness)
            assert is_independent(red.graph, witness)
            checked += 1

    def test_no_cover_cut_below_kmin_two(self, monkeypatch):
        # with the greedy seed, no pair graph in a hunt over 39,788 random
        # ones reached kmin <= 0 (cur longer than the incumbent); without
        # it, such nodes are common, and a cover cut there would lose
        # the size
        monkeypatch.setattr(independence, "_greedy_clique", lambda adj: [])
        graphs = [hypercube_bipartite(n) for n in range(3, 6)]
        for b in graphs + scattered_bipartites(67, 300, 16):
            red = equi_reduction(b)
            assert max_independent_set(red.graph, pairs=red.pair_labels) == max_independent_set(red.graph)

    def test_pair_labels_of_another_graph_are_refused(self):
        # the rule's twins exist only in a pair graph, so other labels or
        # another graph would let it skip optimal sets
        red = equi_reduction(hypercube_bipartite(3))  # 4 pairs, all in conflict
        labels = red.pair_labels
        with pytest.raises(ValueError, match="one distinct pair per vertex"):
            max_independent_set(red.graph, pairs=labels[:3])
        with pytest.raises(ValueError, match="one distinct pair per vertex"):
            max_independent_set(red.graph, pairs=labels[:3] + labels[:1])
        with pytest.raises(ValueError, match="one distinct pair per vertex"):
            max_independent_set(UndirectedGraph(0), pairs=labels[:1])
        for g in (UndirectedGraph(4), hypercube_graph(2), UndirectedGraph(4, [(0, 1)])):
            with pytest.raises(ValueError, match="not the pair graph of its labels"):
                max_independent_set(g, pairs=labels)
        # the edgeless 2+2 graph's pairs (0, 2), (0, 3), (1, 2), (1, 3) form
        # a 4-cycle; relabelling the last as (2, 3) breaks the conflict rule
        free = equi_reduction(BipartiteGraph(UndirectedGraph(4), [0, 1], [2, 3]))
        assert max_independent_set(free.graph, pairs=free.pair_labels)[0] == 2
        with pytest.raises(ValueError, match="not the pair graph of its labels"):
            max_independent_set(free.graph, pairs=[(0, 2), (0, 3), (1, 2), (2, 3)])

    @pytest.mark.parametrize(
        "change",
        [lambda edges, labels: (edges - {(0, 1)}, labels),
         lambda edges, labels: (edges | {(0, 19)}, labels),
         lambda edges, labels: (edges, [labels[19]] + labels[1:19] + [labels[0]] + labels[20:])],
        ids=["edge-dropped", "edge-added", "labels-swapped"],
    )
    def test_a_changed_pair_graph_is_refused(self, change):
        # the Q4 pair graph has 32 pairs; pair 0 meets 1 and misses 19.
        # The check runs in the search's labels, after the relabelling
        # by degree, and still finds the one changed row
        red = equi_reduction(hypercube_bipartite(4))
        g = red.graph
        edges = {(u, v) for u in range(g.vertex_count) for v in range(u + 1, g.vertex_count)
                 if g.adj[u] >> v & 1}
        assert (0, 1) in edges and (0, 19) not in edges
        edges, labels = change(edges, list(red.pair_labels))
        with pytest.raises(ValueError, match="not the pair graph of its labels"):
            max_independent_set(UndirectedGraph(g.vertex_count, sorted(edges)), pairs=labels)

    @pytest.mark.parametrize("side", [0, 1])
    def test_endpoint_cliques(self, side):
        # the Q4 pair graph: 8 cliques of 4 pairs per class, one per
        # vertex of that class, disjoint and covering every pair
        red = equi_reduction(hypercube_bipartite(4))
        g = red.graph
        masks = list(independence._pairs_at(g.adj, red.pair_labels)[side].values())
        assert sorted(mask.bit_count() for mask in masks) == [4] * 8
        assert sum(masks) == (1 << g.vertex_count) - 1
        for mask in masks:
            members = [k for k in range(g.vertex_count) if mask >> k & 1]
            assert len({red.pair_labels[k][side] for k in members}) == 1
            for a, c in itertools.combinations(members, 2):
                assert g.adj[a] >> c & 1

    def test_endpoint_cliques_group_the_pairs_by_endpoint(self):
        # a vertex with no pair gets no clique
        rng = random.Random(66)
        graphs = [hypercube_bipartite(n) for n in range(1, 6)]
        graphs += [random_bipartite(rng, max_vertices=14) for _ in range(60)]
        for b in graphs:
            red = equi_reduction(b)
            found = independence._pairs_at(red.graph.adj, red.pair_labels)
            for side in (0, 1):
                at: dict[int, int] = {}
                for k, pair in enumerate(red.pair_labels):
                    at[pair[side]] = at.get(pair[side], 0) | 1 << k
                assert found[side] == at


def nested_calls(func, name: str, calls: list[dict]) -> int:
    """How many times the function ``name`` defined inside ``func`` is
    entered while ``func`` runs once on each keyword-argument dict of
    ``calls``, counted by a profile hook on its code object."""
    code = next(
        c for c in func.__code__.co_consts
        if isinstance(c, types.CodeType) and c.co_name == name
    )
    entered = 0

    def hook(frame, event, arg):
        nonlocal entered
        if event == "call" and frame.f_code is code:
            entered += 1

    sys.setprofile(hook)
    try:
        for kwargs in calls:
            func(**kwargs)
    finally:
        sys.setprofile(None)
    return entered


def induced_cube_subgraphs(n: int, m: int, count: int) -> list[BipartiteGraph]:
    rng = random.Random(m)
    return [induced_cube_subgraph(n, m, rng) for _ in range(count)]


def scattered_bipartites(seed: int, count: int, max_size: int) -> list[BipartiteGraph]:
    """Seeded ``scattered_bipartite`` graphs of 0..max_size vertices at
    mixed densities, so some have an empty class or no vertex at all."""
    rng = random.Random(seed)
    return [
        scattered_bipartite(rng, rng.randint(0, max_size), rng.choice((0.1, 0.3, 0.5, 0.8)))
        for _ in range(count)
    ]


class TestSearchNodeCeilings:
    """Both exact searches visit at most as many nodes on fixed instances as
    they did when these ceilings were recorded.  A change that only weakens
    a bound keeps every size and witness, so only a node count shows it:
    taking the unfiltered tail of ``_direct_balanced`` also at
    ``slack == maxdeg`` visits 1,506 nodes on the cubes and 13,011 on the
    Q6-56 graphs, and branching ``max_independent_set`` also on the colour
    classes that can only tie visits 26,047 on the Q6-20 pair graphs.
    Given the pair labels, as the reduction route passes them, the cover
    cut and the pair-swap rule take the cube pair graphs from 1,183
    nodes to 627 and the Q6-20 ones from 25,890 to 3,298.  The labelled
    ceilings catch the loss of either: without the cover cut the search
    visits 662 and 6,369 nodes, and without the pair-swap rule 1,183 and
    18,950."""

    @pytest.mark.parametrize(
        "instances,ceiling",
        [(lambda: [hypercube_bipartite(n) for n in range(3, 7)], 1270),
         (lambda: induced_cube_subgraphs(6, 56, 40), 12186),
         (lambda: induced_cube_subgraphs(7, 48, 40), 4335),
         (lambda: induced_cube_subgraphs(6, 20, 40), 248)],
        ids=["Q3-Q6", "Q6-56", "Q7-48", "Q6-20"],
    )
    def test_direct_balanced_search(self, instances, ceiling):
        calls = [{"b": b} for b in instances()]
        nodes = nested_calls(independence._direct_balanced, "search", calls)
        assert 0 < nodes <= ceiling

    @pytest.mark.parametrize(
        "instances,ceiling",
        [(lambda: [hypercube_bipartite(n) for n in range(3, 6)], 1183),
         (lambda: induced_cube_subgraphs(6, 20, 40), 25890)],
        ids=["Q3-Q5", "Q6-20"],
    )
    def test_clique_search_on_pair_graphs(self, instances, ceiling):
        calls = [{"g": equi_reduction(b).graph} for b in instances()]
        nodes = nested_calls(independence.max_independent_set, "expand", calls)
        assert 0 < nodes <= ceiling

    @pytest.mark.parametrize(
        "instances,ceiling",
        [(lambda: [hypercube_bipartite(n) for n in range(3, 6)], 627),
         (lambda: induced_cube_subgraphs(6, 20, 40), 3298)],
        ids=["Q3-Q5", "Q6-20"],
    )
    def test_clique_search_with_endpoint_covers(self, instances, ceiling):
        # the route equi_independence(method="reduction") takes: the pair
        # labels, whose coordinate classes are the endpoint cliques
        reds = [equi_reduction(b) for b in instances()]
        calls = [{"g": red.graph, "pairs": red.pair_labels} for red in reds]
        nodes = nested_calls(independence.max_independent_set, "expand", calls)
        assert 0 < nodes <= ceiling


class TestDirectWitnessPins:
    """The direct route's size and witness on fixed instances, one sha256
    of their JSON list per set, as recorded before the forward check and
    the König matching of ``_direct_balanced`` stopped at the first
    certain cut.  The early stops must decide each cut as the full pass
    did; one that stops a step too soon cuts a child that could still
    improve the incumbent, which moves a size or a witness here."""

    @pytest.mark.parametrize(
        "instances,digest",
        [(lambda: induced_cube_subgraphs(6, 56, 40),
          "21103bf8e92e38cf6349f566a9c858ab8b3ade10ccdd08c8f96e62452499b4c2"),
         (lambda: induced_cube_subgraphs(7, 48, 40),
          "8de606b082621a04619180eefe0bd7d8482ea85fb774e64f74bb4b5ce8c8f4db"),
         (lambda: induced_cube_subgraphs(6, 20, 40),
          "bc859872e24cb53eae68e89049c35233891e08329aef82b966c9872b9e60ec3b"),
         (lambda: [hypercube_bipartite(n) for n in range(1, 7)],
          "8b04f9ccf8fce6daeb2c8421beca4bb0b6c25b88eba5a7f028d204538d5bd5a9")],
        ids=["Q6-56", "Q7-48", "Q6-20", "Q1-Q6"],
    )
    def test_direct_witnesses(self, instances, digest):
        solved = [list(equi_independence(b, "direct")) for b in instances()]
        assert hashlib.sha256(json.dumps(solved).encode()).hexdigest() == digest


class TestDirectLayouts:
    """``_direct_balanced`` reads each class in label order, so it runs the
    same search whether a class is one run of labels or interleaved with
    the other.  ``format_bipartite`` relabels the classes to contiguous
    runs, keeping each class's order; the cube's parity classes and
    ``scattered_bipartite``'s random ones are interleaved."""

    @pytest.mark.parametrize(
        "instances",
        [lambda: [hypercube_bipartite(n) for n in range(1, 7)],
         lambda: scattered_bipartites(47, 150, 22)],
        ids=["Q1-Q6", "scattered"],
    )
    def test_contiguous_relabelling_runs_the_same_search(self, instances):
        for b in instances():
            order = b.class0 + b.class1
            runs = parse_bipartite(format_bipartite(b))
            size, witness = equi_independence(b, "direct")
            run_size, run_witness = equi_independence(runs, "direct")
            assert run_size == size
            assert sorted(order[k] for k in run_witness) == witness
            assert nested_calls(independence._direct_balanced, "search", [{"b": runs}]) == (
                nested_calls(independence._direct_balanced, "search", [{"b": b}])
            )


class TestBruteForceEqui:
    def test_three_cube(self):
        assert brute_force_equi(hypercube_bipartite(3)) == 2

    def test_path_has_no_balanced_pair(self):
        g = UndirectedGraph(3, [(0, 1), (1, 2)])
        b = BipartiteGraph(g, [0, 2], [1])
        assert brute_force_equi(b) == 0

    def test_agrees_with_both_solvers(self):
        rng = random.Random(4242)
        for _ in range(120):
            b = random_bipartite(rng, max_vertices=11)
            expected = brute_force_equi(b)
            assert equi_independence(b, "direct")[0] == expected
            assert equi_independence(b, "reduction")[0] == expected

    def test_size_cap(self):
        g = UndirectedGraph(21)
        b = BipartiteGraph(g, range(10), range(10, 21))
        with pytest.raises(SizeLimitExceeded):
            brute_force_equi(b)


class TestUnpackPairWitness:
    def test_unpack(self):
        b = hypercube_bipartite(4)
        red = equi_reduction(b)
        size, pair_set = max_independent_set(red.graph)
        witness = unpack_pair_witness(red, pair_set)
        assert len(witness) == 2 * size == 4
        assert is_independent(b.graph, witness)
        assert is_balanced(b, witness)


class TestLowerBoundSet:
    def test_hand_checked_small_sets(self):
        assert lower_bound_set(3) == [0, 7]
        assert lower_bound_set(4) == [0, 7, 11, 12]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_valid_balanced_maximal_of_quarter_order(self, n):
        s = lower_bound_set(n)
        assert len(s) == 1 << (n - 2)
        g = hypercube_graph(n)
        b = hypercube_bipartite(n)
        assert is_independent(g, s)
        assert is_balanced(b, s)
        assert is_maximal_independent(g, s)

    def test_needs_three_dimensions(self):
        with pytest.raises(ValueError):
            lower_bound_set(2)
