"""Exact independence solvers: maximum independent set, the pair-graph
reduction, the direct balanced search, and the brute-force oracle."""

import itertools
import random

import pytest

from qube.graphs import (
    BipartiteGraph,
    UndirectedGraph,
    hypercube_bipartite,
    hypercube_graph,
    is_balanced,
    is_independent,
    is_maximal_independent,
)
from qube.independence import (
    SizeLimitExceeded,
    brute_force_equi,
    equi_independence,
    equi_reduction,
    lower_bound_set,
    max_independent_set,
    unpack_pair_witness,
)

from test_graphs import random_bipartite


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

    def test_six_cube_direct(self):
        b = hypercube_bipartite(6)
        size, witness = equi_independence(b, method="direct")
        assert size == 20
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

    def test_reduction_checks_the_cap_before_building_the_pair_graph(self, monkeypatch):
        # Q_9 has 256 * 256 - 2304 = 63232 pairs; building them takes
        # seconds and hundreds of MB, so the cap must be checked first
        def no_build(b):
            raise AssertionError("the pair graph was built")

        monkeypatch.setattr("qube.independence.equi_reduction", no_build)
        with pytest.raises(SizeLimitExceeded, match="63232 vertices exceeds the solver cap 5000"):
            equi_independence(hypercube_bipartite(9), method="reduction")

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
