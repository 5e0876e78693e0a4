"""Exhaustive cycle enumeration, work splitting, and randomized sampling."""

import hashlib
import itertools
import os
import random
import subprocess
import sys

import pytest

from qube import enumeration, hypercube
from qube.cycles import HamiltonianCycle, validate_cycle
from qube.enumeration import (
    MAX_CONSECUTIVE_FAILURES,
    PruneConfig,
    attempt_budget,
    count_cycles,
    enumerate_cycles,
    path_prefixes,
    read_prefixes,
    sample_cycles,
    write_prefixes,
)
from qube.hypercube import edge_dim, edge_rows, gray_code, parity_excluding

from conftest import edge_set_of

ALL_PRUNE_CONFIGS = [PruneConfig.all(), PruneConfig.none()]


def canonical_form(h: HamiltonianCycle) -> HamiltonianCycle:
    """The oracle of the stream's canonical form: the unique representative
    among all rotations and reflections, which starts at vertex 0 and whose
    first edge's dimension is smaller than its last edge's dimension."""
    rot = h.rotated(h.seq.index(0))
    first = edge_dim(rot.seq[0], rot.seq[1])
    last = edge_dim(rot.seq[-1], rot.seq[0])
    return rot if first < last else rot.reversed_cycle()


def brute_force_cycle_edge_sets(n: int) -> set[frozenset[frozenset[int]]]:
    """Independent oracle: try every vertex order starting at 0 and keep
    the distinct undirected edge sets.  Only usable for the 3-cube."""
    size = 1 << n
    out = set()
    for perm in itertools.permutations(range(1, size)):
        seq = (0,) + perm
        if all(
            (seq[k] ^ seq[(k + 1) % size]).bit_count() == 1 for k in range(size)
        ):
            out.add(
                frozenset(
                    frozenset((seq[k], seq[(k + 1) % size])) for k in range(size)
                )
            )
    return out


class TestCanonicalForm:
    def test_fixed_point_on_emitted_cycles(self, q3_cycles):
        for h in q3_cycles:
            assert canonical_form(h) == h

    def test_rotations_and_reflections_collapse(self, q3_cycles):
        h = q3_cycles[2]
        for k in range(len(h.seq)):
            rot = h.rotated(k)
            assert canonical_form(rot) == h
            assert canonical_form(rot.reversed_cycle()) == h

    def test_contract(self, q4_cycles):
        for h in q4_cycles[:100]:
            assert h.seq[0] == 0
            first = edge_dim(h.seq[0], h.seq[1])
            last = edge_dim(h.seq[-1], h.seq[0])
            assert first < last


class TestEnumerate:
    def test_counts(self):
        assert count_cycles(2) == 1
        assert count_cycles(3) == 6

    def test_two_cube_cycle(self):
        cycles = list(enumerate_cycles(2))
        assert len(cycles) == 1
        assert cycles[0].seq == (0, 1, 3, 2)

    def test_emitted_cycles_validate(self, q4_cycles):
        assert len(q4_cycles) == 1344
        for h in q4_cycles[:200]:
            validate_cycle(h.n, h.seq)

    def test_no_duplicates(self, q4_cycles):
        assert len({h.seq for h in q4_cycles}) == 1344
        assert len({edge_set_of(h) for h in q4_cycles}) == 1344

    def test_against_permutation_oracle(self, q3_cycles):
        assert {edge_set_of(h) for h in q3_cycles} == brute_force_cycle_edge_sets(3)

    def test_prunes_never_change_the_output(self):
        for n in (2, 3):
            pruned = [h.seq for h in enumerate_cycles(n, PruneConfig.all())]
            plain = [h.seq for h in enumerate_cycles(n, PruneConfig.none())]
            assert pruned == plain, n  # same cycles, same order

    @pytest.mark.parametrize("cfg", ALL_PRUNE_CONFIGS)
    def test_q4_stream_is_the_same_under_every_prune_config(self, cfg, q4_cycles):
        assert [h.seq for h in enumerate_cycles(4, cfg)] == [h.seq for h in q4_cycles]

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            list(enumerate_cycles(1))
        with pytest.raises(ValueError):
            list(enumerate_cycles(0))
        with pytest.raises(ValueError, match="2 <= n <= 16"):
            next(enumerate_cycles(17))
        # enumeration keeps its own range, larger than the sampler's
        enumeration.check_search_args(16, [0, 1, 3])

    @pytest.mark.parametrize("n", [7, 10, 12])
    def test_first_cycle_of_a_large_cube(self, monkeypatch, n):
        # the search keeps its own stack, so the path depth 2^n is no limit;
        # the walk that always takes the lowest free dimension is the
        # reflected Gray code, which closes, so it is the first cycle and is
        # found without a retreat; the push bound makes a search that cuts
        # wrongly fail here instead of running without end
        h, count = pushes(monkeypatch, lambda: next(enumerate_cycles(n)), limit=1 << n)
        assert count == (1 << n) - 2
        validate_cycle(h.n, h.seq)
        assert canonical_form(h) == h
        assert h.seq == tuple(gray_code(n))


class TestPrefixSplitting:
    def test_prefix_counts(self):
        assert len(path_prefixes(3, 1)) == 3
        assert len(path_prefixes(3, 2)) == 6
        assert len(path_prefixes(4, 2)) == 12

    def test_union_reproduces_the_sequential_stream(self, q3_cycles):
        merged = [
            h
            for p in path_prefixes(3, 2)
            for h in enumerate_cycles(3, prefix=p)
        ]
        assert merged == q3_cycles

    def test_deeper_split_at_n4(self, q4_cycles):
        merged = [
            h.seq
            for p in path_prefixes(4, 3)
            for h in enumerate_cycles(4, prefix=p)
        ]
        assert merged == [h.seq for h in q4_cycles]

    def test_deeper_split_at_n4_without_prunes(self, q4_cycles):
        merged = [
            h.seq
            for p in path_prefixes(4, 3)
            for h in enumerate_cycles(4, PruneConfig.none(), prefix=p)
        ]
        assert merged == [h.seq for h in q4_cycles]

    @pytest.mark.parametrize("depth", [4, 8, 10])
    def test_every_q4_prefix_has_the_same_stream_under_every_prune_config(
        self, depth
    ):
        # a prefix step takes the same test as any other step, so a prefix
        # is cut where the prunes find it dead, and never loses a cycle
        for p in path_prefixes(4, depth):
            pruned = [h.seq for h in enumerate_cycles(4, PruneConfig.all(), p)]
            plain = [h.seq for h in enumerate_cycles(4, PruneConfig.none(), p)]
            assert pruned == plain, p

    def test_prefix_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_cycles(3, prefix=[1, 0]))
        with pytest.raises(ValueError):
            list(enumerate_cycles(3, prefix=[0, 1, 0]))
        with pytest.raises(ValueError):
            path_prefixes(3, 0)
        with pytest.raises(ValueError):
            path_prefixes(3, 8)

    def test_deep_prefixes_of_a_large_cube_are_refused(self):
        with pytest.raises(ValueError, match="use a smaller depth"):
            path_prefixes(10, 1000)

    def test_vertex_cap_counts_every_prefix_vertex(self, monkeypatch):
        # six depth-2 prefixes of Q3 hold 18 vertices
        monkeypatch.setattr(enumeration, "MAX_PREFIX_VERTICES", 18)
        assert len(path_prefixes(3, 2)) == 6
        monkeypatch.setattr(enumeration, "MAX_PREFIX_VERTICES", 17)
        with pytest.raises(ValueError, match="more than 17 path vertices"):
            path_prefixes(3, 2)

    def test_non_adjacent_step_names_both_vertices(self):
        with pytest.raises(ValueError, match="0 and 3 are not hypercube-adjacent"):
            list(enumerate_cycles(3, prefix=[0, 3]))

    @pytest.mark.parametrize("cfg", ALL_PRUNE_CONFIGS)
    def test_full_length_prefix(self, cfg, q3_cycles):
        for h in q3_cycles:
            assert list(enumerate_cycles(3, cfg, prefix=h.seq)) == [h]
            # the same cycle walked the other way round is not canonical
            backwards = (0,) + h.seq[:0:-1]
            assert list(enumerate_cycles(3, cfg, prefix=backwards)) == []

    @pytest.mark.parametrize("cfg", ALL_PRUNE_CONFIGS)
    def test_prefix_that_fails_a_prune_at_once(self, cfg):
        # The step to 6 makes 7 interior and leaves vertex 5 one free edge,
        # {5, 4}, as 1 is interior too: the free-edges rule rejects the
        # prefix at its last step, before any search, and it has no
        # completion either way.
        assert list(enumerate_cycles(3, cfg, prefix=[0, 1, 3, 7, 6])) == []

    def test_checkpoint_roundtrip(self):
        prefixes = path_prefixes(4, 2)
        assert read_prefixes(write_prefixes(prefixes)) == prefixes
        assert read_prefixes("0 1\n\n0 2\n") == [[0, 1], [0, 2]]

    def test_a_bad_checkpoint_token_names_its_line(self):
        with pytest.raises(ValueError, match="^line 2: invalid literal for int"):
            read_prefixes("0 1\n0 2.5\n")


def cube_edges(n: int) -> list[tuple[int, int, int]]:
    """Every edge of the n-cube as (base, other end, slot ``2*i + class``)."""
    return [
        (u, u | 1 << i, 2 * i + parity_excluding(u, i))
        for i in range(n)
        for u in range(1 << n)
        if not u >> i & 1
    ]


def tallies_from_scratch(
    n: int, edges: list[tuple[int, int, int]], path: list[int]
) -> tuple[list[int], list[int], set[int], list[int]]:
    """The used and addable edge counts per slot ``2*i + class``, rebuilt
    from the path alone, the dimensions whose edge at vertex 0 is addable,
    and the addable edges at each vertex.  An edge is addable while it is
    unused and neither endpoint is strict interior (visited, but not vertex
    0 and not the path end)."""
    on_path = {(a & b, a | b) for a, b in zip(path, path[1:])}
    interior = set(path[1:-1])
    used, addable, open_at_0 = [0] * (2 * n), [0] * (2 * n), set()
    at_vertex = [0] * (1 << n)
    for u, v, s in edges:
        if (u, v) in on_path:
            used[s] += 1
        elif u not in interior and v not in interior:
            addable[s] += 1
            at_vertex[u] += 1
            at_vertex[v] += 1
            if not u:
                open_at_0.add(s >> 1)
    return used, addable, open_at_0, at_vertex


class TestNoDimensionRunsOutOfEdges:
    """The search needs no dimension-liveness prune beside the free-edges
    rule, because no path can leave a dimension with neither a used nor an
    addable edge: while dimension i is unused the path keeps bit i clear,
    so e_i is unvisited and the edge {0, e_i} stays addable."""

    @pytest.mark.parametrize("n,max_depth", [(4, 15), (5, 6)])
    def test_every_simple_path_from_vertex_0(self, n, max_depth):
        edges = cube_edges(n)
        for depth in range(1, max_depth + 1):
            for path in path_prefixes(n, depth):
                used, addable, open_at_0, _ = tallies_from_scratch(n, edges, path)
                for i in range(n):
                    in_use = used[2 * i] + used[2 * i + 1]
                    assert in_use + addable[2 * i] + addable[2 * i + 1], (path, i)
                    assert in_use or i in open_at_0, (path, i)


class TestFreeEdges:
    """The free-edges prune drops a path when an unvisited vertex has fewer
    than two addable edges or vertex 0 has none."""

    def test_no_prefix_of_a_q4_cycle_breaks_the_rule(self, q4_cycles):
        # the soundness of the prune, from scratch: every path that a cycle
        # completes keeps two addable edges at each unvisited vertex and one
        # at vertex 0
        edges = cube_edges(4)
        for h in q4_cycles:
            for seq in (h.seq, (0,) + h.seq[:0:-1]):
                for k in range(2, len(seq) + 1):
                    path = list(seq[:k])
                    at_vertex = tallies_from_scratch(4, edges, path)[3]
                    assert at_vertex[0] >= 1, path
                    for w in set(range(16)).difference(path):
                        assert at_vertex[w] >= 2, (path, w)

    def test_the_prune_cuts_the_q4_search(self, monkeypatch):
        # with all three rules the Q4 search reads 10,550 rows.  It reads
        # 31,860 when a lone open vertex that falls below two free edges
        # leaves v's whole row instead of the forced step, 19,020 without
        # the closing-edge rule, 14,824 when vertex 0 falling cuts nothing
        # and the first step may take the last dimension, and 80,040 when
        # no fall decides the children, which leaves the closing-edge rule
        # nothing to act through
        assert rows_read(monkeypatch, 4, PruneConfig.all())[1] == 10_550

    def test_the_unpruned_search_keeps_no_counts(self, monkeypatch):
        # without the prunes nothing reads the free-edge counts, so no
        # expansion or pop walks a row to keep them: each node short of a
        # full path reads its row once, as its candidates
        assert rows_read(monkeypatch, 4, PruneConfig.none())[1] == 26_680

    def test_a_prefix_is_cut_at_the_step_that_breaks_the_rule(self, monkeypatch):
        # a step from 12 would make 4 interior and leave vertex 5 one
        # addable edge, {5, 13}, so the expansion of 4 offers no step and
        # 12 is never pushed.  The expansions of 1, 3, 7, 6 and 4 read
        # their rows, and their pops read them again to restore the counts.
        prefix = [0, 1, 3, 7, 6, 4, 12, 14]
        found = rows_read(monkeypatch, 4, PruneConfig.all(), prefix)
        assert found == ([], 2 * (prefix.index(12) - 1))

    def test_a_prefix_that_walks_into_a_dead_vertex_is_not_searched(
        self, monkeypatch
    ):
        # a step from 13 would make 5 interior and leave vertex 1 one
        # addable edge, {1, 9}: {0, 1} is retired by the first step in
        # dimension 1.  The prefix then walks into 1 through that edge, so
        # a check of the open vertices after the prefix would pass and
        # search below 1.  The expansions of 2, 3, 7 and 5 and their pops
        # read 8 rows.
        prefix = [0, 2, 3, 7, 5, 13, 9, 1]
        assert rows_read(monkeypatch, 4, PruneConfig.all(), prefix) == ([], 8)

    @pytest.mark.parametrize("depth,cut", [
        (2, 3), (3, 9), (4, 26), (5, 84), (6, 262), (7, 818), (8, 2_070),
    ])
    def test_a_prefix_step_that_breaks_the_rule_is_never_pushed(
        self, monkeypatch, depth, cut
    ):
        # a prefix step takes the test of its parent's expansion, so the
        # search pushes the steps before the first one that leaves an open
        # vertex with fewer than two free edges, and not that one; ``cut``
        # prefixes of the depth have such a step
        found = 0
        for p in path_prefixes(4, depth):
            broken = [j for j in range(1, depth + 1) if breaks_free_edges(4, p[: j + 1])]
            if broken:
                found += 1
                search = lambda: list(enumerate_cycles(4, PruneConfig.all(), p))
                assert pushes(monkeypatch, search) == ([], broken[0] - 1), p
        assert found == cut


def breaks_free_edges(n: int, path: list[int]) -> bool:
    """Whether ``path`` leaves an open vertex (unvisited, or vertex 0) with
    fewer than two edges that are on the path or addable, counted from the
    path alone.  The closing-edge rule is included: {0, e_j} with j below
    the first step's dimension is not addable."""
    on_path = {(a & b, a | b) for a, b in zip(path, path[1:])}
    interior = set(path[1:-1])
    f = edge_dim(path[0], path[1])
    free = [0] * (1 << n)
    for u, w, s in cube_edges(n):
        retired = u == 0 and s >> 1 < f
        if (u, w) in on_path or not (u in interior or w in interior or retired):
            free[u] += 1
            free[w] += 1
    return any(free[w] < 2 for w in range(1 << n) if w == 0 or w not in path)


class TestForcedStep:
    """The path end steps to an unvisited neighbour left with two addable
    edges: that neighbour needs both, and the end has one edge left."""

    def test_every_prefix_of_a_q4_cycle_steps_to_its_tight_neighbour(self, q4_cycles):
        # the soundness of the rule, from scratch: every path that a cycle
        # completes, short of a full one, has at most one such neighbour at
        # its end, and the cycle's next vertex is that one
        edges = cube_edges(4)
        for h in q4_cycles:
            for seq in (h.seq, (0,) + h.seq[:0:-1]):
                for k in range(2, len(seq)):
                    path = list(seq[:k])
                    at_vertex = tallies_from_scratch(4, edges, path)[3]
                    tight = [
                        x for x in (path[-1] ^ 1 << i for i in range(4))
                        if x not in path and at_vertex[x] == 2
                    ]
                    assert tight in ([], [seq[k]]), (path, tight)

    @pytest.mark.parametrize("n,max_depth", [(2, 3), (3, 7), (4, 15), (5, 9)])
    def test_a_forced_step_of_a_first_use_path_is_an_allowed_one(self, n, max_depth):
        # first-use mode needs no check of its own: the step to a tight
        # neighbour is in a used dimension or the next one, so it lies in
        # the part of the row that mode allows
        edges = cube_edges(n)
        for depth in range(1, max_depth + 1):
            for path in first_use_prefixes(n, depth):
                at_vertex = tallies_from_scratch(n, edges, path)[3]
                width = max(path).bit_length()
                for i in range(n):
                    x = path[-1] ^ 1 << i
                    if x not in path and at_vertex[x] == 2:
                        assert i <= width, (path, x)


def gray_prefix(n: int, depth: int, f: int) -> list[int]:
    """The first ``depth`` steps of the reflected Gray code of Q_n with bits
    0 and f swapped: its first step is in dimension f, and for f < n - 1
    the cycle it follows is canonical (its last step is in dimension n - 1)."""
    def swap(v: int) -> int:
        flip = (v ^ v >> f) & 1
        return v ^ (flip | flip << f)

    return [swap(v) for v in gray_code(n)[: depth + 1]]


class TestCanonicalClosingEdge:
    """The first step, in dimension f, retires vertex 0's edges {0, e_j}
    with j < f: a canonical cycle closes through some {e_j, 0} with j > f."""

    def test_every_prefix_of_a_canonical_q4_cycle_keeps_a_later_closing_edge(
        self, q4_cycles
    ):
        # the soundness of the rule, from scratch: while a canonical cycle is
        # walked, an edge {0, e_j} with j > f stays addable
        edges = cube_edges(4)
        for h in q4_cycles:
            f = edge_dim(h.seq[0], h.seq[1])
            for k in range(2, len(h.seq) + 1):
                open_at_0 = tallies_from_scratch(4, edges, list(h.seq[:k]))[2]
                assert any(j > f for j in open_at_0), h.seq[:k]

    @pytest.mark.parametrize("prefix", [
        [0, 16, 17, 25, 24, 28, 29, 21, 5, 7, 15],
        gray_prefix(5, 14, 4),
    ])
    def test_a_first_step_in_the_last_dimension_is_cut_at_once(
        self, monkeypatch, prefix
    ):
        # vertex 0 would keep only the edge it leaves by, so the first step
        # is not taken, and the search reads no row
        found = rows_read(monkeypatch, 5, PruneConfig.all(), prefix)
        assert found == ([], 0)

    @pytest.mark.parametrize("f", range(5))
    def test_q5_streams_agree_for_every_first_dimension(self, f):
        prefix = gray_prefix(5, 14, f)
        pruned = [h.seq for h in enumerate_cycles(5, PruneConfig.all(), prefix)]
        plain = [h.seq for h in enumerate_cycles(5, PruneConfig.none(), prefix)]
        assert pruned == plain
        assert len(pruned) == (1344, 1344, 1344, 672, 0)[f]


def rows_from_scratch(n: int) -> list[tuple[int, ...]]:
    """Each vertex's neighbours in increasing dimension: flipping entry i
    adds 2**i to a vertex whose entry i is 0 and takes it from one whose
    entry i is 1."""
    return [
        tuple(u - 2**i if u // 2**i % 2 else u + 2**i for i in range(n))
        for u in range(1 << n)
    ]


def record_tables(monkeypatch) -> list:
    """Patch ``enumeration.edge_rows`` to record each table it hands out."""
    tables = []
    read = enumeration.edge_rows
    monkeypatch.setattr(enumeration, "edge_rows", lambda n: tables.append(read(n)) or tables[-1])
    return tables


class TestNeighbourTable:
    """The search and the sampler only read the cube's edge rows, so cubes
    of at most ``NEAR_TABLE_MAX_DIM`` dimensions keep one table per
    process, and a larger cube's rows are built at each call."""

    @pytest.mark.parametrize("n", range(2, hypercube.NEAR_TABLE_MAX_DIM + 1))
    def test_one_table_of_vertex_rows_per_cube(self, n):
        table = hypercube.edge_rows(n)
        assert table is hypercube.edge_rows(n)
        assert list(table) == rows_from_scratch(n)

    @pytest.mark.parametrize("n", [9, 13])
    def test_rows_share_one_int_per_vertex(self, n):
        # a vertex above 256, where CPython keeps no shared small int, is
        # one object in every row that holds it
        table = hypercube.edge_rows(n)
        for v in (257, 300, (1 << n) - 1):
            held = [table[v ^ 1 << i][i] for i in range(n)]
            assert held == [v] * n
            assert len(set(map(id, held))) == 1

    @pytest.mark.parametrize("n", range(2, hypercube.NEAR_TABLE_MAX_DIM + 1))
    def test_the_search_and_the_sampler_read_one_table(self, monkeypatch, n):
        tables = record_tables(monkeypatch)

        def drawn(n, rows, rng, budget):
            tables.append(rows)
            return "drawn"

        monkeypatch.setattr(enumeration, "_random_cycle", drawn)
        assert next(enumerate_cycles(n, prefix=gray_code(n))).seq == tuple(gray_code(n))
        assert sample_cycles(n, 0, 1) == ["drawn"]
        assert len(tables) == 3
        assert all(table is hypercube.edge_rows(n) for table in tables)

    def test_a_second_prefix_stream_builds_nothing(self, monkeypatch):
        # above MEMO_MAX_DIM the rows are kept too: a search of each prefix
        # reads the one table and builds none
        tables = record_tables(monkeypatch)
        assert next(enumerate_cycles(8, prefix=gray_code(8))).seq == tuple(gray_code(8))
        built = hypercube._edge_rows.cache_info().misses
        assert next(enumerate_cycles(8, prefix=gray_code(8)[:200]), None) is not None
        assert hypercube._edge_rows.cache_info().misses == built
        assert tables[1] is tables[0]

    def test_a_cube_above_the_kept_ones_is_not_kept(self, monkeypatch):
        tables = record_tables(monkeypatch)
        kept = hypercube._edge_rows.cache_info().currsize
        for _ in range(2):
            assert next(enumerate_cycles(13, prefix=gray_code(13))).seq == tuple(gray_code(13))
        assert hypercube._edge_rows.cache_info().currsize == kept
        assert tables[1] is not tables[0]
        assert list(tables[1]) == rows_from_scratch(13)

    def test_a_pruned_stream_writes_no_row(self, monkeypatch):
        # the first step 0 -> 4 retires the closing edges {0, 1} and {0, 2};
        # the table the search got stays the rows, below that step and after
        tables = record_tables(monkeypatch)
        stream = enumerate_cycles(4, PruneConfig.all(), [0, 4])
        next(stream)
        assert list(tables[0]) == rows_from_scratch(4)
        assert len(list(stream)) > 0
        assert list(tables[0]) == rows_from_scratch(4)


def is_first_use(path: list[int]) -> bool:
    """Whether the path's dimension word brings in new dimensions in the
    order 0, 1, 2, ..."""
    dims = [edge_dim(u, v) for u, v in zip(path, path[1:])]
    firsts = list(dict.fromkeys(dims))
    return firsts == list(range(len(firsts)))


def first_use_prefixes(n: int, depth: int) -> list[list[int]]:
    """The simple paths of ``depth`` edges from vertex 0 whose words bring
    in new dimensions in the order 0, 1, 2, ..., in branch order.  Such a
    path has used exactly the dimensions below its largest vertex's bit
    length."""
    bits = [1 << i for i in range(n)]
    paths = [[0]]
    for _ in range(depth):
        paths = [
            p + [v]
            for p in paths
            for v in map(p[-1].__xor__, bits[: max(p).bit_length() + 1])
            if v not in p
        ]
    return paths


def words(n: int, cfg: PruneConfig, prefix=None) -> int:
    """The first-use closing paths that complete ``prefix``."""
    return sum(enumeration._search(n, cfg, prefix, first_use=True))


def pushes(monkeypatch, search, limit=None) -> tuple[object, int]:
    """What ``search()`` returns and how many vertices the kernel pushes
    meanwhile: it makes one ``iter`` call for the candidate steps of the
    root and one per push.  A step that breaks a rule is not pushed, as
    the expansion of its parent does not offer it.  A push past ``limit``
    fails the test."""
    count = [0]

    def counted_iter(steps):
        count[0] += 1
        if limit is not None and count[0] - 1 > limit:
            raise AssertionError(f"the search pushed more than {limit} vertices")
        return iter(steps)

    with monkeypatch.context() as m:
        m.setattr(enumeration, "iter", counted_iter, raising=False)
        result = search()
    return result, count[0] - 1


class TestFirstUseCount:
    """``count_cycles`` searches only the dimension words that bring in new
    dimensions in the order 0, 1, 2, ..., one per S_n orbit of directed
    cycles from vertex 0, and reports n!·words/2.  The canonical stream is
    the other route to the same numbers."""

    @pytest.mark.parametrize("cfg", ALL_PRUNE_CONFIGS)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_count_equals_the_canonical_stream(self, n, cfg):
        assert count_cycles(n, cfg) == len(list(enumerate_cycles(n, cfg))) == (1, 6, 1344)[n - 2]

    @pytest.mark.parametrize("cfg", ALL_PRUNE_CONFIGS)
    def test_word_counts(self, cfg):
        assert [words(n, cfg) for n in (2, 3, 4)] == [1, 2, 112]

    def test_q4_push_counts(self, monkeypatch):
        # the rows are cut to the used dimensions and the next one, and the
        # completion memo adds a state's count of words: the words take 485
        # pushes with the prunes and 1,891 without (966 and 3,780 without
        # the memo), where the canonical stream takes 4,269 and 26,708 with
        # its memo (12,235 and 90,676 without)
        found = [pushes(monkeypatch, lambda: words(4, cfg)) for cfg in ALL_PRUNE_CONFIGS]
        assert found == [(112, 485), (112, 1_891)]
        stream = [
            pushes(monkeypatch, lambda: len(list(enumerate_cycles(4, cfg))))
            for cfg in ALL_PRUNE_CONFIGS
        ]
        assert stream == [(1344, 4_269), (1344, 26_708)]

    @pytest.mark.parametrize("n,depth", [(3, 3), (4, 4), (4, 8), (5, 4)])
    def test_first_use_prefixes(self, n, depth):
        expected = [p for p in path_prefixes(n, depth) if is_first_use(p)]
        assert first_use_prefixes(n, depth) == expected

    @pytest.mark.parametrize("cfg", ALL_PRUNE_CONFIGS)
    @pytest.mark.parametrize("n,depth", [(2, 3), (3, 2), (3, 7), (4, 5), (4, 8)])
    def test_prefix_shards_add_up_to_the_whole_search(self, n, depth, cfg):
        shards = [words(n, cfg, p) for p in first_use_prefixes(n, depth)]
        assert sum(shards) == words(n, cfg)

    def test_dimension_bounds(self):
        for n in (0, 1, 17):
            with pytest.raises(ValueError):
                count_cycles(n)

    def test_cubes_beyond_the_whole_cube_cap_are_refused(self, monkeypatch):
        # the refusal comes before any search; a search started by mistake
        # fails the test at once instead of running without end
        def no_search(*args, **kwargs):
            raise AssertionError("the search was started")

        monkeypatch.setattr(enumeration, "_search", no_search)
        assert enumeration.MAX_WHOLE_CUBE_DIM == 5
        for n in (6, 7, 16):
            with pytest.raises(ValueError, match="supports n <= 5"):
                count_cycles(n)

    @pytest.mark.skipif(
        not os.environ.get("QUBE_ACCEPTANCE_FULL"),
        reason="counts 15,109,096 words: about 100 s in one process (QUBE_ACCEPTANCE_FULL=1)",
    )
    def test_five_cube(self):
        # OEIS A066037
        assert count_cycles(5) == 906_545_760


def rows_read(monkeypatch, n, cfg, prefix=None) -> tuple[list, int]:
    """The seqs ``enumerate_cycles`` emits and how many times it reads a
    neighbour row: once when every step from a node short of a full path
    passes and the row is its candidates, and, under the prunes, once to
    expand that node and once when it is popped, to restore its
    neighbours' counts.  A forced step and a prefix step are not read from
    the row, and neither is the first step from vertex 0."""
    count = [0]

    class CountedRow(tuple):
        def __iter__(self):
            count[0] += 1
            return super().__iter__()

    table = enumeration.edge_rows
    with monkeypatch.context() as m:
        m.setattr(enumeration, "edge_rows",
                  lambda n: [CountedRow(row) for row in table(n)])
        seqs = [h.seq for h in enumerate_cycles(n, cfg, prefix)]
    return seqs, count[0]


def random_simple_path(n: int, depth: int, rng: random.Random) -> list[int]:
    """A simple path of ``depth`` edges from vertex 0, each step to a random
    unvisited neighbour; a walk that gets stuck starts over."""
    while True:
        path, visited = [0], 1
        while len(path) <= depth:
            u = path[-1]
            free = [u ^ 1 << i for i in range(n) if not visited >> (u ^ 1 << i) & 1]
            if not free:
                break
            v = rng.choice(free)
            path.append(v)
            visited |= 1 << v
        else:
            return path


# Completion count and sha256 of the emitted seqs (one space-separated line
# per cycle) for each of the eight depth-13 Q5 prefixes drawn from
# random.Random(Q5_GOLDEN_SEED).  Recorded with the recursive search.
Q5_GOLDEN_SEED = 20261018
Q5_GOLDEN = [
    (18, "552c0965d4155149325b5a07b1852496e8a997546711fd21ba32d844ef40b52d"),
    (59, "2acdccf005a7a28725080bd44ccb3ab5c3c9883440dcbd383f76aae91e0c2724"),
    (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (11, "5d17dad0ead4be87fd09829c4b0335759bb9b13f1e5734bbefca10afc70e6ca3"),
    (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (56, "4f6a7e64d9fc87781dc43c9e88940e817dd24e483eee32362d733b487146abcb"),
]


def q5_golden_streams(cfg: PruneConfig) -> list[tuple[int, str]]:
    """Completion count and digest of each Q5_GOLDEN prefix's stream."""
    rng = random.Random(Q5_GOLDEN_SEED)
    found = []
    for _ in Q5_GOLDEN:
        prefix = random_simple_path(5, 13, rng)
        cycles = list(enumerate_cycles(5, cfg, prefix=prefix))
        found.append((len(cycles), corpus_digest(cycles)))
    return found


class TestQ5Golden:
    @pytest.mark.parametrize("cfg", ALL_PRUNE_CONFIGS)
    def test_prefix_completions_match_the_recorded_stream(self, cfg):
        assert q5_golden_streams(cfg) == Q5_GOLDEN


# sha256 of the Q4 stream, one space-separated line per cycle; recorded
# before the search had its completion memo.
Q4_STREAM_SHA256 = "df3a6e7e47e07d178dfe8af977bfaa8c74c7f99876c088d8bfe97b833d6537ec"


class TestCompletionMemo:
    """On cubes of at most ``MEMO_MAX_DIM`` dimensions the stream replays
    the completions of a (visited set, path end) state it has searched
    before, and the count adds the state's count of words; the memo is
    dropped once it holds more than ``MEMO_CAP`` entries and cycles.  Drops
    and the memo itself change only the work."""

    @pytest.mark.parametrize(
        "max_dim,cap,pruned,unpruned",
        [(3, 1 << 16, 12_235, 90_676), (4, 0, 12_235, 90_676),
         (4, 50, 9_805, 85_099), (4, 1000, 5_364, 54_146)],
        ids=["no-memo", "dropped-at-once", "cap-50", "cap-1000"],
    )
    def test_q4_stream_under_every_cap(self, monkeypatch, max_dim, cap, pruned, unpruned):
        # with the memo off, or dropped at every pop, the search does the
        # work of a search without one
        monkeypatch.setattr(enumeration, "MEMO_MAX_DIM", max_dim)
        monkeypatch.setattr(enumeration, "MEMO_CAP", cap)
        found = [
            pushes(monkeypatch, lambda: corpus_digest(enumerate_cycles(4, cfg)))
            for cfg in ALL_PRUNE_CONFIGS
        ]
        assert found == [(Q4_STREAM_SHA256, pruned), (Q4_STREAM_SHA256, unpruned)]

    @pytest.mark.parametrize(
        "max_dim,cap,pruned,unpruned",
        [(3, 1 << 16, 966, 3_780), (4, 0, 966, 3_780), (4, 50, 788, 3_560),
         (4, 1 << 16, 485, 1_891)],
        ids=["no-memo", "dropped-at-once", "cap-50", "default-cap"],
    )
    def test_q4_words_under_every_cap(self, monkeypatch, max_dim, cap, pruned, unpruned):
        # the count shares the stream's memo, which holds each state's count
        # of words; with the memo off, or dropped at every pop, it does the
        # work of a count without one
        monkeypatch.setattr(enumeration, "MEMO_MAX_DIM", max_dim)
        monkeypatch.setattr(enumeration, "MEMO_CAP", cap)
        found = [pushes(monkeypatch, lambda: words(4, cfg)) for cfg in ALL_PRUNE_CONFIGS]
        assert found == [(112, pruned), (112, unpruned)]

    def test_q5_words_with_and_without_the_memo(self, monkeypatch):
        # the words below a state do not depend on the first-use path that
        # reached it, and a count is recorded across drops
        prefixes = random.Random(5).sample(first_use_prefixes(5, 12), 8)

        def found(max_dim, cap):
            monkeypatch.setattr(enumeration, "MEMO_MAX_DIM", max_dim)
            monkeypatch.setattr(enumeration, "MEMO_CAP", cap)
            return [words(5, PruneConfig.all(), p) for p in prefixes]

        counts = found(5, 1 << 16)
        assert counts == found(5, 100) == found(4, 1 << 16)
        assert counts == [219, 34, 874, 31, 73, 153, 150, 0]

    @pytest.mark.parametrize("cfg", ALL_PRUNE_CONFIGS)
    def test_q5_golden_streams_survive_drops(self, monkeypatch, cfg):
        monkeypatch.setattr(enumeration, "MEMO_CAP", 20)
        assert q5_golden_streams(cfg) == Q5_GOLDEN

    @pytest.mark.parametrize("cap", [1 << 16, 100])
    def test_q6_stream_with_and_without_the_memo(self, monkeypatch, cap):
        # the largest cube with the memo, whose visited sets fill 64 bits
        def head(max_dim):
            monkeypatch.setattr(enumeration, "MEMO_MAX_DIM", max_dim)
            stream = enumerate_cycles(6, prefix=gray_code(6)[:37])
            return [h.seq for h in itertools.islice(stream, 3000)]

        monkeypatch.setattr(enumeration, "MEMO_CAP", cap)
        assert head(6) == head(5)


def reference_random_cycle(
    n: int, size: int, rng: random.Random, budget: int
) -> HamiltonianCycle | None:
    """The sampler's search as first written, kept as the reference for
    its stream: one bigint visited mask, and one shuffled, keyed-sorted
    candidate list per pushed vertex, including the empty ones."""
    neigh = [sum(1 << (v ^ (1 << i)) for i in range(n)) for v in range(size)]
    path = [0]
    visited = 1

    def ordered_unvisited(u: int) -> list[int]:
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
        if neigh[0] & ~visited:
            stack.append(ordered_unvisited(v))
        else:
            path.pop()
            visited &= ~(1 << v)
    return None


def reference_sample(n: int, seed: int, k: int, budget: int) -> tuple[list, int]:
    """The seqs of ``sample_cycles(n, seed, k)`` with a budget of ``budget``
    nodes per attempt by the reference search, and how many attempts it
    abandoned on the way."""
    rng = random.Random(seed)
    seqs, abandoned = [], 0
    while len(seqs) < k:
        cyc = reference_random_cycle(n, 1 << n, rng, budget)
        if cyc is None:
            abandoned += 1
        else:
            seqs.append(cyc.seq)
    return seqs, abandoned


def sample_counting_abandoned(monkeypatch, n: int, seed: int, k: int, budget: int):
    """``sample_cycles`` with a count of its abandoned attempts."""
    search = enumeration._random_cycle
    abandoned = []

    def counting(*args):
        cyc = search(*args)
        if cyc is None:
            abandoned.append(args)
        return cyc

    monkeypatch.setattr(enumeration, "_random_cycle", counting)
    monkeypatch.setattr(enumeration, "attempt_budget", lambda n: budget)
    seqs = [h.seq for h in sample_cycles(n, seed, k)]
    return seqs, len(abandoned)


def corpus_digest(cycles) -> str:
    text = "".join(" ".join(map(str, h.seq)) + "\n" for h in cycles)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the pinned corpora sample_cycles(5|6, SAMPLE_SEED, SAMPLE_K) of
# conftest, one space-separated line per cycle; recorded with the reference
# search above.
PINNED_CORPUS_SHA256 = {
    5: "1f12b33cd9f3e10a91bc4c9231174ffd8916457d40f3f4e43b44c01d3efd79d1",
    6: "085c047af441abfc0def888364d8f73487e1a82b8a4f12f2b7e88b6357c86e0b",
}

# (n, seed, k, budget) runs of the sampler.  The budgets of the last groups
# abandon attempts; (5, 4, 1, 50) and (7, 3, 1, 130) succeed on exactly the
# last node of the budget, so one node less abandons the attempt.  Node 39
# of the first attempt of seed 4 at n = 5 is a dead end's push, node 40 its
# retreat and node 41 a forced level's retreat, so the budgets 38 to 42 end
# one node under, on and over each of them; likewise nodes 116, 117 and 118
# of seed 15 at n = 6, and node 75 there is a forced level's retreat too.
# No budget ends on a full path at a vertex other than a unit vector: every
# push leaves a unit vector unvisited, so the push that fills the path
# takes one and closes the cycle.  The runs at n = 8 and 10, whose masks
# span several machine words, abandon one, one, none, one and four
# attempts.  (7, 22, 1, 8448), (7, 26, 1, 8448) and (8, 9, 1, 8704) ran
# at the per-cube budget of (2 << n) + 8192 nodes, and abandon two, one and
# two attempts of it.  The runs of DEFAULT_BUDGET_RUNS, at the default
# budget, abandon one, one, two, seven and five attempts of it.
DEFAULT_BUDGET_RUNS = [
    (7, 22, 1, attempt_budget(7)), (7, 26, 1, attempt_budget(7)),
    (8, 9, 1, attempt_budget(8)), (8, 0, 1, attempt_budget(8)),
    (10, 5, 1, attempt_budget(10)),
]
SAMPLER_RUNS = [
    (2, 0, 3, 500_000), (3, 2, 5, 500_000), (4, 1, 8, 500_000),
    (5, 11, 6, 500_000), (6, 3, 4, 500_000), (7, 3, 2, 500_000),
    (5, 4, 1, 50), (5, 4, 1, 49), (7, 3, 1, 130), (7, 3, 1, 129),
    (5, 4, 1, 38), (5, 4, 1, 39), (5, 4, 1, 40), (5, 4, 1, 41), (5, 4, 1, 42),
    (6, 15, 1, 115), (6, 15, 1, 116), (6, 15, 1, 117), (6, 15, 1, 118),
    (6, 15, 1, 119), (6, 15, 1, 74), (6, 15, 1, 75), (6, 15, 1, 76),
    (4, 9, 5, 16), (5, 8, 5, 40), (6, 0, 5, 100), (6, 2, 5, 200),
    (7, 1, 10, 20_000), (6, 5, 50, 2000), (7, 2, 3, 3000),
    (8, 3, 1, 600), (8, 1, 1, 400), (10, 0, 1, 500_000), (10, 6, 1, 1100),
    (10, 4, 1, 1100), (7, 22, 1, 8448), (7, 26, 1, 8448), (8, 9, 1, 8704),
    *DEFAULT_BUDGET_RUNS,
]


class TestSampling:
    def test_deterministic_for_a_seed(self):
        a = sample_cycles(5, seed=11, k=5)
        b = sample_cycles(5, seed=11, k=5)
        assert [h.seq for h in a] == [h.seq for h in b]

    def test_seed_changes_the_draw(self):
        a = sample_cycles(5, seed=1, k=3)
        b = sample_cycles(5, seed=2, k=3)
        assert [h.seq for h in a] != [h.seq for h in b]

    def test_samples_validate(self):
        for h in sample_cycles(6, seed=3, k=10):
            validate_cycle(h.n, h.seq)

    def test_two_cube_always_finds_the_unique_cycle(self):
        unique = list(enumerate_cycles(2))[0]
        for h in sample_cycles(2, seed=9, k=4):
            assert canonical_form(h) == unique

    def test_budget_guard_raises_instead_of_spinning(self, monkeypatch):
        monkeypatch.setattr(enumeration, "attempt_budget", lambda n: 2)
        with pytest.raises(RuntimeError, match="abandoned searches in a row.*too small"):
            sample_cycles(4, seed=0, k=1)
        assert MAX_CONSECUTIVE_FAILURES >= 100

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            sample_cycles(5, seed=0, k=0)
        with pytest.raises(ValueError):
            sample_cycles(1, seed=0, k=1)
        with pytest.raises(ValueError):
            sample_cycles(17, seed=0, k=1)

    def test_cubes_beyond_the_mask_table_are_refused_at_once(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("a search ran")

        monkeypatch.setattr(enumeration, "_random_cycle", no_search)
        with pytest.raises(ValueError, match="sampling supports 2 <= n <= 12"):
            sample_cycles(13, 0, 1)
        # the largest cube with a mask table starts its search
        with pytest.raises(AssertionError, match="a search ran"):
            sample_cycles(12, 0, 1)

    def test_diversity_at_n5(self):
        cycles = sample_cycles(5, seed=123, k=40)
        assert len({h.seq for h in cycles}) > 30

    def test_pinned_corpora_keep_their_digest(self, q5_samples, q6_samples):
        assert corpus_digest(q5_samples) == PINNED_CORPUS_SHA256[5]
        assert corpus_digest(q6_samples) == PINNED_CORPUS_SHA256[6]

    def test_a_pair_is_shuffled_as_random_shuffle_shuffles_it(self):
        # The sampler shuffles a pair inline: getrandbits(2) until it is
        # below 2, as Random._randbelow(2) draws, and a swap when it is 0.
        # A change to Random.shuffle or _randbelow fails here first.
        for seed in range(2000):
            ours, ref = random.Random(seed), random.Random(seed)
            pair = ["a", "b"]
            ref.shuffle(pair)
            r = ours.getrandbits(2)
            while r > 1:
                r = ours.getrandbits(2)
            assert pair == (["b", "a"] if r == 0 else ["a", "b"]), seed
            assert ours.getstate() == ref.getstate(), seed
        # Every walk on Q3 shuffles pairs whose vertices have as many
        # visited neighbours, so the shuffle alone orders them, and the
        # reference shuffles them with Random.shuffle.
        rows = rows_from_scratch(3)
        for seed in range(500):
            ours, ref = random.Random(seed), random.Random(seed)
            cycle = enumeration._random_cycle(3, rows, ours, 100)
            assert cycle.seq == reference_random_cycle(3, 8, ref, 100).seq, seed
            assert ours.getstate() == ref.getstate(), seed

    def test_every_list_length_is_shuffled_as_random_shuffle_shuffles_it(self):
        # The sampler shuffles a list of m items inline, m = 2..12: for i
        # from m - 1 down to 1, getrandbits(k) with k = (i + 1).bit_length()
        # until it is below i + 1, as Random._randbelow(i + 1) draws, then a
        # swap of items i and j.
        for m in range(2, 13):
            for seed in range(2000):
                ours, ref = random.Random(seed), random.Random(seed)
                items, expected = list(range(m)), list(range(m))
                ref.shuffle(expected)
                for i, k in enumeration._SHUFFLE_STEPS[m]:
                    j = ours.getrandbits(k)
                    while j > i:
                        j = ours.getrandbits(k)
                    items[i], items[j] = items[j], items[i]
                assert items == expected, (m, seed)
                assert ours.getstate() == ref.getstate(), (m, seed)

    def test_the_rows_table_is_built_once_per_process_and_n(self):
        hypercube._edge_rows.cache_clear()
        sample_cycles(5, seed=0, k=2)
        sample_cycles(5, seed=1, k=3)
        sample_cycles(4, seed=0, k=1)
        assert hypercube._edge_rows.cache_info().misses == 2

    def test_importing_builds_no_rows_table(self):
        # a fresh interpreter, as each table of the cube, the edge rows and
        # the neighbour masks, is built at its first use
        src = os.path.dirname(os.path.dirname(enumeration.__file__))
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); "
            "import qube, qube.hypercube as h; "
            "print(h._edge_rows.cache_info().currsize, h.near_table.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        ).stdout
        assert out == "0 0\n"

    @pytest.mark.parametrize("n,seed,k,budget", SAMPLER_RUNS)
    def test_same_stream_and_abandoned_attempts_as_the_reference(
        self, monkeypatch, n, seed, k, budget
    ):
        assert sample_counting_abandoned(monkeypatch, n, seed, k, budget) == (
            reference_sample(n, seed, k, budget)
        )

    def test_every_attempt_matches_the_reference_across_budgets(self):
        # Budgets 1, 8, ..., 295 end attempts on pushes, dead ends and
        # retreats alike, where the hand-picked runs above name only a few
        # such nodes; each attempt goes on with the generator the last one
        # left, and must leave it where the reference leaves it.
        for n in range(3, 7):
            rows = edge_rows(n)
            for seed in range(10):
                for budget in range(1, 301, 7):
                    ours, ref = random.Random(seed), random.Random(seed)
                    for attempt in range(2):
                        got = enumeration._random_cycle(n, rows, ours, budget)
                        want = reference_random_cycle(n, 1 << n, ref, budget)
                        where = (n, seed, budget, attempt)
                        assert (got and got.seq) == (want and want.seq), where
                        assert ours.getstate() == ref.getstate(), where

    @pytest.mark.parametrize(
        "n,seed,k,budget,abandoned",
        [(5, 4, 1, 50, 0), (5, 4, 1, 49, 1), (7, 3, 1, 130, 0), (7, 3, 1, 129, 2),
         (5, 4, 1, 38, 1), (6, 15, 1, 75, 1), (6, 15, 1, 76, 2),
         (7, 1, 10, 20_000, 2), (6, 5, 50, 2000, 1), (8, 3, 1, 600, 1),
         (10, 0, 1, 500_000, 0), (10, 4, 1, 1100, 4),
         (8, 9, 1, 8704, 2), (7, 22, 1, attempt_budget(7), 1),
         (7, 26, 1, attempt_budget(7), 1), (8, 9, 1, attempt_budget(8), 2),
         (8, 0, 1, attempt_budget(8), 7), (10, 5, 1, attempt_budget(10), 5)],
    )
    def test_small_budgets_abandon_attempts(self, n, seed, k, budget, abandoned):
        assert reference_sample(n, seed, k, budget)[1] == abandoned

    @pytest.mark.parametrize("n,seed,k,budget", DEFAULT_BUDGET_RUNS)
    def test_an_unpatched_draw_uses_the_default_budget(self, n, seed, k, budget):
        seqs = [h.seq for h in sample_cycles(n, seed, k)]
        assert seqs == reference_sample(n, seed, k, budget)[0]

    def test_the_default_budget_keeps_the_pinned_q6_attempts(self):
        # n = 6 stays at or above 5,720, the longest attempt of the pinned
        # corpus
        assert [attempt_budget(n) for n in (6, 7, 8, 12)] == [8320, 384, 512, 4352]
        assert attempt_budget(6) >= 5720

    @pytest.mark.parametrize("seed", [0, 6])
    def test_the_default_budget_keeps_a_success_just_past_the_first_pass(
        self, monkeypatch, seed
    ):
        # The first attempts of seeds 0 and 6 at n = 7 succeed after 356 and
        # 375 nodes, 2**7 + 228 and + 247: the kind of success that ends
        # about 240 nodes after the first pass, which a budget of 2**7 + 128
        # abandons.  The default budget must keep them, so the draw
        # abandons nothing.
        assert reference_sample(7, seed, 1, (1 << 7) + 128)[1] >= 1
        search, attempts = enumeration._random_cycle, []
        monkeypatch.setattr(
            enumeration, "_random_cycle", lambda *args: attempts.append(args) or search(*args)
        )
        seqs = [h.seq for h in sample_cycles(7, seed, 1)]
        assert len(attempts) == 1
        assert seqs == reference_sample(7, seed, 1, 500_000)[0]
