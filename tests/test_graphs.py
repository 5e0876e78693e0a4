"""Graph containers, set predicates, and the solver text format."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qube
from qube import graphs, independence
from qube.graphs import (
    BipartiteGraph,
    SizeLimitExceeded,
    UndirectedGraph,
    format_bipartite,
    format_graph,
    hypercube_bipartite,
    hypercube_graph,
    is_balanced,
    is_independent,
    is_maximal_independent,
    parse_bipartite,
    parse_graph,
)
from qube.hypercube import near_table


class TestUndirectedGraph:
    def test_basics(self):
        g = UndirectedGraph(4, [(0, 1), (1, 2)])
        assert g.vertex_count == 4
        assert g.edge_count == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.degree(1) == 2
        assert g.degree(3) == 0
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_duplicate_edges_collapse(self):
        g = UndirectedGraph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_errors(self):
        g = UndirectedGraph(3)
        with pytest.raises(ValueError):
            g.add_edge(0, 0)
        with pytest.raises(ValueError):
            g.add_edge(0, 3)
        with pytest.raises(ValueError):
            UndirectedGraph(-1)


class TestHypercubeGraphs:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_order_size_regularity(self, n):
        g = hypercube_graph(n)
        assert g.vertex_count == 1 << n
        assert g.edge_count == n << (n - 1)
        assert all(g.degree(v) == n for v in range(g.vertex_count))

    def test_adjacency_is_single_bit_difference(self):
        g = hypercube_graph(4)
        for u in range(16):
            for v in range(16):
                if u != v:
                    assert g.has_edge(u, v) == ((u ^ v).bit_count() == 1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_rows_are_the_neighbour_masks(self, n):
        rows = [sum(1 << (v ^ 1 << i) for i in range(n)) for v in range(1 << n)]
        assert list(near_table(n)) == rows
        assert hypercube_graph(n).adj == rows

    @pytest.mark.parametrize("build", [hypercube_graph, hypercube_bipartite])
    def test_a_cube_above_the_solver_cap_builds_no_row(self, monkeypatch, build):
        # the rows take about 4**n / 8 bytes: terabytes at n = 24, which
        # check_dimension admits
        def refuse(n):
            raise AssertionError("a row was built past the cap")

        monkeypatch.setattr(graphs, "near_table", refuse)
        with pytest.raises(SizeLimitExceeded, match="^8192 vertices exceeds the solver cap 5000$"):
            build(13)

    def test_one_solver_cap_error(self):
        # the solvers raise the graphs' cap error, which the package exports
        assert independence.SizeLimitExceeded is SizeLimitExceeded
        assert qube.SizeLimitExceeded is SizeLimitExceeded
        assert issubclass(SizeLimitExceeded, ValueError)

    def test_bipartition_by_weight_parity(self):
        b = hypercube_bipartite(3)
        assert b.class0 == (0, 3, 5, 6)
        assert b.class1 == (1, 2, 4, 7)


class TestBipartiteGraph:
    def test_class_validation(self):
        g = UndirectedGraph(3, [(0, 2), (1, 2)])
        b = BipartiteGraph(g, [0, 1], [2])
        assert b.vertex_count == 3
        assert b.mask0 == 0b011 and b.mask1 == 0b100
        with pytest.raises(ValueError):
            BipartiteGraph(g, [0, 1], [1, 2])  # overlap
        with pytest.raises(ValueError):
            BipartiteGraph(g, [0], [2])  # vertex 1 uncovered
        g2 = UndirectedGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            BipartiteGraph(g2, [0, 1], [2])  # edge inside class 0
        g3 = UndirectedGraph(3, [(1, 2)])
        with pytest.raises(ValueError, match="^edge inside class 1 at vertex 1$"):
            BipartiteGraph(g3, [0], [1, 2])


class TestSetPredicates:
    def test_independent(self):
        g = hypercube_graph(3)
        assert is_independent(g, [0, 7])
        assert is_independent(g, [0, 3, 5, 6])
        assert not is_independent(g, [0, 1])
        assert is_independent(g, [])

    def test_maximal(self):
        g = hypercube_graph(3)
        assert is_maximal_independent(g, [0, 7])
        assert is_maximal_independent(g, [0, 3, 5, 6])
        assert not is_maximal_independent(g, [0])  # 7 could join
        assert not is_maximal_independent(g, [0, 1])  # not even independent

    def test_balanced(self):
        b = hypercube_bipartite(3)
        assert is_balanced(b, [0, 1])
        assert is_balanced(b, [])
        assert not is_balanced(b, [0, 3])  # both even
        assert not is_balanced(b, [1])

    def test_out_of_range_vertex(self):
        g = hypercube_graph(2)
        with pytest.raises(ValueError):
            is_independent(g, [4])


class TestTextFormat:
    def test_graph_roundtrip_exact(self):
        g = UndirectedGraph(4, [(0, 1), (1, 3)])
        text = format_graph(g)
        assert text == "p graph 4 2\ne 0 1\ne 1 3\n"
        g2 = parse_graph(text)
        assert g2.vertex_count == 4 and g2.adj == g.adj

    def test_comments_and_blank_lines(self):
        g = parse_graph("c a remark\n\np graph 2 1\nc another\ne 0 1\n")
        assert g.edge_count == 1

    @pytest.mark.parametrize(
        "text",
        [
            "e 0 1\n",  # edge before header
            "p graph 2 1\np graph 2 1\ne 0 1\n",  # duplicate header
            "p graph 2 2\ne 0 1\n",  # header edge count wrong
            "p bipartite 1 1 0\n",  # wrong header kind for parse_graph
            "p graph 2 0\nx 0 1\n",  # unknown line kind
            "p graph 2 1\ne 0 1 2\n",  # malformed edge line
            "",  # missing header
        ],
    )
    def test_graph_parse_errors(self, text):
        with pytest.raises(ValueError):
            parse_graph(text)

    @pytest.mark.parametrize(
        "text,message",
        [("p graph 2 1\nc a remark\ne 0 x\n", "line 3: invalid literal for int()"),
         ("p graph 2 1\ne 0 2\n", "line 2: vertex 2 out of range"),
         ("p graph 2 1\ne 1 1\n", "line 2: self-loop at 1"),
         ("p graph -1 0\n", "line 1: negative size in header"),
         ("p graph 2\n", "line 1: expected 'p graph <n> <m>' header"),
         ("p graph 2 1\ne 0 1\ne 1 0\n", "line 3: duplicate edge 0 1"),
         ("p graph 2 2\ne 1 0\ne 1 0\n", "line 3: duplicate edge 0 1")],
    )
    def test_a_line_error_names_its_line(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_graph(text)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("text", ["p graph 5001 0\n", "p bipartite 5000 1 0\n"])
    def test_a_header_above_the_solver_cap_builds_no_graph(self, monkeypatch, text):
        # a 10^9-vertex header would ask for about 8 GB before any edge
        def refuse(*args):
            raise AssertionError("a graph was built past the cap")

        monkeypatch.setattr(graphs, "UndirectedGraph", refuse)
        parse = parse_bipartite if text.startswith("p bipartite") else parse_graph
        with pytest.raises(
            SizeLimitExceeded, match="^line 1: 5001 vertices exceeds the solver cap 5000$"
        ):
            parse(text)

    def test_bipartite_roundtrip_structure(self):
        b = hypercube_bipartite(3)
        b2 = parse_bipartite(format_bipartite(b))
        # relabelled, but same shape: class sizes, edge count, degrees
        assert len(b2.class0) == len(b.class0)
        assert len(b2.class1) == len(b.class1)
        assert b2.graph.edge_count == b.graph.edge_count
        assert sorted(b2.graph.adj[v].bit_count() for v in range(8)) == [3] * 8

    def test_bipartite_parse_errors(self):
        with pytest.raises(ValueError):
            parse_bipartite("p graph 2 1\ne 0 1\n")
        # claims bipartite but the edge stays inside one class
        with pytest.raises(ValueError, match="^line 2: edge inside class 0 at vertex 0$"):
            parse_bipartite("p bipartite 2 1 1\ne 0 1\n")
        with pytest.raises(ValueError, match="^line 4: edge inside class 1 at vertex 2$"):
            parse_bipartite("p bipartite 2 2 2\ne 0 2\nc\ne 3 2\n")

    @pytest.mark.parametrize(
        "text,message",
        [("p bipartite 0 2 1\ne 0 1\n", "line 2: edge inside class 1 at vertex 0"),
         ("p graph 3 1\ne -1 2\n", "line 2: vertex -1 out of range"),
         ("p graph 3 1\ne 2 3\n", "line 2: vertex 3 out of range"),
         ("p bipartite 1 1 1\ne 1 1\n", "line 2: self-loop at 1"),
         ("p graph 2 1\n  e 0 1 \nc\n e 0 1\n", "line 4: duplicate edge 0 1"),
         ("p graph 2 1\n e 0 1 x\n", "line 2: malformed edge line 'e 0 1 x'"),
         ("  x 1\n", "line 1: unrecognized line 'x 1'")],
        ids=["empty-class-0", "negative", "past-the-end", "self-loop-before-class",
             "indented", "malformed", "unrecognized"],
    )
    def test_edge_line_checks(self, text, message):
        parse = parse_bipartite if text.startswith("p bipartite") else parse_graph
        with pytest.raises(ValueError) as exc:
            parse(text)
        assert str(exc.value) == message

    def test_bipartite_parse_builds_the_formatted_graph(self):
        rng = random.Random(31)
        for _ in range(40):
            b = random_bipartite(rng, max_vertices=20)
            b2 = parse_bipartite(format_bipartite(b))
            assert b2.graph.adj == b.graph.adj
            assert (b2.class0, b2.class1) == (b.class0, b.class1)

    @pytest.mark.parametrize(
        "text",
        ["p bipartite 1 1 1\ne 0 1\ne 1 0\n",  # the count matches the header
         "p bipartite 1 1 2\ne 0 1\ne 0 1\n"],  # the count would not
    )
    def test_a_repeated_edge_is_refused_at_its_line(self, text):
        with pytest.raises(ValueError, match="^line 3: duplicate edge 0 1$"):
            parse_bipartite(text)

    @given(
        st.integers(min_value=0, max_value=9).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=max(n - 1, 0)),
                    st.integers(min_value=0, max_value=max(n - 1, 0)),
                ).filter(lambda e: e[0] != e[1]),
                max_size=12,
            ).map(lambda edges: (n, edges))
        )
    )
    def test_graph_roundtrip_property(self, n_edges):
        n, edges = n_edges
        g = UndirectedGraph(n, edges)
        assert parse_graph(format_graph(g)).adj == g.adj


def random_bipartite(
    rng: random.Random, max_vertices: int = 14, density: float | None = None
) -> BipartiteGraph:
    """Seeded generator shared by the solver-equivalence sweeps; the edge
    density is drawn per graph unless given."""
    n0 = rng.randint(0, max_vertices)
    n1 = rng.randint(0, max_vertices - n0)
    g = UndirectedGraph(n0 + n1)
    p = rng.random() if density is None else density
    for u in range(n0):
        for v in range(n0, n0 + n1):
            if rng.random() < p:
                g.add_edge(u, v)
    return BipartiteGraph(g, range(n0), range(n0, n0 + n1))


def test_random_bipartite_generator_is_well_formed():
    rng = random.Random(5)
    for _ in range(50):
        b = random_bipartite(rng)
        assert b.vertex_count <= 14
        for u, v in b.graph.edges():
            assert (u in b.class0) != (v in b.class0)
