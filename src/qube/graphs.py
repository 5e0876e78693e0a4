"""Small-graph containers with bitmask adjacency, and the text format used
for solver input and output.

Text format (DIMACS-like): a header line ``p graph <n> <m>`` or
``p bipartite <n0> <n1> <m>`` followed by one ``e <u> <v>`` line per edge
(no edge twice, in either order).  In the bipartite form, class 0 is
vertices ``0..n0-1`` and class 1 is ``n0..n0+n1-1``.  Lines starting with
``c`` are comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .hypercube import check_dimension, near_table, parity

# No solver takes a graph of more vertices, so a header or a cube above it
# is refused before its graph is allocated.
MAX_SOLVER_VERTICES = 5000


class SizeLimitExceeded(ValueError):
    """The input is larger than the solver is rated for."""


def check_solver_cap(vertices: int) -> None:
    """Raise SizeLimitExceeded for a graph of more vertices than any solver
    takes."""
    if vertices > MAX_SOLVER_VERTICES:
        raise SizeLimitExceeded(f"{vertices} vertices exceeds the solver cap {MAX_SOLVER_VERTICES}")


class UndirectedGraph:
    """Loop-free undirected graph on vertices 0..vertex_count-1, stored as
    one adjacency bitmask per vertex."""

    __slots__ = ("vertex_count", "adj")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        self.vertex_count = vertex_count
        self.adj: list[int] = [0] * vertex_count
        for u, v in edges:
            self.add_edge(u, v)

    def _check(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise ValueError(f"vertex {v} out of range")

    def add_edge(self, u: int, v: int) -> None:
        self._check(u)
        self._check(v)
        if u == v:
            raise ValueError(f"self-loop at {u}")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check(v)
        return self.adj[v].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (u, v) with u < v, in increasing order."""
        for u in range(self.vertex_count):
            m = self.adj[u] >> (u + 1) << (u + 1)
            while m:
                low = m & -m
                yield (u, low.bit_length() - 1)
                m ^= low


class BipartiteGraph:
    """An undirected graph together with a bipartition; every edge must
    cross between the two classes."""

    __slots__ = ("graph", "class0", "class1", "mask0", "mask1")

    def __init__(
        self, graph: UndirectedGraph, class0: Iterable[int], class1: Iterable[int]
    ):
        c0 = tuple(sorted(set(class0)))
        c1 = tuple(sorted(set(class1)))
        if set(c0) & set(c1):
            raise ValueError("bipartition classes overlap")
        if sorted(c0 + c1) != list(range(graph.vertex_count)):
            raise ValueError("classes must cover every vertex exactly once")
        m0 = sum(1 << v for v in c0)
        m1 = sum(1 << v for v in c1)
        for v in c0:
            if graph.adj[v] & m0:
                raise ValueError(f"edge inside class 0 at vertex {v}")
        for v in c1:
            if graph.adj[v] & m1:
                raise ValueError(f"edge inside class 1 at vertex {v}")
        self.graph = graph
        self.class0 = c0
        self.class1 = c1
        self.mask0 = m0
        self.mask1 = m1

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count


@dataclass(frozen=True)
class ReducedGraph:
    """Pair graph of a bipartite graph: one vertex per cross-class
    non-edge, labelled by the pair it stands for.  Pairs that share a
    coordinate conflict, so the pairs at each vertex are a clique, and
    the labels give the clique search two covers by cliques."""

    graph: UndirectedGraph
    pair_labels: tuple[tuple[int, int], ...]


def hypercube_graph(n: int) -> UndirectedGraph:
    """The n-cube as an UndirectedGraph on vertices 0..2**n-1, whose rows
    are the neighbour masks of :func:`~qube.hypercube.near_table`.  The
    rows take about 4**n / 8 bytes, so a cube above
    ``MAX_SOLVER_VERTICES`` vertices is refused before any row is built."""
    check_dimension(n)
    check_solver_cap(1 << n)
    g = UndirectedGraph(1 << n)
    g.adj = list(near_table(n))
    return g


def hypercube_bipartite(n: int) -> BipartiteGraph:
    """The n-cube with its parity bipartition (class 0 = even weight)."""
    g = hypercube_graph(n)
    evens = [v for v in range(1 << n) if parity(v) == 0]
    odds = [v for v in range(1 << n) if parity(v) == 1]
    return BipartiteGraph(g, evens, odds)


def is_independent(g: UndirectedGraph, vertices: Iterable[int]) -> bool:
    """Whether no two of the given vertices are adjacent."""
    vs = list(vertices)
    mask = 0
    for v in vs:
        g._check(v)
        mask |= 1 << v
    return all(g.adj[v] & mask == 0 for v in vs)


def is_maximal_independent(g: UndirectedGraph, vertices: Iterable[int]) -> bool:
    """Whether the set is independent and no further vertex can join it."""
    vs = set(vertices)
    if not is_independent(g, vs):
        return False
    mask = sum(1 << v for v in vs)
    return all(v in vs or g.adj[v] & mask for v in range(g.vertex_count))


def is_balanced(b: BipartiteGraph, vertices: Iterable[int]) -> bool:
    """Whether the set meets both bipartition classes equally often."""
    mask = 0
    for v in set(vertices):
        b.graph._check(v)
        mask |= 1 << v
    return (mask & b.mask0).bit_count() == (mask & b.mask1).bit_count()


def format_graph(g: UndirectedGraph) -> str:
    lines = [f"p graph {g.vertex_count} {g.edge_count}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def format_bipartite(b: BipartiteGraph) -> str:
    """Serialize with class-0 vertices relabelled to 0..n0-1 and class-1
    vertices to n0..n0+n1-1, as the format requires."""
    relabel = {v: k for k, v in enumerate(b.class0 + b.class1)}
    n0, n1 = len(b.class0), len(b.class1)
    lines = [f"p bipartite {n0} {n1} {b.graph.edge_count}"]
    lines.extend(
        f"e {min(relabel[u], relabel[v])} {max(relabel[u], relabel[v])}"
        for u, v in b.graph.edges()
    )
    return "\n".join(lines) + "\n"


def _parse(text: str, kind: str) -> tuple[list[int], UndirectedGraph]:
    """The header sizes and the graph of a ``p <kind> ...`` text.  The last
    size is the edge count and the others add up to the vertex count, at
    most ``MAX_SOLVER_VERTICES``: a larger header is refused before its
    graph is allocated.  In the bipartite form each edge must
    cross from the first ``n0`` vertices to the rest.  An error on a line,
    a repeated edge or an edge inside a class among them, names that
    line."""
    form = {"graph": "<n> <m>", "bipartite": "<n0> <n1> <m>"}[kind]
    sizes: list[int] = []
    g: UndirectedGraph | None = None
    adj: list[int] = []
    vertices = n0 = 0
    bipartite = kind == "bipartite"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "c":
            continue
        try:
            if fields[0] == "e":
                if g is None:
                    raise ValueError("edge before header")
                # the checks of has_edge and add_edge, inline
                if len(fields) != 3:
                    raise ValueError(f"malformed edge line {raw.strip()!r}")
                u, v = int(fields[1]), int(fields[2])
                if not 0 <= u < vertices:
                    raise ValueError(f"vertex {u} out of range")
                if not 0 <= v < vertices:
                    raise ValueError(f"vertex {v} out of range")
                row = adj[u]
                if row >> v & 1:
                    raise ValueError(f"duplicate edge {min(u, v)} {max(u, v)}")
                if u == v:
                    raise ValueError(f"self-loop at {u}")
                adj[u] = row | 1 << v
                adj[v] |= 1 << u
                if bipartite and (u < n0) == (v < n0):
                    raise ValueError(f"edge inside class {int(u >= n0)} at vertex {min(u, v)}")
            elif fields[0] == "p":
                if g is not None:
                    raise ValueError("duplicate header")
                if fields[1:2] != [kind] or len(fields) != len(form.split()) + 2:
                    raise ValueError(f"expected 'p {kind} {form}' header, got {raw.strip()!r}")
                sizes = [int(f) for f in fields[2:]]
                if min(sizes) < 0:
                    raise ValueError(f"negative size in header {raw.strip()!r}")
                vertices = sum(sizes[:-1])
                check_solver_cap(vertices)
                g = UndirectedGraph(vertices)
                adj = g.adj
                n0 = sizes[0]
            else:
                raise ValueError(f"unrecognized line {raw.strip()!r}")
        except ValueError as exc:
            # the cap's SizeLimitExceeded keeps its type
            raise type(exc)(f"line {lineno}: {exc}") from None
    if g is None:
        raise ValueError("missing 'p' header line")
    if g.edge_count != sizes[-1]:
        raise ValueError(f"header claims {sizes[-1]} edges, file has {g.edge_count}")
    return sizes, g


def parse_graph(text: str) -> UndirectedGraph:
    """Parse the ``p graph <n> <m>`` text format."""
    return _parse(text, "graph")[1]


def parse_bipartite(text: str) -> BipartiteGraph:
    """Parse the ``p bipartite <n0> <n1> <m>`` text format."""
    (n0, n1, _), g = _parse(text, "bipartite")
    return BipartiteGraph(g, range(n0), range(n0, n0 + n1))
