"""Bit-level model of the n-dimensional hypercube.

Vertices are plain integers in ``0 .. 2**n - 1``.  Entry ``i`` of the
vector notation ``(v_0, ..., v_{n-1})`` is bit ``i``, least significant
first, so the unit vector ``e_i`` is ``1 << i``, flipping entry ``i`` is an
XOR, and deleting entry ``i`` is a shift-and-mask.  Two vertices are
adjacent when they differ in exactly one entry.

``MAX_DIM`` caps the dimension so every vertex fits comfortably in one
machine word and per-dimension tables stay small.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_DIM = 24


def check_dimension(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_DIM."""
    if not isinstance(n, int) or not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be an integer in 1..{MAX_DIM}, got {n!r}")


def check_vertex(v: int, n: int) -> None:
    """Raise ValueError unless v is a vertex of the n-cube."""
    check_dimension(n)
    if not 0 <= v < (1 << n):
        raise ValueError(f"vertex {v} out of range for dimension {n}")


def parity(v: int) -> int:
    """Parity (0 or 1) of the Hamming weight of v."""
    return v.bit_count() & 1


def drop_entry(v: int, i: int) -> int:
    """Delete entry i of v: bits below i stay put, bits above shift down."""
    if i < 0:
        raise ValueError(f"entry index must be nonnegative, got {i}")
    return (v & ((1 << i) - 1)) | ((v >> (i + 1)) << i)


def parity_excluding(v: int, i: int) -> int:
    """Parity of the Hamming weight of v with entry i suppressed.

    Equal to ``parity(drop_entry(v, i))``: suppressing entry i removes bit i
    from the weight, so the parity is the weight's low bit XOR bit i.
    """
    if i < 0:
        raise ValueError(f"entry index must be nonnegative, got {i}")
    return (v.bit_count() ^ (v >> i)) & 1


def neighbors(v: int, n: int) -> list[int]:
    """The n vertices adjacent to v, in increasing dimension order."""
    check_vertex(v, n)
    return [v ^ (1 << i) for i in range(n)]


def edge_dim(u: int, v: int) -> int:
    """Dimension of the edge {u, v}; raises ValueError if not adjacent."""
    x = u ^ v
    if x == 0 or x & (x - 1):
        raise ValueError(f"{u} and {v} are not hypercube-adjacent")
    return x.bit_length() - 1


def gray_code(n: int) -> list[int]:
    """Binary reflected Gray code on n bits.

    The classic doubling construction (copy the previous code, then append
    its reversal with the new top bit set) collapses to the closed form
    ``i ^ (i >> 1)``.  For n >= 2 the result is a Hamiltonian cycle of the
    n-cube.
    """
    check_dimension(n)
    return [i ^ (i >> 1) for i in range(1 << n)]


@dataclass(frozen=True, order=True)
class DimEdge:
    """An edge of the n-cube whose endpoints differ exactly at entry ``dim``.

    Canonical form: ``base`` is the endpoint with bit ``dim`` clear, so two
    DimEdge values are equal iff they name the same unordered edge.
    """

    base: int
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError(f"dimension must be nonnegative, got {self.dim}")
        if self.base < 0 or self.base >> self.dim & 1:
            raise ValueError(f"base {self.base} must have bit {self.dim} clear")

    @property
    def other(self) -> int:
        """The endpoint with bit ``dim`` set."""
        return self.base | (1 << self.dim)

    def endpoints(self) -> tuple[int, int]:
        return (self.base, self.other)


def dim_edge_project(edge: DimEdge) -> int:
    """Project an i-edge to a vertex of the (n-1)-cube by deleting entry i.

    Both endpoints of the edge project to the same value.
    """
    return drop_entry(edge.base, edge.dim)


def edge_class(edge: DimEdge) -> int:
    """Bipartition class (0 or 1) of an i-edge.

    Defined as the parity of either endpoint with entry i suppressed; the
    two endpoints agree because they differ only at entry i.
    """
    return parity(dim_edge_project(edge))


def isomorphism_violations(n: int) -> tuple[int, list[dict]]:
    """Check, for every dimension i, that projecting the i-edges of the
    n-cube is an adjacency-preserving bijection onto the (n-1)-cube; return
    the number of dimensions checked and one record per failure.  A record
    of broken adjacency lists up to three ``[base, j]`` translates.

    Two i-edges are adjacent when one is the translate of the other along
    some dimension j != i, so the projection preserves adjacency exactly
    when that translate lands on the image moved along entry j of the
    (n-1)-cube, which is entry j - 1 when j > i.
    """
    check_dimension(n)
    if n < 2:
        raise ValueError("dimension graphs need n >= 2")
    out = []
    for i in range(n):
        bases = [b for b in range(1 << n) if not b >> i & 1]
        projections = [drop_entry(b, i) for b in bases]
        if sorted(projections) != list(range(1 << (n - 1))):
            out.append({"dim": i, "reason": "projection is not a bijection"})
            continue
        broken = [
            [b, j]
            for b, p in zip(bases, projections)
            for j in range(n)
            if j != i and drop_entry(b ^ (1 << j), i) != p ^ (1 << (j - (j > i)))
        ]
        if broken:
            out.append(
                {
                    "dim": i,
                    "reason": "translates do not project to neighbours",
                    "translates": broken[:3],
                }
            )
    return n, out
