"""Bit-level model of the n-dimensional hypercube.

Vertices are plain integers in ``0 .. 2**n - 1``.  Entry ``i`` of the
vector notation ``(v_0, ..., v_{n-1})`` is bit ``i``, least significant
first, so the unit vector ``e_i`` is ``1 << i``, flipping entry ``i`` is an
XOR, and deleting entry ``i`` is a shift-and-mask.  Two vertices are
adjacent when they differ in exactly one entry.  An *i-edge* joins ``b`` and
``b | 1 << i`` and is named by its base ``b`` (bit ``i`` clear) and ``i``:
``drop_entry(b, i)`` projects it into the (n-1)-cube, and
``parity_excluding(b, i)`` is its class.

``MAX_DIM`` caps the dimension so every vertex fits comfortably in one
machine word and per-dimension tables stay small.

A vertex's neighbours are also one integer, the mask with bit ``v ^ 1 << i``
set for each i (``near_table``): the sampler tests a set of vertices for
a neighbour of v with one AND, and ``graphs.hypercube_graph`` takes the
masks as the cube's rows.  The neighbours, in increasing i, are also
one row of ``edge_rows``, which the search and the sampler walk.  A
process keeps both tables for n <= ``NEAR_TABLE_MAX_DIM`` only.
"""

from __future__ import annotations

from functools import cache

MAX_DIM = 24
# Cubes up to this dimension keep both tables per process: the masks take
# 4**n / 8 bytes (2 MB at n = 12, 512 MB at n = 16), the rows 0.7 MB at 12.
NEAR_TABLE_MAX_DIM = 12
# 11-14 s at n = 18, four to six times as long per two dimensions more
ISOMORPHISM_MAX_DIM = 18


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


def isomorphism_violations(n: int) -> tuple[int, list[dict]]:
    """Check, for every dimension i, that projecting the i-edges of the
    n-cube is an adjacency-preserving bijection onto the (n-1)-cube; return
    the number of dimensions checked and one record per failure.  A record
    of broken adjacency lists up to three ``[base, j]`` translates.

    Two i-edges are adjacent when one is the translate of the other along
    some dimension j != i, so the projection preserves adjacency exactly
    when that translate lands on the image moved along entry j of the
    (n-1)-cube, which is entry j - 1 when j > i.  Dimensions above
    ``ISOMORPHISM_MAX_DIM`` are refused before any work.
    """
    check_dimension(n)
    if n < 2:
        raise ValueError("dimension graphs need n >= 2")
    if n > ISOMORPHISM_MAX_DIM:
        raise ValueError(f"the isomorphism check runs only for n <= {ISOMORPHISM_MAX_DIM}")
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


@cache
def near_table(n: int) -> tuple[int, ...]:
    """The mask of each vertex's neighbours in the n-cube, built once per
    process; for n <= ``NEAR_TABLE_MAX_DIM``."""
    steps = [1 << j for j in range(n)]
    return tuple([sum(1 << (v ^ s) for s in steps) for v in range(1 << n)])


def edge_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """For each vertex u of the n-cube, its neighbours ``u ^ 1 << i`` in
    increasing i.  Built once per process for n <= ``NEAR_TABLE_MAX_DIM``,
    and at each call above."""
    return _edge_rows(n) if n <= NEAR_TABLE_MAX_DIM else _edge_rows.__wrapped__(n)


@cache
def _edge_rows(n: int) -> tuple[tuple[int, ...], ...]:
    # every row reads its entries from one vertex list, so the rows share
    # one int object per vertex
    steps = [1 << i for i in range(n)]
    vertices = list(range(1 << n))
    return tuple([tuple([vertices[u ^ s] for s in steps]) for u in vertices])
