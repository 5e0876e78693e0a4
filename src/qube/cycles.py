"""Validation and per-dimension analysis of Hamiltonian cycles of the n-cube.

A cycle is stored as the visiting order of all ``2**n`` vertices.  The edge
leaving position ``k`` (to position ``k+1``, cyclically) is said to *start*
at ``k``; its dimension is the *color* of position ``k``.  Analysis of one
dimension always happens on the normalized rotation, whose first edge runs
along that dimension out of a vertex with that bit clear.

Parity balance (``DimensionProfile.balanced``) holds for every 2-factor
of the n-cube, a spanning subgraph in which every vertex has degree 2, not
only for Hamiltonian cycles.  Fix a dimension i and let H0 be the
vertices with bit i clear, half of them even and half odd.  An i-edge's
class is the parity of its endpoint in H0.  In a 2-factor F each vertex v
of H0 has 2 = (F-edges at v inside H0) + d_i(v), where d_i(v) is 0 or 1
i-edges.  Each F-edge inside H0 has one even and one odd endpoint, so the
first terms sum to the same total over the even and over the odd vertices
of H0, and so do the d_i.  The same count covers any spanning subgraph
whose degree sums over the even and the odd vertices of H0 agree, such as
a perfect matching.  The balance belongs to the whole 2-factor: a single
cycle of it may be unbalanced.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from operator import xor
from typing import Sequence

from .hypercube import check_dimension, edge_dim, gray_code


class CycleError(ValueError):
    """A raw vertex sequence is not a valid Hamiltonian cycle."""


class WrongLength(CycleError):
    """The sequence does not have exactly 2**n entries."""


class InvalidVertex(CycleError):
    """Some entry is not a vertex of the n-cube."""


class DuplicateVertex(CycleError):
    """Some vertex appears more than once."""


class NonAdjacentStep(CycleError):
    """Two consecutive entries are not hypercube-adjacent."""

    def __init__(self, index: int, u: int, v: int):
        super().__init__(f"step {index}: {u} -> {v} is not a hypercube edge")
        self.index = index


class NotClosed(CycleError):
    """The last entry is not adjacent to the first."""


class DimensionUnused(ValueError):
    """The requested dimension does not occur in the cycle."""


@dataclass(frozen=True, slots=True)
class HamiltonianCycle:
    """A Hamiltonian cycle of the n-cube; build a checked one with
    :func:`validate_cycle`."""

    n: int
    seq: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.seq)

    def rotated(self, k: int) -> "HamiltonianCycle":
        """The same cycle started k positions later."""
        k %= len(self.seq)
        return HamiltonianCycle(self.n, self.seq[k:] + self.seq[:k])

    def reversed_cycle(self) -> "HamiltonianCycle":
        """The same edge set traversed in the opposite direction, keeping
        the starting vertex."""
        return HamiltonianCycle(self.n, self.seq[:1] + self.seq[:0:-1])

    def to_dict(self) -> dict:
        return {"n": self.n, "seq": list(self.seq)}

    @classmethod
    def from_dict(cls, obj: dict) -> "HamiltonianCycle":
        """Parse and validate the JSON object form {"n": ..., "seq": [...]}.
        ``n`` and the vertices must be integers, not bools: a float, a
        string or a bool is rejected, not converted."""
        try:
            n, seq = obj["n"], tuple(obj["seq"])
        except (KeyError, TypeError) as exc:
            raise CycleError(f"malformed cycle object: {exc}") from None
        if type(n) is not int or not {int}.issuperset(map(type, seq)):
            raise CycleError("malformed cycle object: n and every vertex must be integers")
        return validate_cycle(n, seq)


def validate_cycle(n: int, seq: Sequence[int]) -> HamiltonianCycle:
    """Check that ``seq`` walks every vertex of the n-cube exactly once
    along edges and closes up; return the cycle or raise a CycleError.
    The n-cube has a Hamiltonian cycle only for n >= 2."""
    check_dimension(n)
    if n < 2:
        raise CycleError("a Hamiltonian cycle needs n >= 2")
    values = tuple(seq)
    size = 1 << n
    if len(values) != size:
        raise WrongLength(f"expected {size} vertices for n={n}, got {len(values)}")
    if min(values) < 0 or max(values) >= size:
        v = next(v for v in values if not 0 <= v < size)
        raise InvalidVertex(f"vertex {v} out of range for n={n}")
    if len(set(values)) != size:
        dup = next(v for v, c in Counter(values).items() if c > 1)
        raise DuplicateVertex(f"vertex {dup} appears more than once")
    steps = list(map(int.bit_count, map(xor, values, values[1:])))
    if steps.count(1) != size - 1:
        k = next(k for k, c in enumerate(steps) if c != 1)
        raise NonAdjacentStep(k, values[k], values[k + 1])
    if (values[-1] ^ values[0]).bit_count() != 1:
        raise NotClosed(f"{values[-1]} -> {values[0]} does not close the cycle")
    return HamiltonianCycle(n, values)


def gray_cycle(n: int) -> HamiltonianCycle:
    """The binary reflected Gray code as a validated cycle (n >= 2)."""
    return validate_cycle(n, gray_code(n))


def color(h: HamiltonianCycle) -> list[int]:
    """Dimension of the edge starting at each position of the cycle."""
    seq = h.seq
    return list(map(edge_dim, seq, seq[1:] + seq[:1]))


def positions_by_dim(h: HamiltonianCycle) -> list[list[int]]:
    """Start positions of the cycle's edges, bucketed by dimension, in
    increasing order: one colour pass serves every dimension."""
    buckets: list[list[int]] = [[] for _ in range(h.n)]
    for k, d in enumerate(color(h)):
        buckets[d].append(k)
    return buckets


def chromatic_vector(h: HamiltonianCycle) -> tuple[int, ...]:
    """How many cycle edges run along each dimension."""
    return tuple(len(positions) for positions in positions_by_dim(h))


@dataclass(frozen=True)
class ChromaticCheck:
    """Pointwise necessary conditions on a dimension-usage histogram.

    A sixth condition -- closure of the admissible histograms under
    permutation -- cannot be decided from one histogram; it is exercised
    through :func:`permute_dims` instead.
    """

    all_even: bool
    none_zero: bool
    total_is_order: bool
    max_at_most_half: bool
    min_at_least_two: bool

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        return [f.name for f in fields(self) if not getattr(self, f.name)]


def check_chromatic_conditions(counts: Sequence[int], n: int) -> ChromaticCheck:
    """Evaluate the pointwise conditions for ``counts`` to be the
    dimension-usage histogram of some Hamiltonian cycle of the n-cube."""
    check_dimension(n)
    if len(counts) != n:
        raise ValueError(f"expected {n} counts, got {len(counts)}")
    size = 1 << n
    return ChromaticCheck(
        all_even=all(c % 2 == 0 for c in counts),
        none_zero=all(c != 0 for c in counts),
        total_is_order=sum(counts) == size,
        max_at_most_half=max(counts) <= size // 2,
        min_at_least_two=min(counts) >= 2,
    )


def permute_dims(h: HamiltonianCycle, perm: Sequence[int]) -> HamiltonianCycle:
    """Relabel dimensions: bit i of every vertex moves to bit perm[i].

    The image is again a Hamiltonian cycle, and its dimension-usage
    histogram is the corresponding rearrangement of the original one.
    """
    perm = list(perm)
    if sorted(perm) != list(range(h.n)):
        raise ValueError(f"not a permutation of 0..{h.n - 1}: {perm}")

    def remap(v: int) -> int:
        out = 0
        for i, j in enumerate(perm):
            if v >> i & 1:
                out |= 1 << j
        return out

    return HamiltonianCycle(h.n, tuple(remap(v) for v in h.seq))


class _lazy:
    """A field computed on first read and written into the instance's
    ``__dict__``, where later reads find it before this non-data descriptor.
    Unlike ``functools.cached_property`` (on Python 3.11) it takes no lock."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(unsafe_hash=True)
class DimensionProfile:
    """Everything about one dimension of a cycle, after normalization.

    Only the dimension, the cycle, the rotation ``shift`` that normalizes
    it and the ``index_list`` of i-edge positions in the normalized
    rotation are stored; every other field is computed on first read and
    kept.  ``parity_list`` is built by the alternating gap recurrence from
    the first vertex; ``parity_direct`` reads the class of each i-edge
    straight off the cycle.  On every valid cycle the two agree.
    ``edge_list`` holds each i-edge as its endpoints, bit i clear first.
    The class is not frozen, so its ``__init__`` is a plain one, but a
    profile must not be changed once built: its hash and its kept fields
    are computed from the four stored ones.
    """

    dim: int
    cycle: HamiltonianCycle
    shift: int
    index_list: tuple[int, ...]

    @_lazy
    def normalized(self) -> HamiltonianCycle:
        return self.cycle.rotated(self.shift)

    @_lazy
    def start_vertices(self) -> tuple[int, ...]:
        seq = self.cycle.seq
        back = self.shift - len(seq)  # position k of the rotation is seq[k + back]
        return tuple([seq[k + back] for k in self.index_list])

    @_lazy
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        bit = 1 << self.dim
        return tuple([(v & ~bit, v | bit) for v in self.start_vertices])

    @_lazy
    def segments(self) -> tuple[int, ...]:
        idx = self.index_list
        return tuple([b - a for a, b in zip(idx, idx[1:] + (len(self.cycle),))])

    @_lazy
    def parity_list(self) -> tuple[int, ...]:
        # bit k+1 = bit k + gap k + 1 (mod 2), and gaps 0..k-1 sum to
        # index k, so bit k = bit 0 + index k + k (mod 2)
        first = self.cycle.seq[self.shift].bit_count() & 1  # bit i is clear
        return tuple([(first + k + x) & 1 for k, x in enumerate(self.index_list)])

    @_lazy
    def parity_direct(self) -> tuple[int, ...]:
        i = self.dim  # the weight's parity without bit i
        return tuple([(v.bit_count() ^ v >> i) & 1 for v in self.start_vertices])

    @property
    def balanced(self) -> bool:
        """The i-edges split evenly between the two classes."""
        return 2 * sum(self.parity_list) == len(self.index_list)

    @property
    def segment_sums_ok(self) -> bool:
        """The even- and odd-position gap lengths each sum to 2**(n-1)."""
        half = len(self.cycle) >> 1
        return sum(self.segments[0::2]) == half == sum(self.segments[1::2])

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "index_list": self.index_list,
            "start_vertices": self.start_vertices,
            "edge_list": self.edge_list,
            "segments": self.segments,
            "parity_list": self.parity_list,
            "balanced": self.balanced,
            "segment_sums_ok": self.segment_sums_ok,
        }


def _profile(h: HamiltonianCycle, i: int, positions: list[int]) -> DimensionProfile:
    """Dimension i's profile from its edge start positions, in increasing
    order.  The normalized rotation starts at the earliest i-edge leaving a
    vertex with bit i clear.  Bit i changes only along i-edges, so on any
    closed walk they alternate direction: that edge is the first i-edge or
    else the second, and a walk without i-edges raises DimensionUnused.
    Its positions are the tail of ``positions`` from that edge on, then
    the head wrapped past the end."""
    if not positions:
        raise DimensionUnused(f"no i-edge leaves a vertex with bit i clear (i={i})")
    seq = h.seq
    first = seq[positions[0]] >> i & 1
    shift = positions[first]
    wrap = len(seq) - shift
    idx = [k - shift for k in positions[first:]] + [k + wrap for k in positions[:first]]
    return DimensionProfile(i, h, shift, tuple(idx))


def dimension_profiles(h: HamiltonianCycle) -> list[DimensionProfile]:
    """Every dimension's profile, in dimension order, from one colour pass."""
    return [_profile(h, i, pos) for i, pos in enumerate(positions_by_dim(h))]


def dimension_profile(h: HamiltonianCycle, i: int) -> DimensionProfile:
    """Collect the positions, start vertices, edges, gap lengths and edge
    classes of dimension i, with respect to the normalized rotation."""
    if not 0 <= i < h.n:
        raise ValueError(f"dimension index {i} out of range for n={h.n}")
    return _profile(h, i, positions_by_dim(h)[i])


def check_balance(h: HamiltonianCycle, i: int) -> bool:
    """:attr:`DimensionProfile.balanced` for dimension i."""
    return dimension_profile(h, i).balanced


def check_segment_sums(h: HamiltonianCycle, i: int) -> bool:
    """:attr:`DimensionProfile.segment_sums_ok` for dimension i."""
    return dimension_profile(h, i).segment_sums_ok
