"""Inscribed-square detection in Hamiltonian cycles of the n-cube.

An *inscribed square* is a pair of same-dimension cycle edges that are
opposite sides of a 4-cycle of the hypercube.  The two cycle edges are the
*rims* (their shared dimension is the rim dimension), the two other sides
of the 4-cycle are the *rays* (they share the ray dimension).  A square is
*straight* when the two rims are traversed in opposite directions along
the rim dimension (the cycle doubles back) and *twisted* when they are
traversed in the same direction; the classification does not depend on the
rotation or orientation of the cycle.

Two i-edges are rims of a common square exactly when their projections
into the (n-1)-cube are adjacent there, that is, when their bases ``u & w``
differ in one bit.  One scan answers every square question.  It walks the
edges in cycle order and keeps, per dimension, the mask of the bases met
so far; an edge closes a square with each earlier rim whose base lies in
the mask of its base's neighbours: one AND per edge.  ``has_square``
stops at the first such edge, and the threshold check runs the scan over
one dimension's edges.  ``find_squares`` lets it run to the end, keeping
each closing edge with the mask of its earlier rims, and maps each
earlier base back to its start position through the cycle's
vertex-to-position array.

Above a per-dimension usage threshold a square with that rim dimension is
forced (``rim_threshold``); ``pigeonhole_report`` is the counting argument
that forces one in every Hamiltonian cycle of small cubes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple

from .cycles import HamiltonianCycle, positions_by_dim
from .hypercube import near_masks


class EquiValueUnavailable(LookupError):
    """No stored balanced-independence number for the requested dimension."""


# Bundled reference table of balanced-independence numbers for the n-cube.
# The 1- and 2-cube have no balanced independent set at all (every
# cross-class pair is an edge), and the solvers in :mod:`qube.independence`
# confirm the entries for n <= 5.  For n = 6 and 7 the solvers find strictly
# larger values (20 and 44; explicit witnesses are checked in the test
# suite), so those two reference entries are understated.  The table is kept
# verbatim because downstream thresholds and reports are defined against it;
# ``table1`` output flags the disagreement wherever a computed value is
# available.
ALPHA_EQUI_HYPERCUBE: dict[int, int] = {1: 0, 2: 0, 3: 2, 4: 4, 5: 10, 6: 16, 7: 40}

# Balanced-independence numbers actually computed by this package's solvers
# (direct branch-and-bound, cross-checked by the pair-graph reduction for
# n <= 5 and by explicit layered witnesses for n = 6, 7).
ALPHA_EQUI_COMPUTED: dict[int, int] = {1: 0, 2: 0, 3: 2, 4: 4, 5: 10, 6: 20, 7: 44}


class InscribedSquare(NamedTuple):
    """Two same-dimension cycle edges forming opposite sides of a 4-cycle.

    ``rim_indexes`` are the cycle positions where the two rim edges start,
    in increasing order.
    """

    rim_dim: int
    rim_indexes: tuple[int, int]
    kind: str  # "straight" or "twisted"
    ray_dim: int

    def to_dict(self) -> dict:
        return {
            "rim_dim": self.rim_dim,
            "kind": self.kind,
            "rim_indexes": list(self.rim_indexes),
            "ray_dim": self.ray_dim,
        }


def _rim_scan(
    h: HamiltonianCycle, starts: Iterable[int] | None = None, found: list | None = None
) -> bool:
    """Whether two cycle edges among those starting at ``starts`` (by
    default every edge, the closing one included) are the rims of a square.
    ``bases[i]`` holds the bases ``u & w`` of the i-edges met so far, and an
    i-edge with base b is a later rim exactly when that mask meets
    ``near[b]``.  The scan stops at the first such edge, unless ``found``
    is given: then it appends (i, start k, b, mask of the earlier rims'
    bases) for every such edge."""
    seq = h.seq
    size = len(seq)
    near = near_masks(h.n)
    bases = [0] * h.n
    for k in range(size) if starts is None else starts:
        u = seq[k]
        w = seq[(k + 1) % size]
        b = u & w
        i = (u ^ w).bit_length() - 1
        seen = bases[i]
        if seen & near[b]:
            if found is None:
                return True
            found.append((i, k, b, seen & near[b]))
        bases[i] = seen | 1 << b
    return bool(found)


def find_squares(h: HamiltonianCycle) -> list[InscribedSquare]:
    """All inscribed squares of the cycle, ordered by rim dimension and
    then rim start positions (the rims fix the ray).  An earlier rim with
    base e starts where e stands, or one step before when the cycle enters
    it from e's upper end; the ray is the bit where the two bases differ.
    Each square is built by ``tuple.__new__``, as ``InscribedSquare._make``
    does, without a call of the generated ``__new__``."""
    found: list[tuple[int, int, int, int]] = []
    _rim_scan(h, found=found)
    seq = h.seq
    at = [0] * (1 << h.n)  # a closed walk may miss vertices of its cube
    for k, v in enumerate(seq):
        at[v] = k
    pairs = []
    for i, k, b, hit in found:
        while hit:
            low = hit & -hit
            e = low.bit_length() - 1
            a = at[e]
            if seq[a - 1] == e | 1 << i:  # a > 0: the closing edge is scanned last
                a -= 1
            pairs.append((i, a, k, (b ^ e).bit_length() - 1))
            hit ^= low
    pairs.sort()
    new = tuple.__new__
    return [
        new(InscribedSquare, (
            i, (a, k), "straight" if (seq[a] ^ seq[k]) >> i & 1 else "twisted", j
        ))
        for i, a, k, j in pairs
    ]


def has_square(h: HamiltonianCycle) -> bool:
    """Whether the cycle contains any inscribed square (early exit)."""
    return _rim_scan(h)


def rim_threshold(n: int, mode: str = "equi") -> int:
    """Dimension-usage count above which an inscribed square with that rim
    dimension is forced.

    ``independence`` mode uses the quarter-order bound 2**(n-2);
    ``equi`` mode sharpens it to the balanced-independence number of the
    (n-1)-cube, which must be stored in ALPHA_EQUI_HYPERCUBE.
    """
    if n < 2:
        raise ValueError("thresholds need n >= 2")
    if mode == "independence":
        return 1 << (n - 2)
    if mode == "equi":
        try:
            return ALPHA_EQUI_HYPERCUBE[n - 1]
        except KeyError:
            raise EquiValueUnavailable(
                f"no stored balanced-independence number for dimension {n - 1}"
            ) from None
    raise ValueError(f"unknown threshold mode {mode!r}")


@dataclass(frozen=True)
class ThresholdReport:
    """Which dimensions exceed the square-forcing threshold, and which of
    those (none, when the theory holds) lack a square with that rim."""

    mode: str
    threshold: int
    obligated_dims: tuple[int, ...]
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_threshold_implication(
    h: HamiltonianCycle, mode: str = "equi"
) -> ThresholdReport:
    """For every dimension used more than the threshold, confirm that some
    inscribed square has that rim dimension: one early-exit pass over
    that dimension's edges, without listing the squares."""
    thr = rim_threshold(h.n, mode)
    positions = positions_by_dim(h)
    obligated = tuple(i for i, ks in enumerate(positions) if len(ks) > thr)
    violations = tuple(i for i in obligated if not _rim_scan(h, positions[i]))
    return ThresholdReport(mode, thr, obligated, violations)


@dataclass(frozen=True)
class PigeonholeReport:
    """The counting argument for dimension n: if n times the balanced-
    independence number of the (n-1)-cube is still below the cycle length
    2**n, every Hamiltonian cycle must use some dimension often enough to
    force an inscribed square."""

    n: int
    threshold: int
    product: int
    order: int

    @property
    def forced(self) -> bool:
        return self.product < self.order

    def to_dict(self) -> dict:
        return {**asdict(self), "forced": self.forced}


def pigeonhole_report(n: int) -> PigeonholeReport:
    """The counting argument at dimension n, with the ``equi`` rim
    threshold (the stored balanced-independence number of the next cube
    down)."""
    alpha = rim_threshold(n, "equi")
    return PigeonholeReport(n, alpha, n * alpha, 1 << n)
