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
differ in one bit.  Two scans walk the edges in cycle order, keep the
bases of the edges met so far and probe them at the n neighbours of
each new base; neither reads a table of the cube.  The existence scan
behind ``has_square`` and the threshold check keeps one set of bases,
each tagged with its edge's dimension, and stops at the first hit.
``find_squares``, the one listing, keeps per dimension a dict from each
base to where its edge starts and emits a plain row for each hit.  The
``squares`` command writes those rows.

The commonest square is a *U-turn*: the cycle walks three sides of one
2-face, so ``seq[k] ^ seq[k+3]`` is a unit vector.  Consecutive edges of
a cycle differ in dimension, so the XOR d_k ^ d_(k+1) ^ d_(k+2) of three
edge dimensions is a unit only when d_k = d_(k+2); edges k and k+2 are
then the rims of a straight square with ray dimension d_(k+1).
``has_square`` looks for one in a single pass before it runs the scan,
which stays the one complete route.  A cycle without a U-turn is a Gray
code whose bit runs all have length at least 3 (Goddyn and Gvozdjak,
"Binary Gray codes with long bit runs", Electron. J. Combin. 10 (2003)
#R27); every cycle of Q4 has a U-turn.

The threshold check takes its per-dimension usage count from its caller
as a number, and so reads no table of balanced-independence numbers; the
CLI passes the count :func:`qube.bounds.rim_threshold` looks up.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter, xor
from typing import Iterable

from .cycles import HamiltonianCycle, positions_by_dim


# the sort key of a square row: where its earlier rim starts
_EARLIER_START = itemgetter(1)
# find_squares holds every row of a cycle, about 112 B per square: `qube
# squares` on a Gray cycle peaks at 72, 135 and 265 MB and takes about 1, 2
# and 4 s at n = 16, 17 and 18, doubling per dimension
SQUARES_MAX_DIM = 18


def check_squares_dim(n: int) -> None:
    """Raise ValueError unless n <= ``SQUARES_MAX_DIM``, the cubes whose
    squares ``find_squares`` lists."""
    if n > SQUARES_MAX_DIM:
        raise ValueError(f"squares are listed only for n <= {SQUARES_MAX_DIM}, got n={n}")


def _rim_scan(h: HamiltonianCycle, starts: Iterable[int] | None = None) -> bool:
    """Whether two cycle edges among those starting at ``starts`` (by
    default every edge, the closing one included) are the rims of a square.
    An i-edge with base b is kept as the key ``b | 1 << i << n`` (its base
    below bit n, its dimension above), and it is a later rim exactly when
    the keys met so far hold ``key ^ 1 << j`` for some j: flipping bit i
    gives no key, as bases have bit i clear.  The scan stops at the first
    such edge."""
    seq = h.seq
    size = len(seq)
    n = h.n
    dims = range(n)
    seen = set()
    for k in range(size) if starts is None else starts:
        u = seq[k]
        w = seq[(k + 1) % size]
        key = u & w | (u ^ w) << n
        for j in dims:
            if key ^ 1 << j in seen:
                return True
        seen.add(key)
    return False


def find_squares(h: HamiltonianCycle) -> list[tuple[int, int, int, str, int]]:
    """All inscribed squares of the cycle as plain rows ``(rim_dim,
    earlier rim start, later rim start, kind, ray_dim)``, sorted.  One scan
    in cycle order keeps, per dimension i, a dict from the base of each
    i-edge met so far to where it starts.  An i-edge with base b probes
    that dict at ``b ^ 1 << j`` for each j, and each hit is an earlier rim
    with ray dimension j (``b ^ 1 << i`` is never a key, as bases have bit
    i clear).  Rows go to one list per rim dimension in the order of their
    later rims, so a stable sort on the earlier start orders each list.
    (A closed walk that reads an i-edge twice keeps its latest start, so a
    later rim pairs with that reading only.)  A cycle of a cube above
    ``SQUARES_MAX_DIM`` is refused before any row is built."""
    n = h.n
    check_squares_dim(n)
    seq = h.seq
    rays = [(1 << j, j) for j in range(n)]
    starts = [{} for _ in range(n)]
    by_dim = [[] for _ in range(n)]
    for k, u, w in zip(range(len(seq)), seq, seq[1:] + seq[:1]):
        b = u & w
        i = (u ^ w).bit_length() - 1
        start = starts[i]
        for f, j in rays:
            a = start.get(b ^ f)
            if a is not None:
                kind = "straight" if (seq[a] ^ u) >> i & 1 else "twisted"
                by_dim[i].append((i, a, k, kind, j))
        start[b] = k
    rows = []
    for dim_rows in by_dim:
        dim_rows.sort(key=_EARLIER_START)
        rows += dim_rows
    return rows


def has_square(h: HamiltonianCycle) -> bool:
    """Whether the cycle contains any inscribed square (early exit).

    A U-turn answers first: if some ``seq[k] ^ seq[k+3]`` (cyclically) is
    a unit vector e_j, the edges at k and k+2 share their dimension, since
    consecutive edges differ in it, and with the two j-steps between their
    ends they close a 2-face: a straight square with ray dimension j.  One
    C-level pass finds such a k; only a cycle without one pays for the
    full ``_rim_scan``.  The probe assumes the walk never steps straight
    back (``seq[k+2] == seq[k]``), which holds for every closed walk
    through distinct vertices and so for every validated cycle; a walk
    that does would read as a U-turn.  The pairs that do not wrap are read
    against ``islice(seq, 3, None)``, and the three across the end pair
    ``seq[-3:]`` with ``seq[:3]``, so no rotated copy is built; the
    2-position walk of Q1 pairs each vertex with itself and reads no
    U-turn."""
    seq = h.seq
    return (
        1 in map(int.bit_count, map(xor, seq, islice(seq, 3, None)))
        or 1 in map(int.bit_count, map(xor, seq[-3:], seq[:3]))
        or _rim_scan(h)
    )


@dataclass(frozen=True)
class ThresholdReport:
    """Which dimensions exceed the square-forcing threshold, and which of
    those (none, when the theory holds) lack a square with that rim."""

    threshold: int
    obligated_dims: tuple[int, ...]
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_threshold_implication(h: HamiltonianCycle, threshold: int) -> ThresholdReport:
    """For every dimension the cycle uses more than ``threshold`` times,
    confirm that some inscribed square has that rim dimension: one
    early-exit pass over that dimension's edges, without listing the
    squares."""
    positions = positions_by_dim(h)
    obligated = tuple(i for i, ks in enumerate(positions) if len(ks) > threshold)
    violations = tuple(i for i in obligated if not _rim_scan(h, positions[i]))
    return ThresholdReport(threshold, obligated, violations)
