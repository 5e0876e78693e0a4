"""The paper's bounds: the tables of balanced-independence numbers of the
n-cube, the bundled reference values and the ones this package computes,
and what reads them.

``rim_threshold`` is the dimension-usage count above which an inscribed
square with that rim dimension is forced, and the one reader of the
computed table; ``pigeonhole_report`` is the counting argument that
forces one in every Hamiltonian cycle of small cubes, on the count it is
given; ``lower_bound_set`` builds a balanced maximal independent set of
size 2**(n-2); ``table1_rows`` reproduces the reference table of
balanced-independence numbers and pair-graph sizes, the one reader of
the reference table.  It takes the sizes from ``cube_pair_graph_size``,
a closed form in n, and builds the cube only for the rows it solves.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .graphs import SizeLimitExceeded, hypercube_bipartite
from .hypercube import check_dimension, parity
from .independence import (
    DIRECT_MAX_N,
    check_hypercube_caps,
    cube_pair_graph_size,
    equi_independence,
)


class EquiValueUnavailable(ValueError):
    """No stored balanced-independence number for the requested dimension."""


# Bundled reference table of balanced-independence numbers for the n-cube.
# The 1- and 2-cube have no balanced independent set at all (every
# cross-class pair is an edge), and the solvers in :mod:`qube.independence`
# confirm the entries for n <= 5.  For n = 6 and 7 the solvers find strictly
# larger values (20 and 44; explicit witnesses are checked in the test
# suite), so those two reference entries are understated.  A valid Q7
# Hamiltonian cycle whose 20 dimension-6 edges form no square, also pinned
# in the test suite, shows 20 for n = 6 with no solver: the bases of those
# edges are a balanced independent set of the 6-cube, and a pinned Q8 cycle
# does the same for 44 at n = 7.  The table is kept verbatim so the paper's
# own statements can be reproduced (``pigeonhole_report`` evaluates the
# counting argument on any count it is handed), and only ``table1`` reads
# it: its output shows each entry beside the computed value and flags the
# disagreement.  No verdict rests on it.
ALPHA_EQUI_HYPERCUBE: dict[int, int] = {1: 0, 2: 0, 3: 2, 4: 4, 5: 10, 6: 16, 7: 40}

# Balanced-independence numbers actually computed by this package's solvers
# (direct branch-and-bound, cross-checked by the pair-graph reduction for
# n <= 5, and for n = 6 in an opt-in test, and by explicit layered
# witnesses for n = 6, 7); ``rim_threshold`` reads these, for the threshold
# check and the counting argument alike.
ALPHA_EQUI_COMPUTED: dict[int, int] = {1: 0, 2: 0, 3: 2, 4: 4, 5: 10, 6: 20, 7: 44}

# Reference column of reduced-graph vertex counts as printed alongside the
# known balanced-independence numbers.  The n=6 entry is inconsistent with
# the pair construction itself (|class0| * |class1| - edges = 832); the
# table1 report computes the true value and flags the difference.
REFERENCE_REDUCED_VERTICES = {3: 4, 4: 32, 5: 176, 6: 882, 7: 3648}


# the table of balanced-independence numbers each threshold mode reads, as
# ``verify --property threshold`` names it
THRESHOLD_ALPHA_TABLE = {"equi": "computed", "independence": None}


def rim_threshold(n: int, mode: str = "equi") -> int:
    """Dimension-usage count above which an inscribed square with that rim
    dimension is forced.

    ``independence`` mode uses the quarter-order bound 2**(n-2);
    ``equi`` mode sharpens it to the balanced-independence number of the
    (n-1)-cube, which must be stored in ALPHA_EQUI_COMPUTED.
    """
    if n < 2:
        raise ValueError("thresholds need n >= 2")
    if mode == "independence":
        return 1 << (n - 2)
    if mode == "equi":
        try:
            return ALPHA_EQUI_COMPUTED[n - 1]
        except KeyError:
            raise EquiValueUnavailable(
                f"no stored balanced-independence number for dimension {n - 1}"
            ) from None
    raise ValueError(f"unknown threshold mode {mode!r}")


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


def pigeonhole_report(n: int, threshold: int) -> PigeonholeReport:
    """The counting argument at dimension n, with ``threshold`` the
    balanced-independence number of the (n-1)-cube."""
    return PigeonholeReport(n, threshold, n * threshold, 1 << n)


def lower_bound_set(n: int) -> list[int]:
    """A balanced maximal independent set of size 2**(n-2) in the n-cube.

    Construction: take the vertices whose first two entries are both b and
    whose total parity is b, for b = 0 and b = 1.  Needs n >= 3.
    """
    check_dimension(n)
    if n < 3:
        raise ValueError("the construction needs n >= 3")
    return [
        v
        for v in range(1 << n)
        if (v & 3) in (0, 3) and parity(v) == (v & 1)
    ]


def table1_rows(
    max_n: int, method: str = "direct", alpha_max_n: int | None = None
) -> list[dict]:
    """Reproduce the reference table: balanced-independence numbers and
    reduced-graph sizes for the n-cube, n = 3..max_n.

    Reduced-graph sizes are always computed, by ``cube_pair_graph_size``,
    which builds neither the cube nor its pair graph.  The cube is built
    and the balanced-independence solve run only for rows with
    n <= alpha_max_n (default: every row); capping it keeps large-n
    reports fast, since the exact solve grows steeply with n.  Skipped
    rows carry ``None`` in the solver-derived fields but still show the
    bundled reference value.  A solve that is out of reach is refused
    before any row is computed: any from n = ``DIRECT_MAX_N`` + 1,
    where none has finished, and the reduction's from n =
    ``REDUCTION_MAX_N`` + 1, where it takes more than half a minute.
    """
    if not 3 <= max_n <= 8:
        raise ValueError("table rows cover 3 <= n <= 8")
    if alpha_max_n is None:
        alpha_max_n = max_n
    solved = min(max_n, alpha_max_n)
    if solved > DIRECT_MAX_N:
        raise SizeLimitExceeded(
            f"table1 solves alpha_equi only for n <= {DIRECT_MAX_N} (no solve of "
            f"the {DIRECT_MAX_N + 1}-cube has finished); set alpha_max_n "
            f"(--alpha-max-n) to at most {DIRECT_MAX_N}"
        )
    if method == "reduction" and solved >= 3:
        check_hypercube_caps(solved, method)
    rows = []
    for n in range(3, max_n + 1):
        v_red, e_red = cube_pair_graph_size(n)
        ref_alpha = ALPHA_EQUI_HYPERCUBE.get(n)
        if n <= alpha_max_n:
            alpha, witness = equi_independence(hypercube_bipartite(n), method=method)
            matches = ref_alpha is None or ref_alpha == alpha
            attained = alpha == 1 << (n - 2)
        else:
            alpha = witness = matches = attained = None
        ref_v = REFERENCE_REDUCED_VERTICES.get(n)
        rows.append(
            {
                "n": n,
                "alpha_equi": alpha,
                "witness": witness,
                "reduced_vertices": v_red,
                "reduced_edges": e_red,
                "reference_reduced_vertices": ref_v,
                "reduced_vertices_mismatch": ref_v is not None and ref_v != v_red,
                "reference_alpha": ref_alpha,
                "alpha_matches_reference": matches,
                "lower_bound": 1 << (n - 2),
                "lower_bound_attained": attained,
            }
        )
    return rows
