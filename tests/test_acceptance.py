"""Acceptance gate: thirteen numbered criteria, one test and one printed
summary line each.

Every test records its verdict (see ``_registry``) before asserting, so a
red criterion still produces its summary line.  Two criteria are expected
to fail honestly: the bundled reference table pins the balanced-
independence numbers of the 6- and 7-cube at 16 and 40, but the exact
solvers in this package — and explicit verified witnesses — show the true
values are 20 and 44.  Criteria 1 and 10 assert the pinned values and
therefore fail; the detail lines say exactly why.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from qube.bounds import ALPHA_EQUI_HYPERCUBE, lower_bound_set, pigeonhole_report, table1_rows
from qube.cycles import check_chromatic_conditions, chromatic_vector, permute_dims
from qube.enumeration import PruneConfig, count_cycles, enumerate_cycles
from qube.graphs import (
    hypercube_bipartite,
    hypercube_graph,
    is_balanced,
    is_independent,
    is_maximal_independent,
)
from qube.hypercube import isomorphism_violations
from qube.independence import (
    brute_force_equi,
    equi_independence,
    equi_reduction,
    max_independent_set,
    unpack_pair_witness,
)
from qube.squares import check_threshold_implication
from qube.verify import persist_square_free

from _registry import record
from test_graphs import random_bipartite
from test_mis import layered_balanced_set

RUN_FULL = bool(os.environ.get("QUBE_ACCEPTANCE_FULL"))


def conclude(criterion: int, ok: bool, detail: str) -> None:
    record(criterion, ok, detail)
    if not ok:
        pytest.fail(detail)


def test_criterion_01_balanced_independence_numbers():
    """Solver values for the 3..7-cube against the pinned column
    2, 4, 10, 16, 40, with direct and reduction routes agreeing."""
    pinned = {3: 2, 4: 4, 5: 10, 6: 16, 7: 40}
    start = time.perf_counter()
    direct: dict[int, int] = {}
    agree: dict[int, bool] = {}
    for n in range(3, 7):
        b = hypercube_bipartite(n)
        size, witness = equi_independence(b, method="direct")
        assert is_independent(b.graph, witness) and is_balanced(b, witness)
        direct[n] = size
        if n <= 5:  # the reduced graph of the 6-cube (832 vertices) is
            # beyond the exact clique solver's reach; see criterion 2
            rsize, rwitness = equi_independence(b, method="reduction")
            assert is_independent(b.graph, rwitness) and is_balanced(b, rwitness)
            agree[n] = rsize == size
    small_dt = time.perf_counter() - start

    # dimension 7: a verified witness bounds the optimum from below even
    # without the minutes-scale exact solve
    b7 = hypercube_bipartite(7)
    w7 = layered_balanced_set(7, {0, 2}, {5, 7})
    assert is_independent(b7.graph, w7) and is_balanced(b7, w7)
    assert len(w7) == 44
    if RUN_FULL:
        t0 = time.perf_counter()
        a7, _ = equi_independence(b7, method="direct")
        n7_note = f"exact n=7 solve: {a7} in {time.perf_counter() - t0:.0f}s"
        n7_value = a7
    else:
        n7_note = (
            "exact n=7 solve skipped in the default suite (a run on a "
            "2-core Intel Xeon VM returned 44 in 201s, inside the 60-minute budget; "
            "set QUBE_ACCEPTANCE_FULL=1 to rerun it); a verified balanced "
            "independent set of 44 vertices bounds it below regardless"
        )
        n7_value = 44  # lower bound; already above the pinned 40

    ok = (
        all(direct[n] == pinned[n] for n in range(3, 7))
        and all(agree.values())
        and small_dt < 300
        and n7_value == pinned[7]
    )
    got = ", ".join(str(direct[n]) for n in range(3, 7))
    detail = (
        f"computed 3..6 -> {got} (direct, {small_dt:.1f}s; reduction route "
        f"agrees for n=3..5) and n=7 >= 44; pinned column 2, 4, 10, 16, 40 "
        f"is contradicted at n=6 (computed 20) and n=7 (verified witness of "
        f"44 > 40); {n7_note}"
    )
    conclude(1, ok, detail)


def test_criterion_02_reduction_sizes():
    """Pair-graph sizes for the 3..7-cube, with the inconsistent reference
    vertex count at n=6 flagged."""
    start = time.perf_counter()
    rows = table1_rows(7, alpha_max_n=3)
    dt = time.perf_counter() - start
    verts = [r["reduced_vertices"] for r in rows]
    edges = [r["reduced_edges"] for r in rows]
    row6 = rows[3]
    ok = (
        verts == [4, 32, 176, 832, 3648]
        and edges[:3] == [6, 448, 9720]
        and row6["reduced_vertices"] == 32 * 32 - 192
        and row6["reduced_vertices_mismatch"] is True
        and row6["reference_reduced_vertices"] == 882
        and rows[4]["reduced_vertices_mismatch"] is False
        and dt < 60
    )
    detail = (
        f"|V'| = {', '.join(map(str, verts))} and |E'| = "
        f"{', '.join(map(str, edges))} for n=3..7 in {dt:.1f}s; n=6 computed "
        f"832 = 32*32 - 192 and the report flags the reference value 882"
    )
    conclude(2, ok, detail)


def test_criterion_03_parity_balance_corpus(corpus_sweeps):
    """Every dimension of every corpus cycle splits its crossings evenly
    between the two parity classes."""
    bad = {k: t["balance"].violations for k, (t, _) in corpus_sweeps.items()}
    counts = {k: t["balance"].checked for k, (t, _) in corpus_sweeps.items()}
    secs = sum(s for _, s in corpus_sweeps.values())
    ok = (
        counts
        == {"Q3 exhaustive": 6, "Q4 exhaustive": 1344,
            "n=5 sample": 10_000, "n=6 sample": 10_000}
        and all(v == 0 for v in bad.values())
        and secs < 120
    )
    detail = (
        f"0 violations over 6 + 1344 exhaustive and 10000 + 10000 sampled "
        f"cycles, every dimension (one profile pass per cycle, {secs:.1f}s)"
    )
    if any(bad.values()):
        detail = f"violations found: {bad}"
    conclude(3, ok, detail)


def test_criterion_04_parity_recurrence_agreement(corpus_sweeps):
    """The segment-parity recurrence reproduces the directly computed
    parity word on the same corpus."""
    bad = {k: t["recurrence"].violations for k, (t, _) in corpus_sweeps.items()}
    ok = all(v == 0 for v in bad.values())
    detail = (
        "recurrence and direct parity words agree for every (cycle, "
        "dimension) pair in the shared corpus; 0 mismatches"
        if ok
        else f"mismatches found: {bad}"
    )
    conclude(4, ok, detail)


def test_criterion_05_segment_sums(corpus_sweeps):
    """Alternating segment-length sums each equal half the cycle length on
    the same corpus."""
    bad = {k: t["segments"].violations for k, (t, _) in corpus_sweeps.items()}
    ok = all(v == 0 for v in bad.values())
    detail = (
        "even- and odd-indexed segment sums both equal 2^(n-1) for every "
        "(cycle, dimension) pair in the shared corpus; 0 violations"
        if ok
        else f"violations found: {bad}"
    )
    conclude(5, ok, detail)


def test_criterion_06_chromatic_conditions_and_permutation(
    corpus_sweeps, q4_cycles
):
    """All five dimension-usage conditions hold corpus-wide, and relabeling
    dimensions rearranges the usage histogram accordingly."""
    bad = {k: t["chromatic"].violations for k, (t, _) in corpus_sweeps.items()}
    rng = random.Random(424242)
    perm_failures = 0
    for _ in range(100):
        h = rng.choice(q4_cycles)
        perm = rng.sample(range(4), 4)
        image = permute_dims(h, perm)
        base = chromatic_vector(h)
        mapped = chromatic_vector(image)
        histogram_moves = all(mapped[perm[i]] == base[i] for i in range(4))
        if not (histogram_moves and check_chromatic_conditions(mapped, 4).ok):
            perm_failures += 1
    ok = all(v == 0 for v in bad.values()) and perm_failures == 0
    detail = (
        "all five usage-histogram conditions hold for every corpus cycle; "
        "100 random (cycle, permutation) pairs at n=4 rearrange the "
        "histogram exactly and stay within the conditions"
        if ok
        else f"condition failures: {bad}; permutation failures: {perm_failures}"
    )
    conclude(6, ok, detail)


def test_criterion_07_dimension_graph_isomorphism():
    """Projecting the graph of i-edges is an adjacency-preserving bijection
    onto the next cube down, for every dimension, exhaustively for n <= 6."""
    start = time.perf_counter()
    checked = 0
    failures: list[dict] = []
    for n in range(2, 7):
        c, v = isomorphism_violations(n)
        checked += c
        failures.extend(v)
    dt = time.perf_counter() - start
    ok = not failures and checked == 2 + 3 + 4 + 5 + 6 and dt < 60
    detail = (
        f"all {checked} dimension graphs for n=2..6 project isomorphically "
        f"in {dt:.2f}s; 0 violations"
        if ok
        else f"violations: {failures[:3]}"
    )
    conclude(7, ok, detail)


def test_criterion_08_inscribed_square_search(corpus_sweeps):
    """Every corpus cycle contains an inscribed square; any square-free
    discovery would be persisted before failing."""
    free = {k: t["squares"].square_free for k, (t, _) in corpus_sweeps.items()}
    total_free = sum(len(v) for v in free.values())
    for docs in free.values():
        if docs:
            persist_square_free(docs[0]["n"], docs)
    secs = sum(s for _, s in corpus_sweeps.values())
    ok = total_free == 0 and secs < 300
    detail = (
        f"inscribed square found in all 6 + 1344 exhaustive and "
        f"10000 + 10000 sampled cycles (shared sweep {secs:.1f}s); "
        f"0 square-free cycles"
        if ok
        else f"{total_free} square-free cycles found and persisted"
    )
    conclude(8, ok, detail)


def test_criterion_09_threshold_implication(q4_cycles):
    """In the 4-cube, any dimension used more than twice must carry a
    square with that rim dimension."""
    obligated = 0
    violations = 0
    threshold = None
    for h in q4_cycles:
        rep = check_threshold_implication(h, mode="equi")
        threshold = rep.threshold
        obligated += len(rep.obligated_dims)
        violations += len(rep.violations)
    ok = violations == 0 and threshold == 2 and obligated > 0
    detail = (
        f"threshold 2 (stored balanced-independence number of the 3-cube); "
        f"{obligated} obligated dimensions across all 1344 4-cube cycles, "
        f"each carrying a square with that rim; {violations} violations"
    )
    conclude(9, ok, detail)


def test_criterion_10_lower_bound_construction():
    """The constructed set of 2^(n-2) vertices is a balanced, maximal
    independent set for n=3..10, and is claimed optimal at n=4 and n=6."""
    problems: list[str] = []
    for n in range(3, 11):
        s = lower_bound_set(n)
        g = hypercube_graph(n)
        b = hypercube_bipartite(n)
        if len(s) != 1 << (n - 2):
            problems.append(f"n={n}: size {len(s)} != {1 << (n - 2)}")
        if not is_independent(g, s):
            problems.append(f"n={n}: not independent")
        if not is_balanced(b, s):
            problems.append(f"n={n}: not balanced")
        if not is_maximal_independent(g, s):
            problems.append(f"n={n}: not maximal")

    tight4 = equi_independence(hypercube_bipartite(4), method="direct")[0]
    tight6 = equi_independence(hypercube_bipartite(6), method="direct")[0]
    if tight4 != len(lower_bound_set(4)):
        problems.append(f"n=4: optimum {tight4} != construction 4")
    if tight6 != len(lower_bound_set(6)):
        problems.append(
            f"construction gives 16 at n=6 but the computed "
            f"balanced-independence number is {tight6}, so the pinned "
            f"tightness claim at n=6 is false"
        )
    ok = not problems
    detail = (
        "sets of size 2^(n-2) are independent, balanced and maximal for "
        "n=3..10; tightness holds at n=4 and n=6"
        if ok
        else "construction valid (independent, balanced, maximal, size "
        "2^(n-2)) for n=3..10 and tight at n=4, but: " + "; ".join(problems)
    )
    conclude(10, ok, detail)


def test_criterion_11_reduction_soundness_random():
    """On random bipartite graphs, twice the reduced graph's independence
    number equals the brute-force balanced-independence number, and the
    unpacked witness validates."""
    rng = random.Random(1127)
    start = time.perf_counter()
    failures = 0
    trials = 500
    for _ in range(trials):
        b = random_bipartite(rng, 14)
        red = equi_reduction(b)
        size, pairs = max_independent_set(red.graph)
        witness = unpack_pair_witness(red, pairs)
        sound = (
            2 * size == brute_force_equi(b)
            and len(witness) == 2 * size
            and is_independent(b.graph, witness)
            and is_balanced(b, witness)
        )
        if not sound:
            failures += 1
    dt = time.perf_counter() - start
    ok = failures == 0 and dt < 300
    detail = (
        f"{trials} random bipartite graphs on <= 14 vertices: "
        f"2 * alpha(reduced) matched brute force and every unpacked witness "
        f"validated, in {dt:.1f}s; {failures} failures"
    )
    conclude(11, ok, detail)


def test_criterion_12_enumeration_counts_and_prunes():
    """Exhaustive cycle counts 1, 6, 1344 for n=2..4, with pruned and
    unpruned searches emitting identical cycle lists."""
    start = time.perf_counter()
    counts = [count_cycles(n) for n in (2, 3, 4)]
    same = all(
        [h.seq for h in enumerate_cycles(n, prunes=PruneConfig.all())]
        == [h.seq for h in enumerate_cycles(n, prunes=PruneConfig.none())]
        for n in (3, 4)
    )
    dt = time.perf_counter() - start
    ok = counts == [1, 6, 1344] and same and dt < 60
    detail = (
        f"counts {counts[0]}, {counts[1]}, {counts[2]} for n=2, 3, 4; pruned "
        f"and unpruned searches emit identical ordered lists for n=3 and "
        f"n=4; total {dt:.1f}s"
    )
    conclude(12, ok, detail)


def test_criterion_13_counting_argument():
    """n times the stored balanced-independence number of the next cube
    down stays under 2^n for every 2 <= n <= 7, so squares are forced."""
    reports = {n: pigeonhole_report(n) for n in range(2, 8)}
    exact = all(
        r.product == n * ALPHA_EQUI_HYPERCUBE[n - 1] and r.order == 1 << n
        for n, r in reports.items()
    )
    ok = (
        exact
        and all(r.forced for r in reports.values())
        and reports[7].product == 112
        and reports[7].order == 128
    )
    detail = (
        "forced for all 2 <= n <= 7 under the stored table, ending with "
        "7 * 16 = 112 < 128; caveat: with the computed value 20 for the "
        "6-cube the product is 140 >= 128, so the counting argument no "
        "longer closes at n=7 (the n <= 6 inequalities are unaffected)"
    )
    conclude(13, ok, detail)
