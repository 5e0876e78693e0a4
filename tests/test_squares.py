"""Inscribed-square detection, classification, and forcing thresholds."""

import time

import pytest

from qube import squares
from qube.bounds import (
    ALPHA_EQUI_COMPUTED,
    ALPHA_EQUI_HYPERCUBE,
    EquiValueUnavailable,
    pigeonhole_report,
    rim_threshold,
)
from qube.cycles import (
    HamiltonianCycle,
    chromatic_vector,
    color,
    gray_cycle,
    positions_by_dim,
    validate_cycle,
)
from qube.enumeration import sample_cycles
from qube.graphs import hypercube_bipartite, is_balanced, is_independent
from qube.hypercube import MAX_DIM, gray_code, near_table
from qube.squares import (
    SQUARES_MAX_DIM,
    ThresholdReport,
    check_threshold_implication,
    find_squares,
    has_square,
)


def brute_force_squares(h: HamiltonianCycle) -> set[tuple]:
    """Independent oracle: scan all pairs of same-dimension cycle edges and
    keep those that are opposite sides of a 4-cycle of the cube.

    For rims a->b and c->d sharing dimension i, the four vertices form a
    4-cycle exactly when the two rays run along one dimension j != i,
    which happens when a^c (parallel traversal) or a^d (antiparallel) is a
    single bit.  Antiparallel rims mean the cycle doubles back: straight.
    """
    seq = h.seq
    size = len(seq)
    cols = color(h)
    out: set[tuple] = set()
    for k in range(size):
        for m in range(k + 1, size):
            i = cols[k]
            if cols[m] != i:
                continue
            a, b = seq[k], seq[(k + 1) % size]
            c, d = seq[m], seq[(m + 1) % size]
            if (a ^ c).bit_count() == 1:
                kind, ray = "twisted", (a ^ c).bit_length() - 1
            elif (a ^ d).bit_count() == 1:
                kind, ray = "straight", (a ^ d).bit_length() - 1
            else:
                continue
            # a ray along the rims' own dimension is one edge read twice
            if ray != i:
                out.add((i, (k, m), kind, ray))
    return out


def as_tuples(rows: list[tuple[int, int, int, str, int]]) -> set[tuple]:
    """The rows of ``find_squares`` in the oracle's shape."""
    return {(i, (a, k), kind, j) for i, a, k, kind, j in rows}


def assert_listings_match_the_oracle(h: HamiltonianCycle) -> None:
    """``find_squares`` lists exactly the squares of the brute-force
    oracle, sorted."""
    expected = brute_force_squares(h)
    rows = find_squares(h)
    assert rows == sorted(rows)
    assert as_tuples(rows) == expected
    assert len(rows) == len(expected)


class TestFindSquares:
    def test_two_cube_both_rim_pairs(self):
        squares = find_squares(gray_cycle(2))
        assert as_tuples(squares) == {
            (0, (0, 2), "straight", 1),
            (1, (1, 3), "straight", 0),
        }

    def test_against_brute_oracle_exhaustive_q3(self, q3_cycles):
        for h in q3_cycles:
            assert as_tuples(find_squares(h)) == brute_force_squares(h)

    def test_against_brute_oracle_q4(self, q4_cycles):
        for h in q4_cycles:
            assert as_tuples(find_squares(h)) == brute_force_squares(h)

    def test_against_brute_oracle_sampled_q5(self):
        for h in sample_cycles(5, seed=7, k=25):
            assert as_tuples(find_squares(h)) == brute_force_squares(h)

    def test_rows_against_brute_oracle_seeded_q6_and_q7(self, q6_samples):
        # the cycles perfbench's corpus reads are of the 6- and 7-cube
        for h in q6_samples[:300] + sample_cycles(7, 3, 8):
            r = h.rotated(37)
            for walk in (h, r, h.reversed_cycle(), r.reversed_cycle()):
                assert_listings_match_the_oracle(walk)

    def test_rows_of_a_walk_that_reads_an_edge_twice(self):
        # 3 -> 7 -> 3 reads the 2-edge 3-7 twice, which is no square
        h = HamiltonianCycle(3, (0, 1, 3, 7, 3, 2))
        assert_listings_match_the_oracle(h)
        assert find_squares(h) == [(0, 0, 4, "straight", 1), (1, 1, 5, "straight", 0)]

    def test_an_edge_read_twice_keeps_its_latest_start(self):
        # not a cycle: the 0-edge 2-3 is read at 2 and 3, and a later rim
        # pairs with its latest reading only, so (2, 5) of the oracle is
        # not listed
        h = HamiltonianCycle(2, (0, 1, 3, 2, 3, 1))
        assert find_squares(h) == [
            (0, 0, 2, "straight", 1), (0, 0, 3, "twisted", 1), (0, 3, 5, "straight", 1),
        ]
        assert brute_force_squares(h) - as_tuples(find_squares(h)) == {(0, (2, 5), "twisted", 1)}

    @pytest.mark.parametrize("n", range(2, 16))
    def test_gray_cycle_square_counts(self, n):
        # the reflected code has (n - 2) * 2**(n - 1) + 2 squares
        h = gray_cycle(n)
        assert len(find_squares(h)) == (n - 2) * 2 ** (n - 1) + 2
        if n <= 6:
            assert_listings_match_the_oracle(h)

    def test_cubes_above_the_cap_are_refused_before_any_row(self):
        class Unreadable:
            """A cycle of the first cube above the cap whose vertices
            cannot be read, so any scan before the check fails the test."""

            n = SQUARES_MAX_DIM + 1

            @property
            def seq(self):
                raise AssertionError("the scan started")

        assert SQUARES_MAX_DIM == 18 < MAX_DIM
        with pytest.raises(ValueError, match=r"listed only for n <= 18, got n=19"):
            find_squares(Unreadable())

    def test_has_square_keeps_no_cap(self):
        n = SQUARES_MAX_DIM + 1
        assert has_square(HamiltonianCycle(n, tuple(gray_code(n))))

    def test_output_is_sorted(self, q4_cycles):
        for h in q4_cycles[:50]:
            keys = [(i, a, k) for i, a, k, _, _ in find_squares(h)]
            assert keys == sorted(keys)

    def test_kind_multiset_is_rotation_invariant(self):
        h = gray_cycle(4)
        base = sorted((i, kind) for i, _, _, kind, _ in find_squares(h))
        for k in (1, 5, 9):
            rot = HamiltonianCycle(4, h.rotated(k).seq)
            assert sorted((i, kind) for i, _, _, kind, _ in find_squares(rot)) == base
        rev = h.reversed_cycle()
        assert sorted((i, kind) for i, _, _, kind, _ in find_squares(rev)) == base


def u_turns(seq: tuple[int, ...]) -> list[int]:
    """The positions k where the walk covers three sides of a 2-face:
    ``seq[k] ^ seq[k+3]`` (cyclically) is a unit vector."""
    size = len(seq)
    return [k for k in range(size) if (seq[k] ^ seq[(k + 3) % size]).bit_count() == 1]


# A valid Q5 cycle without a U-turn, found by a U-turn-avoiding search: it
# has 16 squares of both kinds and chromatic vector (8, 6, 6, 6, 6), so it
# is a second witness that Q5's fewest squares is 16 (ROADMAP item 12).
NO_U_TURN_Q5 = tuple(
    int(v) for v in "0 1 3 7 6 4 12 8 9 25 29 28 20 22 23 31 27 11 10 2 18 19 17 21 5 13 15 14 30 26 24 16".split()
)

# A Hamiltonian cycle of Q7 whose dimension-6 edges are the rungs at a
# balanced independent 20-set of Q6, found by a search for a cycle with
# prescribed rungs: no two of those edges are the rims of a square.
RIM_FREE_Q7 = tuple(
    int(v)
    for v in (
        "0 64 80 112 96 97 33 1 9 73 65 81 17 16 18 82 114 98 34 32 48 50 58 26 24 25 27 "
        "19 51 49 57 56 120 104 105 121 113 115 83 67 3 2 10 74 66 70 6 7 23 22 30 31 95 "
        "91 89 88 72 76 78 79 75 107 99 103 71 87 119 55 54 38 39 35 43 11 15 14 46 42 40 "
        "41 45 47 111 127 123 59 63 62 126 118 86 94 90 122 106 110 102 100 68 84 92 28 60 "
        "44 108 124 116 52 36 37 53 61 125 117 101 109 77 93 85 69 5 13 29 21 20 4 12 8"
    ).split()
)

# A Hamiltonian cycle of Q8 whose dimension-7 edges are the rungs at a
# balanced independent 44-set of Q7 (Harper's set, see ROADMAP item 15),
# found by an edge search with those rungs fixed: no two of the 44 edges
# are the rims of a square.
RIM_FREE_Q8 = tuple(
    int(v)
    for v in (
        "0 1 5 133 132 148 20 16 17 145 144 146 18 19 51 49 113 112 114 50 54 22 23 7 15 "
        "11 27 25 57 41 43 35 34 162 163 167 165 229 228 230 226 227 225 224 96 97 101 "
        "100 102 98 99 107 235 233 232 234 238 110 108 109 237 236 204 206 202 203 201 "
        "205 197 196 68 64 65 193 192 200 72 73 77 69 71 70 78 76 92 28 60 44 40 168 160 "
        "161 33 32 36 164 166 182 150 158 142 174 170 171 169 173 172 188 156 220 212 213 "
        "215 87 86 82 83 81 85 84 80 208 209 211 210 214 198 199 195 194 66 67 75 74 90 "
        "88 89 91 219 217 216 218 154 186 184 248 252 124 126 62 190 254 222 94 95 79 207 "
        "223 221 93 125 61 189 253 255 127 111 103 231 239 175 47 63 31 159 191 183 55 "
        "119 118 246 244 180 176 48 56 120 122 250 251 187 59 123 115 243 247 245 117 116 "
        "52 53 21 29 13 45 37 39 38 46 14 30 26 58 42 106 104 105 121 249 241 240 242 178 "
        "179 147 151 135 143 139 155 153 185 177 181 149 157 141 140 12 4 6 134 130 131 3 "
        "2 10 138 136 152 24 8 9 137 129 128"
    ).split()
)


class TestHasSquare:
    def test_matches_full_detection(self, q3_cycles, q4_cycles):
        # the U-turn probe answers for all of these, so the scan behind it is
        # checked against the oracle on its own
        for h in q3_cycles + q4_cycles + sample_cycles(5, seed=7, k=25):
            expected = bool(brute_force_squares(h))
            assert has_square(h) == expected
            assert squares._rim_scan(h) == expected

    def test_a_cycle_without_a_u_turn_falls_back_to_the_scan(self, monkeypatch):
        h = validate_cycle(5, NO_U_TURN_Q5)
        assert not u_turns(h.seq)
        rows = find_squares(h)
        assert len(rows) == 16
        assert {kind for _, _, _, kind, _ in rows} == {"straight", "twisted"}
        assert chromatic_vector(h) == (8, 6, 6, 6, 6)
        assert has_square(h) == bool(brute_force_squares(h))
        # with the scan gone the answer must change: the probe found nothing
        monkeypatch.setattr(squares, "_rim_scan", lambda h, starts=None: False)
        assert has_square(h) is False

    def test_each_dimension_scanned_alone(self, monkeypatch, q3_cycles, q4_cycles):
        # with no threshold the check scans each used dimension's edges on
        # their own
        monkeypatch.setattr(squares, "rim_threshold", lambda n, mode: 0)
        for h in q3_cycles + q4_cycles + sample_cycles(5, seed=7, k=25):
            assert check_threshold_implication(h) == report_from_the_square_list(h, "equi", 0)

    def test_reflected_code_of_the_seven_cube(self):
        assert has_square(gray_cycle(7))

    def test_gray_cycles_always_have_squares(self):
        for n in range(2, 9):
            assert has_square(gray_cycle(n))

    def test_every_rotation_passes_the_closing_edge(self, q3_cycles):
        # each rim pair meets the closing position in some rotation, and
        # each earlier rim is entered from its upper vertex in some walk
        for h in q3_cycles + [gray_cycle(4), gray_cycle(5)]:
            for k in range(len(h)):
                for walk in (h.rotated(k), h.rotated(k).reversed_cycle()):
                    expected = brute_force_squares(walk)
                    assert has_square(walk) == bool(expected)
                    assert squares._rim_scan(walk) == bool(expected)
                    assert as_tuples(find_squares(walk)) == expected

    # the closed walk (0, 1) on Q1 reads its one edge twice, which is no square
    @pytest.mark.parametrize(
        "n,seq",
        [(3, (0, 1, 3, 7, 6, 4)), (4, (0, 1, 3, 7, 15, 14, 12, 8)),
         (5, (0, 1, 3, 7, 15, 31, 30, 28, 24, 16)), (1, (0, 1))],
    )
    def test_closed_walks_without_a_square(self, n, seq):
        h = HamiltonianCycle(n, seq)
        assert not brute_force_squares(h)
        assert not has_square(h)
        assert not find_squares(h)

    def test_large_cubes_build_no_neighbour_table(self):
        # a table for n = 16 takes about 4 s and 512 MB to build
        before = near_table.cache_info()
        start = time.perf_counter()
        h = gray_cycle(16)
        assert has_square(h)
        assert check_threshold_implication(h, "independence").ok
        assert time.perf_counter() - start < 1.0
        assert near_table.cache_info() == before


class TestUTurn:
    """A U-turn at k is the straight square whose rims start at k and
    k + 2, with the rim dimension of edge k and the ray dimension of edge
    k + 1; ``has_square`` answers from the first one it meets."""

    def test_each_u_turn_is_a_listed_straight_square(self, q3_cycles, q4_cycles, q6_samples):
        samples = sample_cycles(5, seed=7, k=25) + q6_samples[:300] + sample_cycles(7, 3, 8)
        for h in q3_cycles + q4_cycles + samples:
            size = len(h)
            cols = color(h)
            rows = set(find_squares(h))
            for k in u_turns(h.seq):
                a, b = sorted((k, (k + 2) % size))
                assert (cols[k], a, b, "straight", cols[(k + 1) % size]) in rows

    def test_every_q4_cycle_has_a_u_turn(self, q4_cycles):
        assert len(q4_cycles) == 1344
        assert all(u_turns(h.seq) for h in q4_cycles)


class TestRimThreshold:
    def test_known_values(self):
        assert rim_threshold(3, "independence") == 2
        assert rim_threshold(2, "independence") == 1
        assert rim_threshold(4, "equi") == 2
        assert rim_threshold(7, "equi") == 20
        assert rim_threshold(8, "equi") == 44

    def test_equi_no_larger_than_quarter_order(self):
        for n in range(4, 9):
            assert rim_threshold(n, "equi") <= rim_threshold(n, "independence")

    def test_errors(self):
        with pytest.raises(ValueError):
            rim_threshold(1, "independence")
        with pytest.raises(ValueError):
            rim_threshold(4, "nonsense")
        with pytest.raises(EquiValueUnavailable):
            rim_threshold(9, "equi")

    def test_a_missing_value_is_a_value_error(self):
        assert issubclass(EquiValueUnavailable, ValueError)
        with pytest.raises(ValueError, match="for dimension 8$"):
            rim_threshold(9, "equi")
        with pytest.raises(ValueError, match="for dimension 8$"):
            pigeonhole_report(9)

    def test_thresholds_read_the_computed_table_and_counting_the_reference(self):
        # the counting argument is reproduced as the paper states it
        for n in range(2, 9):
            assert rim_threshold(n, "equi") == ALPHA_EQUI_COMPUTED[n - 1]
            assert pigeonhole_report(n).threshold == ALPHA_EQUI_HYPERCUBE[n - 1]


class TestThresholdImplication:
    def test_reflected_code_obligations(self):
        h = gray_cycle(4)
        assert chromatic_vector(h) == (8, 4, 2, 2)
        equi = check_threshold_implication(h, "equi")
        assert equi.threshold == 2
        assert equi.obligated_dims == (0, 1)
        assert equi.ok
        indep = check_threshold_implication(h, "independence")
        assert indep.threshold == 4
        assert indep.obligated_dims == (0,)
        assert indep.ok

    def test_three_cube_obligations_are_met(self, q3_cycles):
        # every 3-cube cycle has one dimension used 4 > 2 times, so the
        # independence threshold obligates it; the square must be there
        for h in q3_cycles:
            report = check_threshold_implication(h, "independence")
            assert report.obligated_dims
            assert report.ok


def report_from_the_square_list(h: HamiltonianCycle, mode: str, thr: int) -> ThresholdReport:
    """The threshold report derived from the brute-force list of squares."""
    obligated = tuple(i for i, c in enumerate(chromatic_vector(h)) if c > thr)
    rim_dims = {s[0] for s in brute_force_squares(h)}
    return ThresholdReport(mode, thr, obligated, tuple(i for i in obligated if i not in rim_dims))


class TestThresholdAgainstTheSquareList:
    """``check_threshold_implication`` looks for a square in each obligated
    dimension on its own; the reports must equal the ones read off the
    brute-force oracle."""

    @pytest.mark.parametrize("mode", ["equi", "independence"])
    def test_every_q4_cycle(self, mode, q4_cycles):
        thr = rim_threshold(4, mode)
        for h in q4_cycles:
            assert check_threshold_implication(h, mode) == report_from_the_square_list(h, mode, thr)

    @pytest.mark.parametrize("mode", ["equi", "independence"])
    def test_seeded_samples_of_q6_and_q7(self, mode, q6_samples):
        for h in q6_samples[:300] + sample_cycles(7, 3, 8):
            thr = rim_threshold(h.n, mode)
            report = check_threshold_implication(h, mode)
            assert report == report_from_the_square_list(h, mode, thr)

    def test_dimensions_without_a_square_are_reported(self, monkeypatch, q4_cycles):
        # with no threshold every used dimension is obligated, so a dimension
        # whose edges are no two rims of a square is a violation
        monkeypatch.setattr(squares, "rim_threshold", lambda n, mode: 0)
        reports = [check_threshold_implication(h) for h in q4_cycles]
        assert reports == [report_from_the_square_list(h, "equi", 0) for h in q4_cycles]
        assert sum(1 for r in reports if r.violations) == 528


class TestReferenceTable:
    def test_solvers_confirm_small_entries(self):
        for n in range(1, 6):
            assert ALPHA_EQUI_HYPERCUBE[n] == ALPHA_EQUI_COMPUTED[n]

    def test_large_entries_are_understated(self):
        assert ALPHA_EQUI_COMPUTED[6] == 20 > ALPHA_EQUI_HYPERCUBE[6] == 16
        assert ALPHA_EQUI_COMPUTED[7] == 44 > ALPHA_EQUI_HYPERCUBE[7] == 40

    def test_a_square_free_dimension_of_a_q7_cycle_attains_the_computed_value(self):
        # the cycle's 20 dimension-6 edges are the rims of no square, so their
        # bases are a balanced independent set of Q6: 20 > 16 with no solver
        h = validate_cycle(7, RIM_FREE_Q7)
        assert chromatic_vector(h) == (18, 12, 14, 24, 24, 16, 20)
        assert_top_rim_free_at_the_computed_value(h)

    def test_a_square_free_dimension_of_a_q8_cycle_attains_the_computed_value(self):
        # 44 dimension-7 edges, the rims of no square: 44 > 40 with no solver
        h = validate_cycle(8, RIM_FREE_Q8)
        assert chromatic_vector(h) == (54, 38, 30, 26, 24, 20, 20, 44)
        assert len(find_squares(h)) == 186
        assert_top_rim_free_at_the_computed_value(h)


def assert_top_rim_free_at_the_computed_value(h: HamiltonianCycle) -> None:
    """No square of ``h`` has both rims in its top dimension, whose edges'
    bases are a balanced independent set of the next cube down, as large as
    the computed balanced-independence number of that cube."""
    top = h.n - 1
    assert all(row[0] != top for row in find_squares(h))
    starts = positions_by_dim(h)[top]
    assert squares._rim_scan(h, starts) is False
    seq = h.seq
    bases = sorted(seq[k] & seq[(k + 1) % len(seq)] for k in starts)
    b = hypercube_bipartite(top)
    assert len(set(bases)) == len(bases) == ALPHA_EQUI_COMPUTED[top]
    assert is_independent(b.graph, bases)
    assert is_balanced(b, bases)
