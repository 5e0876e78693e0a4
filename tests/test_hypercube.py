"""Bit-level vertex model: parity maps, entry surgery, adjacency, Gray
codes, dimension edges and dimension graphs.  An i-edge is named by its
base, the endpoint with bit i clear."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qube import hypercube
from qube.cycles import validate_cycle
from qube.hypercube import (
    ISOMORPHISM_MAX_DIM,
    MAX_DIM,
    check_dimension,
    check_vertex,
    drop_entry,
    edge_dim,
    gray_code,
    isomorphism_violations,
    parity,
    parity_excluding,
)

rng = random.Random(99)


class TestParity:
    def test_hand_checked_values(self):
        assert parity(0b000) == 0
        assert parity(0b111) == 1
        assert parity(0b0110) == 0

    def test_against_popcount_oracle(self):
        for _ in range(200):
            v = rng.randrange(1 << 20)
            assert parity(v) == bin(v).count("1") % 2

    def test_flip_one_bit_flips_parity(self):
        for _ in range(50):
            v = rng.randrange(1 << 16)
            i = rng.randrange(16)
            assert parity(v) != parity(v ^ (1 << i))


class TestEntrySurgery:
    def test_drop_entry_hand_checked(self):
        assert drop_entry(0b011, 0) == 0b01
        assert drop_entry(0b101, 2) == 0b01
        assert drop_entry(0b110, 1) == 0b10

    @given(st.integers(min_value=0, max_value=(1 << 24) - 1),
           st.integers(min_value=0, max_value=23))
    def test_drop_entry_forgets_only_entry_i(self, v, i):
        # both endpoints of the i-edge at v have the same image, the bits
        # below i stay put and the bits above i move down by one
        w = drop_entry(v, i)
        assert drop_entry(v ^ (1 << i), i) == w
        assert w % (1 << i) == v % (1 << i)
        assert w >> i == v >> (i + 1)

    def test_errors(self):
        with pytest.raises(ValueError):
            drop_entry(5, -1)


class TestParityExcluding:
    def test_hand_checked_values(self):
        assert parity_excluding(0b011, 0) == 1
        assert parity_excluding(0b011, 1) == 1
        assert parity_excluding(0b111, 2) == 0

    def test_matches_composition(self):
        for _ in range(100):
            v = rng.randrange(1 << 12)
            i = rng.randrange(12)
            assert parity_excluding(v, i) == parity(drop_entry(v, i))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            parity_excluding(5, -1)

    def test_both_endpoints_of_an_edge_agree(self):
        # suppressing the differing entry makes the endpoints identical
        for _ in range(100):
            v = rng.randrange(1 << 10)
            i = rng.randrange(10)
            assert parity_excluding(v, i) == parity_excluding(v ^ (1 << i), i)


class TestEdgeDim:
    def test_values(self):
        assert edge_dim(0, 1) == 0
        assert edge_dim(6, 7) == 0
        assert edge_dim(5, 7) == 1
        assert edge_dim(0, 8) == 3

    def test_symmetry(self):
        for _ in range(50):
            v = rng.randrange(1 << 10)
            i = rng.randrange(10)
            assert edge_dim(v, v ^ (1 << i)) == i == edge_dim(v ^ (1 << i), v)

    def test_not_adjacent(self):
        with pytest.raises(ValueError):
            edge_dim(0, 3)
        with pytest.raises(ValueError):
            edge_dim(5, 5)


class TestGrayCode:
    def test_hand_unrolled_small_codes(self):
        assert gray_code(1) == [0, 1]
        assert gray_code(2) == [0, 1, 3, 2]
        assert gray_code(3) == [0, 1, 3, 2, 6, 7, 5, 4]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_is_a_cyclic_gray_sequence(self, n):
        seq = gray_code(n)
        size = 1 << n
        assert len(seq) == size
        assert sorted(seq) == list(range(size))
        for k in range(size):
            assert (seq[k] ^ seq[(k + 1) % size]).bit_count() == 1

    def test_closed_form(self):
        assert gray_code(5) == [i ^ (i >> 1) for i in range(32)]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_validates_as_hamiltonian_cycle(self, n):
        validate_cycle(n, gray_code(n))

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            gray_code(0)
        with pytest.raises(ValueError):
            gray_code(MAX_DIM + 1)


class TestChecks:
    def test_check_dimension(self):
        check_dimension(1)
        check_dimension(MAX_DIM)
        for bad in (0, -1, MAX_DIM + 1, 2.0, "3"):
            with pytest.raises(ValueError):
                check_dimension(bad)

    def test_check_vertex(self):
        check_vertex(0, 1)
        check_vertex(7, 3)
        with pytest.raises(ValueError):
            check_vertex(8, 3)
        with pytest.raises(ValueError):
            check_vertex(-1, 3)


class TestProjectionAndClass:
    def test_projection_hand_checked(self):
        assert drop_entry(0, 0) == 0  # {0,1} in the 2-cube
        assert drop_entry(6, 0) == 3  # {6,7} in the 3-cube

    def test_projection_same_for_both_endpoints(self):
        for _ in range(100):
            v = rng.randrange(1 << 8)
            i = rng.randrange(8)
            base = v & ~(1 << i)
            assert drop_entry(base, i) == drop_entry(v, i) == drop_entry(v ^ (1 << i), i)

    def test_edge_class_hand_checked(self):
        assert parity(drop_entry(0, 0)) == 0  # {0,1}: nothing left
        assert parity(drop_entry(2, 0)) == 1  # {2,3}: weight 1 remains
        assert parity(drop_entry(6, 0)) == 0  # {6,7}: weight 2 remains


def i_edges(n: int, i: int) -> list[int]:
    """The bases of the i-edges of the n-cube."""
    return [b for b in range(1 << n) if not b >> i & 1]


def translates(b: int, i: int, n: int) -> list[int]:
    """The i-edges adjacent to the i-edge at base b in the dimension graph:
    its translates along every other dimension."""
    return [b ^ (1 << j) for j in range(n) if j != i]


class TestDimensionGraph:
    def test_two_cube(self):
        assert i_edges(2, 0) == [0, 2]
        assert translates(0, 0, 2) == [2]
        assert [drop_entry(b, 0) for b in i_edges(2, 0)] == [0, 1]
        assert isomorphism_violations(2) == (2, [])

    def test_three_cube_hand_checked_edges(self):
        # the four adjacencies among 0-edges of the 3-cube, and their images
        expected = {
            (0, 2): (0, 1),
            (0, 4): (0, 2),
            (2, 6): (1, 3),
            (4, 6): (2, 3),
        }
        found = {
            (a, b) for a in i_edges(3, 0) for b in translates(a, 0, 3) if a < b
        }
        assert found == set(expected)
        for (a, b), image in expected.items():
            assert (drop_entry(a, 0), drop_entry(b, 0)) == image

    @pytest.mark.parametrize("n,i", [(2, 0), (3, 1), (4, 0), (4, 3), (5, 2)])
    def test_order_and_regularity(self, n, i):
        bases = i_edges(n, i)
        assert len(bases) == 1 << (n - 1)
        for b in bases:
            images = {drop_entry(f, i) for f in translates(b, i, n)}
            p = drop_entry(b, i)
            assert images == {p ^ 1 << j for j in range(n - 1)}
        assert isomorphism_violations(n) == (n, [])

    @pytest.mark.parametrize("n,i", [(3, 0), (4, 2)])
    def test_classes_split_evenly(self, n, i):
        classes = [parity(drop_entry(b, i)) for b in i_edges(n, i)]
        assert classes.count(0) == classes.count(1) == 1 << (n - 2)
        # every translate along another dimension flips the class
        for b in i_edges(n, i):
            for f in translates(b, i, n):
                assert parity(drop_entry(b, i)) != parity(drop_entry(f, i))

    def test_projection_is_isomorphism_small_oracle(self):
        # independent route for the 3-cube: rebuild the image graph by hand
        mapped = {
            frozenset({drop_entry(a, 1), drop_entry(b, 1)})
            for a in i_edges(3, 1)
            for b in translates(a, 1, 3)
        }
        square = {  # the 2-cube's four edges
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 3}),
            frozenset({2, 3}),
        }
        assert mapped == square
        assert sorted(drop_entry(b, 0) for b in i_edges(3, 0)) == [0, 1, 2, 3]

    def test_errors(self):
        with pytest.raises(ValueError, match="dimension graphs need n >= 2"):
            isomorphism_violations(1)
        for n in (0, MAX_DIM + 1):
            with pytest.raises(ValueError, match="dimension must be an integer"):
                isomorphism_violations(n)

    def test_refused_above_the_cap_before_any_work(self, monkeypatch):
        def no_work(v, i):
            raise AssertionError("the check started")

        monkeypatch.setattr(hypercube, "drop_entry", no_work)
        assert ISOMORPHISM_MAX_DIM == 18 < MAX_DIM
        with pytest.raises(ValueError, match=r"runs only for n <= 18"):
            isomorphism_violations(19)

    def test_wrong_projection_is_reported(self, monkeypatch):
        def shuffled(v, i):  # a bijection that breaks adjacency
            w = drop_entry(v, i)
            return w ^ (w >> 1)

        monkeypatch.setattr(hypercube, "drop_entry", shuffled)
        checked, violations = isomorphism_violations(3)
        assert checked == 3
        assert [v["dim"] for v in violations] == [0, 1, 2]
        assert violations[0]["reason"] == "translates do not project to neighbours"
        assert violations[0]["translates"][0] == [0, 2]

        monkeypatch.setattr(hypercube, "drop_entry", lambda v, i: v >> 1)
        _, violations = isomorphism_violations(3)
        assert violations == [
            {"dim": 1, "reason": "projection is not a bijection"},
            {"dim": 2, "reason": "projection is not a bijection"},
        ]
