"""Cycle validation and the per-dimension analysis operators."""

import random

import pytest

from qube.cycles import (
    CycleError,
    DimensionProfile,
    DimensionUnused,
    DuplicateVertex,
    HamiltonianCycle,
    InvalidVertex,
    NonAdjacentStep,
    NotClosed,
    WrongLength,
    check_balance,
    check_chromatic_conditions,
    check_segment_sums,
    chromatic_vector,
    color,
    dimension_profile,
    dimension_profiles,
    gray_cycle,
    permute_dims,
    positions_by_dim,
    validate_cycle,
)
from qube.enumeration import sample_cycles
from qube.hypercube import drop_entry, edge_dim, parity, parity_excluding

from conftest import edge_set_of

rng = random.Random(31)

GRAY2 = [0, 1, 3, 2]
GRAY3 = [0, 1, 3, 2, 6, 7, 5, 4]


class TestValidateCycle:
    def test_valid_cycles(self):
        assert validate_cycle(2, GRAY2).seq == (0, 1, 3, 2)
        assert validate_cycle(3, GRAY3).n == 3
        assert gray_cycle(4).seq == tuple(i ^ (i >> 1) for i in range(16))

    def test_wrong_length(self):
        with pytest.raises(WrongLength):
            validate_cycle(2, [0, 1, 3])

    def test_invalid_vertex(self):
        with pytest.raises(InvalidVertex):
            validate_cycle(2, [0, 1, 3, 4])

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertex):
            validate_cycle(2, [0, 1, 0, 1])

    def test_non_adjacent_step_carries_index(self):
        with pytest.raises(NonAdjacentStep) as exc:
            validate_cycle(2, [0, 3, 1, 2])
        assert exc.value.index == 0

    def test_not_closed(self):
        with pytest.raises(NotClosed):
            validate_cycle(3, [0, 1, 3, 2, 6, 4, 5, 7])

    def test_the_first_offender_is_reported(self):
        # of two vertices out of range, the earlier one is named
        with pytest.raises(InvalidVertex, match=r"^vertex 7 out of range"):
            validate_cycle(2, [0, 7, -1, 1])
        with pytest.raises(InvalidVertex, match=r"^vertex -1 out of range"):
            validate_cycle(2, [0, -1, 7, 1])
        # range comes before duplicates, and duplicates before steps
        with pytest.raises(InvalidVertex):
            validate_cycle(2, [0, 0, 3, 4])
        with pytest.raises(DuplicateVertex, match=r"^vertex 3 appears"):
            validate_cycle(2, [3, 0, 3, 1])
        # bad steps at 4 (6 -> 5) and 6 (7 -> 4): the first one is raised
        with pytest.raises(NonAdjacentStep) as exc:
            validate_cycle(3, [0, 1, 3, 2, 6, 5, 7, 4])
        assert exc.value.index == 4
        assert str(exc.value) == "step 4: 6 -> 5 is not a hypercube edge"
        # every inner step is an edge and only the closing one is not
        with pytest.raises(NotClosed, match=r"^7 -> 0 does not close"):
            validate_cycle(3, [0, 1, 3, 2, 6, 4, 5, 7])

    def test_every_error_is_a_cycle_error(self):
        for cls in (WrongLength, InvalidVertex, DuplicateVertex,
                    NonAdjacentStep, NotClosed):
            assert issubclass(cls, CycleError)

    def test_from_dict(self):
        h = HamiltonianCycle.from_dict({"n": 2, "seq": [0, 1, 3, 2]})
        assert h == validate_cycle(2, GRAY2)
        with pytest.raises(CycleError):
            HamiltonianCycle.from_dict({"n": 2})
        with pytest.raises(CycleError):
            HamiltonianCycle.from_dict({"n": 2, "seq": [0, 1, 3, "x"]})

    def test_gray_cycle_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            gray_cycle(1)

    def test_a_one_cube_walk_is_not_a_cycle(self):
        with pytest.raises(CycleError, match="a Hamiltonian cycle needs n >= 2"):
            validate_cycle(1, [0, 1])


class TestCycleObject:
    def test_rotation_and_reversal_preserve_edges(self):
        h = gray_cycle(3)
        assert edge_set_of(h.rotated(3)) == edge_set_of(h)
        assert edge_set_of(h.reversed_cycle()) == edge_set_of(h)
        assert h.rotated(3).seq[0] == h.seq[3]
        assert h.reversed_cycle().seq[0] == h.seq[0]

    def test_to_dict_roundtrip(self):
        h = gray_cycle(3)
        assert HamiltonianCycle.from_dict(h.to_dict()) == h


class TestColoring:
    def test_hand_checked_colorings(self):
        assert color(gray_cycle(3)) == [0, 1, 0, 2, 0, 1, 0, 2]
        assert color(gray_cycle(2)) == [0, 1, 0, 1]

    def test_no_consecutive_repeats(self, q3_cycles):
        for h in q3_cycles:
            cols = color(h)
            size = len(cols)
            assert all(cols[k] != cols[(k + 1) % size] for k in range(size))

    def test_chromatic_vectors(self):
        assert chromatic_vector(gray_cycle(2)) == (2, 2)
        assert chromatic_vector(gray_cycle(3)) == (4, 2, 2)
        assert chromatic_vector(gray_cycle(4)) == (8, 4, 2, 2)


class TestChromaticConditions:
    def test_passing_vector(self):
        assert check_chromatic_conditions((4, 2, 2), 3).ok
        assert check_chromatic_conditions((2, 2), 2).ok

    def test_odd_entries_fail_evenness_only(self):
        report = check_chromatic_conditions((3, 3, 2), 3)
        assert report.failures() == ["all_even"]

    def test_wrong_total_fails_sum_only(self):
        report = check_chromatic_conditions((4, 4, 2), 3)
        assert report.failures() == ["total_is_order"]

    def test_zero_entry(self):
        report = check_chromatic_conditions((6, 2, 0), 3)
        assert "none_zero" in report.failures()
        assert "min_at_least_two" in report.failures()

    def test_oversized_entry(self):
        report = check_chromatic_conditions((6, 1, 1), 3)
        assert "max_at_most_half" in report.failures()
        assert "all_even" in report.failures()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_chromatic_conditions((2, 2), 3)


class TestPermuteDims:
    def test_identity(self):
        h = gray_cycle(2)
        assert permute_dims(h, [0, 1]) == h

    def test_hand_checked_swap(self):
        assert permute_dims(gray_cycle(2), [1, 0]).seq == (0, 2, 3, 1)
        assert chromatic_vector(permute_dims(gray_cycle(2), [1, 0])) == (2, 2)

    def test_histogram_moves_with_the_permutation(self):
        h = gray_cycle(4)
        counts = chromatic_vector(h)
        for _ in range(20):
            perm = list(range(4))
            rng.shuffle(perm)
            image = permute_dims(h, perm)
            validate_cycle(image.n, image.seq)
            new_counts = chromatic_vector(image)
            assert all(new_counts[perm[i]] == counts[i] for i in range(4))

    def test_invalid_permutations(self):
        h = gray_cycle(2)
        for bad in ([0, 0], [0], [1, 2], [0, 1, 2]):
            with pytest.raises(ValueError):
                permute_dims(h, bad)


class TestNormalize:
    def test_already_normalized(self):
        h = gray_cycle(3)
        assert dimension_profile(h, 0).normalized == h

    def test_hand_checked_rotation(self):
        norm = dimension_profile(gray_cycle(3), 2).normalized
        assert norm.seq == (2, 6, 7, 5, 4, 0, 1, 3)

    def test_reversed_input_still_normalizes(self):
        h = gray_cycle(3).reversed_cycle()
        norm = dimension_profile(h, 0).normalized
        assert edge_dim(norm.seq[0], norm.seq[1]) == 0
        assert norm.seq[0] >> 0 & 1 == 0

    def test_first_edge_contract_across_corpus(self, q3_cycles):
        for h in q3_cycles:
            for p in dimension_profiles(h):
                norm = p.normalized
                assert edge_set_of(norm) == edge_set_of(h)
                assert edge_dim(norm.seq[0], norm.seq[1]) == p.dim
                assert norm.seq[0] >> p.dim & 1 == 0

    def test_earliest_qualifying_rotation_wins(self):
        # dimension 0 of the reflected code qualifies at indexes 0,2,4,6;
        # index 0 must win, so the cycle comes back unchanged
        h = gray_cycle(3)
        assert dimension_profile(h, 0).normalized.seq == h.seq

    def test_dimension_out_of_range(self):
        with pytest.raises(ValueError):
            dimension_profile(gray_cycle(2), 2)

    def test_unused_dimension_reported(self):
        # an invalid "cycle" built directly, bypassing validation: it never
        # moves along dimension 1
        fake = HamiltonianCycle(2, (0, 1, 0, 1))
        with pytest.raises(DimensionUnused):
            dimension_profile(fake, 1)
        with pytest.raises(DimensionUnused):
            dimension_profiles(fake)


def earliest_edge_leaving_bit_clear(h: HamiltonianCycle, i: int, positions: list[int]) -> int:
    """Oracle: the index in ``positions`` of the earliest i-edge that
    leaves a vertex with bit i clear, found by scanning them all."""
    return next(m for m, k in enumerate(positions) if not h.seq[k] >> i & 1)


class TestNormalizingEdge:
    """The profiles read their normalizing edge among the first two
    i-edges; on every closed walk that is the edge a full scan finds."""

    def test_first_or_second_edge_is_the_earliest_one(self, q3_cycles, q4_cycles,
                                                       q5_samples, q6_samples):
        cycles = (q3_cycles + q4_cycles + q5_samples[:2000] + q6_samples[:2000]
                  + sample_cycles(7, 3, 8))
        for h in cycles + [h.rotated(5).reversed_cycle() for h in cycles]:
            for i, (p, positions) in enumerate(zip(dimension_profiles(h), positions_by_dim(h))):
                m = earliest_edge_leaving_bit_clear(h, i, positions)
                assert m in (0, 1)
                assert p.shift == positions[m]
                assert p.index_list[0] == 0

    def test_closed_walks_alternate_their_edge_directions(self):
        # bit i changes only along i-edges, so the reading holds on closed
        # walks that are not cycles too; a dimension without edges is unused
        walk_rng = random.Random(36)
        for _ in range(200):
            n = walk_rng.randrange(2, 6)
            seq = [0]
            for _ in range(walk_rng.randrange(1, 12)):
                seq.append(seq[-1] ^ 1 << walk_rng.randrange(n))
            v = seq.pop()
            for i in range(n):  # close the walk, one bit at a time
                if v >> i & 1:
                    seq.append(v)
                    v ^= 1 << i
            h = HamiltonianCycle(n, tuple(seq))
            for i, positions in enumerate(positions_by_dim(h)):
                if not positions:
                    with pytest.raises(DimensionUnused):
                        dimension_profile(h, i)
                    continue
                m = earliest_edge_leaving_bit_clear(h, i, positions)
                assert m in (0, 1)
                assert dimension_profile(h, i).shift == positions[m]

    def test_both_first_edges_are_read(self):
        # dimension 0 of the reflected code leaves 0 first; started one
        # step later, its first 0-edge runs 3 -> 2 and the second, at
        # position 3, 6 -> 7
        h = gray_cycle(3)
        assert dimension_profile(h, 0).shift == 0
        later = dimension_profile(h.rotated(1), 0)
        assert later.shift == 3
        assert later.normalized.seq[:2] == (6, 7)


class TestDimensionProfile:
    def test_hand_checked_dim0(self):
        p = dimension_profile(gray_cycle(3), 0)
        assert p.index_list == (0, 2, 4, 6)
        assert p.segments == (2, 2, 2, 2)
        assert p.parity_list == (0, 1, 0, 1)
        assert p.start_vertices == (0, 3, 6, 5)
        assert p.edge_list == ((0, 1), (2, 3), (6, 7), (4, 5))
        assert p.parity_direct == p.parity_list

    def test_hand_checked_dim2(self):
        p = dimension_profile(gray_cycle(3), 2)
        assert p.index_list == (0, 4)
        assert p.segments == (4, 4)
        assert p.parity_list == (1, 0)

    def test_lengths_and_gap_total(self, q4_cycles):
        for h in q4_cycles[:100]:
            counts = chromatic_vector(h)
            for i in range(4):
                p = dimension_profile(h, i)
                assert len(p.index_list) == counts[i]
                assert len(p.start_vertices) == counts[i]
                assert len(p.edge_list) == counts[i]
                assert len(p.parity_list) == counts[i]
                assert sum(p.segments) == 16
                assert p.index_list[0] == 0

    def test_recurrence_equals_direct_reading(self, q4_cycles):
        # the alternating-gap recurrence against an in-test recomputation
        for h in q4_cycles[:50]:
            for i in range(4):
                p = dimension_profile(h, i)
                seq = p.normalized.seq
                direct = tuple(parity_excluding(seq[k], i) for k in p.index_list)
                assert p.parity_list == direct == p.parity_direct

    def test_edge_list_names_each_i_edge_by_its_endpoints(self, q4_cycles, q5_samples):
        # entry k is (base, top) of the i-edge leaving start vertex k, with
        # bit i clear in the base, and its class is the direct parity
        for h in q4_cycles + q5_samples:
            for p in dimension_profiles(h):
                assert len(p.edge_list) == len(p.start_vertices)
                for k, (a, b) in enumerate(p.edge_list):
                    assert a >> p.dim & 1 == 0
                    assert b == a | 1 << p.dim
                    assert p.start_vertices[k] in (a, b)
                    assert parity(drop_entry(a, p.dim)) == p.parity_direct[k]

    def test_all_dimensions_at_once_match_one_at_a_time(self, q4_cycles):
        for h in q4_cycles[:60]:
            for image in (h, h.rotated(5), h.reversed_cycle().rotated(9)):
                profiles = dimension_profiles(image)
                assert profiles == [dimension_profile(image, i) for i in range(4)]
                assert [len(p.index_list) for p in profiles] == list(
                    chromatic_vector(image)
                )


def eager_profile(h: HamiltonianCycle, i: int, positions: list[int]) -> dict:
    """Oracle: every field of dimension i's profile by name, computed at
    once from the rotated cycle, by sorting the rotated positions and
    running the gap recurrence bit by bit."""
    size = len(h)
    shift = next((k for k in positions if not h.seq[k] >> i & 1), None)
    norm = h.rotated(shift)
    idx = sorted((k - shift) % size for k in positions)
    starts = [norm.seq[k] for k in idx]
    bit = 1 << i
    edges = [(v & ~bit, v | bit) for v in starts]
    gaps = [b - a for a, b in zip(idx, idx[1:] + [size])]
    bits = [parity_excluding(starts[0], i)]
    for gap in gaps[:-1]:
        bits.append((bits[-1] + gap + 1) % 2)
    direct = [parity_excluding(v, i) for v in starts]
    return {
        "dim": i,
        "normalized": norm,
        "index_list": tuple(idx),
        "start_vertices": tuple(starts),
        "edge_list": tuple(edges),
        "segments": tuple(gaps),
        "parity_list": tuple(bits),
        "parity_direct": tuple(direct),
    }


class TestLazyProfile:
    def test_every_field_matches_the_eager_builder(
        self, q3_cycles, q4_cycles, q5_samples, q6_samples
    ):
        q7_draws = sample_cycles(7, seed=3, k=3)
        assert len(q7_draws) == 3
        for h in q3_cycles + q4_cycles + q5_samples[:300] + q6_samples[:100] + q7_draws:
            for p, positions in zip(dimension_profiles(h), positions_by_dim(h)):
                expected = eager_profile(h, p.dim, positions)
                assert {name: getattr(p, name) for name in expected} == expected
                doc = p.to_dict()
                assert doc.pop("balanced") and doc.pop("segment_sums_ok")
                assert doc == {name: expected[name] for name in doc}

    def test_balance_and_segment_sums_build_no_vertex_list(self, q4_cycles, q6_samples):
        for h in q4_cycles[:100] + q6_samples[:10]:
            for p in dimension_profiles(h):
                assert p.balanced and p.segment_sums_ok
                # the stored fields, and the two lists the verdicts read
                assert set(p.__dict__) == {
                    "dim", "cycle", "shift", "index_list", "parity_list", "segments"
                }


LAZY_FIELDS = (
    "normalized", "start_vertices", "edge_list", "segments", "parity_list", "parity_direct"
)


class TestLazyFields:
    def test_each_field_is_computed_once_per_profile(self, monkeypatch):
        calls = {name: 0 for name in LAZY_FIELDS}
        for name in LAZY_FIELDS:
            lazy = DimensionProfile.__dict__[name]

            def counted(p, name=name, func=lazy.func):
                calls[name] += 1
                return func(p)

            monkeypatch.setattr(lazy, "func", counted)
        profiles = dimension_profiles(gray_cycle(4)) + dimension_profiles(gray_cycle(5))
        for _ in range(3):
            for p in profiles:
                p.to_dict()
                assert p.balanced and p.segment_sums_ok
                for name in LAZY_FIELDS:
                    getattr(p, name)
        assert calls == {name: len(profiles) for name in LAZY_FIELDS}

    def test_profiles_of_one_cycle_keep_separate_caches(self, q4_cycles):
        for h in q4_cycles[::97]:
            for i in range(h.n):
                read, fresh = dimension_profile(h, i), dimension_profile(h, i)
                values = {name: getattr(read, name) for name in LAZY_FIELDS}
                assert not set(LAZY_FIELDS) & set(fresh.__dict__)
                assert values == {name: getattr(fresh, name) for name in LAZY_FIELDS}

    def test_a_field_read_on_the_class_is_its_descriptor(self):
        for name in LAZY_FIELDS:
            assert getattr(DimensionProfile, name) is DimensionProfile.__dict__[name]
        assert callable(DimensionProfile.edge_list.func)

    def test_equality_and_hash_ignore_the_cache(self):
        h = gray_cycle(5)
        read, fresh = dimension_profile(h, 3), dimension_profile(h, 3)
        for name in LAZY_FIELDS:
            getattr(read, name)
        assert set(LAZY_FIELDS) <= set(read.__dict__)
        assert read == fresh and hash(read) == hash(fresh)
        assert read != dimension_profile(h, 2)
        assert len({read, fresh}) == 1


class TestBalanceAndSegments:
    def test_hand_checked(self):
        assert check_balance(gray_cycle(3), 0) is True
        assert check_segment_sums(gray_cycle(3), 0) is True
        assert check_segment_sums(gray_cycle(3), 2) is True

    def test_balance_matches_profile_definition(self, q3_cycles):
        # balance read off the parity recurrence against the edge classes
        for h in q3_cycles:
            for p in dimension_profiles(h):
                classes = [parity(drop_entry(a, p.dim)) for a, _ in p.edge_list]
                assert p.balanced == (classes.count(0) == classes.count(1))
                assert check_balance(h, p.dim) == p.balanced

    def test_segment_sums_match_profile_definition(self, q3_cycles):
        # gap m is the run of vertices after the m-th i-edge: bit i set for
        # even m, clear for odd m, so each parity of gaps covers half the cube
        for h in q3_cycles:
            for p in dimension_profiles(h):
                seq = p.normalized.seq + p.normalized.seq[:1]
                for m, (k, gap) in enumerate(zip(p.index_list, p.segments)):
                    side = {v >> p.dim & 1 for v in seq[k + 1 : k + gap + 1]}
                    assert side == {1 - m % 2}
                assert p.segment_sums_ok
                assert check_segment_sums(h, p.dim)



def regular_spanning_subgraphs(n: int, d: int) -> list[list[tuple[int, int]]]:
    """Every spanning subgraph of Q_n in which each vertex has degree d, as
    its edges (u, v) with v = u | 1 << i: include or exclude each edge in
    turn, and drop a branch once a vertex is past its last edge with a
    degree other than d."""
    edges = [(u, u | 1 << i) for u in range(1 << n) for i in range(n) if not u >> i & 1]
    last = [0] * (1 << n)
    for k, (u, v) in enumerate(edges):
        last[u] = last[v] = k
    degree = [0] * (1 << n)
    chosen: list[tuple[int, int]] = []
    found: list[list[tuple[int, int]]] = []

    def settled(k: int) -> bool:
        return all(last[w] > k or degree[w] == d for w in edges[k])

    def grow(k: int) -> None:
        if k == len(edges):
            found.append(chosen.copy())
            return
        u, v = edges[k]
        if degree[u] < d and degree[v] < d:
            degree[u] += 1
            degree[v] += 1
            chosen.append((u, v))
            if settled(k):
                grow(k + 1)
            chosen.pop()
            degree[u] -= 1
            degree[v] -= 1
        if settled(k):
            grow(k + 1)

    grow(0)
    return found


def unbalanced_dims(edges: list[tuple[int, int]], n: int) -> list[int]:
    """The dimensions whose edges do not split evenly between the two
    classes of ``parity_excluding``."""
    out = []
    for i in range(n):
        classes = [parity_excluding(u, i) for u, v in edges if u ^ v == 1 << i]
        if 2 * sum(classes) != len(classes):
            out.append(i)
    return out


def cycle_edges(walk: list[int]) -> list[tuple[int, int]]:
    return [tuple(sorted(pair)) for pair in zip(walk, walk[1:] + walk[:1])]


def components(edges: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """The edge sets of the connected components of a 2-factor."""
    around: dict[int, list[tuple[int, int]]] = {}
    for e in edges:
        for w in e:
            around.setdefault(w, []).append(e)
    parts, seen = [], set()
    for start in around:
        if start in seen:
            continue
        part, stack = set(), [start]
        seen.add(start)
        while stack:
            for e in around[stack.pop()]:
                part.add(e)
                for w in e:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        parts.append(sorted(part))
    return parts


class TestBalanceOfTwoFactors:
    """Parity balance is a degree count, so it holds on every 2-factor and
    every perfect matching of the cube (see the ``cycles`` docstring), but
    not on each cycle of a 2-factor."""

    @pytest.mark.parametrize("n,d,count", [(3, 1, 9), (3, 2, 9), (4, 1, 272), (4, 2, 2970)])
    def test_every_perfect_matching_and_2_factor_is_balanced(self, n, d, count):
        factors = regular_spanning_subgraphs(n, d)
        assert len(factors) == count
        assert not any(unbalanced_dims(f, n) for f in factors)

    def test_a_balanced_2_factor_with_unbalanced_cycles(self):
        ten = cycle_edges([0, 1, 3, 7, 15, 13, 5, 4, 6, 2])
        six = cycle_edges([8, 9, 11, 10, 14, 12])
        assert sorted(ten + six) in regular_spanning_subgraphs(4, 2)
        assert unbalanced_dims(ten + six, 4) == []
        assert unbalanced_dims(ten, 4) == unbalanced_dims(six, 4) == [1]

    def test_many_2_factors_of_q4_have_an_unbalanced_cycle(self):
        split = [
            f for f in regular_spanning_subgraphs(4, 2)
            if any(unbalanced_dims(part, 4) for part in components(f))
        ]
        assert len(split) == 624
