import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from psidecomp import (
    IndexOrdering,
    IndexSet,
    PartialJointStructure,
    canonical_display,
    default_ordering,
    dissimilarity,
    model_preset,
    ordering_from_lists,
    structure_from_json,
    structure_to_json,
    structures_equal,
    to_binary_multiset,
)

from cases import assert_rejects, make_structure


def structures(K):
    """Random structures over default_ordering(K), ranks 0..2 per index-set."""
    sets = default_ordering(K).sets
    return st.lists(st.integers(0, 2), min_size=len(sets), max_size=len(sets)).map(
        lambda ranks: PartialJointStructure(tuple(zip(sets, ranks)), K))


# (a, b, a with its entries reordered), all over the same K in 2..4
structure_triples = st.integers(2, 4).flatmap(lambda K: st.tuples(
    structures(K), structures(K), st.permutations(range(2**K - 1))).map(
    lambda t: (t[0], t[1], PartialJointStructure(
        tuple(t[0].entries[i] for i in t[2]), K))))


class TestIndexSet:
    def test_sorted_and_deduplicated(self):
        s = IndexSet((3, 1, 3, 2))
        assert s.members == (1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IndexSet(())

    def test_label(self):
        assert IndexSet.of(1, 3).label() == "1|3"

    def test_numpy_integers_accepted(self):
        assert IndexSet.of(np.int64(3), np.int32(1)).members == (1, 3)
        assert all(type(m) is int for m in IndexSet.of(np.int64(3)).members)

    @pytest.mark.parametrize("member", (3.7, 2.0, True, np.bool_(True), "2",
                                        np.float64(2.0), None))
    def test_non_integer_member_rejected(self, member):
        # int() would have read 3.7 as block 3, True as block 1 and "2" as block 2
        for make in (lambda: IndexSet((1, member)), lambda: IndexSet.of(member),
                     lambda: ordering_from_lists([[1, 2], [1], [member]], 2)):
            with pytest.raises(ValueError, match="block indices must be integers"):
                make()


class TestDefaultOrdering:
    def test_k2(self):
        sets = [s.members for s in default_ordering(2)]
        assert sets == [(1, 2), (1,), (2,)]

    def test_k3_lexicographic_within_size(self):
        sets = [s.members for s in default_ordering(3)]
        assert sets == [(1, 2, 3), (1, 2), (1, 3), (2, 3), (1,), (2,), (3,)]

    def test_k1(self):
        assert [s.members for s in default_ordering(1)] == [(1,)]

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
    def test_every_subset_exactly_once(self, K):
        ordering = default_ordering(K)
        assert len(ordering) == 2**K - 1
        assert len({s.members for s in ordering}) == 2**K - 1
        sizes = [len(s) for s in ordering]
        assert sizes == sorted(sizes, reverse=True)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            default_ordering(0)
        for K in (13, 17):
            with pytest.raises(ValueError, match="K must be between 1 and 12"):
                default_ordering(K)

    def test_custom_ordering_validation(self):
        ordering_from_lists([[1, 2], [2], [1]], 2)  # valid permutation
        with pytest.raises(ValueError):
            ordering_from_lists([[1], [2], [1, 2]], 2)  # sizes increase
        with pytest.raises(ValueError):
            ordering_from_lists([[1, 2], [1], [1]], 2)  # duplicate


class TestBinaryMultiset:
    def test_worked_two_block_example(self):
        s = make_structure(2, {(1, 2): 2, (1,): 1})
        assert to_binary_multiset(s) == Counter({(1, 1): 2, (1, 0): 1})

    def test_all_zero_ranks(self):
        s = make_structure(3, {})
        assert to_binary_multiset(s) == Counter()

    def test_benchmark_model_five_pattern(self):
        truth = model_preset(5).structure
        ms = to_binary_multiset(truth)
        assert sum(ms.values()) == 8
        sizes = Counter(sum(v) for v in ms.elements())
        assert sizes == Counter({3: 2, 2: 6})

    def test_canonical_display_feeds_same_multiset(self):
        s = make_structure(3, {(1, 2): 1, (3,): 2})
        kept = PartialJointStructure(canonical_display(s), 3)
        assert to_binary_multiset(kept) == to_binary_multiset(s)


def sparse_structures(K):
    """Structures over default_ordering(K) with up to 5 index-sets of rank
    0..4 each, so either side can be empty and survivors are common."""
    sets = [s.members for s in default_ordering(K).sets]
    return st.dictionaries(st.sampled_from(sets), st.integers(0, 4), max_size=5).map(
        lambda ranks: make_structure(K, ranks))


sparse_pairs = st.integers(1, 5).flatmap(
    lambda K: st.tuples(sparse_structures(K), sparse_structures(K)))


def expanded_dissimilarity(a, b):
    """The dissimilarity with every surviving copy matched against every
    surviving copy on the other side: the multiset written out in full."""
    ma, mb = to_binary_multiset(a), to_binary_multiset(b)
    total = 0
    for side, other in ((ma - mb, mb - ma), (mb - ma, ma - mb)):
        others = list(other.elements())
        for vec in side.elements():
            d = min((sum(x != y for x, y in zip(vec, o)) for o in others), default=sum(vec))
            total += d * d
    return total


class TestDissimilarity:
    def test_worked_value_six(self):
        a = make_structure(3, {(1, 2, 3): 1, (1, 2): 1})
        b = make_structure(3, {(1, 2, 3): 2, (2, 3): 1})
        assert dissimilarity(a, b) == 6
        assert dissimilarity(b, a) == 6

    def test_identical_structures(self):
        a = make_structure(3, {(1, 2): 2, (3,): 1})
        assert dissimilarity(a, a) == 0

    def test_hand_evaluated_two_sided_pair(self):
        a = make_structure(3, {(1, 2, 3): 1})
        b = make_structure(3, {(1,): 1})
        assert dissimilarity(a, b) == 8

    def test_empty_side_counts_ones(self):
        a = make_structure(3, {(1, 2, 3): 1, (1,): 1})
        b = make_structure(3, {(1,): 1})
        # survivor (1,1,1) faces an empty other side: 3^2
        assert dissimilarity(a, b) == 9

    def test_symmetry_and_identity_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            K = int(rng.integers(2, 6))
            ordering = default_ordering(K)
            ra = {s.members: int(rng.integers(0, 3)) for s in ordering}
            rb = {s.members: int(rng.integers(0, 3)) for s in ordering}
            a, b = make_structure(K, ra), make_structure(K, rb)
            assert dissimilarity(a, b) == dissimilarity(b, a)
            assert dissimilarity(a, a) == 0
            if dissimilarity(a, b) == 0:
                assert structures_equal(a, b)

    @given(pair=sparse_pairs)
    @example(pair=(make_structure(1, {}), make_structure(1, {})))
    @example(pair=(make_structure(3, {(1, 2, 3): 2, (1,): 3}), make_structure(3, {})))
    @example(pair=(make_structure(4, {}), make_structure(4, {(2, 3): 4, (4,): 1})))
    def test_matches_the_multiplicity_expanded_reference(self, pair):
        a, b = pair
        assert dissimilarity(a, b) == expanded_dissimilarity(a, b)

    def test_mismatched_K_rejected(self):
        with pytest.raises(ValueError):
            dissimilarity(make_structure(2, {}), make_structure(3, {}))


class TestCanonicalDisplayAndJson:
    def test_zero_ranks_dropped_order_kept(self):
        s = make_structure(3, {(1, 2): 1, (2,): 2})
        kept = canonical_display(s)
        assert [(e[0].members, e[1]) for e in kept] == [((1, 2), 1), ((2,), 2)]

    def test_model_three_has_three_rank_two_entries(self):
        kept = canonical_display(model_preset(3).structure)
        assert [(e[0].members, e[1]) for e in kept] == [
            ((1, 2), 2), ((1, 3), 2), ((2, 3), 2)]

    def test_empty_structure(self):
        assert canonical_display(make_structure(2, {})) == ()

    def test_json_round_trip_and_key_order(self):
        s = make_structure(3, {(1, 2, 3): 2, (3,): 1})
        text = structure_to_json(s)
        payload = json.loads(text)
        assert list(payload.keys()) == ["K", "entries"]
        assert payload["entries"][0] == {"blocks": [1, 2, 3], "rank": 2}
        back = structure_from_json(text)
        assert structures_equal(back, s)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            PartialJointStructure(((IndexSet.of(1), -1),), 2)
        with pytest.raises(ValueError):
            structure_from_json('{"K": 2, "entries": [{"blocks": [3], "rank": 1}]}')

    def test_block_rank_totals(self):
        s = make_structure(3, {(1, 2, 3): 2, (1, 2): 1, (3,): 4})
        assert s.block_rank(1) == 3
        assert s.block_rank(2) == 3
        assert s.block_rank(3) == 6
        assert s.total_rank() == 7


class TestStructureProperties:
    @given(s=st.integers(2, 4).flatmap(structures))
    def test_json_round_trip(self, s):
        back = structure_from_json(structure_to_json(s))
        assert back.K == s.K
        assert canonical_display(back) == canonical_display(s)
        assert structures_equal(back, s)

    @given(triple=structure_triples)
    def test_dissimilarity_symmetric_and_zero_iff_equal(self, triple):
        a, b, a_reordered = triple
        assert dissimilarity(a, b) == dissimilarity(b, a)
        assert (dissimilarity(a, b) == 0) == structures_equal(a, b)
        assert dissimilarity(a, a_reordered) == 0
        assert structures_equal(a, a_reordered)


@pytest.mark.parametrize("call, error, message", (
    pytest.param(lambda: IndexSet((0,)),
                 ValueError, "block indices are 1-based", id="zero-member"),
    pytest.param(lambda: IndexOrdering((), 13),
                 ValueError, "the number of blocks K must be between 1 and 12",
                 id="ordering-K-13"),
    pytest.param(lambda: IndexOrdering(default_ordering(3).sets[:-1], 3),
                 ValueError, "an ordering for K=3 needs 7 index-sets", id="ordering-short"),
    pytest.param(lambda: IndexOrdering(tuple(IndexSet.of(4) if s == IndexSet.of(3) else s
                                             for s in default_ordering(3).sets), 3),
                 ValueError, "index-set {4} exceeds K=3", id="ordering-member-above-K"),
))
def test_input_check_rejects(call, error, message):
    assert_rejects(call, error, message)


def test_rank_of_an_absent_set_is_zero():
    structure = PartialJointStructure(((IndexSet.of(1), 1),), 2)
    assert structure.rank_of(IndexSet.of(2)) == 0


def test_structures_over_different_K_are_unequal():
    assert not structures_equal(make_structure(2, {}), make_structure(3, {}))
