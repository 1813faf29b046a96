"""The flat counted postings map every path index uses.

The semantics are the ones GraphGrepSX's postings had (additive inserts, counted
filtering, "no features returns every owner"), the sealed CSR form must
filter identically, and sealing must stay byte-for-byte what it was.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftv.ggsx import GraphGrepSX
from repro.ftv.index_arena import FeatureIndexArena
from repro.ftv.postings import Postings
from repro.graphs.generators import aids_like


@pytest.fixture
def postings():
    t = Postings()
    t.insert(("C", "O"), owner_id=1, count=2)
    t.insert(("C", "O"), owner_id=2, count=1)
    t.insert(("C", "N"), owner_id=1, count=1)
    t.insert(("C",), owner_id=3, count=4)
    return t


class TestInsertAndLookup:
    def test_lookup_returns_counts(self, postings):
        assert postings.lookup(("C", "O")) == {1: 2, 2: 1}

    def test_lookup_missing_feature(self, postings):
        assert postings.lookup(("X",)) == {}

    def test_insert_is_additive(self, postings):
        postings.insert(("C", "O"), owner_id=1, count=3)
        assert postings.lookup(("C", "O"))[1] == 5

    def test_insert_zero_count_ignored(self, postings):
        postings.insert(("Z",), owner_id=9, count=0)
        assert postings.lookup(("Z",)) == {}

    def test_owners_tracked(self, postings):
        assert postings.owners == frozenset({1, 2, 3})

    def test_feature_count(self, postings):
        assert postings.feature_count == 4
        assert len(postings) == 4

    def test_insert_features_bulk(self):
        t = Postings()
        t.insert_features(Counter({("A",): 2, ("A", "B"): 1}), owner_id=7)
        assert t.lookup(("A",)) == {7: 2}
        assert t.lookup(("A", "B")) == {7: 1}

    def test_lookup_is_a_copy(self, postings):
        postings.lookup(("C", "O"))[1] = 99
        assert postings.lookup(("C", "O")) == {1: 2, 2: 1}


class TestFilter:
    def test_filter_requires_all_features(self, postings):
        assert postings.filter({("C", "O"): 1, ("C", "N"): 1}) == frozenset({1})

    def test_filter_respects_counts(self, postings):
        assert postings.filter({("C", "O"): 2}) == frozenset({1})

    def test_filter_empty_query_returns_all_owners(self, postings):
        assert postings.filter({}) == postings.owners

    def test_filter_unknown_feature_empty(self, postings):
        assert postings.filter({("Z", "Z"): 1}) == frozenset()

    def test_filter_single_feature(self, postings):
        assert postings.filter({("C",): 4}) == frozenset({3})

    def test_filter_ordered_takes_a_presorted_probe(self, postings):
        probe = ((("C", "O"), 1), (("C", "N"), 1))
        assert postings.filter_ordered(probe) == postings.filter(dict(probe)) == frozenset({1})
        assert postings.filter_ordered(()) == postings.owners


#: The keys each owner of the ``postings`` fixture was inserted under.
FEATURES = {1: [("C", "O"), ("C", "N")], 2: [("C", "O")], 3: [("C",)]}


class TestRemoveOwner:
    def test_remove_owner(self, postings):
        postings.remove_owner(1, FEATURES[1])
        assert postings.lookup(("C", "O")) == {2: 1}
        assert postings.lookup(("C", "N")) == {}
        assert 1 not in postings.owners

    def test_remove_missing_owner_is_noop(self, postings):
        postings.remove_owner(99, [("C", "O")])
        assert postings.feature_count == 4
        assert postings.lookup(("C", "O")) == {1: 2, 2: 1}

    def test_remove_tolerates_features_never_inserted(self, postings):
        postings.remove_owner(2, [("C", "O"), ("C", "N"), ("Z", "Z", "Z")])
        assert postings.feature_count == 3
        assert postings.lookup(("C", "N")) == {1: 1}

    def test_remove_keeps_features_sharing_a_prefix(self, postings):
        postings.remove_owner(3, FEATURES[3])
        # ("C",) is a prefix of ("C","O")/("C","N"); removing it alone must
        # leave them answering.
        assert postings.lookup(("C", "O")) == {1: 2, 2: 1}
        assert postings.lookup(("C",)) == {}

    def test_remove_drops_features_left_without_owners(self, postings):
        before = postings.approximate_size_bytes()
        postings.insert(("N", "N", "O"), owner_id=4, count=1)
        postings.insert(("N", "N"), owner_id=4, count=2)
        postings.remove_owner(4, [("N", "N", "O"), ("N", "N")])
        assert postings.approximate_size_bytes() == before
        assert {feature for feature, _ in postings.iter_features()} == {
            ("C", "O"), ("C", "N"), ("C",),
        }

    def test_feature_count_updated_on_removal(self, postings):
        postings.remove_owner(1, FEATURES[1])
        assert postings.feature_count == 2

    def test_removing_every_owner_empties_the_map(self, postings):
        empty = Postings().approximate_size_bytes()
        for owner, features in FEATURES.items():
            postings.remove_owner(owner, features)
        assert postings.feature_count == 0 and postings.owners == frozenset()
        assert postings.approximate_size_bytes() == empty


class _PerFeatureReference:
    """The postings semantics one feature at a time: the reference the bulk
    ``insert_features`` and ``remove_owner`` loops must match."""

    def __init__(self) -> None:
        self.postings = {}
        self.feature_count = 0
        self.owners = set()

    def insert(self, feature, owner_id, count):
        if count <= 0:
            return
        counts = self.postings.setdefault(feature, {})
        if owner_id not in counts:
            self.feature_count += 1
        counts[owner_id] = counts.get(owner_id, 0) + count
        self.owners.add(owner_id)

    def remove(self, owner_id, feature):
        counts = self.postings.get(feature)
        if counts is None or counts.pop(owner_id, None) is None:
            return
        self.feature_count -= 1
        if not counts:
            del self.postings[feature]


_FEATURES = st.tuples(st.sampled_from("CNO")) | st.tuples(
    st.sampled_from("CNO"), st.sampled_from("CNO")
)
_OWNERS = st.integers(min_value=0, max_value=4)
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            _OWNERS,
            st.dictionaries(_FEATURES, st.integers(min_value=-2, max_value=3), max_size=6),
        ),
        # Removal keys are drawn freely: some were never inserted for the owner.
        st.tuples(st.just("remove"), _OWNERS, st.lists(_FEATURES, max_size=6)),
    ),
    max_size=25,
)


class TestBulkLoopsMatchThePerFeatureReference:
    @settings(max_examples=200, deadline=None)
    @given(_OPS)
    def test_any_sequence_of_bulk_calls_leaves_the_reference_state(self, ops):
        postings, reference = Postings(), _PerFeatureReference()
        for kind, owner, features in ops:
            if kind == "insert":
                postings.insert_features(Counter(features), owner)
                for feature, count in features.items():
                    reference.insert(feature, owner, count)
            else:
                postings.remove_owner(owner, features)
                if owner in reference.owners:
                    for feature in features:
                        reference.remove(owner, feature)
                    reference.owners.discard(owner)
            assert list(postings.iter_features()) == [
                (feature, dict(counts)) for feature, counts in reference.postings.items()
            ]
            assert postings.feature_count == reference.feature_count
            assert postings.owners == frozenset(reference.owners)


class TestIterationAndSize:
    def test_iter_features_round_trip(self, postings):
        found = {feature: counts for feature, counts in postings.iter_features()}
        assert found[("C", "O")] == {1: 2, 2: 1}
        assert len(found) == 3  # three distinct features across four postings

    def test_approximate_size_positive(self, postings):
        assert postings.approximate_size_bytes() > 0

    def test_size_grows_with_content(self):
        small = Postings()
        small.insert(("A",), 1)
        big = Postings()
        for i in range(50):
            big.insert(("A", str(i)), i)
        assert big.approximate_size_bytes() > small.approximate_size_bytes()


class TestSealedForm:
    def test_filter_counted_equals_filter_on_random_counters(self, tmp_path):
        rng = random.Random(11)
        alphabet = ["C", "N", "O"]

        def feature():
            return tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))

        postings = Postings()
        for owner in range(40):
            postings.insert_features(
                Counter({feature(): rng.randint(1, 3) for _ in range(rng.randint(0, 12))}),
                owner,
            )
        path = tmp_path / "random.ftv.arena"
        FeatureIndexArena.seal(
            path, family="paths", params={}, dataset_hash="-",
            postings=postings.iter_features(),
        )
        arena = FeatureIndexArena.attach(path)
        for _ in range(300):
            query = Counter({feature(): rng.randint(1, 2) for _ in range(rng.randint(0, 4))})
            assert arena.filter_counted(query) == postings.filter(query)

    def test_sealed_ggsx_segment_bytes_are_pinned(self, tmp_path):
        # Sealing sorts features and owners, so the segment does not depend
        # on how the index was laid out in memory; this digest was taken
        # from a segment sealed off the former prefix-postings layout, then
        # retaken when the table gained the payload's CRC-32 (the segment
        # without that key still hashes to cc53f5c5…509e205).
        path = tmp_path / "ggsx.ftv.arena"
        GraphGrepSX(aids_like(scale=0.02, seed=1)).seal_feature_index(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "5f44fb03acb1f37ded7acab330ed7c746a573f1656db4b3f0ba556e36c0b4083"
        )
