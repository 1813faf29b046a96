"""Tests for the counted path trie."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.ftv.trie import PathTrie


@pytest.fixture
def trie():
    t = PathTrie()
    t.insert(("C", "O"), owner_id=1, count=2)
    t.insert(("C", "O"), owner_id=2, count=1)
    t.insert(("C", "N"), owner_id=1, count=1)
    t.insert(("C",), owner_id=3, count=4)
    return t


class TestInsertAndLookup:
    def test_lookup_returns_counts(self, trie):
        assert trie.lookup(("C", "O")) == {1: 2, 2: 1}

    def test_lookup_missing_feature(self, trie):
        assert trie.lookup(("X",)) == {}

    def test_insert_is_additive(self, trie):
        trie.insert(("C", "O"), owner_id=1, count=3)
        assert trie.lookup(("C", "O"))[1] == 5

    def test_insert_zero_count_ignored(self, trie):
        trie.insert(("Z",), owner_id=9, count=0)
        assert trie.lookup(("Z",)) == {}

    def test_owners_tracked(self, trie):
        assert trie.owners == frozenset({1, 2, 3})

    def test_feature_count(self, trie):
        assert trie.feature_count == 4
        assert len(trie) == 4

    def test_insert_features_bulk(self):
        t = PathTrie()
        t.insert_features(Counter({("A",): 2, ("A", "B"): 1}), owner_id=7)
        assert t.lookup(("A",)) == {7: 2}
        assert t.lookup(("A", "B")) == {7: 1}

    def test_owners_with_feature_min_count(self, trie):
        assert trie.owners_with_feature(("C", "O"), min_count=2) == frozenset({1})
        assert trie.owners_with_feature(("C", "O")) == frozenset({1, 2})


class TestFilter:
    def test_filter_requires_all_features(self, trie):
        assert trie.filter({("C", "O"): 1, ("C", "N"): 1}) == frozenset({1})

    def test_filter_respects_counts(self, trie):
        assert trie.filter({("C", "O"): 2}) == frozenset({1})

    def test_filter_empty_query_returns_all_owners(self, trie):
        assert trie.filter({}) == trie.owners

    def test_filter_unknown_feature_empty(self, trie):
        assert trie.filter({("Z", "Z"): 1}) == frozenset()

    def test_filter_single_feature(self, trie):
        assert trie.filter({("C",): 4}) == frozenset({3})


#: The keys each owner of the ``trie`` fixture was inserted under.
FEATURES = {1: [("C", "O"), ("C", "N")], 2: [("C", "O")], 3: [("C",)]}


class TestRemoveOwner:
    def test_remove_owner(self, trie):
        trie.remove_owner(1, FEATURES[1])
        assert trie.lookup(("C", "O")) == {2: 1}
        assert trie.lookup(("C", "N")) == {}
        assert 1 not in trie.owners

    def test_remove_missing_owner_is_noop(self, trie):
        trie.remove_owner(99, [("C", "O")])
        assert trie.feature_count == 4
        assert trie.lookup(("C", "O")) == {1: 2, 2: 1}

    def test_remove_tolerates_features_never_inserted(self, trie):
        trie.remove_owner(2, [("C", "O"), ("C", "N"), ("Z", "Z", "Z")])
        assert trie.feature_count == 3
        assert trie.lookup(("C", "N")) == {1: 1}

    def test_remove_keeps_nodes_that_root_other_features(self, trie):
        trie.remove_owner(3, FEATURES[3])
        # The single-label branch ("C",) had only owner 3 at its node but the
        # node also roots ("C","O")/("C","N"); lookups must still work.
        assert trie.lookup(("C", "O")) == {1: 2, 2: 1}
        assert trie.lookup(("C",)) == {}

    def test_remove_prunes_emptied_branches_bottom_up(self, trie):
        before = trie.approximate_size_bytes()
        trie.insert(("N", "N", "O"), owner_id=4, count=1)
        trie.insert(("N", "N"), owner_id=4, count=2)
        trie.remove_owner(4, [("N", "N", "O"), ("N", "N")])
        # Three nodes were created for owner 4 alone; all three are gone.
        assert trie.approximate_size_bytes() == before
        assert {feature for feature, _ in trie.iter_features()} == {
            ("C", "O"), ("C", "N"), ("C",),
        }

    def test_feature_count_updated_on_removal(self, trie):
        trie.remove_owner(1, FEATURES[1])
        assert trie.feature_count == 2

    def test_removing_every_owner_empties_the_trie(self, trie):
        empty = PathTrie().approximate_size_bytes()
        for owner, features in FEATURES.items():
            trie.remove_owner(owner, features)
        assert trie.feature_count == 0 and trie.owners == frozenset()
        assert trie.approximate_size_bytes() == empty


class TestIterationAndSize:
    def test_iter_features_round_trip(self, trie):
        found = {feature: counts for feature, counts in trie.iter_features()}
        assert found[("C", "O")] == {1: 2, 2: 1}
        assert len(found) == 3  # three distinct features across four postings

    def test_approximate_size_positive(self, trie):
        assert trie.approximate_size_bytes() > 0

    def test_size_grows_with_content(self):
        small = PathTrie()
        small.insert(("A",), 1)
        big = PathTrie()
        for i in range(50):
            big.insert(("A", str(i)), i)
        assert big.approximate_size_bytes() > small.approximate_size_bytes()
