"""Tests for GCindex (the combined sub/supergraph index over cached queries)."""

from __future__ import annotations

import random

import pytest

from repro.core.query_index import QueryGraphIndex
from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph
from repro.isomorphism import VF2PlusMatcher

MATCHER = VF2PlusMatcher()


@pytest.fixture
def index():
    idx = QueryGraphIndex(max_path_length=3)
    idx.add(1, Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)]))          # C-C-O path
    idx.add(2, Graph(labels=["C", "C", "O", "N"], edges=[(0, 1), (1, 2), (2, 3)]))  # C-C-O-N path
    idx.add(3, Graph(labels=["C", "C"], edges=[(0, 1)]))                        # C-C edge
    return idx


class TestMaintenance:
    def test_add_and_contains(self, index):
        assert len(index) == 3
        assert 1 in index and 4 not in index
        assert sorted(index.serials()) == [1, 2, 3]

    def test_graph_accessor(self, index):
        assert index.graph(3).size == 1

    def test_remove(self, index):
        index.remove(2)
        assert len(index) == 2
        assert 2 not in index
        index.remove(2)  # no-op

    def test_rebuild(self, index):
        index.rebuild([(9, Graph(labels=["N", "N"], edges=[(0, 1)]))])
        assert index.serials() == [9]

    def test_size_estimate_positive(self, index):
        assert index.approximate_size_bytes() > 0

    def test_max_path_length(self):
        assert QueryGraphIndex(max_path_length=2).max_path_length == 2


class TestCandidateGeneration:
    def test_candidate_supergraphs_finds_containers(self, index):
        query = Graph(labels=["C", "C"], edges=[(0, 1)])  # contained in all three
        candidates = index.candidate_supergraphs(query)
        assert candidates == frozenset({1, 2, 3})

    def test_candidate_supergraphs_respects_labels(self, index):
        query = Graph(labels=["N", "O"], edges=[(0, 1)])
        assert index.candidate_supergraphs(query) <= frozenset({2})

    def test_candidate_subgraphs_finds_contained(self, index):
        query = Graph(
            labels=["C", "C", "O", "N", "S"],
            edges=[(0, 1), (1, 2), (2, 3), (3, 4)],
        )
        candidates = index.candidate_subgraphs(query)
        # All three cached paths are genuinely contained in the query path, so
        # the (sound) filter must keep every one of them.
        assert frozenset({1, 2, 3}) <= candidates
        for serial in candidates:
            cached = index.graph(serial)
            assert cached.order <= query.order

    def test_empty_index_returns_nothing(self):
        idx = QueryGraphIndex()
        query = Graph(labels=["C"], edges=[])
        assert idx.candidate_supergraphs(query) == frozenset()
        assert idx.candidate_subgraphs(query) == frozenset()

    def test_candidates_never_miss_true_containment(self):
        """Filter soundness: every true sub/super relation survives filtering."""
        rng = random.Random(3)
        idx = QueryGraphIndex(max_path_length=3)
        cached = []
        for serial in range(8):
            graph = random_connected_graph(
                rng.randint(4, 10), 2.4, ["C", "O"], rng
            )
            idx.add(serial, graph)
            cached.append((serial, graph))
        for _trial in range(10):
            query = random_connected_graph(rng.randint(3, 12), 2.4, ["C", "O"], rng)
            supers = idx.candidate_supergraphs(query)
            subs = idx.candidate_subgraphs(query)
            for serial, graph in cached:
                if MATCHER.is_subgraph(query, graph):
                    assert serial in supers
                if MATCHER.is_subgraph(graph, query):
                    assert serial in subs

    def test_query_features_shared_between_directions(self, index):
        query = Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)])
        features = index.query_features(query)
        assert index.candidate_supergraphs(query, features) == index.candidate_supergraphs(query)
        assert index.candidate_subgraphs(query, features) == index.candidate_subgraphs(query)


class TestScanMemo:
    """The ``(cached query, query)`` scan verdicts behind ``candidate_subgraphs``."""

    @staticmethod
    def _random_index_and_queries(seed, cached=12, queries=15):
        rng = random.Random(seed)
        idx = QueryGraphIndex(max_path_length=3)
        for serial in range(cached):
            idx.add(serial, random_connected_graph(rng.randint(3, 8), 2.4, ["C", "O", "N"], rng))
        pool = [
            random_connected_graph(rng.randint(4, 12), 2.4, ["C", "O", "N"], rng)
            for _ in range(queries)
        ]
        return idx, pool

    def test_repeats_match_a_cold_scan_across_index_changes(self):
        idx, pool = self._random_index_and_queries(5)
        rng = random.Random(6)
        for round_number in range(6):
            for query in pool:
                warm = idx.candidate_subgraphs(query)
                idx._scan_memo.clear()
                assert idx.candidate_subgraphs(query) == warm
            # A maintenance round: one entry leaves, one joins; verdicts of
            # the surviving entries stay valid, the new entry is scanned cold.
            idx.remove(round_number)
            idx.add(100 + round_number, random_connected_graph(5, 2.4, ["C", "O", "N"], rng))

    def test_one_verdict_per_pair_and_the_bound(self, monkeypatch):
        idx, pool = self._random_index_and_queries(7, cached=4, queries=5)
        for query in pool * 3:
            idx.candidate_subgraphs(query)
        # One verdict per pair that passes the (order, size) shape check; a
        # cached query larger than the query is rejected before the memo.
        cached = [idx.graph(serial) for serial in idx.serials()]
        shaped = {
            (graph, query)
            for graph in cached
            for query in pool
            if graph.order <= query.order and graph.size <= query.size
        }
        assert set(idx._scan_memo) == shaped
        assert 0 < len(shaped) < 4 * 5
        # Filling past the limit resets the memo and keeps answering correctly.
        monkeypatch.setattr(QueryGraphIndex, "SCAN_MEMO_LIMIT", 6)
        expected = {query: idx.candidate_subgraphs(query) for query in pool}
        idx._scan_memo.clear()
        for query in pool * 2:
            assert idx.candidate_subgraphs(query) == expected[query]
            assert len(idx._scan_memo) <= 6
