"""Tests for GCindex (the combined sub/supergraph index over cached queries)."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.query_index import IndexView, QueryGraphIndex
from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph
from repro.graphs.signatures import could_be_subgraph
from repro.isomorphism import VF2PlusMatcher

MATCHER = VF2PlusMatcher()
LABELS = ["C", "O", "N"]


def supers(index, query):
    """``Resultsub`` candidates of ``query`` through a read view."""
    with index.view() as snapshot:
        return snapshot.candidate_supergraphs(query, index.query_features(query))


def subs(index, query):
    """``Resultsuper`` candidates of ``query`` through a read view."""
    with index.view() as snapshot:
        return snapshot.candidate_subgraphs(query, index.query_features(query))


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
        assert supers(index, query) == frozenset({1, 2, 3})

    def test_candidate_supergraphs_respects_labels(self, index):
        query = Graph(labels=["N", "O"], edges=[(0, 1)])
        assert supers(index, query) <= frozenset({2})

    def test_candidate_subgraphs_finds_contained(self, index):
        query = Graph(
            labels=["C", "C", "O", "N", "S"],
            edges=[(0, 1), (1, 2), (2, 3), (3, 4)],
        )
        candidates = subs(index, query)
        # All three cached paths are genuinely contained in the query path, so
        # the (sound) filter must keep every one of them.
        assert frozenset({1, 2, 3}) <= candidates
        for serial in candidates:
            cached = index.graph(serial)
            assert cached.order <= query.order

    def test_empty_index_returns_nothing(self):
        idx = QueryGraphIndex()
        query = Graph(labels=["C"], edges=[])
        assert supers(idx, query) == frozenset()
        assert subs(idx, query) == frozenset()

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
            found_supers = supers(idx, query)
            found_subs = subs(idx, query)
            for serial, graph in cached:
                if MATCHER.is_subgraph(query, graph):
                    assert serial in found_supers
                if MATCHER.is_subgraph(graph, query):
                    assert serial in found_subs

    def test_query_features_are_memoised_per_structure(self, index):
        query = Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)])
        twin = Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)])
        assert index.query_features(query) is index.query_features(twin)


def parent_candidate_subgraphs(snapshot, query, features):
    """The scan predicate as it stood with the pair memo: shape, then
    ``could_be_subgraph``, then dominance of the cached query's probe."""
    buffer = snapshot._buffer
    counts = features.counts
    return frozenset(
        serial
        for serial, cached in buffer.features.items()
        if buffer.graphs[serial].order <= query.order
        and buffer.graphs[serial].size <= query.size
        and could_be_subgraph(buffer.graphs[serial], query)
        and all(counts.get(feature, 0) >= count for feature, count in cached.probe)
    )


def assert_scan_matches_parent(idx, pool):
    """Every copy of the index (both halves of a double buffer) scans like
    the parent predicate, and the copies agree."""
    copies = [IndexView(idx, buffer, idx.version) for buffer in idx._buffers]
    for query in pool:
        features = idx.query_features(query)
        expected = parent_candidate_subgraphs(copies[0], query, features)
        for snapshot in copies:
            assert snapshot.candidate_subgraphs(query, features) == expected


def star(center, leaf, leaves):
    return Graph(labels=[center] + [leaf] * leaves, edges=[(0, i) for i in range(1, leaves + 1)])


def disjoint_paths(labels, copies):
    """``copies`` disjoint paths over ``labels``: many paths, low degrees."""
    width = len(labels)
    return Graph(
        labels=list(labels) * copies,
        edges=[(c * width + i, c * width + i + 1) for c in range(copies) for i in range(width - 1)],
    )


class TestProbeFirstScan:
    """``IndexView.candidate_subgraphs`` keeps the parent's survivor sets."""

    def test_a_dominated_probe_still_meets_could_be_subgraph(self):
        """A star's probe is dominated by three disjoint O-C-O paths, but
        the paths have no vertex of degree 3: only the second test rejects."""
        idx = QueryGraphIndex(max_path_length=3)
        idx.add(1, star("C", "O", 3))
        query = disjoint_paths("OCO", 3)
        counts = idx.query_features(query).counts
        assert all(counts[key] >= count for key, count in idx.query_features(star("C", "O", 3)).probe)
        assert subs(idx, query) == frozenset()
        assert_scan_matches_parent(idx, [query])

    def test_round_by_round_walk(self):
        """Six maintenance rounds, each evicting one entry and admitting one."""
        rng = random.Random(5)
        idx = QueryGraphIndex(max_path_length=3)
        for serial in range(12):
            idx.add(serial, random_connected_graph(rng.randint(3, 8), 2.4, LABELS, rng))
        pool = [random_connected_graph(rng.randint(4, 12), 2.4, LABELS, rng) for _ in range(15)]
        rng = random.Random(6)
        for round_number in range(6):
            assert_scan_matches_parent(idx, pool)
            idx.remove(round_number)
            idx.add(100 + round_number, random_connected_graph(5, 2.4, LABELS, rng))
        assert_scan_matches_parent(idx, pool)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        double_buffered=st.booleans(),
        ops=st.lists(st.sampled_from(["add", "remove", "rebuild"]), max_size=8),
    )
    @example(seed=5, double_buffered=True, ops=["remove", "add"] * 3)
    def test_equals_the_parent_predicate(self, seed, double_buffered, ops):
        rng = random.Random(seed)
        idx = QueryGraphIndex(max_path_length=3, double_buffered=double_buffered)
        pool = [random_connected_graph(rng.randint(1, 12), 2.4, LABELS, rng) for _ in range(5)]
        pool.append(disjoint_paths([rng.choice(LABELS) for _ in range(3)], rng.randint(1, 4)))

        def cacheable():
            # Pool members and their pieces make real survivors likely.
            source = rng.choice(pool)
            roll = rng.random()
            if roll < 0.3:
                return source
            if roll < 0.6:
                return source.induced_subgraph(range(rng.randint(1, source.order)))
            if roll < 0.75:
                return star(rng.choice(LABELS), rng.choice(LABELS), rng.randint(1, 4))
            return random_connected_graph(rng.randint(2, 8), 2.4, LABELS, rng)

        for serial in range(rng.randint(0, 10)):
            idx.add(serial, cacheable())
        next_serial = 100
        assert_scan_matches_parent(idx, pool)
        for op in ops:
            if op == "add":
                idx.add(next_serial, cacheable())
                next_serial += 1
            elif op == "remove" and len(idx):
                idx.remove(rng.choice(idx.serials()))
            elif op == "rebuild":
                idx.rebuild(
                    [(serial, idx.graph(serial)) for serial in idx.serials() if rng.random() < 0.7]
                )
            assert_scan_matches_parent(idx, pool)


FEATURE_KEYS = st.lists(st.sampled_from("CNOS"), min_size=1, max_size=4).map(tuple)


def sorted_probe(counter):
    return tuple(
        sorted(counter.items(), key=lambda item: (-len(item[0]), item[0]))[
            : QueryGraphIndex.PROBE_LIMIT
        ]
    )


class TestProbeOf:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(FEATURE_KEYS, st.integers(min_value=1, max_value=5), max_size=80))
    def test_equals_the_key_sort(self, counts):
        assert QueryGraphIndex._probe_of(Counter(counts)) == sorted_probe(Counter(counts))

    @pytest.mark.parametrize("longer", [0, 5, 23, 24])
    def test_ties_at_the_cut_length(self, longer):
        """``longer`` keys of four labels, then 30 of three: the cut falls
        inside the three-label bucket, which is ordered by key."""
        rng = random.Random(longer)
        keys4 = {tuple(rng.choice("CNOS") for _ in range(4)) for _ in range(200)}
        keys3 = {tuple(rng.choice("CNOS") for _ in range(3)) for _ in range(200)}
        counts = Counter({key: 1 for key in sorted(keys4)[:longer]})
        counts.update({key: 2 for key in sorted(keys3, reverse=True)[:30]})
        assert QueryGraphIndex._probe_of(counts) == sorted_probe(counts)
