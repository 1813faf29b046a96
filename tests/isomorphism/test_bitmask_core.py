"""Property tests for the integer-bitmask views backing the matcher core.

The bitmask layer (``neighbor_masks``, interned ``label_ids``, per-label and
degree-threshold vertex masks) is a *redundant encoding* of the adjacency and
label data the rest of the library reads through ``neighbors()`` /
``label()``.  These tests pin the equivalence on random labelled graphs, so
any future drift between the two encodings fails loudly instead of silently
corrupting search results.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph, intern_label
from repro.isomorphism import VF2Matcher, VF2PlusMatcher

LABELS = ["C", "N", "O", "S"]


def _bits(mask: int) -> set:
    bits = set()
    while mask:
        low = mask & -mask
        mask ^= low
        bits.add(low.bit_length() - 1)
    return bits


def _random_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    order = rng.randint(1, 24)
    return random_connected_graph(order, rng.uniform(1.5, 3.5), LABELS, rng)


class TestBitmaskAdjacency:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_neighbor_masks_match_neighbors(self, seed):
        graph = _random_graph(seed)
        for vertex in graph.vertices():
            assert _bits(graph.neighbor_mask(vertex)) == set(graph.neighbors(vertex))
            assert graph.neighbor_mask(vertex).bit_count() == graph.degree(vertex)
            # No self-loops: a vertex never appears in its own mask.
            assert not graph.neighbor_mask(vertex) >> vertex & 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_masks_are_symmetric(self, seed):
        graph = _random_graph(seed)
        for u, v in graph.edges:
            assert graph.neighbor_mask(u) >> v & 1
            assert graph.neighbor_mask(v) >> u & 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_label_masks_match_vertices_with_label(self, seed):
        graph = _random_graph(seed)
        for label in graph.distinct_labels():
            assert _bits(graph.label_mask(label)) == set(graph.vertices_with_label(label))
            assert graph.label_id_mask(intern_label(label)) == graph.label_mask(label)
        assert graph.label_mask("no-such-label") == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_label_ids_are_consistent(self, seed):
        graph = _random_graph(seed)
        for vertex in graph.vertices():
            assert graph.label_id(vertex) == intern_label(graph.label(vertex))
        # Interning is global: two graphs sharing a label share its id.
        other = Graph(labels=[graph.label(0)])
        assert other.label_id(0) == graph.label_id(0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_degree_ge_masks(self, seed):
        graph = _random_graph(seed)
        max_degree = max((graph.degree(v) for v in graph.vertices()), default=0)
        for threshold in range(0, max_degree + 3):
            expected = {v for v in graph.vertices() if graph.degree(v) >= threshold}
            assert _bits(graph.degree_ge_mask(threshold)) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_neighbor_label_ge_masks(self, seed):
        graph = _random_graph(seed)
        for label in LABELS:
            label_id = intern_label(label)
            counts = {
                v: sum(1 for nb in graph.neighbors(v) if graph.label(nb) == label)
                for v in graph.vertices()
            }
            for threshold in range(0, max(counts.values(), default=0) + 2):
                expected = {v for v, c in counts.items() if c >= threshold}
                assert _bits(graph.neighbor_label_ge_mask(label_id, threshold)) == expected

    def test_full_vertex_mask(self):
        assert Graph(labels=[]).full_vertex_mask == 0
        graph = Graph(labels=["C", "O", "N"], edges=[(0, 1)])
        assert graph.full_vertex_mask == 0b111

    def test_with_id_shares_bitmask_views(self):
        graph = _random_graph(3)
        clone = graph.with_id("renamed")
        assert clone.neighbor_masks is graph.neighbor_masks
        assert clone.label_ids is graph.label_ids
        assert clone.degree_sequence() == graph.degree_sequence()


class TestPlanCacheDeterminism:
    """Compiled pattern plans are memoised per pattern structure, never per pair."""

    def test_repeated_matches_agree_and_hit_plan_memo(self):
        matcher = VF2PlusMatcher()
        rng = random.Random(11)
        target = random_connected_graph(16, 2.8, LABELS, rng)
        pattern = target.induced_subgraph(rng.sample(range(16), k=6))
        first = matcher.match(pattern, target)
        assert len(matcher._plans) == 1
        plan = matcher.compile(pattern, target)
        second = matcher.match(pattern, target)
        assert len(matcher._plans) == 1  # same pattern, same label profile
        assert matcher.compile(pattern, target) is plan  # reused, not rebuilt
        assert first.matched == second.matched
        assert first.embedding == second.embedding
        assert first.nodes_expanded == second.nodes_expanded
        assert matcher.verify_embedding(pattern, target, second.embedding)

    def test_plan_memo_bounded(self):
        matcher = VF2Matcher()
        matcher._plans.limit = 4
        for seed in range(10):
            r = random.Random(seed)
            target = random_connected_graph(10, 2.2, LABELS, r)
            pattern = target.induced_subgraph(r.sample(range(10), k=4))
            matcher.is_subgraph(pattern, target)
        assert 0 < len(matcher._plans) <= 4

    def test_structurally_equal_patterns_share_one_plan(self):
        matcher = VF2Matcher()
        pattern_a = Graph(labels=["C", "O"], edges=[(0, 1)])
        pattern_b = Graph(labels=["C", "O"], edges=[(0, 1)], graph_id="other")
        target = Graph(labels=["C", "O", "C"], edges=[(0, 1), (1, 2)])
        other_target = Graph(labels=["O", "C", "C", "N"], edges=[(0, 1), (1, 2), (2, 3)])
        assert matcher.is_subgraph(pattern_a, target)
        assert matcher.is_subgraph(pattern_b, target)
        assert matcher.is_subgraph(pattern_b, other_target)
        # Neither graph_id nor the target participates in the key: one plan.
        assert len(matcher._plans) == 1
        assert matcher.compile(pattern_a, target) is matcher.compile(pattern_b, other_target)

    def test_vf2plus_keys_on_label_counts_not_the_target(self):
        matcher = VF2PlusMatcher()
        pattern = Graph(labels=["C", "O"], edges=[(0, 1)])
        target = Graph(labels=["C", "O", "C"], edges=[(0, 1), (1, 2)])
        same_profile = Graph(labels=["C", "C", "O"], edges=[(0, 2), (1, 2)])
        more_oxygen = Graph(labels=["O", "O", "C"], edges=[(0, 2), (1, 2)])
        assert matcher.compile(pattern, target) is matcher.compile(pattern, same_profile)
        assert len(matcher._plans) == 1
        # The rarer label leads, so a different profile is a different plan.
        assert matcher.compile(pattern, target).order == (1, 0)
        assert matcher.compile(pattern, more_oxygen).order == (0, 1)
        assert len(matcher._plans) == 2
