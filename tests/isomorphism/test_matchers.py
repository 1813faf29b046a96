"""Correctness tests shared by every subgraph-isomorphism algorithm.

Each matcher must agree with a networkx reference oracle (monomorphism with
label matching) on random graph pairs, must return valid witness embeddings,
and must honour the non-induced semantics used throughout the paper.
"""

from __future__ import annotations

import pytest

from repro.exceptions import MatchTimeout
from repro.graphs.graph import Graph
from repro.isomorphism import (
    GraphQLMatcher,
    SearchBudget,
    VF2Matcher,
    VF2PlusMatcher,
)

from .helpers import contained_pair, near_miss_pair, networkx_is_subgraph, random_pair

MATCHERS = [VF2Matcher(), VF2PlusMatcher(), GraphQLMatcher()]
MATCHER_IDS = [m.name for m in MATCHERS]


@pytest.fixture(params=MATCHERS, ids=MATCHER_IDS)
def matcher(request):
    return request.param


class TestBasicCases:
    def test_single_vertex_match(self, matcher):
        pattern = Graph(labels=["C"])
        target = Graph(labels=["C", "O"], edges=[(0, 1)])
        assert matcher.is_subgraph(pattern, target)

    def test_single_vertex_label_mismatch(self, matcher):
        pattern = Graph(labels=["N"])
        target = Graph(labels=["C", "O"], edges=[(0, 1)])
        assert not matcher.is_subgraph(pattern, target)

    def test_empty_pattern_always_matches(self, matcher):
        pattern = Graph(labels=[])
        target = Graph(labels=["C"])
        assert matcher.is_subgraph(pattern, target)

    def test_edge_in_triangle(self, matcher, triangle):
        pattern = Graph(labels=["C", "O"], edges=[(0, 1)])
        assert matcher.is_subgraph(pattern, triangle)

    def test_path_not_in_triangle(self, matcher, triangle, path_graph):
        assert not matcher.is_subgraph(path_graph, triangle)

    def test_graph_contains_itself(self, matcher, house_graph):
        assert matcher.is_subgraph(house_graph, house_graph)

    def test_non_induced_semantics(self, matcher):
        """A path of 3 C's must match inside a C-triangle (extra edge allowed)."""
        pattern = Graph(labels=["C", "C", "C"], edges=[(0, 1), (1, 2)])
        target = Graph(labels=["C", "C", "C"], edges=[(0, 1), (1, 2), (0, 2)])
        assert matcher.is_subgraph(pattern, target)

    def test_label_sensitive_cycle(self, matcher):
        pattern = Graph(labels=["C", "O", "C", "O"], edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        target = Graph(labels=["C", "C", "O", "O"], edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        assert not matcher.is_subgraph(pattern, target)

    def test_star_needs_degree(self, matcher, star_graph):
        target = Graph(labels=["C", "O", "O", "O"], edges=[(0, 1), (1, 2), (2, 3)])
        assert not matcher.is_subgraph(star_graph, target)

    def test_disconnected_pattern(self, matcher):
        pattern = Graph(labels=["C", "O"], edges=[])
        target = Graph(labels=["C", "N", "O"], edges=[(0, 1), (1, 2)])
        assert matcher.is_subgraph(pattern, target)

    def test_disconnected_pattern_insufficient_vertices(self, matcher):
        pattern = Graph(labels=["C", "C"], edges=[])
        target = Graph(labels=["C", "O"], edges=[(0, 1)])
        assert not matcher.is_subgraph(pattern, target)


class TestEmbeddings:
    def test_embedding_is_valid(self, matcher):
        for seed in range(6):
            pattern, target = contained_pair(seed)
            embedding = matcher.find_embedding(pattern, target)
            assert embedding is not None
            assert matcher.verify_embedding(pattern, target, embedding)

    def test_no_embedding_when_unmatched(self, matcher):
        pattern = Graph(labels=["N", "N"], edges=[(0, 1)])
        target = Graph(labels=["C", "O"], edges=[(0, 1)])
        assert matcher.find_embedding(pattern, target) is None

    def test_match_outcome_counts_effort(self, matcher):
        pattern, target = contained_pair(3)
        outcome = matcher.match(pattern, target)
        assert outcome.matched
        assert outcome.elapsed_s >= 0.0
        assert outcome.nodes_expanded >= 0

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_exists_exactly_when_networkx_matches(self, matcher, seed):
        pattern, target = near_miss_pair(100 + seed)
        embedding = matcher.find_embedding(pattern, target)
        assert (embedding is not None) == networkx_is_subgraph(pattern, target)
        if embedding is not None:
            assert matcher.verify_embedding(pattern, target, embedding)


class TestAgainstNetworkxOracle:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_pairs_agree_with_networkx(self, matcher, seed):
        pattern, target = random_pair(seed)
        assert matcher.is_subgraph(pattern, target) == networkx_is_subgraph(pattern, target)

    @pytest.mark.parametrize("seed", range(15))
    def test_contained_pairs_always_match(self, matcher, seed):
        pattern, target = contained_pair(seed)
        assert matcher.is_subgraph(pattern, target)

    @pytest.mark.parametrize("seed", range(20))
    def test_near_miss_pairs_agree_with_networkx(self, matcher, seed):
        pattern, target = near_miss_pair(seed)
        assert matcher.is_subgraph(pattern, target) == networkx_is_subgraph(pattern, target)

    def test_all_matchers_agree_pairwise(self):
        for seed in range(25):
            pattern, target = random_pair(seed, target_order=10, pattern_order=4)
            answers = {m.name: m.is_subgraph(pattern, target) for m in MATCHERS}
            assert len(set(answers.values())) == 1, answers


class TestVerifyEmbedding:
    def test_rejects_wrong_size(self, triangle):
        assert not VF2Matcher.verify_embedding(triangle, triangle, {0: 0})

    def test_rejects_non_injective(self, path_graph):
        pattern = Graph(labels=["C", "C"], edges=[])
        target = Graph(labels=["C", "C"], edges=[])
        assert not VF2Matcher.verify_embedding(pattern, target, {0: 0, 1: 0})

    def test_rejects_label_mismatch(self):
        pattern = Graph(labels=["C"], edges=[])
        target = Graph(labels=["O"], edges=[])
        assert not VF2Matcher.verify_embedding(pattern, target, {0: 0})

    def test_rejects_missing_edge(self):
        pattern = Graph(labels=["C", "C"], edges=[(0, 1)])
        target = Graph(labels=["C", "C"], edges=[])
        assert not VF2Matcher.verify_embedding(pattern, target, {0: 0, 1: 1})

    def test_rejects_unknown_target_vertex(self):
        pattern = Graph(labels=["C"], edges=[])
        target = Graph(labels=["C"], edges=[])
        assert not VF2Matcher.verify_embedding(pattern, target, {0: 5})

    def test_accepts_valid_embedding(self, triangle):
        pattern = Graph(labels=["C", "O"], edges=[(0, 1)])
        assert VF2Matcher.verify_embedding(pattern, triangle, {0: 1, 1: 2})


class TestSearchBudget:
    def test_node_limit_enforced(self):
        # A large unlabelled-ish search with an absurdly small node budget.
        pattern = Graph(labels=["C"] * 6, edges=[(i, i + 1) for i in range(5)])
        target = Graph(
            labels=["C"] * 12,
            edges=[(i, j) for i in range(12) for j in range(i + 1, 12)],
        )
        budget = SearchBudget(node_limit=3)
        with pytest.raises(MatchTimeout):
            VF2Matcher().is_subgraph(pattern, target, budget=budget)

    def test_budget_counts_nodes(self):
        budget = SearchBudget()
        pattern, target = contained_pair(1)
        VF2Matcher().match(pattern, target, budget=budget)
        assert budget.nodes_expanded > 0
