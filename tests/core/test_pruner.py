"""Tests for the Candidate Set Pruner (equations 1 & 2 and the special cases)."""

from __future__ import annotations


from repro.core.processors import ProcessorOutcome
from repro.core.pruner import CandidateSetPruner
from repro.core.stores import CacheEntry, CacheStore
from repro.graphs.graph import Graph


def outcome(result_sub=(), result_super=(), exact=None):
    return ProcessorOutcome(
        result_sub=frozenset(result_sub),
        result_super=frozenset(result_super),
        exact_match_serial=exact,
        elapsed_s=0.0,
        containment_tests=0,
    )


def make_store(answers_by_serial):
    store = CacheStore(capacity=10)
    for serial, answers in answers_by_serial.items():
        store.add(
            CacheEntry(
                serial=serial,
                query=Graph(labels=["C"], edges=[]),
                answer_ids=frozenset(answers),
            )
        )
    return store


class TestSubgraphMode:
    def test_equation_1_moves_answers_out_of_candidates(self):
        """Paper's Figure 3(a): CSM={G1..G4}, Answer(g')={G1,G2}."""
        store = make_store({1: {1, 2}})
        pruner = CandidateSetPruner(store, query_mode="subgraph")
        result = pruner.prune(frozenset({1, 2, 3, 4}), outcome(result_sub=[1]))
        assert result.final_candidates == frozenset({3, 4})
        assert result.direct_answers == frozenset({1, 2})
        assert result.shortcut is None
        assert result.contributions[1] == frozenset({1, 2})

    def test_equation_2_restricts_candidates(self):
        """Paper's Figure 3(b): CSM={G1..G4}, Answer(g'')={G1,G5}."""
        store = make_store({2: {1, 5}})
        pruner = CandidateSetPruner(store, query_mode="subgraph")
        result = pruner.prune(frozenset({1, 2, 3, 4}), outcome(result_super=[2]))
        assert result.final_candidates == frozenset({1})
        assert result.direct_answers == frozenset()
        assert result.contributions[2] == frozenset({2, 3, 4})

    def test_both_equations_combined(self):
        store = make_store({1: {1, 2}, 2: {1, 2, 3}})
        pruner = CandidateSetPruner(store, query_mode="subgraph")
        result = pruner.prune(
            frozenset({1, 2, 3, 4}), outcome(result_sub=[1], result_super=[2])
        )
        # Equation 1 moves {1,2} to answers; equation 2 then drops 4.
        assert result.direct_answers == frozenset({1, 2})
        assert result.final_candidates == frozenset({3})
        assert sum(map(len, result.contributions.values())) == 3

    def test_multiple_supergraph_answers_unioned(self):
        store = make_store({1: {1}, 2: {2}})
        pruner = CandidateSetPruner(store, query_mode="subgraph")
        result = pruner.prune(frozenset({1, 2, 3}), outcome(result_sub=[1, 2]))
        assert result.direct_answers == frozenset({1, 2})
        assert result.final_candidates == frozenset({3})

    def test_multiple_subgraph_answers_intersected(self):
        store = make_store({1: {1, 2, 3}, 2: {2, 3, 4}})
        pruner = CandidateSetPruner(store, query_mode="subgraph")
        result = pruner.prune(frozenset({1, 2, 3, 4, 5}), outcome(result_super=[1, 2]))
        assert result.final_candidates == frozenset({2, 3})

    def test_exact_match_shortcut(self):
        store = make_store({7: {3, 9}})
        pruner = CandidateSetPruner(store, query_mode="subgraph")
        result = pruner.prune(
            frozenset({1, 2, 3}), outcome(result_sub=[7], result_super=[7], exact=7)
        )
        assert result.shortcut == "exact"
        assert result.shortcut_serial == 7
        assert result.direct_answers == frozenset({3, 9})
        assert result.final_candidates == frozenset()

    def test_empty_answer_shortcut(self):
        store = make_store({4: set()})
        pruner = CandidateSetPruner(store, query_mode="subgraph")
        result = pruner.prune(frozenset({1, 2, 3}), outcome(result_super=[4]))
        assert result.shortcut == "empty"
        assert result.shortcut_serial == 4
        assert result.final_candidates == frozenset()
        assert result.direct_answers == frozenset()

    def test_empty_answer_in_sub_direction_is_not_a_shortcut(self):
        # A cached *supergraph* of the query with an empty answer set proves
        # nothing about the query (subgraph-query mode).
        store = make_store({4: set()})
        pruner = CandidateSetPruner(store, query_mode="subgraph")
        result = pruner.prune(frozenset({1, 2}), outcome(result_sub=[4]))
        assert result.shortcut is None
        assert result.final_candidates == frozenset({1, 2})

    def test_no_relations_no_change(self):
        store = make_store({})
        pruner = CandidateSetPruner(store, query_mode="subgraph")
        result = pruner.prune(frozenset({1, 2}), outcome())
        assert result.final_candidates == frozenset({1, 2})
        assert result.contributions == {}


class TestSupergraphMode:
    def test_roles_inverted(self):
        """In supergraph mode, Resultsuper supplies guaranteed answers."""
        store = make_store({1: {1, 2}, 2: {1, 2, 3}})
        pruner = CandidateSetPruner(store, query_mode="supergraph")
        result = pruner.prune(
            frozenset({1, 2, 3, 4}), outcome(result_sub=[2], result_super=[1])
        )
        # Answers of the contained cached query (serial 1) are answers of g.
        assert result.direct_answers == frozenset({1, 2})
        # Candidates must lie in the answer set of the containing query (serial 2).
        assert result.final_candidates == frozenset({3})

    def test_empty_shortcut_uses_sub_direction(self):
        store = make_store({4: set()})
        pruner = CandidateSetPruner(store, query_mode="supergraph")
        result = pruner.prune(frozenset({1, 2}), outcome(result_sub=[4]))
        assert result.shortcut == "empty"

    def test_exact_match_shortcut_still_applies(self):
        store = make_store({3: {5}})
        pruner = CandidateSetPruner(store, query_mode="supergraph")
        result = pruner.prune(frozenset({1, 2}), outcome(exact=3, result_sub=[3]))
        assert result.shortcut == "exact"
        assert result.direct_answers == frozenset({5})
