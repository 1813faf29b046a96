"""Tests for SI methods, the Method registry and the baseline query executor."""

from __future__ import annotations

import pytest

from repro.core.stores import expensiveness
from repro.exceptions import BenchmarkError
from repro.ftv.features import extract_label_paths
from repro.graphs.graph import Graph
from repro.isomorphism import VF2PlusMatcher
from repro.methods import (
    SIMethod,
    available_methods,
    execute_query,
    method_by_name,
    verify_candidates,
)

MATCHER = VF2PlusMatcher()


def brute_force_answer(dataset, query):
    return frozenset(
        graph.graph_id for graph in dataset if MATCHER.is_subgraph(query, graph)
    )


class TestSIMethod:
    def test_candidates_are_whole_dataset(self, handmade_dataset):
        method = SIMethod(handmade_dataset, matcher="vf2")
        query = Graph(labels=["C", "C"], edges=[(0, 1)])
        assert method.candidates(query) == handmade_dataset.graph_ids

    def test_prefilter_drops_impossible(self, handmade_dataset):
        method = SIMethod(handmade_dataset, matcher="vf2", prefilter=True)
        query = Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)])
        candidates = method.candidates(query)
        assert 3 not in candidates  # graph 3 has only 2 vertices
        assert brute_force_answer(handmade_dataset, query) <= candidates

    def test_matcher_by_string_name(self, handmade_dataset):
        method = SIMethod(handmade_dataset, matcher="graphql")
        assert method.matcher.name == "graphql"
        assert method.name == "si-graphql"

    def test_matcher_instance_accepted(self, handmade_dataset):
        method = SIMethod(handmade_dataset, matcher=VF2PlusMatcher())
        assert method.matcher.name == "vf2plus"

    def test_index_size_zero(self, handmade_dataset):
        assert SIMethod(handmade_dataset).index_size_bytes() == 0

    def test_supports_supergraph(self, handmade_dataset):
        assert SIMethod(handmade_dataset).supports_supergraph

    def test_verify_single_graph(self, handmade_dataset):
        method = SIMethod(handmade_dataset, matcher="vf2plus")
        query = Graph(labels=["C", "C"], edges=[(0, 1)])
        record = method.verify(query, 0)
        assert record.matched
        assert record.graph_id == 0
        assert record.elapsed_s >= 0.0

    def test_verify_supergraph_direction(self, handmade_dataset):
        method = SIMethod(handmade_dataset, matcher="vf2plus")
        # Query that *contains* graph 3 (the single C-C edge).
        query = Graph(labels=["C", "C", "C"], edges=[(0, 1), (1, 2)])
        assert method.verify_supergraph(query, 3).matched
        assert not method.verify_supergraph(query, 2).matched


class TestExecuteQuery:
    def test_answers_match_brute_force(self, handmade_dataset):
        method = SIMethod(handmade_dataset, matcher="vf2plus")
        query = Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)])
        execution = execute_query(method, query)
        assert execution.answer_ids == brute_force_answer(handmade_dataset, query)

    def test_counts_and_times_recorded(self, handmade_dataset):
        method = SIMethod(handmade_dataset, matcher="vf2plus")
        query = Graph(labels=["C", "C"], edges=[(0, 1)])
        execution = execute_query(method, query)
        assert execution.subiso_tests == len(handmade_dataset)
        assert execution.filter_time_s >= 0.0
        assert execution.verify_time_s >= 0.0
        assert execution.total_time_s >= execution.verify_time_s
        assert execution.nodes_expanded >= 0

    def test_expensiveness_ratio(self, handmade_dataset):
        """Admission scores verification work over the query's path features."""
        method = SIMethod(handmade_dataset, matcher="vf2plus")
        query = Graph(labels=["C", "C"], edges=[(0, 1)])
        execution = execute_query(method, query)
        features = len(extract_label_paths(query, 3))
        assert expensiveness(execution.nodes_expanded, features) > 0.0

    def test_supergraph_mode(self, handmade_dataset):
        method = SIMethod(handmade_dataset, matcher="vf2plus")
        # Find dataset graphs contained in this 5-vertex query.
        query = Graph(
            labels=["C", "C", "O", "N", "C"],
            edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)],
        )
        execution = execute_query(method, query, query_mode="supergraph")
        expected = frozenset(
            graph.graph_id
            for graph in handmade_dataset
            if MATCHER.is_subgraph(graph, query)
        )
        assert execution.answer_ids == expected
        assert 3 in execution.answer_ids  # the C-C edge is inside the query

    def test_verify_candidates_partial_set(self, handmade_dataset):
        method = SIMethod(handmade_dataset, matcher="vf2plus")
        query = Graph(labels=["C", "C"], edges=[(0, 1)])
        answers, raw_time, tests, nodes, records = verify_candidates(
            method, query, [0, 3]
        )
        assert tests == 2
        assert answers <= {0, 3}
        assert len(records) == 2


class TestMethodRegistry:
    def test_available_methods_contain_paper_methods(self):
        names = set(available_methods())
        assert {"ggsx", "grapes1", "grapes6", "ctindex", "vf2", "vf2plus", "graphql"} <= names

    def test_build_si_method(self, handmade_dataset):
        method = method_by_name("vf2plus", handmade_dataset)
        assert method.name == "si-vf2plus"

    def test_build_ftv_method(self, tiny_dataset):
        method = method_by_name("ggsx", tiny_dataset)
        assert method.name == "ggsx"
        assert method.index_size_bytes() > 0

    def test_grapes_variants(self, tiny_dataset):
        assert method_by_name("grapes6", tiny_dataset).verify_parallelism == 6

    def test_unknown_method(self, handmade_dataset):
        with pytest.raises(BenchmarkError):
            method_by_name("turbo-iso", handmade_dataset)
