"""Tests for the bundled FTV methods: GraphGrepSX, Grapes, CT-Index.

The central invariant for every FTV method is *filtering soundness*: the
candidate set must contain every dataset graph that actually contains the
query.  The tests check that invariant on hand-made and randomly generated
datasets, plus each method's specific behaviour (counts, fingerprints,
parallelism, index sizes).
"""

from __future__ import annotations


import pytest

from repro.ftv import CTIndex, Grapes, GraphGrepSX
from repro.graphs.graph import Graph
from repro.isomorphism import VF2PlusMatcher
from repro.methods.executor import execute_query
from repro.workloads import generate_type_a

MATCHER = VF2PlusMatcher()


def brute_force_answer(dataset, query):
    return frozenset(
        graph.graph_id for graph in dataset if MATCHER.is_subgraph(query, graph)
    )


@pytest.fixture(scope="module", params=["ggsx", "grapes", "ctindex"])
def ftv_method_factory(request):
    def build(dataset):
        if request.param == "ggsx":
            return GraphGrepSX(dataset, max_path_length=3)
        if request.param == "grapes":
            return Grapes(dataset, max_path_length=3, threads=1)
        return CTIndex(dataset, max_tree_size=3, max_cycle_size=5, fingerprint_bits=1024)

    build.name = request.param
    return build


class TestFilteringSoundness:
    def test_candidates_contain_answers_handmade(self, ftv_method_factory, handmade_dataset):
        method = ftv_method_factory(handmade_dataset)
        query = Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)])
        answers = brute_force_answer(handmade_dataset, query)
        assert answers <= method.candidates(query)

    def test_candidates_contain_answers_random(self, ftv_method_factory, tiny_dataset):
        method = ftv_method_factory(tiny_dataset)
        workload = generate_type_a(
            tiny_dataset, "UU", 15, query_sizes=(3, 5, 8), seed=4
        )
        for query in workload:
            answers = brute_force_answer(tiny_dataset, query)
            candidates = method.candidates(query)
            assert answers <= candidates, (
                f"{ftv_method_factory.name} pruned a true answer"
            )

    def test_execute_query_matches_brute_force(self, ftv_method_factory, tiny_dataset):
        method = ftv_method_factory(tiny_dataset)
        workload = generate_type_a(tiny_dataset, "ZZ", 10, query_sizes=(4, 6), seed=8)
        for query in workload:
            execution = execute_query(method, query)
            assert execution.answer_ids == brute_force_answer(tiny_dataset, query)

    def test_candidates_subset_of_dataset(self, ftv_method_factory, tiny_dataset):
        method = ftv_method_factory(tiny_dataset)
        query = tiny_dataset[0].induced_subgraph(range(4))
        assert method.candidates(query) <= tiny_dataset.graph_ids


class TestGraphGrepSX:
    def test_filter_uses_path_counts(self, handmade_dataset):
        method = GraphGrepSX(handmade_dataset, max_path_length=2)
        # A query with two C-C edges requires count >= 2 which no graph has.
        query = Graph(labels=["C", "C", "C"], edges=[(0, 1), (1, 2)])
        candidates = method.candidates(query)
        assert all(
            MATCHER.is_subgraph(query, handmade_dataset[g]) or True
            for g in candidates
        )
        # Graph 3 (single C-C edge) can never be a candidate for a 2-edge query.
        assert 3 not in candidates

    def test_index_size_positive(self, tiny_dataset):
        method = GraphGrepSX(tiny_dataset, max_path_length=2)
        assert method.index_size_bytes() > 0

    def test_build_time_recorded(self, tiny_dataset):
        assert GraphGrepSX(tiny_dataset, max_path_length=2).build_time_s >= 0.0

    def test_max_path_length_property(self, tiny_dataset):
        assert GraphGrepSX(tiny_dataset, max_path_length=3).max_path_length == 3

    def test_default_verifier_is_vanilla_vf2(self, tiny_dataset):
        assert GraphGrepSX(tiny_dataset, max_path_length=2).matcher.name == "vf2"


class TestGrapes:
    def test_thread_configuration(self, tiny_dataset):
        grapes1 = Grapes(tiny_dataset, max_path_length=2, threads=1)
        grapes6 = Grapes(tiny_dataset, max_path_length=2, threads=6)
        assert grapes1.verify_parallelism == 1
        assert grapes6.verify_parallelism == 6
        assert grapes1.name == "grapes1"
        assert grapes6.name == "grapes6"

    def test_invalid_threads(self, tiny_dataset):
        with pytest.raises(ValueError):
            Grapes(tiny_dataset, threads=0)

    def test_parallelism_reduces_reported_time(self, tiny_dataset):
        query = tiny_dataset[0].induced_subgraph(range(5))
        grapes1 = Grapes(tiny_dataset, max_path_length=2, threads=1)
        grapes6 = Grapes(tiny_dataset, max_path_length=2, threads=6)
        t1 = execute_query(grapes1, query)
        t6 = execute_query(grapes6, query)
        assert t1.answer_ids == t6.answer_ids
        assert t6.verify_time_s <= t6.raw_verify_time_s

    def test_candidate_regions(self, handmade_dataset):
        grapes = Grapes(handmade_dataset, max_path_length=2)
        query = Graph(labels=["N"], edges=[])
        region = grapes.candidate_regions(query, 0)
        assert region == frozenset({3})  # the pendant N of graph 0

    def test_candidate_regions_unknown_graph(self, handmade_dataset):
        grapes = Grapes(handmade_dataset, max_path_length=2)
        assert grapes.candidate_regions(Graph(labels=["C"]), 999) == frozenset()

    def test_index_size_includes_locations(self, tiny_dataset):
        grapes = Grapes(tiny_dataset, max_path_length=2)
        ggsx = GraphGrepSX(tiny_dataset, max_path_length=2)
        assert grapes.index_size_bytes() > ggsx.index_size_bytes()


class TestCTIndex:
    def test_fingerprint_parameters(self, tiny_dataset):
        method = CTIndex(
            tiny_dataset, max_tree_size=3, max_cycle_size=4, fingerprint_bits=512
        )
        assert method.fingerprint_bits == 512
        assert method.max_tree_size == 3
        assert method.max_cycle_size == 4

    def test_index_size_is_width_times_graphs(self, tiny_dataset):
        method = CTIndex(tiny_dataset, max_tree_size=2, max_cycle_size=4, fingerprint_bits=512)
        assert method.index_size_bytes() == len(tiny_dataset) * 512 // 8

    def test_wider_fingerprints_filter_at_least_as_well(self, tiny_dataset):
        narrow = CTIndex(tiny_dataset, max_tree_size=3, max_cycle_size=4, fingerprint_bits=64)
        wide = CTIndex(tiny_dataset, max_tree_size=3, max_cycle_size=4, fingerprint_bits=4096)
        query = tiny_dataset[1].induced_subgraph(range(5))
        assert wide.candidates(query) <= narrow.candidates(query)

    def test_default_verifier_is_vf2plus(self, tiny_dataset):
        assert CTIndex(tiny_dataset, max_tree_size=2).matcher.name == "vf2plus"


class TestMethodDescription:
    def test_describe_mentions_dataset_and_verifier(self, tiny_dataset):
        method = GraphGrepSX(tiny_dataset, max_path_length=2)
        description = method.describe()
        assert tiny_dataset.name in description
        assert "vf2" in description
        assert "ggsx" in repr(method)
