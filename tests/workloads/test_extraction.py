"""Tests for the BFS / random-walk query extraction primitives."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.exceptions import WorkloadError
from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph
from repro.isomorphism import VF2PlusMatcher
from repro.workloads.base import Workload, extract_query_bfs, extract_query_random_walk

from ..isomorphism.helpers import to_networkx

MATCHER = VF2PlusMatcher()


def source_graph(seed=0, order=20):
    return random_connected_graph(order, 2.6, ["C", "N", "O"], random.Random(seed))


class TestBFSExtraction:
    def test_extracted_query_is_contained(self):
        source = source_graph()
        for size in (2, 4, 8):
            query = extract_query_bfs(source, 0, size)
            assert query is not None
            assert query.size == size
            assert MATCHER.is_subgraph(query, source)

    def test_query_is_connected(self):
        source = source_graph(3)
        query = extract_query_bfs(source, 2, 6)
        assert query is not None and nx.is_connected(to_networkx(query))

    def test_deterministic_without_rng(self):
        source = source_graph(1)
        assert extract_query_bfs(source, 0, 6) == extract_query_bfs(source, 0, 6)

    def test_nested_sizes_are_nested_queries(self):
        """Smaller extractions from the same start are subgraphs of larger ones."""
        source = source_graph(5, order=25)
        small = extract_query_bfs(source, 0, 4)
        large = extract_query_bfs(source, 0, 10)
        assert small is not None and large is not None
        assert MATCHER.is_subgraph(small, large)

    def test_randomised_extraction_with_rng(self):
        source = source_graph(2)
        query = extract_query_bfs(source, 0, 5, rng=random.Random(0))
        assert query is not None and query.size == 5

    def test_too_large_request_returns_none(self):
        source = Graph(labels=["C", "C"], edges=[(0, 1)])
        assert extract_query_bfs(source, 0, 5) is None

    def test_invalid_arguments(self):
        source = source_graph()
        with pytest.raises(WorkloadError):
            extract_query_bfs(source, 0, 0)
        with pytest.raises(WorkloadError):
            extract_query_bfs(source, 999, 3)


class TestRandomWalkExtraction:
    def test_extracted_query_is_contained(self):
        source = source_graph(7)
        query = extract_query_random_walk(source, 0, 6, random.Random(1))
        assert query is not None
        assert query.size == 6
        assert MATCHER.is_subgraph(query, source)

    def test_walk_returns_none_when_stuck(self):
        source = Graph(labels=["C", "C"], edges=[(0, 1)])
        assert extract_query_random_walk(source, 0, 4, random.Random(0)) is None

    def test_isolated_start_returns_none(self):
        source = Graph(labels=["C", "C", "C"], edges=[(1, 2)])
        assert extract_query_random_walk(source, 0, 1, random.Random(0)) is None

    def test_invalid_arguments(self):
        source = source_graph()
        with pytest.raises(WorkloadError):
            extract_query_random_walk(source, 0, 0, random.Random(0))
        with pytest.raises(WorkloadError):
            extract_query_random_walk(source, 999, 3, random.Random(0))


class TestWorkloadContainer:
    def test_container_protocol(self, tiny_dataset):
        queries = (tiny_dataset[0].induced_subgraph(range(3)),) * 3
        workload = Workload(
            name="w", queries=queries, dataset_name="d", parameters={"alpha": 1.4}
        )
        assert len(workload) == 3
        assert workload[1] == queries[1]
        assert list(workload) == list(queries)
        assert "alpha=1.4" in workload.describe()
