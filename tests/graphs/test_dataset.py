"""Unit tests for GraphDataset."""

from __future__ import annotations

import pytest

from repro.exceptions import DatasetError
from repro.graphs.dataset import GraphDataset
from repro.graphs.graph import Graph


def _graphs():
    return [
        Graph(labels=["C", "O"], edges=[(0, 1)]),
        Graph(labels=["C", "C", "N"], edges=[(0, 1), (1, 2)]),
        Graph(labels=["S"]),
    ]


class TestConstruction:
    def test_empty_dataset_rejected(self):
        with pytest.raises(DatasetError):
            GraphDataset([], name="empty")

    def test_graph_ids_rewritten_to_positions(self):
        dataset = GraphDataset(_graphs(), name="d")
        assert [g.graph_id for g in dataset] == [0, 1, 2]

    def test_len_and_iteration(self):
        dataset = GraphDataset(_graphs())
        assert len(dataset) == 3
        assert [g.order for g in dataset] == [2, 3, 1]

    def test_name(self):
        assert GraphDataset(_graphs(), name="mols").name == "mols"

    def test_repr(self):
        assert "graphs=3" in repr(GraphDataset(_graphs(), name="mols"))


class TestAccess:
    def test_getitem(self):
        dataset = GraphDataset(_graphs())
        assert dataset[1].order == 3

    def test_graph_alias(self):
        dataset = GraphDataset(_graphs())
        assert dataset.graph(2).label(0) == "S"

    def test_out_of_range_raises(self):
        dataset = GraphDataset(_graphs())
        with pytest.raises(DatasetError):
            dataset[10]

    def test_graphs_bulk(self):
        dataset = GraphDataset(_graphs())
        graphs = dataset.graphs([2, 0])
        assert [g.graph_id for g in graphs] == [2, 0]

    def test_graph_ids(self):
        dataset = GraphDataset(_graphs())
        assert dataset.graph_ids == frozenset({0, 1, 2})


class TestStatistics:
    def test_statistics_values(self):
        dataset = GraphDataset(_graphs())
        stats = dataset.statistics()
        assert stats.graph_count == 3
        assert stats.max_vertices == 3
        assert stats.max_edges == 2
        assert stats.mean_vertices == pytest.approx(2.0)
        assert stats.distinct_labels == 4  # C, O, N, S

    def test_statistics_as_dict(self):
        stats = GraphDataset(_graphs()).statistics()
        payload = stats.as_dict()
        assert payload["graph_count"] == 3
        assert set(payload) >= {"mean_vertices", "mean_edges", "mean_degree"}

    def test_label_alphabet(self):
        dataset = GraphDataset(_graphs())
        assert dataset.label_alphabet() == frozenset({"C", "O", "N", "S"})

    def test_single_graph_statistics(self):
        dataset = GraphDataset([Graph(labels=["C"])])
        stats = dataset.statistics()
        assert stats.std_vertices == 0.0
        assert stats.mean_degree == 0.0
