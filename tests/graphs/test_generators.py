"""Tests for random-graph and stand-in dataset generators."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graphs.generators import (
    aids_like,
    dataset_by_name,
    pcm_like,
    pdbs_like,
    random_connected_graph,
    random_labels,
    random_tree,
    synthetic_like,
    zipfian_label_weights,
)
from repro.graphs.generators.families import family_dataset_graphs, perturb_graph
from repro.graphs.graph import Graph

from ..isomorphism.helpers import to_networkx


class TestZipfianWeights:
    def test_weights_sum_to_one(self):
        weights = zipfian_label_weights(10, skew=1.5)
        assert sum(weights) == pytest.approx(1.0)

    def test_weights_decreasing(self):
        weights = zipfian_label_weights(8, skew=1.0)
        assert all(a >= b for a, b in zip(weights, weights[1:], strict=False))

    def test_zero_skew_uniformish(self):
        weights = zipfian_label_weights(5, skew=0.0)
        assert weights == [1.0] * 5

    def test_invalid_alphabet_size(self):
        with pytest.raises(GraphError):
            zipfian_label_weights(0)


class TestRandomTree:
    def test_tree_edge_count(self):
        rng = random.Random(1)
        edges = random_tree(10, rng)
        assert len(edges) == 9

    def test_tree_is_connected(self):
        rng = random.Random(2)
        edges = random_tree(15, rng)
        graph = Graph(labels=["C"] * 15, edges=edges)
        assert nx.is_connected(to_networkx(graph))

    def test_invalid_order(self):
        with pytest.raises(GraphError):
            random_tree(0, random.Random(0))


class TestRandomLabels:
    def test_label_count(self):
        labels = random_labels(7, ["C", "O"], random.Random(0))
        assert len(labels) == 7
        assert set(labels) <= {"C", "O"}

    def test_empty_alphabet_rejected(self):
        with pytest.raises(GraphError):
            random_labels(3, [], random.Random(0))

    def test_weighted_labels(self):
        labels = random_labels(200, ["C", "O"], random.Random(0), weights=[0.95, 0.05])
        assert labels.count("C") > labels.count("O")


class TestRandomConnectedGraph:
    @settings(max_examples=25, deadline=None)
    @given(order=st.integers(min_value=1, max_value=30), seed=st.integers(0, 1000))
    def test_connected_and_sized(self, order, seed):
        rng = random.Random(seed)
        graph = random_connected_graph(order, 2.5, ["C", "N", "O"], rng)
        assert graph.order == order
        assert nx.is_connected(to_networkx(graph))

    def test_average_degree_approximated(self):
        rng = random.Random(3)
        graph = random_connected_graph(100, 6.0, ["C"], rng)
        assert graph.average_degree() == pytest.approx(6.0, rel=0.25)

    def test_invalid_order(self):
        with pytest.raises(GraphError):
            random_connected_graph(0, 2.0, ["C"], random.Random(0))

    def test_single_vertex(self):
        graph = random_connected_graph(1, 2.0, ["C"], random.Random(0))
        assert graph.order == 1 and graph.size == 0

    def test_deterministic_given_seed(self):
        a = random_connected_graph(12, 2.2, ["C", "O"], random.Random(9))
        b = random_connected_graph(12, 2.2, ["C", "O"], random.Random(9))
        assert a == b


class TestFamilies:
    def test_perturb_preserves_most_structure(self):
        rng = random.Random(1)
        template = random_connected_graph(20, 2.2, ["C", "O"], rng)
        variant = perturb_graph(template, rng, alphabet=["C", "O"])
        assert variant.order >= template.order
        shared = set(template.edges) & set(variant.edges)
        assert len(shared) >= 0.7 * template.size

    def test_perturb_empty_template_rejected(self):
        with pytest.raises(GraphError):
            perturb_graph(Graph(labels=[]), random.Random(0), alphabet=["C"])

    def test_family_dataset_graph_count(self):
        rng = random.Random(2)
        graphs = family_dataset_graphs(
            graph_count=10,
            template_count=3,
            template_order=15,
            order_spread=5,
            average_degree=2.2,
            alphabet=["C", "O"],
            rng=rng,
        )
        assert len(graphs) == 10
        assert all(g.graph_id == i for i, g in enumerate(graphs))

    def test_family_dataset_invalid_counts(self):
        with pytest.raises(GraphError):
            family_dataset_graphs(0, 1, 10, 2, 2.0, ["C"], random.Random(0))
        with pytest.raises(GraphError):
            family_dataset_graphs(5, 0, 10, 2, 2.0, ["C"], random.Random(0))


class TestStandInDatasets:
    def test_aids_like_shape(self):
        dataset = aids_like(scale=0.05)
        stats = dataset.statistics()
        assert stats.graph_count == 10
        assert stats.mean_degree == pytest.approx(2.1, abs=0.8)

    def test_pdbs_like_larger_graphs_than_aids(self):
        aids = aids_like(scale=0.05)
        pdbs = pdbs_like(scale=0.1)
        assert pdbs.statistics().mean_vertices > 2 * aids.statistics().mean_vertices

    def test_pcm_like_denser_than_aids(self):
        aids = aids_like(scale=0.05)
        pcm = pcm_like(scale=0.15)
        assert pcm.statistics().mean_degree > 2 * aids.statistics().mean_degree

    def test_synthetic_like_builds(self):
        dataset = synthetic_like(scale=0.1)
        assert len(dataset) >= 4

    def test_scale_controls_graph_count(self):
        assert len(aids_like(scale=0.1)) == 20
        assert len(aids_like(scale=0.05)) == 10

    def test_deterministic_given_seed(self):
        a = aids_like(scale=0.05, seed=3)
        b = aids_like(scale=0.05, seed=3)
        assert all(x == y for x, y in zip(a, b, strict=True))

    def test_dataset_by_name(self):
        dataset = dataset_by_name("AIDS", scale=0.05)
        assert dataset.name == "AIDS-like"

    def test_dataset_by_name_with_seed(self):
        a = dataset_by_name("pcm", scale=0.15, seed=1)
        b = dataset_by_name("pcm", scale=0.15, seed=1)
        assert all(x == y for x, y in zip(a, b, strict=True))

    def test_dataset_by_name_unknown(self):
        with pytest.raises(ValueError):
            dataset_by_name("enron")
