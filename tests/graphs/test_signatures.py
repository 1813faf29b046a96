"""Unit and property tests for structural signatures and necessary conditions."""

from __future__ import annotations

import random


from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph
from repro.graphs.signatures import (
    could_be_subgraph,
    degree_sequence_dominates,
    label_histogram_dominates,
)
from repro.isomorphism.vf2_plus import VF2PlusMatcher


class TestLabelHistogramDominates:
    def test_dominates_when_superset(self, triangle, path_graph):
        small = Graph(labels=["C", "O"], edges=[(0, 1)])
        assert label_histogram_dominates(small, path_graph)

    def test_fails_when_label_missing(self, triangle):
        pattern = Graph(labels=["N"], edges=[])
        assert not label_histogram_dominates(pattern, triangle)

    def test_fails_when_count_insufficient(self):
        pattern = Graph(labels=["C", "C", "C"], edges=[])
        target = Graph(labels=["C", "C", "O"], edges=[])
        assert not label_histogram_dominates(pattern, target)


class TestDegreeSequenceDominates:
    def test_smaller_graph_dominated(self):
        pattern = Graph(labels=["C", "C"], edges=[(0, 1)])
        target = Graph(labels=["C", "C", "C"], edges=[(0, 1), (1, 2)])
        assert degree_sequence_dominates(pattern, target)

    def test_larger_pattern_fails(self):
        pattern = Graph(labels=["C"] * 4, edges=[(0, 1), (1, 2), (2, 3)])
        target = Graph(labels=["C"] * 3, edges=[(0, 1), (1, 2)])
        assert not degree_sequence_dominates(pattern, target)

    def test_high_degree_pattern_fails(self, star_graph, path_graph):
        # The star's centre has degree 3; the path's max degree is 2.
        assert not degree_sequence_dominates(star_graph, path_graph)


class TestCouldBeSubgraph:
    def test_trivial_cases(self, triangle, path_graph):
        edge = Graph(labels=["C", "C"], edges=[(0, 1)])
        assert could_be_subgraph(edge, triangle)
        assert not could_be_subgraph(path_graph, triangle)  # more vertices

    def test_never_false_negative_on_real_containment(self):
        """could_be_subgraph must say "maybe" whenever containment truly holds."""
        matcher = VF2PlusMatcher()
        rng = random.Random(5)
        for _trial in range(20):
            target = random_connected_graph(
                order=rng.randint(6, 14),
                average_degree=2.5,
                alphabet=["C", "N", "O"],
                rng=rng,
            )
            vertices = rng.sample(range(target.order), k=rng.randint(2, target.order))
            pattern = target.induced_subgraph(vertices)
            if matcher.is_subgraph(pattern, target):
                assert could_be_subgraph(pattern, target)
