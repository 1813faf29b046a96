"""Tests for FTV feature extraction (paths, cycles, canonical keys)."""

from __future__ import annotations

import random

import pytest

from repro.ftv.features import (
    canonical_cycle_key,
    canonical_path_key,
    cycle_features,
    extract_label_cycles,
    extract_label_paths,
)
from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph
from repro.isomorphism import VF2PlusMatcher


class TestCanonicalKeys:
    def test_path_key_direction_invariant(self):
        assert canonical_path_key(["C", "O", "N"]) == canonical_path_key(["N", "O", "C"])

    def test_path_key_prefers_smaller(self):
        assert canonical_path_key(["B", "A"]) == ("A", "B")

    def test_cycle_key_rotation_invariant(self):
        a = canonical_cycle_key(["C", "O", "N"])
        b = canonical_cycle_key(["O", "N", "C"])
        assert a == b

    def test_cycle_key_direction_invariant(self):
        assert canonical_cycle_key(["C", "O", "N"]) == canonical_cycle_key(["N", "O", "C"])

    def test_cycle_key_tagged(self):
        assert canonical_cycle_key(["C", "C"])[0] == "cycle"

    def test_cycle_and_path_keys_distinct(self):
        assert canonical_cycle_key(["C", "C", "C"]) != canonical_path_key(["C", "C", "C"])


class TestPathExtraction:
    def test_single_vertex_paths(self, triangle):
        counts = extract_label_paths(triangle, 0)
        assert counts[("C",)] == 2
        assert counts[("O",)] == 1

    def test_edge_paths_counted_once(self):
        g = Graph(labels=["C", "O"], edges=[(0, 1)])
        counts = extract_label_paths(g, 1)
        assert counts[("C", "O")] == 1

    def test_path_graph_counts(self, path_graph):
        counts = extract_label_paths(path_graph, 3)
        assert counts[("C", "C")] == 1
        assert counts[("C", "O")] == 1
        assert counts[("N", "O")] == 1
        assert counts[("C", "C", "O")] == 1
        assert counts[("C", "C", "O", "N")] == 1

    def test_triangle_length2_paths(self, triangle):
        counts = extract_label_paths(triangle, 2)
        # Paths of 2 edges in a triangle: one per middle vertex = 3.
        two_edge = {k: v for k, v in counts.items() if len(k) == 3}
        assert sum(two_edge.values()) == 3

    def test_negative_length_empty(self, triangle):
        assert not extract_label_paths(triangle, -1)

    def test_max_length_zero_only_vertices(self, path_graph):
        counts = extract_label_paths(path_graph, 0)
        assert all(len(key) == 1 for key in counts)


class TestCycleExtraction:
    def test_triangle_has_one_cycle(self, triangle):
        counts = extract_label_cycles(triangle, 3)
        assert sum(counts.values()) == 1

    def test_square_cycle_counted_once(self):
        square = Graph(labels=["C", "O", "C", "O"], edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        counts = extract_label_cycles(square, 4)
        assert sum(counts.values()) == 1

    def test_max_size_respected(self):
        square = Graph(labels=["C"] * 4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        assert sum(extract_label_cycles(square, 3).values()) == 0

    def test_no_cycles_in_tree(self, path_graph):
        assert not extract_label_cycles(path_graph, 6)

    def test_two_triangles_counted(self, house_graph):
        # The "house" has exactly one triangle (roof) and one 4-cycle (walls)
        # plus the 5-cycle around the outside.
        triangles = {
            key: value
            for key, value in extract_label_cycles(house_graph, 3).items()
        }
        assert sum(triangles.values()) == 1

    def test_k4_has_seven_cycles(self):
        k4 = Graph(
            labels=["C"] * 4,
            edges=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        )
        # K4 contains 4 triangles and 3 four-cycles.
        assert sum(extract_label_cycles(k4, 3).values()) == 4
        assert sum(extract_label_cycles(k4, 4).values()) == 7

    def test_alias(self, triangle):
        assert cycle_features(triangle, 3) == extract_label_cycles(triangle, 3)


class TestFeatureMonotonicity:
    """If pattern ⊆ target then target's feature counts dominate the pattern's.

    This is the property FTV filtering soundness rests on.
    """

    @pytest.mark.parametrize("seed", range(10))
    def test_path_counts_monotone_under_containment(self, seed):
        rng = random.Random(seed)
        target = random_connected_graph(12, 2.6, ["C", "O"], rng)
        pattern = target.induced_subgraph(rng.sample(range(12), k=6))
        if not VF2PlusMatcher().is_subgraph(pattern, target):
            pytest.skip("induced subgraph unexpectedly not contained")
        pattern_counts = extract_label_paths(pattern, 3)
        target_counts = extract_label_paths(target, 3)
        for key, count in pattern_counts.items():
            assert target_counts.get(key, 0) >= count

    @pytest.mark.parametrize("seed", range(5))
    def test_cycle_counts_monotone_under_containment(self, seed):
        rng = random.Random(seed)
        target = random_connected_graph(10, 3.0, ["C", "O"], rng)
        pattern = target.induced_subgraph(rng.sample(range(10), k=6))
        pattern_counts = extract_label_cycles(pattern, 5)
        target_counts = extract_label_cycles(target, 5)
        for key, count in pattern_counts.items():
            assert target_counts.get(key, 0) >= count
