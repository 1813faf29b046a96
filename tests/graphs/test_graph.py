"""Unit tests for the core Graph type."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.graphs.graph import _LABEL_INTERN, Graph, intern_label
from repro.graphs.packed import PackedGraph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(labels=[], edges=[])
        assert g.order == 0
        assert g.size == 0
        assert list(g.vertices()) == []

    def test_single_vertex(self):
        g = Graph(labels=["C"])
        assert g.order == 1
        assert g.size == 0
        assert g.label(0) == "C"

    def test_basic_graph(self, path_graph):
        assert path_graph.order == 4
        assert path_graph.size == 3
        assert path_graph.labels == ("C", "C", "O", "N")

    def test_edges_are_canonicalised(self):
        g = Graph(labels=["C", "O"], edges=[(1, 0)])
        assert g.edges == ((0, 1),)

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(labels=["C"], edges=[(0, 1)])

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphError):
            Graph(labels=["C", "O"], edges=[(-1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(labels=["C", "O"], edges=[(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError):
            Graph(labels=["C", "O"], edges=[(0, 1), (1, 0)])

    def test_graph_id_recorded(self):
        g = Graph(labels=["C"], graph_id=42)
        assert g.graph_id == 42

    def test_graph_id_defaults_to_none(self):
        assert Graph(labels=["C"]).graph_id is None


class TestAccessors:
    def test_neighbors(self, path_graph):
        assert set(path_graph.neighbors(1)) == {0, 2}
        assert set(path_graph.neighbors(0)) == {1}

    def test_degree(self, star_graph):
        assert star_graph.degree(0) == 3
        assert star_graph.degree(1) == 1

    def test_has_edge_both_directions(self, path_graph):
        assert path_graph.has_edge(0, 1)
        assert path_graph.has_edge(1, 0)
        assert not path_graph.has_edge(0, 3)

    def test_has_vertex(self, path_graph):
        assert path_graph.has_vertex(0)
        assert path_graph.has_vertex(3)
        assert not path_graph.has_vertex(4)
        assert not path_graph.has_vertex(-1)

    def test_len_and_iter(self, path_graph):
        assert len(path_graph) == 4
        assert list(path_graph) == [0, 1, 2, 3]

    def test_label_histogram(self, star_graph):
        assert star_graph.label_histogram == {"C": 1, "O": 3}

    def test_distinct_labels(self, path_graph):
        assert path_graph.distinct_labels() == frozenset({"C", "O", "N"})

    def test_vertices_with_label(self, star_graph):
        assert star_graph.vertices_with_label("O") == (1, 2, 3)
        assert star_graph.vertices_with_label("X") == ()


class TestStructuralSummaries:
    def test_degree_sequence_sorted(self, star_graph):
        assert star_graph.degree_sequence() == (3, 1, 1, 1)

    def test_average_degree(self, path_graph):
        assert path_graph.average_degree() == pytest.approx(2 * 3 / 4)

    def test_average_degree_empty(self):
        assert Graph(labels=[]).average_degree() == 0.0

    def test_density_triangle(self, triangle):
        assert triangle.density() == pytest.approx(1.0)

    def test_density_single_vertex(self):
        assert Graph(labels=["C"]).density() == 0.0


class TestLabelMasks:
    def test_label_mask_delegates_to_label_id_mask(self):
        g = Graph(labels=["C", "N", "C"], edges=[(0, 1), (1, 2)])
        assert g.label_mask("C") == g.label_id_mask(intern_label("C")) == 0b101
        assert g.label_mask("N") == g.label_id_mask(intern_label("N")) == 0b010

    def test_label_mask_unknown_label_does_not_intern(self):
        g = Graph(labels=["C"], edges=())
        probe = ("never-interned-label", object())
        before = len(_LABEL_INTERN)
        assert g.label_mask(probe) == 0
        assert len(_LABEL_INTERN) == before


class TestDerivedGraphs:
    def test_with_id_preserves_structure(self, triangle):
        clone = triangle.with_id(7)
        assert clone.graph_id == 7
        assert clone == triangle

    def test_with_id_copies_every_slot(self, triangle):
        """``with_id`` iterates ``Graph.__slots__`` — a field added to the
        class can never silently fall off the clone path.  The packed record
        is a derived cache that embeds the id, so the clone starts without it."""
        triangle.packed_bytes()
        clone = triangle.with_id("cloned")
        for slot in Graph.__slots__:
            if slot in ("_graph_id", "_packed_record"):
                continue
            assert getattr(clone, slot) == getattr(triangle, slot), slot
        assert clone._packed_record is None

    def test_with_id_packs_with_the_new_id(self, triangle):
        assert PackedGraph.from_bytes(triangle.packed_bytes()).graph_id is None
        clone = triangle.with_id(7)
        assert PackedGraph.from_bytes(clone.packed_bytes()).graph_id == 7
        assert clone.packed_bytes() == clone.to_packed().to_bytes()

    def test_induced_subgraph(self, house_graph):
        sub = house_graph.induced_subgraph([2, 3, 4])
        assert sub.order == 3
        assert sub.size == 3  # the triangular roof

    def test_induced_subgraph_unknown_vertex(self, triangle):
        with pytest.raises(GraphError):
            triangle.induced_subgraph([0, 9])

    def test_edge_subgraph(self, house_graph):
        sub = house_graph.edge_subgraph([(0, 1), (1, 2)])
        assert sub.order == 3
        assert sub.size == 2

    def test_edge_subgraph_unknown_edge(self, triangle):
        with pytest.raises(GraphError):
            triangle.edge_subgraph([(0, 5)])

    def test_relabelled(self, path_graph):
        relabelled = path_graph.relabelled({0: "X", 3: "Y"})
        assert relabelled.label(0) == "X"
        assert relabelled.label(3) == "Y"
        assert relabelled.label(1) == "C"
        assert relabelled.edges == path_graph.edges

    def test_relabelled_unknown_vertex(self, path_graph):
        with pytest.raises(GraphError):
            path_graph.relabelled({9: "X"})


class TestEqualityAndHashing:
    def test_equal_graphs(self):
        a = Graph(labels=["C", "O"], edges=[(0, 1)])
        b = Graph(labels=["C", "O"], edges=[(0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_graph_id_does_not_affect_equality(self):
        a = Graph(labels=["C", "O"], edges=[(0, 1)], graph_id=1)
        b = Graph(labels=["C", "O"], edges=[(0, 1)], graph_id=2)
        assert a == b

    def test_different_labels_not_equal(self):
        a = Graph(labels=["C", "O"], edges=[(0, 1)])
        b = Graph(labels=["C", "N"], edges=[(0, 1)])
        assert a != b

    def test_different_edges_not_equal(self):
        a = Graph(labels=["C", "O", "N"], edges=[(0, 1)])
        b = Graph(labels=["C", "O", "N"], edges=[(1, 2)])
        assert a != b

    def test_not_equal_to_other_types(self, triangle):
        assert triangle != "triangle"

    def test_usable_as_dict_key(self, triangle, path_graph):
        mapping = {triangle: 1, path_graph: 2}
        assert mapping[Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2), (0, 2)])] == 1

    def test_repr_contains_counts(self, path_graph):
        assert "|V|=4" in repr(path_graph)
        assert "|E|=3" in repr(path_graph)

    def test_structure_key_roundtrip(self, path_graph):
        labels, edges = path_graph.structure_key()
        assert Graph(labels=labels, edges=edges) == path_graph
