"""Unit tests for GraphBuilder."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.graphs.builder import GraphBuilder


class TestAddVertex:
    def test_add_vertex_returns_sequential_ids(self):
        builder = GraphBuilder()
        assert builder.add_vertex("a", "C") == 0
        assert builder.add_vertex("b", "O") == 1
        assert builder.order == 2

    def test_duplicate_vertex_same_label_is_noop(self):
        builder = GraphBuilder()
        builder.add_vertex("a", "C")
        assert builder.add_vertex("a", "C") == 0
        assert builder.order == 1

    def test_duplicate_vertex_different_label_raises(self):
        builder = GraphBuilder()
        builder.add_vertex("a", "C")
        with pytest.raises(GraphError):
            builder.add_vertex("a", "O")

    def test_arbitrary_hashable_names(self):
        builder = GraphBuilder()
        builder.add_vertex(("atom", 3), "C")
        builder.add_vertex(frozenset({1}), "O")
        assert builder.order == 2

    def test_has_vertex(self):
        builder = GraphBuilder()
        builder.add_vertex("a", "C")
        assert builder.has_vertex("a")
        assert not builder.has_vertex("b")


class TestAddEdge:
    def test_add_edge(self):
        builder = GraphBuilder()
        builder.add_vertex("a", "C")
        builder.add_vertex("b", "O")
        builder.add_edge("a", "b")
        assert builder.size == 1
        assert builder.has_edge("a", "b")
        assert builder.has_edge("b", "a")

    def test_add_edge_unknown_endpoint(self):
        builder = GraphBuilder()
        builder.add_vertex("a", "C")
        with pytest.raises(GraphError):
            builder.add_edge("a", "missing")
        with pytest.raises(GraphError):
            builder.add_edge("missing", "a")

    def test_self_loop_rejected(self):
        builder = GraphBuilder()
        builder.add_vertex("a", "C")
        with pytest.raises(GraphError):
            builder.add_edge("a", "a")

    def test_duplicate_edge_ignored(self):
        builder = GraphBuilder()
        builder.add_vertex("a", "C")
        builder.add_vertex("b", "O")
        builder.add_edge("a", "b")
        builder.add_edge("b", "a")
        assert builder.size == 1

    def test_has_edge_with_unknown_vertices(self):
        builder = GraphBuilder()
        assert not builder.has_edge("x", "y")


class TestBuild:
    def test_build_produces_graph(self):
        builder = GraphBuilder(graph_id="mol-1")
        builder.add_vertex("a", "C")
        builder.add_vertex("b", "O")
        builder.add_edge("a", "b")
        graph = builder.build()
        assert graph.order == 2
        assert graph.size == 1
        assert graph.graph_id == "mol-1"
        assert graph.label(0) == "C"

    def test_build_with_override_id(self):
        builder = GraphBuilder(graph_id="x")
        builder.add_vertex("a", "C")
        assert builder.build(graph_id="y").graph_id == "y"

    def test_builder_reusable_after_build(self):
        builder = GraphBuilder()
        builder.add_vertex("a", "C")
        first = builder.build()
        builder.add_vertex("b", "O")
        builder.add_edge("a", "b")
        second = builder.build()
        assert first.order == 1
        assert second.order == 2

    def test_repr(self):
        builder = GraphBuilder()
        builder.add_vertex("a", "C")
        assert "|V|=1" in repr(builder)
