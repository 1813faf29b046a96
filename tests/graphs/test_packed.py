"""Tests for the packed (CSR) graph representation and its byte records.

The packed layer is a *redundant encoding* of ``Graph``: these tests pin the
round-trip identity Graph → PackedGraph → bytes → (mmap view) → Graph on
hand-picked edge cases and on random labelled graphs, including the sealed
arena re-open path — so any drift between the encodings fails loudly instead
of corrupting a cache that served its entries from an arena segment.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends.arena import GraphArena
from repro.exceptions import GraphError
from repro.graphs.generators import dataset_by_name, random_connected_graph
from repro.graphs.graph import _CSR_SCALAR_CUTOFF, Graph
from repro.graphs.packed import INDEX_DTYPE, INDPTR_DTYPE, PackedGraph

LABELS = ["C", "N", "O", "S"]

#: Every internal field compared raw across the round-trip.  ``_hash`` and
#: the packed record are lazily-populated memos, not part of the graph's
#: identity; the edge tuple and the label buckets are derived on first use
#: and compared through their accessors; the neighbour tuples are compared
#: row by row as sets (see :func:`assert_field_identical`).
ROUNDTRIP_SLOTS = tuple(
    slot
    for slot in Graph.__slots__
    if slot not in ("_hash", "_packed_record", "_adjacency", "_edges", "_vertices_by_label")
)

#: sha256 over ``repr(list(neighbors(v)))`` of every vertex of
#: ``Graph(g.labels, g.edges)`` for each graph ``g`` of a stand-in dataset, as
#: the frozenset-adjacency graph iterated them.  Type B query pools are drawn
#: by walks over this order, so it must not drift.
NEIGHBOUR_ORDER_SHA256 = {
    "aids": "e50d9370c25b18690eed7801ff0cd551c710e0497d90e47b3f035ed5b1036474",
    "pdbs": "e9effd7443eee9d5f39e9667382210d7016dd4d5312f10cf7ffaa3656f5e74ae",
}


def _random_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    order = rng.randint(1, 24)
    return random_connected_graph(order, rng.uniform(1.5, 3.5), LABELS, rng)


def _big_graph(order: int = 160) -> Graph:
    """A graph above the scalar cutoff, exercising the vectorised mask path."""
    assert order > _CSR_SCALAR_CUTOFF
    rng = random.Random(7)
    return random_connected_graph(order, 2.5, LABELS, rng).with_id("big")


def assert_field_identical(rebuilt: Graph, original: Graph) -> None:
    for slot in ROUNDTRIP_SLOTS:
        assert getattr(rebuilt, slot) == getattr(original, slot), slot
    # A CSR-decoded graph may iterate a row in another order than the graph
    # it was packed from (its rows arrive sorted), so rows compare as sets.
    assert [set(row) for row in rebuilt._adjacency] == [
        set(row) for row in original._adjacency
    ]
    assert rebuilt.edges == original.edges
    for label in set(original.labels):
        assert rebuilt.vertices_with_label(label) == original.vertices_with_label(label)
    assert rebuilt.label_histogram == original.label_histogram
    assert rebuilt == original and hash(rebuilt) == hash(original)


@pytest.mark.parametrize("name", sorted(NEIGHBOUR_ORDER_SHA256))
def test_neighbour_order_is_the_frozenset_order(name):
    digest = hashlib.sha256()
    for graph in dataset_by_name(name):
        rebuilt = Graph(graph.labels, graph.edges)
        for vertex in rebuilt.vertices():
            digest.update(repr(list(rebuilt.neighbors(vertex))).encode())
    assert digest.hexdigest() == NEIGHBOUR_ORDER_SHA256[name]


class TestGraphRoundTrip:
    @pytest.mark.parametrize(
        "graph",
        [
            Graph(labels=[], edges=(), graph_id="empty"),
            Graph(labels=["C"], edges=(), graph_id=0),
            Graph(labels=["C", "N", "C"], edges=[(0, 1), (1, 2), (0, 2)]),
            Graph(labels=["C", "O", "C", "O"], edges=()),  # no edges
        ],
        ids=["empty", "single-vertex", "triangle", "edgeless"],
    )
    def test_edge_cases(self, graph):
        packed = graph.to_packed()
        assert packed.order == graph.order
        assert packed.size == graph.size
        assert packed.labels() == graph.labels
        assert packed.graph_id == graph.graph_id
        assert_field_identical(packed.to_graph(), graph)

    def test_vectorised_mask_path_above_cutoff(self):
        graph = _big_graph()
        assert_field_identical(graph.to_packed().to_graph(), graph)

    def test_neighbors_are_sorted_zero_copy_slices(self):
        graph = _random_graph(11)
        packed = graph.to_packed()
        for vertex in graph.vertices():
            row = packed.neighbors(vertex)
            assert row.tolist() == sorted(graph.neighbors(vertex))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_graphs_round_trip(self, seed):
        graph = _random_graph(seed)
        assert_field_identical(graph.to_packed().to_graph(), graph)


class TestRecordLayout:
    def test_little_endian_dtypes(self):
        packed = _random_graph(3).to_packed()
        assert packed.indptr.dtype == INDPTR_DTYPE == np.dtype("<i8")
        assert packed.indices.dtype == INDEX_DTYPE == np.dtype("<i4")
        assert packed.label_codes.dtype == INDEX_DTYPE
        assert packed.degrees.dtype == INDEX_DTYPE

    def test_records_are_8_byte_aligned(self):
        for seed in range(8):
            payload = _random_graph(seed).to_packed().to_bytes()
            assert len(payload) % 8 == 0

    def test_bytes_round_trip(self):
        graph = _random_graph(17)
        packed = graph.to_packed()
        reopened = PackedGraph.from_bytes(packed.to_bytes())
        assert reopened == packed
        assert reopened.graph_id == packed.graph_id
        assert_field_identical(reopened.to_graph(), graph)

    def test_from_buffer_at_offset(self):
        graphs = [_random_graph(seed) for seed in (1, 2, 3)]
        records = [graph.packed_bytes() for graph in graphs]
        blob = b"".join(records)
        offset = 0
        for graph, record in zip(graphs, records):
            view = PackedGraph.from_buffer(blob, offset)
            assert_field_identical(view.to_graph(), graph)
            offset += len(record)

    def test_bad_magic_rejected(self):
        with pytest.raises(GraphError):
            PackedGraph.from_bytes(b"\x00" * 64)
        with pytest.raises(GraphError):
            PackedGraph.decode_graph(b"\x00" * 64)


class TestDecodeGraph:
    """``decode_graph`` is the struct fast path — same result, no numpy."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_to_graph(self, seed):
        graph = _random_graph(seed)
        payload = graph.to_packed().to_bytes()
        assert_field_identical(PackedGraph.decode_graph(payload), graph)

    def test_vectorised_fallback_above_cutoff(self):
        graph = _big_graph()
        payload = graph.to_packed().to_bytes()
        assert_field_identical(PackedGraph.decode_graph(payload), graph)

    def test_edge_cases(self):
        for graph in (Graph(labels=[], edges=()), Graph(labels=["C"], graph_id=1)):
            payload = graph.to_packed().to_bytes()
            assert_field_identical(PackedGraph.decode_graph(payload), graph)


class TestImmutability:
    def test_attribute_writes_raise(self):
        packed = _random_graph(9).to_packed()
        with pytest.raises(AttributeError):
            packed.graph_id = "other"
        with pytest.raises(AttributeError):
            del packed.indptr

    def test_arrays_are_read_only(self):
        packed = _random_graph(9).to_packed()
        for array in (packed.indptr, packed.indices, packed.label_codes, packed.degrees):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_views_over_bytes_are_read_only(self):
        packed = PackedGraph.from_bytes(_random_graph(9).to_packed().to_bytes())
        assert not packed.indices.flags.writeable


class TestArenaRoundTrip:
    """Graph → arena record → sealed mmap view → Graph identity."""

    def test_seal_and_reattach(self, tmp_path):
        graphs = [_random_graph(seed).with_id(seed) for seed in range(12)]
        arena = GraphArena()
        extents = [arena.append_graph(graph) for graph in graphs]
        path = tmp_path / "graphs.arena"
        remap = arena.seal(extents, path)
        sealed_extents = [remap[extent.offset] for extent in extents]
        arena.close()

        reopened = GraphArena.attach(path)
        for graph, offset in zip(graphs, sealed_extents):
            extent = next(e for e in reopened.extents() if e.offset == offset)
            view = reopened.packed_at(extent)
            assert isinstance(view.indices, np.ndarray)
            assert not view.indices.flags.writeable
            assert_field_identical(view.to_graph(), graph)
            assert_field_identical(reopened.graph_at(extent), graph)
        reopened.close()

    def test_an_arena_reuses_a_graphs_packed_record(self, monkeypatch):
        """A graph packed once (say, for the window arena) is not packed
        again when it enters a second arena."""
        graph = _random_graph(3).with_id(3)
        window, cache = GraphArena(), GraphArena()
        first = window.bytes_at(window.append_graph(graph))
        calls = []
        original = PackedGraph.from_graph.__func__
        monkeypatch.setattr(
            PackedGraph,
            "from_graph",
            classmethod(lambda cls, g: calls.append(g) or original(cls, g)),
        )
        assert cache.bytes_at(cache.append_graph(graph)) == first
        assert calls == []
        assert first == graph.to_packed().to_bytes() and len(calls) == 1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_graph_to_mmap_view_identity(self, tmp_path_factory, seed):
        graph = _random_graph(seed)
        arena = GraphArena()
        extent = arena.append_graph(graph)
        path = tmp_path_factory.mktemp("arena") / "one.arena"
        remap = arena.seal([extent], path)
        arena.close()
        reopened = GraphArena.attach(path)
        (sealed,) = reopened.extents()
        assert sealed.offset == remap[extent.offset]
        assert_field_identical(reopened.graph_at(sealed), graph)
        assert_field_identical(reopened.packed_at(sealed).to_graph(), graph)
        reopened.close()
