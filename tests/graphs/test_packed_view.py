"""CSR-native matching on PackedGraphView: answer and counter identity.

``PackedGraphView`` promises to be a drop-in ``Graph`` for the matchers —
not just the same answers but the *same search*: every matcher runs on the
interned bitmask core, so a view that materialises its core exactly like
``Graph.from_packed`` must produce identical ``nodes_expanded`` sequences.
These tests pin that oracle for all four matchers over randomized labelled
graphs (including the 0-node and single-vertex corners and views served
from a sealed arena), plus the lazy-adapter behaviours the serving path
leans on (no forced materialisation for hot reads, pickle round-trip, the
bounded label-table memo).
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.packed as packed_module
from repro.core.backends.arena import GraphArena
from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph
from repro.graphs.packed import PackedGraph, PackedGraphView
from repro.isomorphism import available_matchers, matcher_by_name

LABELS = ["C", "N", "O", "S"]

MATCHERS = tuple(available_matchers())


def _random_graph(seed: int, max_order: int = 18) -> Graph:
    rng = random.Random(seed)
    order = rng.randint(1, max_order)
    return random_connected_graph(order, rng.uniform(1.5, 3.0), LABELS, rng)


def _view(graph: Graph) -> PackedGraphView:
    return PackedGraphView(graph.to_packed())


def _match_pair(matcher_name: str, pattern: Graph, target: Graph):
    """(matched, nodes_expanded) for plain Graphs and for packed views."""
    plain = matcher_by_name(matcher_name).match(pattern, target)
    viewed = matcher_by_name(matcher_name).match(_view(pattern), _view(target))
    return plain, viewed


class TestMatchIdentity:
    """Views answer exactly like the Graphs they wrap, work counters included."""

    @pytest.mark.parametrize("matcher_name", MATCHERS)
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_pairs(self, matcher_name, seed):
        rng = random.Random(seed)
        target = _random_graph(seed)
        # Half the examples draw an embedded pattern (forcing matches), the
        # other half an independent graph (mostly non-matches).
        if rng.random() < 0.5 and target.order > 1:
            keep = rng.sample(
                sorted(target.vertices()), rng.randint(1, target.order)
            )
            pattern = target.induced_subgraph(keep)
        else:
            pattern = _random_graph(seed + 1, max_order=6)
        plain, viewed = _match_pair(matcher_name, pattern, target)
        assert plain.matched == viewed.matched
        assert plain.nodes_expanded == viewed.nodes_expanded
        if plain.embedding is not None:
            assert viewed.embedding == plain.embedding

    @pytest.mark.parametrize("matcher_name", MATCHERS)
    def test_empty_pattern(self, matcher_name):
        empty = Graph(labels=(), edges=())
        target = _random_graph(3)
        plain, viewed = _match_pair(matcher_name, empty, target)
        assert plain.matched == viewed.matched
        assert plain.nodes_expanded == viewed.nodes_expanded

    @pytest.mark.parametrize("matcher_name", MATCHERS)
    def test_single_vertex(self, matcher_name):
        one = Graph(labels=("C",), edges=())
        for target in (one, _random_graph(5), Graph(labels=("N",), edges=())):
            plain, viewed = _match_pair(matcher_name, one, target)
            assert plain.matched == viewed.matched
            assert plain.nodes_expanded == viewed.nodes_expanded

    @pytest.mark.parametrize("matcher_name", MATCHERS)
    @pytest.mark.parametrize("seed", [0, 17, 4242, 9001])
    def test_sealed_arena_views(self, matcher_name, seed, tmp_path):
        """Views over a sealed (mmap-attached) arena match identically too."""
        target = _random_graph(seed)
        pattern = _random_graph(seed + 1, max_order=5)
        path = tmp_path / "graphs.arena"
        arena = GraphArena(path)
        extents = [arena.append_graph(pattern), arena.append_graph(target)]
        remap = arena.seal(extents)
        arena.close()
        attached = GraphArena.attach(path)
        try:
            sealed = [
                attached.view_at(type(e)(remap[e.offset], e.length))
                for e in extents
            ]
            plain = matcher_by_name(matcher_name).match(pattern, target)
            viewed = matcher_by_name(matcher_name).match(sealed[0], sealed[1])
            assert plain.matched == viewed.matched
            assert plain.nodes_expanded == viewed.nodes_expanded
        finally:
            attached.close()


class TestViewAdapter:
    """The lazy-adapter contract the zero-decode serving path relies on."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_view_equals_decoded_graph(self, seed):
        graph = _random_graph(seed)
        view = _view(graph)
        assert view == graph
        assert hash(view) == hash(graph)
        assert view.order == graph.order
        assert view.size == graph.size
        assert sorted(view.vertices()) == sorted(graph.vertices())
        for vertex in graph.vertices():
            assert view.label(vertex) == graph.label(vertex)
            assert view.degree(vertex) == graph.degree(vertex)

    def test_hot_reads_do_not_materialise(self):
        view = _view(_random_graph(11))
        view.order, view.size, view.degree(0), view.label(0)
        view.has_edge(0, 1), view.full_vertex_mask, list(view.vertices())
        for field in ("_adjacency", "_neighbor_masks", "_labels", "_edges"):
            assert field not in dir(view) or not _slot_is_set(view, field)

    def test_pickle_roundtrip(self):
        graph = _random_graph(13)
        view = _view(graph)
        clone = pickle.loads(pickle.dumps(view))
        assert isinstance(clone, PackedGraphView)
        assert clone == graph

    def test_to_packed_is_free(self):
        packed = _random_graph(17).to_packed()
        assert PackedGraphView(packed).to_packed() is packed


def _slot_is_set(view, name: str) -> bool:
    try:
        object.__getattribute__(view, name)
    except AttributeError:
        return False
    return True


class TestLabelTableMemo:
    """The decode-side label-table memo is bounded (regression: PR 8)."""

    def test_lru_cap_evicts(self):
        memo = packed_module._cached_label_table
        maxsize = memo.cache_info().maxsize
        before = memo.cache_info().misses
        for index in range(maxsize + 8):
            graph = Graph(labels=(f"L{index}", f"M{index}"), edges=((0, 1),))
            PackedGraph.decode_graph(graph.to_packed().to_bytes())
        info = memo.cache_info()
        assert info.misses - before == maxsize + 8  # every table was distinct
        assert info.currsize <= maxsize

    def test_repeat_decode_hits_memo(self):
        memo = packed_module._cached_label_table
        payload = Graph(labels=("C", "N"), edges=((0, 1),)).to_packed().to_bytes()
        PackedGraph.decode_graph(payload)
        before = memo.cache_info()
        for _ in range(20):
            PackedGraph.decode_graph(payload)
        after = memo.cache_info()
        assert after.hits - before.hits == 20
        assert after.misses == before.misses
