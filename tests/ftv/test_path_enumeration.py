"""Label-path enumeration against an outside referee.

Both path extractors — the decoded frontier (:func:`extract_label_paths`)
and the CSR-native one (:func:`dataset_path_features`) — must count exactly
what a brute-force enumeration of simple paths with ``networkx`` counts:
every vertex once as a 0-edge path, and every undirected simple path of up
to ``L`` edges once, under the key of its lexicographically smaller
direction.  The generated graphs mix isolated vertices, repeated labels,
palindromic label sequences and more than 64 vertices (the packed
extractor's multi-word visited sets).  Both cycle extractors, which share
one walk over different adjacency rows and ring keys, must likewise count
each simple cycle of 3..``max_size`` vertices once, as ``networkx`` finds it.
"""

from __future__ import annotations

from collections import Counter

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftv.features import (
    canonical_cycle_key,
    canonical_path_key,
    dataset_path_features,
    extract_label_cycles,
    extract_label_paths,
    packed_cycle_features,
)
from repro.graphs.graph import Graph


def _networkx_path_count(graph: Graph, max_length: int) -> Counter:
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.vertices())
    nx_graph.add_edges_from(graph.edges)
    counts: Counter = Counter(canonical_path_key([label]) for label in graph.labels)
    if max_length < 1:
        return counts
    for source in nx_graph:
        for target in nx_graph:
            if source >= target:  # one direction per undirected path
                continue
            for path in nx.all_simple_paths(nx_graph, source, target, cutoff=max_length):
                counts[canonical_path_key(graph.label(v) for v in path)] += 1
    return counts


@st.composite
def labelled_graphs(draw, max_order: int = 12, max_edges: int = 20, labels: str = "ABA"):
    order = draw(st.integers(0, max_order))
    vocabulary = sorted(set(labels))
    vertex_labels = draw(st.lists(st.sampled_from(vocabulary), min_size=order, max_size=order))
    edges = set()
    if order > 1:
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, order - 1), st.integers(0, order - 1)),
                max_size=max_edges,
            )
        )
        edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    return Graph(vertex_labels, sorted(edges))


def _assert_three_agree(graph: Graph, max_length: int) -> None:
    expected = _networkx_path_count(graph, max_length)
    assert extract_label_paths(graph, max_length) == expected
    ((_, packed),) = dataset_path_features([graph], max_length)
    assert packed == expected


@given(graph=labelled_graphs(), max_length=st.integers(0, 4))
@settings(max_examples=120, deadline=None)
def test_small_graphs_match_networkx(graph, max_length):
    _assert_three_agree(graph, max_length)


@given(
    graph=labelled_graphs(max_order=80, max_edges=90, labels="CNO"),
    max_length=st.integers(0, 4),
)
@settings(max_examples=25, deadline=None)
def test_graphs_past_64_vertices_match_networkx(graph, max_length):
    _assert_three_agree(graph, max_length)


def test_palindromes_isolated_vertices_and_a_wide_graph():
    # A-B-A is its own reverse: counted once, not twice and not halved away.
    palindrome = Graph(["A", "B", "A", "C"], [(0, 1), (1, 2)])
    assert extract_label_paths(palindrome, 2) == Counter(
        {("A",): 2, ("B",): 1, ("C",): 1, ("A", "B"): 2, ("A", "B", "A"): 1}
    )
    # A 70-vertex path with one chord: bit 69 must be tracked like bit 3.
    labels = ["C" if v % 3 else "N" for v in range(70)]
    wide = Graph(labels, [(v, v + 1) for v in range(69)] + [(0, 69)])
    for max_length in range(5):
        _assert_three_agree(wide, max_length)


def _networkx_cycle_count(graph: Graph, max_size: int) -> Counter:
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.vertices())
    nx_graph.add_edges_from(graph.edges)
    return Counter(
        canonical_cycle_key(graph.label(v) for v in cycle)
        for cycle in nx.simple_cycles(nx_graph, length_bound=max_size)
    )


@given(graph=labelled_graphs(max_order=10, max_edges=18), max_size=st.integers(3, 6))
@settings(max_examples=120, deadline=None)
def test_cycles_match_networkx(graph, max_size):
    expected = _networkx_cycle_count(graph, max_size)
    assert extract_label_cycles(graph, max_size) == expected
    assert packed_cycle_features(graph.to_packed(), max_size) == expected
