"""CSR-native feature extraction: Counter identity against the decoded route.

The packed extractors (:func:`dataset_path_features`, here over one graph,
and :func:`packed_cycle_features`) must be *Counter-identical* to the decoded
reference extractors on every graph — same keys, same multiplicities — or
the sealed feature index silently diverges from the postings it replaces.  These
tests pin that identity with hypothesis over random labelled graphs (mixed
int/str label universes included, exercising the rank-based
canonicalisation), plus the dispatch contract of the public entry points and
the int-vs-str label regression through both extraction routes.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftv.features import (
    cycle_features,
    dataset_path_features,
    extract_label_cycles,
    extract_label_paths,
    label_rank_map,
    packed_cycle_features,
)
from repro.ftv.ggsx import GraphGrepSX
from repro.ftv.grapes import Grapes
from repro.graphs.dataset import GraphDataset
from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph, graph_constructions
from repro.graphs.packed import PackedGraphView

#: Mixed label universe: int labels, str labels, and a str/int collision
#: (``1`` vs ``"1"``) that must share a canonical key through every route.
MIXED_LABELS = [0, 1, "1", "C", "N", 7]


def _csr_paths(graph: Graph, max_length: int) -> Counter:
    """``graph``'s label paths through the CSR batch extractor, a batch of one."""
    ((_, counter),) = dataset_path_features([graph], max_length)
    return counter


def _random_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    order = rng.randint(1, 18)
    return random_connected_graph(order, rng.uniform(1.0, 3.0), MIXED_LABELS, rng)


class TestLabelRankMap:
    def test_ranks_follow_string_order(self):
        code_ranks, strings = label_rank_map(("N", "C", 1, "1"))
        assert strings == tuple(sorted({"N", "C", "1"}))
        # Rank comparison is order-equivalent to string comparison.
        assert [strings[rank] for rank in code_ranks] == ["N", "C", "1", "1"]

    def test_string_collisions_share_a_rank(self):
        code_ranks, _ = label_rank_map((1, "1"))
        assert code_ranks[0] == code_ranks[1]

    def test_computed_per_call(self):
        assert not hasattr(label_rank_map, "cache_info")
        assert label_rank_map(("C", "N")) == label_rank_map(("C", "N"))


class TestPackedPathIdentity:
    @given(seed=st.integers(0, 10_000), max_length=st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_counter_identity_random_graphs(self, seed, max_length):
        graph = _random_graph(seed)
        decoded = extract_label_paths(graph, max_length)
        packed = _csr_paths(graph, max_length)
        assert packed == decoded

    @given(seed=st.integers(0, 10_000), max_size=st.integers(3, 6))
    @settings(max_examples=150, deadline=None)
    def test_cycle_counter_identity_random_graphs(self, seed, max_size):
        graph = _random_graph(seed)
        decoded = extract_label_cycles(graph, max_size)
        packed = packed_cycle_features(graph.to_packed(), max_size)
        assert packed == decoded

    @pytest.mark.parametrize(
        "graph",
        [
            Graph(labels=["C"], edges=()),
            Graph(labels=["C", "C"], edges=[(0, 1)]),
            Graph(labels=["C", "N", "O"], edges=[(0, 1), (1, 2), (0, 2)]),
            Graph(labels=[1, "1", 1], edges=[(0, 1), (1, 2), (0, 2)]),
        ],
        ids=["single", "edge", "triangle", "collision-triangle"],
    )
    def test_edge_cases(self, graph):
        for max_length in range(0, 4):
            assert _csr_paths(graph, max_length) == extract_label_paths(graph, max_length)
        for max_size in range(3, 6):
            assert packed_cycle_features(
                graph.to_packed(), max_size
            ) == extract_label_cycles(graph, max_size)

    @given(seed=st.integers(0, 500), max_length=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_counter_identity_above_bitset_width(self, seed, max_length):
        # > 64 vertices: the frontier falls back from uint64 visited bitsets
        # to column comparisons against the stored path matrix.  Every pdbs
        # dataset graph is built this way, at 4 edges.
        rng = random.Random(seed)
        graph = random_connected_graph(rng.randint(65, 90), 2.0, MIXED_LABELS, rng)
        assert _csr_paths(graph, max_length) == extract_label_paths(graph, max_length)

    def test_degenerate_bounds(self):
        graph = _random_graph(3)
        assert _csr_paths(graph, -1) == Counter()
        assert packed_cycle_features(graph.to_packed(), 2) == Counter()


def _labelled_path(width: int) -> Graph:
    """A path over ``width`` vertices, every one with its own label."""
    return Graph([f"L{i:05d}" for i in range(width)], [(i, i + 1) for i in range(width - 1)])


class TestCodeSpaceOverflow:
    """Path codes are ``max_length + 1`` base-W digits in ``int64``.

    With W distinct labels they wrap once ``W ** (max_length + 1) > 2**63``
    (W = 6 209 at 4 edges); such a record must take the decoded route
    rather than report paths the graph does not have.
    """

    def test_seven_thousand_labels(self):
        graph = _labelled_path(7000)
        packed = _csr_paths(graph, 4)
        assert len(packed) == 34_990
        assert packed == extract_label_paths(graph, 4)

    @pytest.mark.parametrize("width, decodes", [(6208, 0), (6209, 1)])
    def test_widest_code_space_at_four_edges(self, width, decodes):
        graph = _labelled_path(width)
        before = graph_constructions()
        packed = _csr_paths(graph, 4)
        # 6 208 ** 5 still fits: only the next width falls back to a Graph.
        assert graph_constructions() - before == decodes
        assert packed == extract_label_paths(graph, 4)


class TestDispatch:
    def test_packed_input_skips_graph_decode(self):
        packed = _random_graph(5).to_packed()
        view = PackedGraphView(packed)
        before = graph_constructions()
        cycle_by_packed = cycle_features(packed, 5)
        cycle_by_view = cycle_features(view, 5)
        assert graph_constructions() == before  # no Graph materialised
        assert cycle_by_packed == cycle_by_view == extract_label_cycles(packed.to_graph(), 5)

    def test_plain_graph_takes_decoded_route(self):
        graph = _random_graph(6)
        assert cycle_features(graph, 5) == extract_label_cycles(graph, 5)


class TestLabelCanonicalisationRegression:
    """Int-labelled and str-labelled datasets must filter identically.

    Regression for the label canonicalisation asymmetry: the decoded route
    reduces over ``str(label)`` while the packed route reduces over label
    ranks — the rank universe is *defined* by string order, so a dataset
    labelled ``[0, 1, 2]`` and its ``["0", "1", "2"]`` twin produce the
    same features, the same index and the same candidate sets through both
    extraction routes.
    """

    def _twin_datasets(self):
        rng = random.Random(11)
        int_graphs = [
            random_connected_graph(rng.randint(4, 10), 2.0, [0, 1, 2], rng)
            for _ in range(12)
        ]
        str_graphs = [
            Graph(
                labels=[str(label) for label in graph.labels],
                edges=graph.edges,
            )
            for graph in int_graphs
        ]
        return GraphDataset(int_graphs, name="ints"), GraphDataset(str_graphs, name="strs")

    @pytest.mark.parametrize("method_cls", [GraphGrepSX, Grapes])
    def test_candidate_sets_identical(self, method_cls):
        int_ds, str_ds = self._twin_datasets()
        int_method = method_cls(int_ds)
        str_method = method_cls(str_ds)
        rng = random.Random(23)
        queries = [
            random_connected_graph(rng.randint(2, 5), 1.5, [0, 1, 2], rng)
            for _ in range(10)
        ]
        for query in queries:
            str_query = Graph(
                labels=[str(label) for label in query.labels], edges=query.edges
            )
            assert int_method.candidates(query) == str_method.candidates(str_query)
            # Cross-labelled queries agree too: same canonical universe.
            assert int_method.candidates(str_query) == str_method.candidates(query)

    def test_feature_counters_identical_both_routes(self):
        int_ds, str_ds = self._twin_datasets()
        for int_graph, str_graph in zip(int_ds, str_ds, strict=True):
            decoded_int = extract_label_paths(int_graph, 3)
            decoded_str = extract_label_paths(str_graph, 3)
            packed_int = _csr_paths(int_graph, 3)
            packed_str = _csr_paths(str_graph, 3)
            assert decoded_int == decoded_str == packed_int == packed_str
