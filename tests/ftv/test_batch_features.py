"""Batched dataset featurisation: the batch is invisible in what it builds.

A dataset build featurises consecutive records together, up to
``features.BATCH_VERTICES`` vertices per batch
(:func:`~repro.ftv.features.dataset_path_features`).  Each record's counter
must equal :func:`~repro.ftv.features.extract_label_paths` of its graph and
list its keys in the same order whatever else shares its batch: that order
fixes the postings' feature and owner order, hence the iteration order of
``CS_M`` frozensets and so verification order.  A batch whose path codes
would pass ``int64`` splits rather than decode; the budget keeps a pdbs
build's memory near a one-record batch's.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftv import features
from repro.ftv.features import dataset_path_features, extract_label_paths
from repro.ftv.ggsx import GraphGrepSX
from repro.ftv.grapes import Grapes
from repro.ftv.supergraph import SupergraphFeatureIndex
from repro.graphs.generators import aids_like, pdbs_like
from repro.graphs.graph import Graph, graph_constructions

#: Int and str labels, with the ``1`` / ``"1"`` collision that must share a key.
MIXED_LABELS = [0, 1, "1", "C", "N", 7]


def _level_order(counter):
    """Keys by edge count, then ascending: the order a CSR counter lists them in."""
    return sorted(counter, key=lambda key: (len(key), key))


@st.composite
def graph_lists(draw):
    """0–6 graphs: empty ones, isolated vertices, and one above 64 vertices."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    orders = draw(st.lists(st.integers(0, 20), min_size=0, max_size=5))
    if draw(st.booleans()):
        orders.insert(rng.randrange(len(orders) + 1), rng.randint(65, 80))
    graphs = []
    for order in orders:
        pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
        edges = rng.sample(pairs, min(len(pairs), rng.randint(0, 2 * order)))
        graphs.append(Graph([rng.choice(MIXED_LABELS) for _ in range(order)], edges))
    return graphs


@given(
    graphs=graph_lists(),
    budget=st.integers(1, 120),
    max_length=st.integers(0, 4),
)
@settings(max_examples=80, deadline=None)
def test_batches_equal_the_decoded_extractor_graph_by_graph(graphs, budget, max_length):
    # Budgets from 1 to 120 vertices cut these lists anywhere: single-record
    # batches, batches that straddle the budget, and records above it.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "BATCH_VERTICES", budget)
        built = list(dataset_path_features(graphs, max_length))
    assert [record.order for record, _ in built] == [graph.order for graph in graphs]
    for graph, (_, counter) in zip(graphs, built, strict=True):
        assert counter == extract_label_paths(graph, max_length)
        assert list(counter) == _level_order(counter)


def test_a_batch_of_nothing_yields_nothing():
    assert list(dataset_path_features([], 4)) == []
    (record, counter), = dataset_path_features([Graph([], ())], 4)
    assert record.order == 0 and counter == {}


# ----------------------------------------------------------------------- #
# Order pins: postings owners and supergraph counters
# ----------------------------------------------------------------------- #
def _one_record_batches(method_cls, dataset):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "BATCH_VERTICES", 1)
        return method_cls(dataset)


def _postings_in_order(method):
    return [(feature, list(owners.items())) for feature, owners in method._postings.iter_features()]


@pytest.fixture(scope="module", params=["aids", "pdbs"])
def stand_in(request):
    return aids_like() if request.param == "aids" else pdbs_like(scale=0.5)


@pytest.mark.parametrize("method_cls", [GraphGrepSX, Grapes])
def test_postings_owner_order_is_dataset_order(stand_in, method_cls):
    method = method_cls(stand_in)
    position = {graph.graph_id: index for index, graph in enumerate(stand_in)}
    for _, owners in method._postings.iter_features():
        assert list(owners) == sorted(owners, key=position.__getitem__)
    # Features, owners and counts in the order a one-record-batch build gives.
    alone = _one_record_batches(method_cls, stand_in)
    assert _postings_in_order(method) == _postings_in_order(alone)


def test_supergraph_counters_keep_their_order(stand_in):
    method = SupergraphFeatureIndex(stand_in)
    for counter in method._graph_features.values():
        assert list(counter) == _level_order(counter)
    alone = _one_record_batches(SupergraphFeatureIndex, stand_in)
    assert list(method._graph_features) == list(alone._graph_features)
    assert [list(c.items()) for c in method._graph_features.values()] == [
        list(c.items()) for c in alone._graph_features.values()
    ]


# ----------------------------------------------------------------------- #
# Code-space guard
# ----------------------------------------------------------------------- #
def _own_label_path(width: int, tag: str) -> Graph:
    return Graph([f"{tag}{i:05d}" for i in range(width)], [(i, i + 1) for i in range(width - 1)])


def test_an_overflowing_batch_splits_instead_of_decoding(monkeypatch):
    # 3 x 2 500 distinct labels: one batch's 7 500-string alphabet overflows
    # int64 at 4 edges, but halves of 2 500 and 5 000 labels fit, so no
    # record is decoded and every counter still equals the decoded one.
    graphs = [_own_label_path(2500, tag) for tag in "ABC"]
    monkeypatch.setattr(features, "BATCH_VERTICES", 10_000)
    before = graph_constructions()
    built = list(dataset_path_features(graphs, 4))
    assert graph_constructions() == before
    for graph, (_, counter) in zip(graphs, built, strict=True):
        assert counter == extract_label_paths(graph, 4)
        assert list(counter) == _level_order(counter)


def test_a_lone_overflowing_record_is_decoded_in_its_batch(monkeypatch):
    # One batch splits to [A] and [B, C], then [B, C] to [B] and [C]; B alone
    # still overflows (6 209 ** 5 > 2 ** 63) and takes the decoded route.
    graphs = [_own_label_path(3, "A"), _own_label_path(6209, "B"), _own_label_path(4, "C")]
    monkeypatch.setattr(features, "BATCH_VERTICES", 10_000)
    before = graph_constructions()
    built = list(dataset_path_features(graphs, 4))
    assert graph_constructions() - before == 1  # only the 6 209-label record
    for graph, (_, counter) in zip(graphs, built, strict=True):
        assert counter == extract_label_paths(graph, 4)


# ----------------------------------------------------------------------- #
# Memory bound
# ----------------------------------------------------------------------- #
def _build_peak(dataset) -> int:
    tracemalloc.start()
    try:
        GraphGrepSX(dataset)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batched_build_memory_stays_near_one_record_batches(monkeypatch):
    dataset = pdbs_like()
    batched = _build_peak(dataset)
    monkeypatch.setattr(features, "BATCH_VERTICES", 1)
    alone = _build_peak(dataset)
    assert batched <= 1.5 * alone, (batched, alone)

