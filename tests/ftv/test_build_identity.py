"""Dataset index builds take the CSR route and build the decoded route's index.

Every FTV build featurises its dataset's packed records in batches
(:func:`~repro.ftv.features.dataset_path_features`; CT-Index's cycles go
through :func:`~repro.ftv.features.packed_cycle_features`), while a query
keeps the decoded extractors.  The index a build leaves behind must be exactly the one
a test-side build over the decoded extractors gives: GGSX and Grapes
postings (plus Grapes' location hints), CT-Index fingerprint bits and the
supergraph index's per-graph counters.  Checked on the aids and pdbs
stand-ins and on generated datasets that mix int and str labels and hold
graphs above 64 vertices; the sealed ``*.ftv.arena`` bytes must not depend
on the route either.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftv import base, ctindex, features, supergraph
from repro.ftv.ctindex import CTIndex
from repro.ftv.features import canonical_path_key, extract_label_cycles, extract_label_paths
from repro.ftv.fingerprints import Fingerprint
from repro.ftv.ggsx import GraphGrepSX
from repro.ftv.grapes import Grapes
from repro.ftv.postings import Postings
from repro.ftv.supergraph import SupergraphFeatureIndex
from repro.graphs.dataset import GraphDataset
from repro.graphs.generators import aids_like, pdbs_like, random_connected_graph

MIXED_LABELS = [0, 1, "1", "C", "N", 7]
METHODS = [GraphGrepSX, Grapes, CTIndex, SupergraphFeatureIndex]


# ----------------------------------------------------------------------- #
# Test-side builds over the decoded extractors
# ----------------------------------------------------------------------- #
def _decoded_postings(dataset, max_length):
    postings = Postings()
    for graph in dataset:
        postings.insert_features(extract_label_paths(graph, max_length), graph.graph_id)
    return postings


def _decoded_locations(dataset):
    locations = {}
    for graph in dataset:
        per_graph = {}
        for vertex in graph.vertices():
            per_graph.setdefault(canonical_path_key([graph.label(vertex)]), set()).add(vertex)
        locations[graph.graph_id] = {key: frozenset(found) for key, found in per_graph.items()}
    return locations


def _decoded_fingerprints(dataset, method):
    fingerprints = {}
    for graph in dataset:
        fingerprint = Fingerprint(method.fingerprint_bits)
        fingerprint.add_features(extract_label_paths(graph, method.max_tree_size).keys())
        fingerprint.add_features(extract_label_cycles(graph, method.max_cycle_size).keys())
        fingerprints[graph.graph_id] = fingerprint
    return fingerprints


def _assert_decoded_index(method, dataset):
    if isinstance(method, CTIndex):
        reference = _decoded_fingerprints(dataset, method)
        assert {gid: method._fingerprints[gid].bits for gid in reference} == {
            gid: fingerprint.bits for gid, fingerprint in reference.items()
        }
    elif isinstance(method, SupergraphFeatureIndex):
        assert method._graph_features == {
            graph.graph_id: extract_label_paths(graph, method.max_path_length)
            for graph in dataset
        }
    else:
        reference = _decoded_postings(dataset, method.max_path_length)
        assert dict(method._postings.iter_features()) == dict(reference.iter_features())
        if isinstance(method, Grapes):
            assert method._locations == _decoded_locations(dataset)


@pytest.fixture(scope="module", params=["aids", "pdbs"])
def stand_in(request):
    return aids_like() if request.param == "aids" else pdbs_like()


@pytest.mark.parametrize("method_cls", METHODS)
def test_stand_in_build_equals_decoded_build(stand_in, method_cls):
    _assert_decoded_index(method_cls(stand_in), stand_in)


@st.composite
def mixed_datasets(draw):
    """2–4 connected graphs over int and str labels, one above 64 vertices."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    orders = [rng.randint(65, 80)] + [rng.randint(1, 20) for _ in range(draw(st.integers(1, 3)))]
    graphs = [
        random_connected_graph(order, rng.uniform(1.0, 2.5), MIXED_LABELS, rng)
        for order in orders
    ]
    return GraphDataset(graphs, name="mixed")


@given(dataset=mixed_datasets(), method_cls=st.sampled_from(METHODS))
@settings(max_examples=30, deadline=None)
def test_mixed_label_build_equals_decoded_build(dataset, method_cls):
    _assert_decoded_index(method_cls(dataset), dataset)


@pytest.mark.parametrize("method_cls", [GraphGrepSX, CTIndex])
def test_sealed_bytes_do_not_depend_on_the_route(tmp_path, method_cls):
    dataset = aids_like(scale=0.3)
    method = method_cls(dataset)
    built = method.seal_feature_index(tmp_path / "built.ftv.arena").read_bytes()
    if isinstance(method, CTIndex):
        method._fingerprints = _decoded_fingerprints(dataset, method)
    else:
        method._postings = _decoded_postings(dataset, method.max_path_length)
    decoded = method.seal_feature_index(tmp_path / "decoded.ftv.arena").read_bytes()
    assert built == decoded


@pytest.mark.parametrize("method_cls", METHODS)
def test_build_never_decodes_a_dataset_graph_and_a_query_does(monkeypatch, method_cls):
    dataset = aids_like(scale=0.3)
    seen = []

    def spy(extractor):
        def wrapper(graph, bound):
            seen.append(graph)
            return extractor(graph, bound)

        return wrapper

    # The builds' own fallback decode lives in ``features``; a query's
    # extraction is called from the method's module.
    for module in (features, base, ctindex, supergraph):
        monkeypatch.setattr(module, "extract_label_paths", spy(extract_label_paths))
    monkeypatch.setattr(features, "extract_label_cycles", spy(extract_label_cycles))
    method = method_cls(dataset)
    assert seen == []
    query = dataset[3].induced_subgraph(range(4))
    method.candidates(query)
    assert seen and all(graph is query for graph in seen)
