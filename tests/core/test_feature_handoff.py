"""Mfilter hands its label-path counter to the GCindex.

A path-index Method M (GraphGrepSX, Grapes) enumerates the query's label
paths of up to ``max_path_length`` edges to filter; when that bound is at
least ``index_path_length``, the GCindex derives its own counter from it by
key length instead of enumerating the paths again.  These tests pin that the
derived counter is exactly the one the GCindex would have extracted, that a
cache miss enumerates once and a repeat not at all (in both query modes: the
supergraph feature index hands over its counter too), and that every method
without a counter to hand over leaves the GCindex extracting its own.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import query_index as query_index_module
from repro.core.cache import GraphCache
from repro.core.config import GraphCacheConfig
from repro.core.query_index import QueryGraphIndex
from repro.ftv import base as ftv_base_module
from repro.ftv import supergraph as ftv_supergraph_module
from repro.ftv.ctindex import CTIndex
from repro.ftv.features import extract_label_paths
from repro.ftv.ggsx import GraphGrepSX
from repro.ftv.grapes import Grapes
from repro.ftv.supergraph import SupergraphFeatureIndex
from repro.graphs.generators import aids_like
from repro.methods import SIMethod
from repro.methods.base import Method
from repro.workloads import generate_type_a


@pytest.fixture(scope="module")
def dataset():
    return aids_like(scale=0.05, seed=1)


@pytest.fixture(scope="module")
def queries(dataset):
    """Distinct query structures, in order of first appearance."""
    workload = generate_type_a(dataset, "ZZ", 20, seed=7, query_sizes=(3, 5, 8))
    return list(dict.fromkeys(workload))


def _count_calls(monkeypatch, module) -> Counter:
    """Count ``extract_label_paths`` calls made from ``module``, per query."""
    calls: Counter = Counter()

    def counting(graph, max_length):
        calls[graph] += 1
        return extract_label_paths(graph, max_length)

    monkeypatch.setattr(module, "extract_label_paths", counting)
    return calls


@pytest.mark.parametrize(
    "name", ["aids_pool_hit", "pdbs_uniform_miss", "aids_write_durable", "aids_replica_readmix"]
)
def test_handed_over_counter_is_the_index_counter_on_the_e2e_streams(name, monkeypatch):
    from benchmarks.e2e.workloads import SPECS, build_dataset, generate

    spec = SPECS[name]
    cache = GraphCache(GraphGrepSX(build_dataset(spec.dataset)), GraphCacheConfig())
    length = cache.config.index_path_length
    own = _count_calls(monkeypatch, query_index_module)
    stream = generate(spec, 1, 1)
    for query in stream.distinct:
        cache.prefilter(query)
        features = cache.query_index.query_features(query)
        expected = extract_label_paths(query, length)
        assert features.counts == expected
        assert features.probe == QueryGraphIndex._probe_of(expected)
    assert not own, "the GCindex enumerated a query Method M had enumerated"
    cache.close()


#: Methods that hand their counter over: query mode, constructor, and the
#: module whose ``extract_label_paths`` the method's filter calls.
HANDOVERS = {
    "ggsx": ("subgraph", GraphGrepSX, ftv_base_module),
    "supergraph-ftv": ("supergraph", SupergraphFeatureIndex, ftv_supergraph_module),
}


@pytest.mark.parametrize("name", sorted(HANDOVERS))
def test_one_enumeration_per_mfilter_miss_and_none_on_a_hit(name, dataset, queries, monkeypatch):
    mode, method, module = HANDOVERS[name]
    cache = GraphCache(
        method(dataset),
        GraphCacheConfig(cache_capacity=6, window_size=3, query_mode=mode),
    )
    method_calls = _count_calls(monkeypatch, module)
    index_calls = _count_calls(monkeypatch, query_index_module)
    stream = queries + queries[::-1] + queries
    for position, query in enumerate(stream):
        before = sum(method_calls.values()) + sum(index_calls.values())
        cache.query(query)
        enumerations = sum(method_calls.values()) + sum(index_calls.values()) - before
        assert enumerations == (0 if query in stream[:position] else 1), position
    assert not index_calls
    cache.close()


class CandidatesOnly(Method):
    """A wrapper that overrides ``candidates()`` alone (like a tracer)."""

    def __init__(self, inner: Method) -> None:
        super().__init__(inner.dataset, inner.matcher)
        self._inner = inner

    def candidates(self, query):
        return self._inner.candidates(query)


def _sealed_ggsx(dataset, tmp_path):
    path = tmp_path / "ggsx.ftv.arena"
    GraphGrepSX(dataset).seal_feature_index(path)
    method = GraphGrepSX(dataset)
    assert method.attach_feature_index(path)
    return method


FALLBACKS = {
    "si": lambda dataset, tmp_path: SIMethod(dataset, matcher="vf2plus"),
    "ctindex": lambda dataset, tmp_path: CTIndex(dataset),
    "short-ggsx": lambda dataset, tmp_path: GraphGrepSX(dataset, max_path_length=2),
    "sealed-ggsx": _sealed_ggsx,
    "candidates-wrapper": lambda dataset, tmp_path: CandidatesOnly(GraphGrepSX(dataset)),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_fallbacks_extract_the_counter_themselves(name, dataset, queries, tmp_path, monkeypatch):
    method = FALLBACKS[name](dataset, tmp_path)
    assert method.filter(queries[0]).paths is None or name == "short-ggsx"
    cache = GraphCache(method, GraphCacheConfig(cache_capacity=6, window_size=3))
    own = _count_calls(monkeypatch, query_index_module)
    for query in queries:
        cache.prefilter(query)
        assert not own[query]
        cache.query(query)
        assert own[query] == 1
        assert cache.query_index.query_features(query).counts == extract_label_paths(query, 3)
    cache.close()


def test_grapes_hands_over_like_ggsx(dataset, queries, monkeypatch):
    cache = GraphCache(Grapes(dataset, threads=6), GraphCacheConfig())
    own = _count_calls(monkeypatch, query_index_module)
    for query in queries:
        cache.query(query)
    assert not own
    cache.close()
