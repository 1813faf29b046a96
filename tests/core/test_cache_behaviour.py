"""Behavioural tests of GraphCache: hits, shortcuts, statistics, maintenance."""

from __future__ import annotations

import pytest

from repro.core.cache import GraphCache
from repro.core.config import GraphCacheConfig
from repro.graphs.graph import Graph
from repro.methods import SIMethod
from repro.workloads import generate_type_a


@pytest.fixture
def small_cache(handmade_dataset):
    method = SIMethod(handmade_dataset, matcher="vf2plus")
    return GraphCache(method, GraphCacheConfig(cache_capacity=4, window_size=1))


CC_EDGE = Graph(labels=["C", "C"], edges=[(0, 1)])
CCO_PATH = Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)])
CCON_PATH = Graph(labels=["C", "C", "O", "N"], edges=[(0, 1), (1, 2), (2, 3)])
SS_EDGE = Graph(labels=["S", "S"], edges=[(0, 1)])


class TestCacheHits:
    def test_exact_match_hit_skips_verification(self, small_cache):
        first = small_cache.query(CCO_PATH)
        assert first.subiso_tests > 0
        second = small_cache.query(CCO_PATH)
        assert second.shortcut == "exact"
        assert second.subiso_tests == 0
        assert second.answer_ids == first.answer_ids
        assert small_cache.runtime_statistics.exact_hits == 1

    def test_subgraph_hit_after_larger_query(self, small_cache):
        small_cache.query(CCON_PATH)
        result = small_cache.query(CCO_PATH)
        assert result.sub_hits >= 1
        assert result.cache_hit

    def test_supergraph_hit_after_smaller_query(self, small_cache):
        small_cache.query(CC_EDGE)
        result = small_cache.query(CCON_PATH)
        assert result.super_hits >= 1

    def test_empty_answer_shortcut(self, handmade_dataset):
        method = SIMethod(handmade_dataset, matcher="vf2plus")
        cache = GraphCache(method, GraphCacheConfig(cache_capacity=4, window_size=1))
        # S-S has no answers in the handmade dataset; cache it first.
        first = cache.query(SS_EDGE)
        assert first.answer_ids == frozenset()
        # A query containing S-S can then be answered without any sub-iso test.
        bigger = Graph(labels=["S", "S", "C"], edges=[(0, 1), (1, 2)])
        result = cache.query(bigger)
        assert result.shortcut == "empty"
        assert result.answer_ids == frozenset()
        assert result.subiso_tests == 0
        assert cache.runtime_statistics.empty_shortcuts == 1

    def test_no_hit_for_unrelated_query(self, small_cache):
        small_cache.query(CCO_PATH)
        result = small_cache.query(SS_EDGE)
        assert not result.cache_hit

    def test_window_queries_not_yet_hittable(self, handmade_dataset):
        """Queries still in the Window (window not full) do not produce hits."""
        method = SIMethod(handmade_dataset, matcher="vf2plus")
        cache = GraphCache(method, GraphCacheConfig(cache_capacity=4, window_size=10))
        cache.query(CCO_PATH)
        result = cache.query(CCO_PATH)
        assert result.shortcut is None
        assert not result.cache_hit


class TestStatisticsFlow:
    def test_contributions_recorded_for_cached_query(self, small_cache):
        first = small_cache.query(CCON_PATH)
        small_cache.query(CCO_PATH)
        stats = small_cache.statistics_manager.snapshot(first.serial)
        assert stats.hits >= 1
        assert stats.last_hit_serial == 2

    def test_runtime_statistics_accumulate(self, small_cache):
        small_cache.query(CCO_PATH)
        small_cache.query(CCO_PATH)
        runtime = small_cache.runtime_statistics
        assert runtime.queries_processed == 2
        assert runtime.cache_hits == 1
        assert runtime.subiso_tests > 0
        payload = runtime.as_dict()
        assert payload["queries_processed"] == 2

    def test_results_history(self, small_cache):
        results = [small_cache.query(CCO_PATH), small_cache.query(CC_EDGE)]
        assert [result.serial for result in results] == [1, 2]
        # The cache keeps no per-request history: callers hold what query()
        # returned, so a long-lived cache's memory does not grow per request.
        assert not hasattr(small_cache, "results")

    def test_answer_convenience_wrapper(self, small_cache, handmade_dataset):
        answers = small_cache.answer(CC_EDGE)
        expected = frozenset(
            g.graph_id
            for g in handmade_dataset
            if small_cache.method.matcher.is_subgraph(CC_EDGE, g)
        )
        assert answers == expected


class TestCacheManagement:
    def test_cache_capacity_never_exceeded(self, handmade_dataset):
        method = SIMethod(handmade_dataset, matcher="vf2plus")
        cache = GraphCache(method, GraphCacheConfig(cache_capacity=2, window_size=1))
        queries = [CC_EDGE, CCO_PATH, CCON_PATH, SS_EDGE, CCO_PATH]
        for query in queries:
            cache.query(query)
            assert len(cache) <= 2

    def test_maintenance_time_reported_on_window_boundary(self, handmade_dataset):
        method = SIMethod(handmade_dataset, matcher="vf2plus")
        cache = GraphCache(method, GraphCacheConfig(cache_capacity=4, window_size=2))
        first = cache.query(CC_EDGE)
        second = cache.query(CCO_PATH)
        assert first.maintenance_time_s == 0.0
        assert second.maintenance_time_s > 0.0
        assert cache.window_manager.reports

    def test_cached_entry_accessible(self, small_cache):
        result = small_cache.query(CCO_PATH)
        entry = small_cache.cached_entry(result.serial)
        assert entry.query == CCO_PATH
        assert entry.answer_ids == result.answer_ids
        assert result.serial in small_cache.cached_serials

    def test_cache_size_bytes_grows(self, small_cache):
        empty_size = small_cache.cache_size_bytes()
        small_cache.query(CCON_PATH)
        small_cache.query(CCO_PATH)
        assert small_cache.cache_size_bytes() >= empty_size

    def test_eviction_under_pressure(self, tiny_dataset):
        method = SIMethod(tiny_dataset, matcher="vf2plus")
        cache = GraphCache(
            method,
            GraphCacheConfig(cache_capacity=3, window_size=2, replacement_policy="pin"),
        )
        workload = generate_type_a(tiny_dataset, "ZZ", 20, query_sizes=(3, 5, 7), seed=6)
        for query in workload:
            cache.query(query)
        assert len(cache) <= 3
        evictions = sum(len(r.evicted_serials) for r in cache.window_manager.reports)
        assert evictions > 0

    def test_total_time_includes_all_components(self, small_cache):
        result = small_cache.query(CCON_PATH)
        assert result.total_time_s == pytest.approx(
            result.filter_time_s + result.gc_filter_time_s + result.verify_time_s
        )
