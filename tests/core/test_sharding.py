"""ShardedGraphCache: routing, counter-identity and aggregation invariants.

The routing invariant pinned here (and documented in the README):

* routing is a **stable structural hash** — independent of the process, of
  ``PYTHONHASHSEED`` and of cache state;
* ``shards=1`` is counter-identical to a plain :class:`GraphCache`;
* per-shard work counters are deterministic for a given workload.

The cross-shard *concurrency* behaviour lives in
``tests/core/test_sharding_concurrency.py`` (auto-marked ``concurrency``).
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import replace

import pytest

from repro.core import (
    GraphCache,
    GraphCacheConfig,
    GraphCacheService,
    ShardedGraphCache,
    build_cache,
    stable_feature_hash,
)
from repro.exceptions import CacheError
from repro.graphs.generators import aids_like
from repro.methods import SIMethod
from repro.workloads import generate_type_a


@functools.lru_cache(maxsize=2)
def _dataset(seed: int = 1):
    return aids_like(scale=0.05, seed=seed)


def _workload(count=30, seed=7):
    return list(
        generate_type_a(_dataset(), "ZZ", count, query_sizes=(3, 5, 8), seed=seed)
    )


def _method():
    return SIMethod(_dataset(), matcher="vf2plus")


def _result_fields(result):
    return (
        result.answer_ids,
        result.method_candidates,
        result.final_candidates,
        result.subiso_tests,
        result.containment_tests,
        result.shortcut,
    )


def _counters(cache) -> dict:
    runtime = cache.runtime_statistics
    return {
        "queries_processed": runtime.queries_processed,
        "subiso_tests": runtime.subiso_tests,
        "subiso_tests_alleviated": runtime.subiso_tests_alleviated,
        "containment_tests": runtime.containment_tests,
        "containment_memo_hits": runtime.containment_memo_hits,
        "cache_hits": runtime.cache_hits,
        "exact_hits": runtime.exact_hits,
        "empty_shortcuts": runtime.empty_shortcuts,
    }


class TestStableFeatureHash:
    def test_deterministic_and_order_independent(self):
        features = Counter({("C", "O"): 2, ("C",): 3})
        same_other_order = Counter()
        same_other_order[("C",)] = 3
        same_other_order[("C", "O")] = 2
        assert stable_feature_hash(features) == stable_feature_hash(same_other_order)

    def test_distinguishes_counts_and_labels(self):
        base = Counter({("C", "O"): 2})
        assert stable_feature_hash(base) != stable_feature_hash(Counter({("C", "O"): 3}))
        assert stable_feature_hash(base) != stable_feature_hash(Counter({("C", "N"): 2}))


class TestRouting:
    def test_routing_is_stable_across_instances(self):
        workload = _workload()
        first = ShardedGraphCache(_method(), GraphCacheConfig(shards=4))
        second = ShardedGraphCache(_method(), GraphCacheConfig(shards=4))
        assert [first.shard_of(q) for q in workload] == [
            second.shard_of(q) for q in workload
        ]

    def test_routing_is_structural(self):
        """A structurally equal rebuilt query lands on the same shard."""
        from repro.graphs.io import graph_from_text, graph_to_text

        sharded = ShardedGraphCache(_method(), GraphCacheConfig(shards=4))
        for query in _workload(count=5):
            rebuilt = graph_from_text(graph_to_text(query))
            assert sharded.shard_of(query) == sharded.shard_of(rebuilt)

    def test_single_shard_routes_everything_to_zero(self):
        sharded = ShardedGraphCache(_method(), GraphCacheConfig(shards=1))
        assert all(sharded.shard_of(q) == 0 for q in _workload(count=10))

    def test_workload_spreads_over_shards(self):
        sharded = ShardedGraphCache(_method(), GraphCacheConfig(shards=4))
        used = {sharded.shard_of(q) for q in _workload(count=40)}
        assert len(used) >= 2  # structural hashing actually spreads load

    def test_shard_for_returns_the_owning_cache(self):
        sharded = ShardedGraphCache(_method(), GraphCacheConfig(shards=4))
        query = _workload(count=1)[0]
        assert sharded.shard_for(query) is sharded.shards[sharded.shard_of(query)]


class TestCounterIdentity:
    """``shards=1`` ≡ plain GraphCache, per-result and per-counter."""

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_single_shard_matches_plain_cache(self, backend):
        workload = _workload()
        config = GraphCacheConfig(
            cache_capacity=6, window_size=3, backend=backend, shards=1
        )
        plain = GraphCache(_method(), config)
        plain_results = [plain.query(q) for q in workload]

        sharded = ShardedGraphCache(_method(), config)
        sharded_results = [sharded.query(q) for q in workload]

        for mine, theirs in zip(sharded_results, plain_results, strict=True):
            assert _result_fields(mine) == _result_fields(theirs)
        assert _counters(sharded) == _counters(plain)
        plain.close()
        sharded.close()

    def test_sharded_answers_match_plain_cache(self):
        """Answer sets are cache-structure independent (paper correctness)."""
        workload = _workload()
        config = GraphCacheConfig(cache_capacity=6, window_size=3)
        plain = GraphCache(_method(), config)
        sharded = ShardedGraphCache(_method(), replace(config, shards=3))
        for query in workload:
            assert sharded.query(query).answer_ids == plain.query(query).answer_ids

    def test_service_jobs_over_single_shard_sharded_cache(self):
        """Regression: query_many(jobs>1) over ShardedGraphCache(shards=1)
        must take the sharded path (there is no prefilter hook to fall into),
        and still match the plain cache result-for-result."""
        workload = _workload()
        config = GraphCacheConfig(cache_capacity=6, window_size=3, shards=1)
        plain = GraphCache(_method(), config)
        plain_results = [plain.query(q) for q in workload]

        service = GraphCacheService(ShardedGraphCache(_method(), config))
        concurrent_results = service.query_many(workload, jobs=2)
        for mine, theirs in zip(concurrent_results, plain_results, strict=True):
            assert _result_fields(mine) == _result_fields(theirs)
        assert _counters(service.cache) == _counters(plain)

    def test_per_shard_counters_deterministic(self):
        workload = _workload()
        config = GraphCacheConfig(cache_capacity=6, window_size=3, shards=3)
        first = ShardedGraphCache(_method(), config)
        second = ShardedGraphCache(_method(), config)
        for query in workload:
            first.query(query)
            second.query(query)
        assert [_counters(s) for s in first.shards] == [
            _counters(s) for s in second.shards
        ]


class TestAggregation:
    def test_runtime_statistics_sum_over_shards(self):
        workload = _workload()
        sharded = ShardedGraphCache(
            _method(), GraphCacheConfig(cache_capacity=6, window_size=3, shards=3)
        )
        results = [sharded.query(query) for query in workload]
        aggregate = _counters(sharded)
        shard_wise = [_counters(shard) for shard in sharded.shards]
        for key, value in aggregate.items():
            assert value == sum(counters[key] for counters in shard_wise)
        assert aggregate["queries_processed"] == len(workload)
        assert len(sharded) == sum(len(shard) for shard in sharded.shards)
        assert sum(r.subiso_tests for r in results) == aggregate["subiso_tests"]
        assert not hasattr(sharded, "results")
        assert sharded.cache_size_bytes() > 0

    def test_shard_statistics_indexed_by_shard(self):
        sharded = ShardedGraphCache(_method(), GraphCacheConfig(shards=3))
        assert len(sharded.shard_statistics()) == 3


class TestConstruction:
    def test_build_cache_dispatches_on_shards(self):
        assert isinstance(build_cache(_method(), GraphCacheConfig(shards=1)), GraphCache)
        sharded = build_cache(_method(), GraphCacheConfig(shards=4))
        assert isinstance(sharded, ShardedGraphCache)
        assert sharded.shard_count == 4

    def test_shard_configs_are_single_shard(self):
        sharded = ShardedGraphCache(_method(), GraphCacheConfig(shards=4))
        assert all(shard.config.shards == 1 for shard in sharded.shards)

    def test_mmap_shards_get_distinct_arena_files(self, tmp_path):
        path = tmp_path / "cache"
        sharded = ShardedGraphCache(
            _method(),
            GraphCacheConfig(shards=3, backend="mmap", backend_path=str(path)),
        )
        paths = [shard.config.backend_path for shard in sharded.shards]
        assert len(set(paths)) == 3
        assert all(p.startswith(str(path)) for p in paths)
        sharded.close()

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(CacheError):
            GraphCacheConfig(shards=0)

    def test_config_label_carries_storage_choices(self):
        assert GraphCacheConfig().label() == "c100-b20"
        assert GraphCacheConfig(shards=4).label() == "c100-b20-s4"
        assert GraphCacheConfig(backend="mmap").label() == "c100-b20-mmap"
        assert (
            GraphCacheConfig(shards=2, backend="mmap").label() == "c100-b20-s2-mmap"
        )
