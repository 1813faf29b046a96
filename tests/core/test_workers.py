"""ProcessPoolCacheService: fork lifecycle, counter identity, warm handoff.

The multi-process pool must be *observably indistinguishable* from a
single-process :class:`ShardedGraphCache` with the same shard count: same
per-query results, same aggregate work counters.  These tests pin that
oracle on a small synthetic dataset (the benchmark suite re-pins it on the
full aids/pdbs scenario grid), plus the fork-after-seal lifecycle details.
"""

from __future__ import annotations

import functools
import os

import pytest

from repro.core import GraphCacheConfig, ProcessPoolCacheService, ShardedGraphCache
from repro.core.cache import GraphCache
from repro.core.packed_dataset import PackedGraphDataset, seal_dataset
from repro.exceptions import CacheError
from repro.graphs.generators import aids_like
from repro.graphs.graph import Graph
from repro.graphs.packed import PackedGraphView
from repro.methods import SIMethod
from repro.workloads import generate_type_a


@functools.lru_cache(maxsize=1)
def _dataset():
    return aids_like(scale=0.05, seed=1)


def _workload(count=30, seed=7):
    return list(
        generate_type_a(_dataset(), "ZZ", count, query_sizes=(3, 5, 8), seed=seed)
    )


def _method():
    return SIMethod(_dataset(), matcher="vf2plus")


def _config(**overrides):
    defaults = dict(cache_capacity=8, window_size=4, shards=2)
    defaults.update(overrides)
    return GraphCacheConfig(**defaults)


def _result_fields(result):
    return (
        result.answer_ids,
        result.method_candidates,
        result.final_candidates,
        result.subiso_tests,
        result.containment_tests,
        result.shortcut,
    )


def _counters(stats) -> dict:
    return {
        "queries_processed": stats.queries_processed,
        "subiso_tests": stats.subiso_tests,
        "subiso_tests_alleviated": stats.subiso_tests_alleviated,
        "containment_tests": stats.containment_tests,
        "containment_memo_hits": stats.containment_memo_hits,
        "cache_hits": stats.cache_hits,
        "exact_hits": stats.exact_hits,
    }


class TestCounterIdentity:
    def test_pool_matches_sharded_cache(self):
        workload = _workload()
        sharded = ShardedGraphCache(_method(), _config())
        expected_results = [sharded.query(query) for query in workload]
        expected = _counters(sharded.runtime_statistics)
        sharded.close()

        with ProcessPoolCacheService(_method(), _config(), workers=2) as pool:
            results = pool.run(workload)
            assert _counters(pool.runtime_statistics()) == expected
        assert [_result_fields(r) for r in results] == [
            _result_fields(r) for r in expected_results
        ]

    def test_single_worker_owns_every_shard(self):
        workload = _workload(count=16)
        sharded = ShardedGraphCache(_method(), _config())
        for query in workload:
            sharded.query(query)
        expected = _counters(sharded.runtime_statistics)
        sharded.close()

        with ProcessPoolCacheService(_method(), _config(), workers=1) as pool:
            pool.run(workload)
            assert pool.shard_count == 2
            assert _counters(pool.runtime_statistics()) == expected


class TestWarmHandoff:
    def test_workers_adopt_sealed_warm_state(self):
        workload = _workload(count=24)
        warm, cold = workload[:12], workload[12:]

        sharded = ShardedGraphCache(_method(), _config())
        for query in workload:
            sharded.query(query)
        expected = _counters(sharded.runtime_statistics)
        sharded.close()

        with ProcessPoolCacheService(_method(), _config(), workers=2) as pool:
            pool.warm(warm)
            pool.start()
            pool.run(cold)
            combined = _counters(pool.runtime_statistics())
        # Worker-side counters restart cold at the fork (hit/work statistics
        # live in the process), so only the post-fork share is counted; the
        # adopted cache contents must still produce hits on the cold half.
        assert combined["queries_processed"] == len(cold)
        assert combined["cache_hits"] > 0

    def test_warm_after_start_rejected(self):
        with ProcessPoolCacheService(_method(), _config(), workers=2) as pool:
            pool.start()
            with pytest.raises(CacheError):
                pool.warm(_workload(count=2))


class TestLifecycle:
    def test_more_workers_than_shards_rejected(self):
        with pytest.raises(CacheError):
            ProcessPoolCacheService(_method(), _config(shards=2), workers=3)

    def test_close_is_idempotent_and_final(self):
        pool = ProcessPoolCacheService(_method(), _config(), workers=2)
        pool.run(_workload(count=4))
        assert pool.started
        pool.close()
        pool.close()
        with pytest.raises(CacheError):
            pool.start()

    def test_arena_paths_exist_after_warm_start(self, tmp_path):
        config = _config(backend="mmap", backend_path=str(tmp_path / "pool"))
        with ProcessPoolCacheService(_method(), config, workers=2) as pool:
            pool.warm(_workload(count=8))
            pool.start()
            paths = pool.arena_paths()
            assert paths, "sealed segments should exist after warm+start"
            for path in paths:
                assert path.exists()
                assert path.suffix == ".arena"


class TestPackedMatch:
    """Zero-decode serving: decode_avoided pinned (answers and counters are
    pinned against the in-process sharded cache by TestCounterIdentity)."""

    def test_every_request_avoids_decode(self):
        workload = _workload()
        with ProcessPoolCacheService(_method(), _config(), workers=2) as pool:
            pool.run(workload)
            # Zero Graph constructions in the worker query loop: every
            # request arrived as a PackedGraphView.
            assert pool.runtime_statistics().decode_avoided == len(workload)

    def test_view_mode_follows_the_dataset(self, tmp_path):
        # An in-process mmap cache hands back decoded Graphs; the same cache
        # over a packed dataset arena (what a pool worker attaches) serves
        # its entries as PackedGraphViews.
        path = seal_dataset(_dataset(), tmp_path / "aids.dataset.arena")
        packed = PackedGraphDataset.attach(path, name=_dataset().name)
        for dataset, query_type in ((_dataset(), Graph), (packed, PackedGraphView)):
            cache = GraphCache(
                SIMethod(dataset, matcher="vf2plus"), _config(shards=1, backend="mmap")
            )
            for query in _workload():
                cache.query(query)
            assert cache.cached_serials
            for serial in cache.cached_serials:
                assert type(cache.cached_entry(serial).query) is query_type
            cache.close()

    def test_dataset_arena_sealed_once(self, tmp_path):
        config = _config(backend="mmap", backend_path=str(tmp_path / "pool"))
        with ProcessPoolCacheService(_method(), config, workers=2) as pool:
            pool.run(_workload(count=6))
            dataset_arena = tmp_path / "pool.dataset.arena"
            assert dataset_arena.exists()

    def test_memory_backend_config_still_serves_views(self):
        # No setting takes the pool off the dataset arena: a config naming
        # the memory backend still gets mmap shards and packed views.
        workload = _workload(count=6)
        with ProcessPoolCacheService(
            _method(), _config(backend="memory"), workers=2
        ) as pool:
            pool.run(workload)
            assert pool.config.backend == "mmap"
            assert os.path.exists(f"{pool.config.backend_path}.dataset.arena")
            assert pool.runtime_statistics().decode_avoided == len(workload)

    def test_reseal_publishes_deltas_and_serving_continues(self):
        workload = _workload(count=24)
        with ProcessPoolCacheService(_method(), _config(), workers=2) as pool:
            pool.run(workload[:12])
            first = pool.reseal()  # first seal of each shard's lifetime
            assert sum(first.values()) > 0
            pool.run(workload[12:18])
            second = pool.reseal()  # now appends delta segments
            assert set(second) == set(first)
            stats = pool.arena_statistics()
            assert stats["live_bytes"] > 0
            assert stats["delta_segments"] >= 1
            results = pool.run(workload[18:])
            assert len(results) == 6
            assert all(r is not None for r in results)

    def test_arena_statistics_shape(self):
        with ProcessPoolCacheService(_method(), _config(), workers=2) as pool:
            pool.run(_workload(count=4))
            stats = pool.arena_statistics()
            assert set(stats) == {
                "live_bytes", "dead_bytes", "delta_segments",
                "compaction_events", "shards",
            }
            assert set(stats["shards"]) == set(range(pool.shard_count))
            for shard_stats in stats["shards"].values():
                for table in shard_stats["tables"]:
                    assert {"table", "live_bytes", "dead_bytes"} <= set(table)
