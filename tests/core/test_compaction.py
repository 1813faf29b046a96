"""Automatic delta compaction: threshold policy, scheduling, answer identity.

``GraphCacheConfig.compaction_threshold`` arms a policy that runs after
every :meth:`GraphCache.seal_delta_storage`: any mmap backend whose
``dead_bytes / live_bytes`` ratio crossed the threshold gets a full
compacting fold *scheduled through the maintenance scheduler* — inline
under ``sync``, on the worker thread (never the query thread) under
``background``.  These tests pin the trigger arithmetic, the off-query-path
scheduling, the post-fold arena state (dead bytes reclaimed, answers
identical from the folded extents) and the per-event report shape.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import replace

import pytest

from repro.core.cache import GraphCache
from repro.core.config import GraphCacheConfig
from repro.core.sharding import ShardedGraphCache
from repro.exceptions import CacheError
from repro.ftv.ggsx import GraphGrepSX
from repro.graphs.generators import aids_like
from repro.workloads import generate_type_a


@functools.lru_cache(maxsize=1)
def _dataset():
    return aids_like(scale=0.05, seed=1)


def _workload(count=60, seed=0):
    return list(
        generate_type_a(_dataset(), "ZZ", count, query_sizes=(3, 5, 8), seed=seed)
    )


def _config(tmp_path, **overrides):
    defaults = dict(
        backend="mmap",
        backend_path=str(tmp_path / "cache.db"),
        cache_capacity=10,
        window_size=5,
        compaction_threshold=0.001,
    )
    defaults.update(overrides)
    return GraphCacheConfig(**defaults)


def _churn(cache, queries):
    """Run ``queries`` in two halves around a delta publish.

    Dead bytes only accrue when *sealed* records are later evicted, so the
    mid-run publish is what lets the second half's churn raise the
    dead/live ratio.
    """
    half = len(queries) // 2
    for query in queries[:half]:
        cache.query(query)
    cache.drain_maintenance()
    cache.seal_delta_storage()
    for query in queries[half:]:
        cache.query(query)
    cache.drain_maintenance()
    return cache.seal_delta_storage()


class TestConfigValidation:
    def test_threshold_must_be_positive(self):
        with pytest.raises(CacheError, match="compaction_threshold"):
            GraphCacheConfig(compaction_threshold=0.0)
        with pytest.raises(CacheError, match="compaction_threshold"):
            GraphCacheConfig(compaction_threshold=-1.0)

    def test_none_disables(self):
        assert GraphCacheConfig().compaction_threshold is None

    def test_with_compaction_and_label(self):
        config = replace(GraphCacheConfig(), compaction_threshold=0.5)
        assert config.compaction_threshold == 0.5
        assert "compact0.5" in config.label()


class TestAutomaticCompaction:
    def test_churn_crossing_threshold_folds_dead_bytes_to_zero(self, tmp_path):
        cache = GraphCache(GraphGrepSX(_dataset()), _config(tmp_path))
        _churn(cache, _workload())
        cache.drain_maintenance()
        events = cache.compaction_events
        assert events, "threshold crossed but no compaction ran"
        for event in events:
            assert event["trigger_ratio"] >= 0.001
            assert event["bytes_reclaimed"] > 0
            assert event["segments_folded"] >= 1
            assert event["dead_bytes"] == 0
        for backend in cache.storage_backends():
            assert backend.arena_statistics()["dead_bytes"] == 0
        cache.close()

    def test_high_threshold_never_folds(self, tmp_path):
        cache = GraphCache(
            GraphGrepSX(_dataset()), _config(tmp_path, compaction_threshold=1e9)
        )
        _churn(cache, _workload())
        cache.drain_maintenance()
        assert cache.compaction_events == []
        assert any(
            backend.arena_statistics()["dead_bytes"] > 0
            for backend in cache.storage_backends()
        ), "churn produced no dead bytes; the trigger test is vacuous"
        cache.close()

    def test_no_threshold_means_no_policy(self, tmp_path):
        cache = GraphCache(
            GraphGrepSX(_dataset()), _config(tmp_path, compaction_threshold=None)
        )
        _churn(cache, _workload())
        cache.drain_maintenance()
        assert cache.compaction_events == []
        cache.close()

    def test_answers_identical_after_fold(self, tmp_path):
        queries = _workload()
        probe = _workload(count=12, seed=99)
        baseline = GraphCache(
            GraphGrepSX(_dataset()),
            _config(tmp_path / "base", compaction_threshold=None),
        )
        _churn(baseline, queries)
        expected = [baseline.query(query).answer_ids for query in probe]
        baseline.close()

        compacted = GraphCache(GraphGrepSX(_dataset()), _config(tmp_path / "fold"))
        _churn(compacted, queries)
        compacted.drain_maintenance()
        assert compacted.compaction_events
        answers = [compacted.query(query).answer_ids for query in probe]
        compacted.close()
        assert answers == expected

    def test_sharded_cache_aggregates_events(self, tmp_path):
        cache = ShardedGraphCache(GraphGrepSX(_dataset()), _config(tmp_path, shards=2))
        _churn(cache, _workload())
        cache.drain_maintenance()
        assert cache.compaction_events, "no shard compacted"
        cache.close()


class TestScheduling:
    def test_sync_mode_runs_inline(self, tmp_path):
        cache = GraphCache(
            GraphGrepSX(_dataset()), _config(tmp_path, maintenance_mode="sync")
        )
        _churn(cache, _workload())
        counters = cache.maintenance_scheduler.counters
        assert cache.compaction_events
        assert counters.inline_tasks > 0
        assert counters.worker_tasks == 0
        cache.close()

    def test_background_mode_keeps_folds_off_the_query_thread(self, tmp_path):
        cache = GraphCache(
            GraphGrepSX(_dataset()), _config(tmp_path, maintenance_mode="background")
        )
        _churn(cache, _workload())
        cache.drain_maintenance()
        counters = cache.maintenance_scheduler.counters
        assert cache.compaction_events
        assert counters.worker_tasks > 0
        assert counters.inline_tasks == 0
        assert threading.get_ident() not in counters.task_thread_idents
        cache.close()

    def test_barrier_mode_is_deterministic(self, tmp_path):
        cache = GraphCache(
            GraphGrepSX(_dataset()), _config(tmp_path, maintenance_mode="barrier")
        )
        _churn(cache, _workload())
        # Barrier submit blocks until the fold applied: no drain needed.
        assert cache.compaction_events
        for backend in cache.storage_backends():
            assert backend.arena_statistics()["dead_bytes"] == 0
        cache.close()


class TestManualCompact:
    def test_backend_compact_reports_reclaim(self, tmp_path):
        cache = GraphCache(
            GraphGrepSX(_dataset()), _config(tmp_path, compaction_threshold=None)
        )
        _churn(cache, _workload())
        backend = next(
            backend
            for backend in cache.storage_backends()
            if backend.arena_statistics()["dead_bytes"] > 0
        )
        before = backend.arena_statistics()
        event = backend.compact()
        assert event["table"] == before["table"]
        assert event["bytes_reclaimed"] == before["dead_bytes"]
        assert event["dead_bytes"] == 0
        assert backend.arena_statistics()["dead_bytes"] == 0
        cache.close()
