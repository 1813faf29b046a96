"""Tests for saving/loading warm GraphCache snapshots.

Includes the snapshot round-trip property (ISSUE-3): save → load → replay of
a workload yields identical answer sets and deterministic work counters to
the uninterrupted run — for both storage backends and for ``shards > 1``.
Only format v4 loads; older snapshots are rejected by name.
"""

from __future__ import annotations

import functools
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cache import GraphCache
from repro.core.config import GraphCacheConfig
from repro.core.persistence import load_cache, save_cache
from repro.core.sharding import ShardedGraphCache, build_cache
from repro.core.stores import WindowEntry
from repro.exceptions import CacheError
from repro.graphs.generators import aids_like
from repro.graphs.graph import Graph
from repro.methods import SIMethod
from repro.workloads import generate_type_a


@pytest.fixture
def warm_cache(tiny_dataset):
    method = SIMethod(tiny_dataset, matcher="vf2plus")
    cache = GraphCache(method, GraphCacheConfig(cache_capacity=5, window_size=2))
    workload = generate_type_a(tiny_dataset, "ZZ", 12, query_sizes=(3, 5), seed=4)
    for query in workload:
        cache.query(query)
    return cache, method, workload


class TestSaveLoadRoundTrip:
    def test_round_trip_preserves_entries(self, warm_cache, tmp_path):
        cache, method, _ = warm_cache
        path = tmp_path / "cache.json"
        save_cache(cache, path)
        restored = load_cache(path, method)
        assert sorted(restored.cached_serials) == sorted(cache.cached_serials)
        for serial in cache.cached_serials:
            assert restored.cached_entry(serial).query == cache.cached_entry(serial).query
            assert restored.cached_entry(serial).answer_ids == cache.cached_entry(serial).answer_ids

    def test_round_trip_preserves_statistics(self, warm_cache, tmp_path):
        cache, method, _ = warm_cache
        path = tmp_path / "cache.json"
        save_cache(cache, path)
        restored = load_cache(path, method)
        for serial in cache.cached_serials:
            original = cache.statistics_manager.snapshot(serial)
            loaded = restored.statistics_manager.snapshot(serial)
            assert loaded == original

    def test_round_trip_preserves_config(self, warm_cache, tmp_path):
        cache, method, _ = warm_cache
        path = tmp_path / "cache.json"
        save_cache(cache, path)
        restored = load_cache(path, method)
        assert restored.config == cache.config

    def test_restored_cache_answers_correctly(self, warm_cache, tmp_path, tiny_dataset):
        cache, method, workload = warm_cache
        path = tmp_path / "cache.json"
        save_cache(cache, path)
        restored = load_cache(path, method)
        # Replaying queries through the restored cache gives identical answers
        # to the plain method, and popular queries hit immediately (warm cache).
        hit_any = False
        for query in workload[:6]:
            result = restored.query(query)
            expected = frozenset(
                g.graph_id for g in tiny_dataset if method.matcher.is_subgraph(query, g)
            )
            assert result.answer_ids == expected
            hit_any = hit_any or result.cache_hit
        assert hit_any

    def test_serial_counter_continues(self, warm_cache, tmp_path):
        cache, method, workload = warm_cache
        path = tmp_path / "cache.json"
        save_cache(cache, path)
        restored = load_cache(path, method)
        result = restored.query(workload[0])
        assert result.serial > max(cache.cached_serials)


@functools.lru_cache(maxsize=4)
def _roundtrip_dataset(seed: int):
    return aids_like(scale=0.05, seed=seed)


def _deterministic_fields(result):
    """The per-query fields that must survive a snapshot round-trip.

    ``containment_tests`` and ``containment_memo_hits`` are summed: the
    containment-verdict memo is a cache-local accelerator that restarts cold
    after a restore, so the split between real tests and memo hits may shift
    while their total (the number of query-vs-query decisions) is invariant.
    """
    return (
        result.serial,
        result.answer_ids,
        result.method_candidates,
        result.final_candidates,
        result.direct_answers,
        result.subiso_tests,
        result.shortcut,
        result.sub_hits,
        result.super_hits,
        result.containment_tests + result.containment_memo_hits,
    )


class TestRoundTripReplayProperty:
    """save → load → replay ≡ uninterrupted run (the ISSUE-3 property)."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        split=st.integers(min_value=1, max_value=13),
        backend=st.sampled_from(["memory", "sqlite"]),
        shards=st.sampled_from([1, 3]),
    )
    def test_replay_matches_uninterrupted_run(
        self, tmp_path_factory, seed, split, backend, shards
    ):
        dataset = _roundtrip_dataset(seed % 3)
        workload = list(
            generate_type_a(dataset, "ZZ", 14, query_sizes=(3, 5, 8), seed=seed)
        )
        config = GraphCacheConfig(
            cache_capacity=5, window_size=3, backend=backend, shards=shards
        )
        path = tmp_path_factory.mktemp("snapshots") / "cache.json"

        uninterrupted = build_cache(SIMethod(dataset, matcher="vf2plus"), config)
        expected = [_deterministic_fields(uninterrupted.query(q)) for q in workload]

        interrupted = build_cache(SIMethod(dataset, matcher="vf2plus"), config)
        prefix = [_deterministic_fields(interrupted.query(q)) for q in workload[:split]]
        save_cache(interrupted, path)
        restored = load_cache(path, SIMethod(dataset, matcher="vf2plus"))
        suffix = [_deterministic_fields(restored.query(q)) for q in workload[split:]]

        assert prefix + suffix == expected
        uninterrupted.close()
        interrupted.close()
        restored.close()


class TestSnapshotFormatV2:
    def test_window_entries_are_persisted(self, warm_cache, tmp_path, tiny_dataset):
        cache, method, _ = warm_cache
        # Put the cache mid-window (a new structure waiting), then snapshot.
        # Exact hits are credited, not windowed, so feed fresh queries.
        for extra in generate_type_a(tiny_dataset, "UU", 20, query_sizes=(4,), seed=99):
            cache.query(extra)
            if cache.window_manager.window_entries():
                break
        in_window = [e.serial for e in cache.window_manager.window_entries()]
        assert in_window
        path = tmp_path / "cache.json"
        save_cache(cache, path)
        restored = load_cache(path, method)
        assert [
            e.serial for e in restored.window_manager.window_entries()
        ] == in_window
        assert (
            restored.window_manager.state_record() == cache.window_manager.state_record()
        )

    def test_sharded_round_trip_preserves_every_shard(self, tmp_path):
        dataset = _roundtrip_dataset(1)
        workload = list(
            generate_type_a(dataset, "ZZ", 18, query_sizes=(3, 5, 8), seed=5)
        )
        config = GraphCacheConfig(cache_capacity=5, window_size=3, shards=3)
        sharded = ShardedGraphCache(SIMethod(dataset, matcher="vf2plus"), config)
        for query in workload:
            sharded.query(query)
        path = tmp_path / "sharded.json"
        save_cache(sharded, path)

        restored = load_cache(path, SIMethod(dataset, matcher="vf2plus"))
        assert isinstance(restored, ShardedGraphCache)
        assert restored.shard_count == 3
        for original, loaded in zip(sharded.shards, restored.shards, strict=True):
            assert loaded.cached_serials == original.cached_serials
            assert loaded.current_serial == original.current_serial
            for serial in original.cached_serials:
                assert (
                    loaded.cached_entry(serial).answer_ids
                    == original.cached_entry(serial).answer_ids
                )
                assert loaded.statistics_manager.snapshot(
                    serial
                ) == original.statistics_manager.snapshot(serial)

    def test_shard_count_mismatch_rejected(self, tmp_path):
        dataset = _roundtrip_dataset(1)
        config = GraphCacheConfig(shards=2)
        sharded = ShardedGraphCache(SIMethod(dataset, matcher="vf2plus"), config)
        path = tmp_path / "sharded.json"
        save_cache(sharded, path)
        payload = json.loads(path.read_text())
        payload["shards"] = payload["shards"][:1]
        path.write_text(json.dumps(payload))
        with pytest.raises(CacheError):
            load_cache(path, SIMethod(dataset, matcher="vf2plus"))

class TestPublicRestoreApi:
    def test_load_cache_does_not_touch_private_stores(self, warm_cache, tmp_path):
        """Restores flow through GraphCache.restore(); spot-check the API."""
        cache, method, _ = warm_cache
        entries = [cache.cached_entry(s) for s in cache.cached_serials]
        stats = [cache.statistics_manager.snapshot(s) for s in cache.cached_serials]

        fresh = GraphCache(method, cache.config)
        fresh.restore(entries, stats=stats, next_serial=cache.current_serial)
        assert fresh.cached_serials == cache.cached_serials
        assert fresh.current_serial == cache.current_serial
        for serial in cache.cached_serials:
            assert fresh.statistics_manager.snapshot(
                serial
            ) == cache.statistics_manager.snapshot(serial)

    def test_restore_replaces_preexisting_window(self, tiny_dataset):
        method = SIMethod(tiny_dataset, matcher="vf2plus")
        cache = GraphCache(method, GraphCacheConfig(cache_capacity=5, window_size=4))
        workload = generate_type_a(tiny_dataset, "ZZ", 3, query_sizes=(3,), seed=8)
        for query in workload:
            cache.query(query)
        assert cache.window_manager.window_entries()
        cache.restore([], next_serial=50)
        assert cache.window_manager.window_entries() == []
        assert cache.current_serial == 50
        assert cache.cached_serials == []


def _synthetic_stream(seed: int, count: int = 24):
    """Deterministic WindowEntry stream (synthetic timings, real graphs).

    Admission expensiveness is a wall-clock ratio on the live query path, so
    replay identity under admission control is tested by *injecting* the
    timings: the stream is a pure function of ``seed``, making the
    maintenance decisions — including the calibrated threshold — exactly
    reproducible across runs.
    """
    rng = random.Random(seed)
    entries = []
    for serial in range(1, count + 1):
        labels = ["C", "N", "O", "S"][serial % 4], ["C", "O"][serial % 2], "C"
        entries.append(
            WindowEntry(
                serial=serial,
                query=Graph(labels=list(labels), edges=[(0, 1), (1, 2)]),
                answer_ids=frozenset({serial % 3}),
                filter_time_s=1.0,
                verify_time_s=rng.uniform(0.1, 10.0),
            )
        )
    return entries


def _feed_stream(cache, entries, start_index: int = 0):
    """Round-robin the entries over the shards' window managers; collect plans."""
    plans = []
    shard_count = cache.shard_count if isinstance(cache, ShardedGraphCache) else 1
    for offset, entry in enumerate(entries):
        position = start_index + offset
        manager = (
            cache.shards[position % shard_count].window_manager
            if isinstance(cache, ShardedGraphCache)
            else cache.window_manager
        )
        report = manager.add_query(entry)
        if report is not None:
            plans.append(report.plan.to_record())
    return plans


class TestMidCalibrationRoundTrip:
    """ISSUE-4: admission/adaptive state survives snapshots (format v3).

    The seed silently dropped the admission controller's calibration state
    on restore, so a cache saved mid-calibration recalibrated from scratch.
    The property: for a deterministic maintenance stream, save → load →
    replay produces the identical plan sequence to an uninterrupted run —
    for both backends and shards ∈ {1, 3}, at any split point.
    """

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        split=st.integers(min_value=1, max_value=23),
        backend=st.sampled_from(["memory", "sqlite"]),
        shards=st.sampled_from([1, 3]),
    )
    def test_maintenance_replay_identity(
        self, tmp_path_factory, seed, split, backend, shards
    ):
        dataset = _roundtrip_dataset(seed % 3)
        config = GraphCacheConfig(
            cache_capacity=5,
            window_size=4,
            admission_control=True,
            admission_expensive_fraction=0.5,
            admission_calibration_windows=3,
            backend=backend,
            shards=shards,
        )
        entries = _synthetic_stream(seed)
        path = tmp_path_factory.mktemp("snapshots") / "midcal.json"

        uninterrupted = build_cache(SIMethod(dataset, matcher="vf2plus"), config)
        expected = _feed_stream(uninterrupted, entries)

        interrupted = build_cache(SIMethod(dataset, matcher="vf2plus"), config)
        prefix = _feed_stream(interrupted, entries[:split])
        save_cache(interrupted, path)
        restored = load_cache(path, SIMethod(dataset, matcher="vf2plus"))
        suffix = _feed_stream(restored, entries[split:], start_index=split)

        assert prefix + suffix == expected
        uninterrupted.close()
        interrupted.close()
        restored.close()

    def test_adaptive_state_round_trips_through_snapshot(self, tmp_path):
        dataset = _roundtrip_dataset(0)
        config = GraphCacheConfig(
            cache_capacity=5,
            window_size=4,
            admission_control=True,
            admission_kind="adaptive",
            admission_calibration_windows=1,
        )
        cache = GraphCache(SIMethod(dataset, matcher="vf2plus"), config)
        _feed_stream(cache, _synthetic_stream(3, count=8))
        controller = cache.window_manager.admission
        controller.record_window_saving(2.0)
        controller.record_window_saving(1.0)  # reversal mutates step + direction
        assert controller.threshold_history

        path = tmp_path / "adaptive.json"
        save_cache(cache, path)
        restored = load_cache(path, SIMethod(dataset, matcher="vf2plus"))
        restored_controller = restored.window_manager.admission
        assert restored_controller.state_record() == controller.state_record()
        assert restored_controller.threshold_history == controller.threshold_history

class TestValidation:
    def test_dataset_size_mismatch_rejected(self, warm_cache, tmp_path):
        cache, _, _ = warm_cache
        path = tmp_path / "cache.json"
        save_cache(cache, path)
        other_method = SIMethod(aids_like(scale=0.03, seed=99), matcher="vf2plus")
        with pytest.raises(CacheError):
            load_cache(path, other_method)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_pre_v4_snapshot_raises_naming_its_version(
        self, warm_cache, tmp_path, version
    ):
        cache, method, _ = warm_cache
        path = tmp_path / f"v{version}.json"
        save_cache(cache, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(CacheError, match=f"version {version}: load_cache reads v4 only"):
            load_cache(path, method)

    def test_unsupported_version_rejected(self, warm_cache, tmp_path):
        cache, method, _ = warm_cache
        path = tmp_path / "cache.json"
        save_cache(cache, path)
        text = path.read_text().replace('"format_version": 4', '"format_version": 99')
        path.write_text(text)
        with pytest.raises(CacheError):
            load_cache(path, method)
