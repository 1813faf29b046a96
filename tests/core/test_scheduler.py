"""MaintenanceScheduler: modes, plan journal, drain semantics (ISSUE-5)."""

from __future__ import annotations

import itertools
import json
import threading
import types
from dataclasses import replace
from pathlib import Path

import pytest

import repro.core.policies.scheduler as scheduler_module
import repro.core.policies.window as window_module
from repro.core import GraphCache, GraphCacheConfig, build_cache, load_cache, save_cache
from repro.core.policies import (
    SCHEDULER_MODES,
    BackgroundMaintenanceScheduler,
    BarrierMaintenanceScheduler,
    MaintenancePlan,
    PlanJournal,
    SyncMaintenanceScheduler,
    create_scheduler,
)
from repro.core.sharding import ShardedGraphCache
from repro.exceptions import CacheError
from repro.graphs.generators import aids_like
from repro.methods import SIMethod
from repro.workloads import generate_type_a

DATASET = aids_like(scale=0.05, seed=3)


def _workload(count: int = 30, seed: int = 7):
    return list(
        generate_type_a(DATASET, "ZZ", count, query_sizes=(3, 5, 8), seed=seed)
    )


def _cache(mode: str, **overrides) -> GraphCache:
    config = GraphCacheConfig(
        cache_capacity=6, window_size=3, maintenance_mode=mode, **overrides
    )
    return build_cache(SIMethod(DATASET, matcher="vf2plus"), config)


class TestFactoryAndConfig:
    def test_modes_registry(self):
        assert SCHEDULER_MODES == ("sync", "background", "barrier")

    @pytest.mark.parametrize(
        "mode, cls",
        [
            ("sync", SyncMaintenanceScheduler),
            ("background", BackgroundMaintenanceScheduler),
            ("barrier", BarrierMaintenanceScheduler),
        ],
    )
    def test_cache_builds_the_configured_scheduler(self, mode, cls):
        cache = _cache(mode)
        try:
            assert type(cache.maintenance_scheduler) is cls
            assert cache.maintenance_scheduler.mode == mode
        finally:
            cache.close()

    def test_unknown_mode_rejected(self):
        with pytest.raises(CacheError):
            GraphCacheConfig(maintenance_mode="eager")

    def test_create_scheduler_unknown_mode(self):
        cache = _cache("sync")
        try:
            with pytest.raises(CacheError):
                create_scheduler("nope", cache.maintenance_engine)
        finally:
            cache.close()

    def test_label_suffix_for_non_sync_modes(self):
        assert GraphCacheConfig(maintenance_mode="sync").label() == "c100-b20"
        assert (
            GraphCacheConfig(maintenance_mode="background").label()
            == "c100-b20-background"
        )

    def test_replacing_maintenance_mode_preserves_journal_path(self):
        config = GraphCacheConfig(journal_path="plans.jsonl")
        switched = replace(config, maintenance_mode="background")
        assert switched.maintenance_mode == "background"
        assert switched.journal_path == "plans.jsonl"  # not silently dropped
        cleared = replace(config, maintenance_mode="background", journal_path=None)
        assert cleared.journal_path is None
        replaced = replace(config, maintenance_mode="barrier", journal_path="other.jsonl")
        assert replaced.journal_path == "other.jsonl"


class TestSchedulingBehaviour:
    def test_sync_returns_reports_inline(self):
        cache = _cache("sync")
        try:
            reports = [r for q in _workload() if (r := cache.query(q)).maintenance_time_s]
            assert reports  # at least one query was charged a round inline
            counters = cache.maintenance_scheduler.counters
            assert counters.rounds > 0
            assert counters.worker_rounds == 0
            assert counters.inline_rounds == counters.rounds
        finally:
            cache.close()

    def test_background_reports_appear_after_drain(self):
        cache = _cache("background")
        try:
            results = [cache.query(q) for q in _workload()]
            # The committing query is never charged maintenance time: the
            # round runs (and is timed) on the worker.
            assert all(r.maintenance_time_s == 0.0 for r in results)
            cache.drain_maintenance()
            counters = cache.maintenance_scheduler.counters
            assert counters.rounds > 0
            assert counters.inline_rounds == 0
            assert counters.worker_rounds == counters.rounds
            assert len(cache.window_manager.reports) == counters.rounds
            assert len(cache.plan_journal) == counters.rounds
        finally:
            cache.close()

    def test_barrier_rounds_run_on_worker_but_block(self):
        cache = _cache("barrier")
        try:
            import threading

            main_ident = threading.get_ident()
            charged = [r for q in _workload() if (r := cache.query(q)).maintenance_time_s]
            assert charged  # barrier completes before the query returns
            counters = cache.maintenance_scheduler.counters
            assert counters.rounds > 0
            assert counters.inline_rounds == 0
            assert main_ident not in counters.decide_thread_idents
        finally:
            cache.close()

    def test_background_failure_surfaces_on_drain(self):
        cache = _cache("background")
        try:
            def boom(window_entries, current_serial, lock=None):
                raise RuntimeError("engine exploded")

            cache.maintenance_engine.run = boom  # type: ignore[method-assign]
            for query in _workload(6):
                cache.query(query)
            with pytest.raises(CacheError, match="background maintenance"):
                cache.drain_maintenance()
        finally:
            cache._scheduler._failure = None  # already surfaced above
            cache.close()


class TestJournal:
    def test_sync_and_barrier_journals_byte_identical(self):
        """Whole records, admitted entries and hits included, with the
        admission filter deciding on its work scores."""
        sync_cache = _cache("sync", admission_control=True)
        barrier_cache = _cache("barrier", admission_control=True)
        try:
            for query in _workload():
                sync_cache.query(query)
                barrier_cache.query(query)
            assert len(sync_cache.plan_journal) > 0
            assert sync_cache.maintenance_engine.admission.calibrated
            records = sync_cache.plan_journal.records()
            assert all("admitted_entries" in record for record in records)
            assert (
                sync_cache.plan_journal.dumps() == barrier_cache.plan_journal.dumps()
            )
        finally:
            sync_cache.close()
            barrier_cache.close()

    def test_a_round_is_timed_through_its_journal_append(self, monkeypatch):
        """``elapsed_s`` (and so ``maintenance_time_s``) covers the append."""
        clock = [0.0]
        monkeypatch.setattr(scheduler_module.time, "perf_counter", lambda: clock[0])
        append = PlanJournal.append

        def slow_append(self, *args, **kwargs):
            clock[0] += 5.0
            append(self, *args, **kwargs)

        monkeypatch.setattr(PlanJournal, "append", slow_append)
        cache = _cache("sync")
        try:
            results = [cache.query(query) for query in _workload(count=3)]
        finally:
            cache.close()
        (report,) = cache.window_manager.reports
        assert report.elapsed_s == 5.0
        assert results[-1].maintenance_time_s == 5.0

    @staticmethod
    def _stepping_clocks(monkeypatch):
        """Fake ``perf_counter``s that advance a fixed step per call: 0.25 s
        for the window manager's drain clock, 1 s for the round's own."""

        def stepping(step):
            ticks = itertools.count(1)
            return types.SimpleNamespace(perf_counter=lambda: step * next(ticks))

        monkeypatch.setattr(window_module, "time", stepping(0.25))
        monkeypatch.setattr(scheduler_module, "time", stepping(1.0))

    @pytest.mark.parametrize("mode", ["sync", "barrier"])
    def test_a_round_is_timed_through_its_window_drain(self, monkeypatch, mode):
        self._stepping_clocks(monkeypatch)
        cache = _cache(mode)
        try:
            results = [cache.query(query) for query in _workload(count=3)]
        finally:
            cache.close()
        (report,) = cache.window_manager.reports
        assert report.elapsed_s == 1.25  # one drain step + one round step
        assert results[-1].maintenance_time_s == 1.25
        assert cache.maintenance_scheduler.total_maintenance_s == 1.25

    def test_a_background_round_adds_its_drain_not_its_queue_wait(self, monkeypatch):
        self._stepping_clocks(monkeypatch)
        cache = _cache("background")
        parked = threading.Event()
        try:
            # Park the worker so the round waits in the queue: the wait must
            # not reach elapsed_s, whatever the clocks read meanwhile.
            cache.maintenance_scheduler.submit_task(lambda: parked.wait(timeout=30))
            for query in _workload(count=3):
                cache.query(query)
            assert cache.window_manager.reports == []
            scheduler_module.time.perf_counter()  # time passes in the queue
            window_module.time.perf_counter()
            parked.set()
            cache.drain_maintenance()
            assert cache.maintenance_scheduler.idle()
        finally:
            parked.set()
            cache.close()
        (report,) = cache.window_manager.reports
        assert report.elapsed_s == 1.25

    def test_journal_file_round_trip(self, tmp_path: Path):
        journal_file = tmp_path / "plans.jsonl"
        cache = _cache("background", journal_path=str(journal_file))
        try:
            for query in _workload():
                cache.query(query)
        finally:
            cache.close()  # drain-on-close flushes every pending round
        plans = [
            MaintenancePlan.from_record(record)
            for record in PlanJournal.read_records(journal_file)
        ]
        assert plans == cache.plan_journal.plans()
        assert len(plans) == len(cache.plan_journal)
        # Each line is valid standalone JSON carrying the full rationale.
        first = json.loads(journal_file.read_text().splitlines()[0])
        assert MaintenancePlan.from_record(first) == plans[0]
        assert {"policy", "admitted_serials", "evicted_serials"} <= set(first)

    def test_file_backed_journal_bounds_memory(self, tmp_path: Path):
        """A file-backed journal retains only a bounded in-memory tail; the
        full stream lives on disk."""
        from repro.core.policies.plan import MaintenancePlan as Plan

        journal_file = tmp_path / "bounded.jsonl"
        journal = PlanJournal(journal_file)
        limit = PlanJournal.MEMORY_LIMIT
        total = limit + 25
        for serial in range(1, total + 1):
            journal.append(
                Plan(
                    current_serial=serial,
                    window_serials=(serial,),
                    admitted_serials=(serial,),
                    rejected_serials=(),
                    evicted_serials=(),
                    policy="lru",
                )
            )
        assert len(journal) == total  # the logical count is exact
        retained = journal.records()
        assert len(retained) == limit  # RAM holds only the newest tail
        assert retained[-1]["current_serial"] == total
        assert len(PlanJournal.read_records(journal_file)) == total  # disk has all
        # In-memory journals (no path) retain everything: they ARE the store.
        unbounded = PlanJournal()
        assert unbounded._records.maxlen is None

    def test_sharded_journal_one_file_per_shard(self, tmp_path: Path):
        base = tmp_path / "plans.jsonl"
        cache = build_cache(
            SIMethod(DATASET, matcher="vf2plus"),
            GraphCacheConfig(
                cache_capacity=4,
                window_size=2,
                shards=3,
                maintenance_mode="background",
                journal_path=str(base),
            ),
        )
        assert isinstance(cache, ShardedGraphCache)
        try:
            for query in _workload():
                cache.query(query)
        finally:
            cache.close()
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == [f"plans.jsonl.shard{k}" for k in range(3)]
        total = sum(len(PlanJournal.read_records(path)) for path in tmp_path.iterdir())
        assert total == sum(len(shard.plan_journal) for shard in cache.shards)
        assert total > 0


class TestDrainSemantics:
    def test_snapshot_drains_pending_rounds(self, tmp_path: Path):
        """Drain-before-snapshot: pending plans are applied in full, so the
        persisted store equals the journal stream replayed from empty —
        never a half-applied round."""
        bg_cache = _cache("background")
        try:
            for query in _workload():
                bg_cache.query(query)
            # No explicit drain: save_cache itself must quiesce the worker.
            bg_path = tmp_path / "bg.json"
            save_cache(bg_cache, bg_path)
            # 30 queries / window 3: every one of the 10 fills is journaled.
            assert len(bg_cache.plan_journal) == 10
            # Replay the journal's decision stream over an empty cache ...
            expected: list = []
            for plan in bg_cache.plan_journal.plans():
                expected = [s for s in expected if s not in plan.evicted_serials]
                expected.extend(plan.admitted_serials)
            # ... and it must match the persisted entries exactly (same
            # serials, same insertion order).
            _, state = map(json.loads, bg_path.read_text().splitlines())
            assert [e["serial"] for e in state["entries"]] == expected
            restored = load_cache(bg_path, SIMethod(DATASET, matcher="vf2plus"))
            assert restored.cached_serials == expected
            restored.close()
        finally:
            bg_cache.close()

    def test_close_drains_pending_rounds(self):
        cache = _cache("background")
        for query in _workload():
            cache.query(query)
        cache.close()
        counters = cache.maintenance_scheduler.counters
        assert counters.rounds > 0
        assert len(cache.plan_journal) == counters.rounds
        with pytest.raises(CacheError):
            cache.maintenance_scheduler.submit([], 0)  # closed scheduler

    def test_idle_probe(self):
        cache = _cache("background")
        try:
            assert cache.maintenance_scheduler.idle()
            for query in _workload():
                cache.query(query)
            cache.drain_maintenance()
            assert cache.maintenance_scheduler.idle()
        finally:
            cache.close()

    def test_drain_is_noop_for_sync(self):
        cache = _cache("sync")
        try:
            for query in _workload(9):
                cache.query(query)
            before = len(cache.window_manager.reports)
            cache.drain_maintenance()
            assert len(cache.window_manager.reports) == before
        finally:
            cache.close()
