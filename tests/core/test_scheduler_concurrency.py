"""Race surface of background maintenance scheduling (ISSUE-5).

Three properties are pinned (auto-marked ``concurrency``; CI runs this module
as its background-mode race smoke with ``PYTHONHASHSEED=0``):

1. **Snapshot reads under a held apply** — with the background worker parked
   *inside* an apply (store delta done, GCindex batch mutated but not yet
   published), 8 threads keep querying the cache: every query completes
   without blocking, answers exactly what Method M alone would return, and
   reads the previously published GCindex snapshot (the publication version
   is unchanged while the apply is held — deterministic counters, no
   wall-clock).
2. **sync ≡ barrier at every barrier point** — after every single query, the
   two modes agree on the answer set, the deterministic work counters and
   the byte-identical plan journal.
3. **Sharded background race smoke** — ``shards=4`` with
   ``maintenance_mode="background"`` under 8 hammering threads: no crash, no
   capacity overflow, correct answers, and a clean drain.
"""

from __future__ import annotations

import threading
from dataclasses import replace

from repro.core import GraphCache, GraphCacheConfig, build_cache
from repro.graphs.generators import aids_like
from repro.methods import SIMethod, execute_query
from repro.workloads import generate_type_a

DATASET = aids_like(scale=0.05, seed=2)
THREADS = 8


def _workload(count: int, seed: int):
    return list(
        generate_type_a(DATASET, "ZZ", count, query_sizes=(3, 5, 8), seed=seed)
    )


def _expected_answers(method, workload):
    expected = {}
    for query in workload:
        if query not in expected:
            expected[query] = execute_query(method, query).answer_ids
    return expected


def _gc_index(cache: GraphCache):
    """The cache's GCindex, via the public pipeline accessors."""
    return cache.pipeline.stages[1].processors.index


class TestHeldApplySnapshotReads:
    def test_queries_served_mid_apply_read_published_snapshot(self):
        method = SIMethod(DATASET, matcher="vf2plus")
        workload = _workload(48, seed=17)
        expected = _expected_answers(method, workload)
        cache = build_cache(
            method,
            GraphCacheConfig(
                cache_capacity=6, window_size=3, maintenance_mode="background"
            ),
        )
        index = _gc_index(cache)

        held = threading.Event()
        release = threading.Event()
        held_plans = []

        def hold_first_apply(plan):
            # Park only the first round; later rounds run through freely.
            if not held_plans:
                held_plans.append(plan)
                held.set()
                assert release.wait(timeout=60), "test did not release the apply"

        cache.maintenance_engine.apply_hold_hook = hold_first_apply

        try:
            # Fill the first window; the worker parks inside its apply.
            feed = iter(workload)
            while not held.is_set():
                cache.query(next(feed))
            version_during_hold = index.version
            plan = held_plans[0]

            # The apply is held pre-publication: the round's admissions are
            # *not* visible in the index — lookups read the old snapshot.
            assert all(s not in index.serials() for s in plan.admitted_serials)

            remaining = list(feed)
            chunks = [remaining[i::THREADS] for i in range(THREADS)]
            barrier = threading.Barrier(THREADS)
            failures: list = []
            versions_seen: set = set()

            def worker(chunk):
                try:
                    barrier.wait(timeout=30)
                    for query in chunk:
                        versions_seen.add(index.version)
                        result = cache.query(query)
                        if result.answer_ids != expected[query]:
                            failures.append(("wrong answers", result.serial))
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    failures.append(exc)

            threads = [
                threading.Thread(target=worker, args=(chunk,), name=f"mid-apply-{i}")
                for i, chunk in enumerate(chunks)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            # Every lookup that ran while the apply was held read the same
            # published snapshot: the version never moved under them.
            assert versions_seen == {version_during_hold}
            assert index.version == version_during_hold

            release.set()
            cache.maintenance_engine.apply_hold_hook = None
            cache.drain_maintenance()
            # Publication resumed: the held round (and the rounds queued up
            # behind it) are now applied and journaled.
            assert index.version > version_during_hold
            counters = cache.maintenance_scheduler.counters
            assert counters.rounds == len(cache.plan_journal)
            assert counters.inline_rounds == 0
        finally:
            release.set()
            cache.close()


class TestSyncBarrierEquivalence:
    def test_identity_at_every_barrier_point(self):
        workload = _workload(36, seed=5)
        config = GraphCacheConfig(cache_capacity=6, window_size=3, admission_control=True)
        sync_cache = GraphCache(
            SIMethod(DATASET, matcher="vf2plus"),
            replace(config, maintenance_mode="sync"),
        )
        barrier_cache = GraphCache(
            SIMethod(DATASET, matcher="vf2plus"),
            replace(config, maintenance_mode="barrier"),
        )
        try:
            for query in workload:
                sync_result = sync_cache.query(query)
                barrier_result = barrier_cache.query(query)
                # Every barrier point: identical answers and work counters.
                assert barrier_result.answer_ids == sync_result.answer_ids
                assert barrier_result.subiso_tests == sync_result.subiso_tests
                assert (
                    barrier_result.containment_tests
                    == sync_result.containment_tests
                )
                assert barrier_result.shortcut == sync_result.shortcut
                sync_runtime = sync_cache.runtime_statistics
                barrier_runtime = barrier_cache.runtime_statistics
                assert (
                    barrier_runtime.subiso_tests_alleviated
                    == sync_runtime.subiso_tests_alleviated
                )
                assert (
                    barrier_runtime.containment_tests
                    == sync_runtime.containment_tests
                )
                # ... and a byte-identical plan journal so far.
                assert (
                    barrier_cache.plan_journal.dumps()
                    == sync_cache.plan_journal.dumps()
                )
            assert len(sync_cache.plan_journal) > 0
            assert sync_cache.maintenance_engine.admission.calibrated
        finally:
            sync_cache.close()
            barrier_cache.close()


class TestShardedBackgroundRaceSmoke:
    def test_shards4_background_8_threads(self):
        method = SIMethod(DATASET, matcher="vf2plus")
        workload = _workload(48, seed=23)
        expected = _expected_answers(method, workload)
        cache = build_cache(
            method,
            GraphCacheConfig(
                cache_capacity=6,
                window_size=3,
                shards=4,
                maintenance_mode="background",
            ),
        )
        try:
            chunks = [list(workload)[i::THREADS] for i in range(THREADS)]
            barrier = threading.Barrier(THREADS)
            failures: list = []

            def worker(chunk):
                try:
                    barrier.wait(timeout=30)
                    for query in chunk:
                        result = cache.query(query)
                        if result.answer_ids != expected[query]:
                            failures.append(("wrong answers", result.serial))
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    failures.append(exc)

            threads = [
                threading.Thread(target=worker, args=(chunk,), name=f"bg-shard-{i}")
                for i, chunk in enumerate(chunks)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            cache.drain_maintenance()
            assert cache.runtime_statistics.queries_processed == len(workload)
            assert len(cache) <= 4 * 6
            schedulers = [shard.maintenance_scheduler for shard in cache.shards]
            total_rounds = sum(scheduler.counters.rounds for scheduler in schedulers)
            assert total_rounds == sum(len(shard.plan_journal) for shard in cache.shards)
            assert total_rounds > 0
            assert all(scheduler.counters.inline_rounds == 0 for scheduler in schedulers)
        finally:
            cache.close()
