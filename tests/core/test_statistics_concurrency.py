"""Race on the shared statistics rows under background maintenance.

Each cached query has one statistics row; the committing thread applies hits
to it while the background worker selects victims over the same rows.  With
``cross_check=True`` every round also runs the full-sort oracle.

* The cache-level test parks the worker inside its victim selection (in
  the policy's ``choose``, which runs under the rows' lock) and commits
  exact hits on a surviving entry meanwhile, so the hits contend for the
  rows' lock.  At every drain the oracle agrees with the selection, and the
  persistable state equals a ``barrier``-mode run of the same stream
  (measured times aside).
* The admission test parks the worker after the round's store and GCindex
  delta is published, before the evicted rows go, and commits an exact hit
  on an entry the round just admitted: the hit lands on the entry's row,
  and the state equals a ``barrier`` run and a follower's replay of the
  journal.
* The engine-level test parks a decide's oracle after the selection and
  hits the chosen victims meanwhile: the oracle scores the copies the
  selection took, so the hits neither wait for it nor sway it.
* The stress test runs more hitting threads than cores against a thread
  that keeps deciding, with a short switch interval: no hit is lost and the
  oracle never disagrees.

Auto-marked ``concurrency``; CI runs it with ``REPRO_LOCK_SANITIZER=1``.
"""

from __future__ import annotations

import queue
import random
import sys
import threading
import time

import pytest

from repro.core import GraphCache, GraphCacheConfig
from repro.core.policies import MaintenanceEngine, policy_by_name
from repro.core.query_index import QueryGraphIndex
from repro.core.replication import ReplicationFrame, cache_state_digest
from repro.core.statistics import CachedQueryStats, StatisticsManager
from repro.core.stores import CacheEntry, CacheEntryCodec, CacheStore, WindowEntry
from repro.graphs.graph import Graph
from repro.graphs.generators import aids_like
from repro.methods import SIMethod
from repro.workloads import generate_type_a

DATASET = aids_like(scale=0.05, seed=2)
REPEATS = 2

#: Wall-clock measurements: they differ between any two runs.
_TIMES = ("filter_time_s", "verify_time_s")


def _workload():
    return list(generate_type_a(DATASET, "ZZ", 48, query_sizes=(3, 5, 8), seed=29))


def _state(cache: GraphCache):
    """``snapshot_state`` with the measured times left out."""
    entries, stats, window, next_serial, maintenance = cache.snapshot_state()
    maintenance = dict(maintenance, window_sampled=len(maintenance["window_sampled"]))
    return (
        [CacheEntryCodec.encode(entry) for entry in entries],
        [{k: v for k, v in vars(row).items() if k not in _TIMES} for row in stats],
        [entry.serial for entry in window],
        next_serial,
        maintenance,
    )


def _run(mode, policy, repeats=None):
    """Run the stream; after every round, commit ``REPEATS`` exact hits on an
    entry the round keeps, then drain.  ``repeats=None`` picks that entry
    (after the round, so it must be a barrier run) and returns the picks."""
    config = GraphCacheConfig(
        cache_capacity=4, window_size=3, replacement_policy=policy, maintenance_mode=mode
    )
    cache = GraphCache(SIMethod(DATASET, matcher="vf2plus"), config)
    engine = cache.maintenance_engine
    engine.cross_check = True
    entered: "queue.Queue[None]" = queue.Queue()
    go: "queue.Queue[None]" = queue.Queue()
    if mode == "background":
        statistics, policy = cache.statistics_manager, engine.policy
        select, choose = statistics.select_victims, policy.choose
        selecting = []

        def parked_select(*args):
            selecting.append(True)
            return select(*args)

        def parked_choose(rows):
            # The selection's call runs with the rows' lock held: the hits
            # committed meanwhile must wait for the selection to finish.
            # (The oracle calls it too, on copies; it does not park.)
            if selecting:
                selecting.pop()
                entered.put(None)
                go.get(timeout=60)
                time.sleep(0.01)
            return choose(rows)

        statistics.select_victims = parked_select
        policy.choose = parked_choose
    picks = [] if repeats is None else None
    states, rounds = [], 0
    try:
        for query in _workload():
            before = set(cache.cached_serials)
            cache.query(query)
            if cache.window_manager.state_record()["window_requests"]:
                continue  # no round submitted
            if mode == "background":
                entered.get(timeout=60)
                go.put(None)
            if picks is not None:
                kept = sorted(before & set(cache.cached_serials))
                picks.append(cache.cached_entry(kept[0]).query if kept else None)
            hit = (repeats or picks)[rounds]
            rounds += 1
            if hit is not None:
                for _ in range(REPEATS):
                    assert cache.query(hit).shortcut == "exact"
            cache.drain_maintenance()
            assert engine.oracle_mismatches == []
            states.append(_state(cache))
        evictions = sum(len(report.evicted_serials) for report in cache.window_manager.reports)
    finally:
        cache.close()
    return states, picks, evictions


@pytest.mark.parametrize("policy", ["lru", "pop", "hd"])
def test_background_rows_match_barrier_at_every_drain(policy):
    expected, picks, evictions = _run("barrier", policy)
    assert evictions > 0 and sum(hit is not None for hit in picks) > 3
    states, _, _ = _run("background", policy, repeats=picks)
    assert len(states) == len(expected)
    for round_number, (state, reference) in enumerate(zip(states, expected)):
        assert state == reference, f"round {round_number}"


def _entry(serial):
    return CacheEntry(
        serial=serial,
        query=Graph(labels=["C", f"L{serial}"], edges=[(0, 1)]),
        answer_ids=frozenset(),
    )


def _admission_run(mode):
    """Run the stream; while each round's apply sits between its published
    store/GCindex delta and the dropping of the evicted rows (background), or
    after the round (barrier), commit one exact hit on the first entry the
    round admitted, then drain.  Ends on a round no hit follows, so no hit
    is pending.  Returns the state at every drain and the live cache."""
    config = GraphCacheConfig(cache_capacity=4, window_size=3, maintenance_mode=mode)
    cache = GraphCache(SIMethod(DATASET, matcher="vf2plus"), config)
    engine = cache.maintenance_engine
    engine.cross_check = True
    entered: "queue.Queue[list]" = queue.Queue()
    go: "queue.Queue[None]" = queue.Queue()
    if mode == "background":
        storage = engine._apply_storage

        def parked_storage(additions, evicted, plan=None):
            storage(additions, evicted, plan)
            entered.put([(entry.serial, entry.query) for entry in additions])
            go.get(timeout=60)

        engine._apply_storage = parked_storage
    workload = _workload()
    tail = list(generate_type_a(DATASET, "ZZ", 12, query_sizes=(3, 5, 8), seed=31))
    states, hits = [], 0
    for number, query in enumerate(workload + tail):
        cache.query(query)
        if cache.window_manager.state_record()["window_requests"]:
            continue  # no round submitted
        if mode == "background":
            admitted = entered.get(timeout=60)
        else:
            admitted = [
                (serial, cache.cached_entry(serial).query)
                for serial in cache.window_manager.reports[-1].admitted_serials
            ]
        last = number >= len(workload)
        if admitted and not last:
            serial, graph = admitted[0]
            assert cache.query(graph).shortcut == "exact"
            hits += 1
        if mode == "background":
            go.put(None)
        cache.drain_maintenance()
        assert engine.oracle_mismatches == []
        if admitted and not last:
            # A fresh row, hit once: the hit was not dropped.
            row = cache.statistics_manager.snapshot(serial)
            assert (row.hits, row.special_hits) == (1, 1)
        states.append(_state(cache))
        if last:
            break
    assert hits > 3 and last
    return states, cache


def test_a_hit_on_a_just_admitted_entry_counts():
    expected, barrier = _admission_run("barrier")
    barrier.close()
    states, cache = _admission_run("background")
    try:
        assert states == expected
        # A follower replaying the journal frame by frame counts the same
        # hits (the run ends on a round, so no hit is pending).
        assert cache.maintenance_engine.state_record()["pending_hits"] == []
        follower = GraphCache(SIMethod(DATASET, matcher="vf2plus"), cache.config)
        for record in cache.plan_journal.records():
            follower.replay_frames([ReplicationFrame.from_record(record, 0)])
        assert cache_state_digest(follower, replicated_only=True) == cache_state_digest(
            cache, replicated_only=True
        )
        follower.close()
    finally:
        cache.close()


@pytest.mark.parametrize("policy", ["lru", "pop", "hd"])
def test_oracle_scores_the_rows_the_selection_saw(policy):
    store, statistics = CacheStore(8), StatisticsManager(policy_by_name(policy))
    engine = MaintenanceEngine(
        cache_store=store,
        statistics=statistics,
        index=QueryGraphIndex(max_path_length=2),
        cross_check=True,
    )
    for serial in range(1, 9):
        store.add(_entry(serial))
        statistics.add(
            CachedQueryStats(serial=serial, hits=serial % 3, last_hit_serial=10 + serial,
                             cs_reduction=float(serial % 4), cost_reduction=float(serial))
        )
    window = [
        WindowEntry(serial=serial, query=_entry(serial).query, answer_ids=frozenset(),
                    filter_time_s=0.1, verify_time_s=1.0)
        for serial in (20, 21)
    ]
    victims = engine.oracle_victims(2, 21)
    entered, go = threading.Event(), threading.Event()
    oracle = engine.oracle_victims

    def parked_oracle(evict_count, current_serial, rows):
        entered.set()
        assert go.wait(timeout=60)
        return oracle(evict_count, current_serial, rows)

    engine.oracle_victims = parked_oracle
    plans = []
    worker = threading.Thread(target=lambda: plans.append(engine.decide(window, 21)))
    worker.start()
    assert entered.wait(timeout=60)
    for serial in victims:  # would rescue them, were the oracle to see it
        engine.on_hit(serial, benefiting_serial=21, cs_reduction=50.0, cost_reduction=500.0)
    # The hits landed while the oracle was parked: the selection let go of
    # the rows before the oracle ran.
    assert [statistics.snapshot(serial).last_hit_serial for serial in victims] == [21, 21]
    go.set()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert engine.oracle_mismatches == []
    assert list(plans[0].evicted_serials) == victims


def test_stress_hits_against_deciding_thread():
    store, statistics = CacheStore(16), StatisticsManager(policy_by_name("lru"))
    engine = MaintenanceEngine(
        cache_store=store,
        statistics=statistics,
        index=QueryGraphIndex(max_path_length=2),
        cross_check=True,
    )
    for serial in range(1, 17):
        store.add(_entry(serial))
        statistics.add(CachedQueryStats(serial=serial))
    window = [
        WindowEntry(serial=100, query=_entry(100).query, answer_ids=frozenset(),
                    filter_time_s=0.1, verify_time_s=1.0)
    ]
    threads_count, hits_each = 4, 400
    stop = threading.Event()
    failures: list = []

    def hitter(seed):
        rng = random.Random(seed)
        try:
            for benefiting in range(hits_each):
                engine.on_hit(rng.randint(1, 16), benefiting, 1.0, 1.0)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    def decider():
        try:
            while not stop.is_set():
                engine.decide(window, 1_000)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        hitters = [threading.Thread(target=hitter, args=(seed,)) for seed in range(threads_count)]
        deciding = threading.Thread(target=decider)
        deciding.start()
        for thread in hitters:
            thread.start()
        for thread in hitters:
            thread.join(timeout=120)
        stop.set()
        deciding.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not deciding.is_alive() and not any(t.is_alive() for t in hitters)
    assert failures == []
    assert engine.oracle_mismatches == []
    rows = statistics.snapshots()
    assert sum(row.hits for row in rows) == threads_count * hits_each
    assert sum(row.cs_reduction for row in rows) == threads_count * hits_each
