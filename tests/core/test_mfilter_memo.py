"""The Mfilter memo: one seam, same behaviour, bounded, safe under threads.

``MfilterStage`` memoises ``query → CS_M`` on the cache side of Method M.
These tests pin what that must *not* change (answers, work counters,
maintenance decisions, replicated state, the admission signal) and what it
must change (Method M's filter runs once per distinct query structure, on
every serving path).
"""

from __future__ import annotations

import itertools
import multiprocessing
import random
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.analysis import runtime as lock_runtime
from repro.bench.scenarios import (
    bench_config,
    get_method,
    type_a_workload,
    type_b_workload,
)
from repro.core import GraphCacheConfig, GraphCacheService, ProcessPoolCacheService
from repro.core.cache import GraphCache
from repro.core.replication import ReplicaSet, cache_state_digest
from repro.core.sharding import ShardedGraphCache, build_cache
from repro.core.stores import expensiveness
from repro.ftv.features import extract_label_paths
from repro.graphs.generators import aids_like
from repro.methods import SIMethod
from repro.methods.base import Method
from repro.methods.executor import execute_query
from repro.workloads import generate_type_a

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _mfilter_stages(cache):
    shards = cache.shards if isinstance(cache, ShardedGraphCache) else (cache,)
    return [shard.pipeline.stages[0] for shard in shards]


class CountingMethod(Method):
    """Delegates to ``inner`` and counts ``candidates`` calls.

    The count lives in shared memory so that calls made inside forked pool
    workers are seen by the parent.  ``delay_s`` makes the filter slow enough
    to tell a real call from a memo hit by the clock.
    """

    def __init__(self, inner: Method, delay_s: float = 0.0) -> None:
        super().__init__(inner.dataset, inner.matcher)
        self._inner = inner
        self._delay_s = delay_s
        self._calls = multiprocessing.Value("i", 0)
        self.name = inner.name
        self.supports_supergraph = inner.supports_supergraph

    @property
    def calls(self) -> int:
        return self._calls.value

    def candidates(self, query):
        with self._calls.get_lock():
            self._calls.value += 1
        if self._delay_s:
            time.sleep(self._delay_s)
        return self._inner.candidates(query)

    def rebind_dataset(self, dataset) -> None:
        super().rebind_dataset(dataset)
        self._inner.rebind_dataset(dataset)


# ---------------------------------------------------------------------- #
# (a) Identity on the 12 aids/pdbs scenario streams.
# ---------------------------------------------------------------------- #
SCENARIOS = [
    (dataset, label)
    for dataset in ("aids", "pdbs")
    for label in ("ZZ", "ZU", "UU", "0%", "20%", "50%")
]
#: backend x shards x maintenance mode x query mode: 16 cells.  Scenario ``i``
#: runs in cell ``i`` and in its complement ``15 - i``, so the 12 scenarios
#: cover all 16 cells and every scenario sees both values of every axis.
CELLS = list(
    itertools.product(
        ("memory", "mmap"), (1, 3), ("sync", "background"), ("subgraph", "supergraph")
    )
)
IDENTITY_CASES = [
    pytest.param(dataset, label, *CELLS[cell], id=f"{dataset}-{label}-cell{cell}")
    for index, (dataset, label) in enumerate(SCENARIOS)
    for cell in (index, len(CELLS) - 1 - index)
]

def _workload(dataset: str, label: str):
    if label.endswith("%"):
        return list(type_b_workload(dataset, float(label.rstrip("%")) / 100.0))
    return list(type_a_workload(dataset, label))


def _observe(method, config, workload, clear_before_each_request: bool):
    """Serve ``workload``; return everything that must not depend on the memo."""
    cache = build_cache(method, config)
    try:
        answers = []
        for query in workload:
            if clear_before_each_request:
                for stage in _mfilter_stages(cache):
                    stage.memo.clear()
            answers.append(cache.query(query).answer_ids)
            # A background round lands whenever its worker gets to it; draining
            # after every request makes what the next request sees repeatable.
            cache.drain_maintenance()
        counters = {
            name: value
            for name, value in cache.runtime_statistics.as_dict().items()
            if not name.endswith("_s")
        }
        reports = (
            cache.maintenance_reports()
            if isinstance(cache, ShardedGraphCache)
            else cache.window_manager.reports
        )
        reports = [report._replace(elapsed_s=0.0) for report in reports]
        return answers, counters, reports, cache_state_digest(cache)
    finally:
        cache.close()


@pytest.mark.parametrize(
    "dataset, label, backend, shards, maintenance_mode, query_mode", IDENTITY_CASES
)
def test_memo_changes_nothing_but_the_seconds(
    tmp_path, dataset, label, backend, shards, maintenance_mode, query_mode
):
    # FTV indexes filter for subgraph queries only; SI serves both directions.
    method = get_method(dataset, "ggsx" if query_mode == "subgraph" else "vf2plus")
    workload = _workload(dataset, label)
    observed = []
    for run in ("memo", "cleared"):
        config = replace(
            bench_config(query_mode=query_mode, shards=shards, backend=backend),
            maintenance_mode=maintenance_mode,
            backend_path=str(tmp_path / run) if backend == "mmap" else None,
        )
        observed.append(_observe(method, config, workload, run == "cleared"))
    with_memo, cleared = observed
    for name, kept, recomputed in zip(
        ("answers", "runtime counters", "maintenance reports", "state digest"),
        with_memo,
        cleared,
        strict=True,
    ):
        assert kept == recomputed, name
    assert with_memo[1]["queries_processed"] == len(workload)
    assert with_memo[2], "the stream must have driven maintenance rounds"


# ---------------------------------------------------------------------- #
# (b) One call per distinct structure, on every serving path.
# ---------------------------------------------------------------------- #
DATASET = aids_like(scale=0.05, seed=3)


def _stream(count: int = 60, seed: int = 7):
    """``count`` requests drawn from a pool of at most 12 distinct structures."""
    drawn = generate_type_a(DATASET, "UU", 24, query_sizes=(3, 5, 8), seed=seed)
    pool = list(dict.fromkeys(drawn))[:12]
    rng = random.Random(seed)
    return [rng.choice(pool) for _ in range(count)]


def _small_config(**overrides) -> GraphCacheConfig:
    return GraphCacheConfig(cache_capacity=6, window_size=3, **overrides)


class TestOneSeam:
    def test_every_path_shares_the_memo_and_the_oracle_does_not(self):
        stream = _stream()
        distinct = len(set(stream))
        assert distinct < len(stream) // 2, "the stream must repeat structures"
        method = CountingMethod(SIMethod(DATASET, matcher="vf2plus"))
        oracle = {
            query: execute_query(method, query).answer_ids for query in set(stream)
        }
        assert method.calls == distinct
        execute_query(method, stream[0])
        execute_query(method, stream[0])
        assert method.calls == distinct + 2, "uncached Method M is never memoised"

        primary = GraphCache(method, _small_config())
        # Followers replicate forward from round 1, so attach before serving.
        with ReplicaSet(primary, replicas=1, mode="thread") as replicas:
            before = method.calls
            results = [primary.query(query) for query in stream]
            assert method.calls - before == distinct
            assert [r.answer_ids for r in results] == [oracle[q] for q in stream]

            assert [primary.lookup(q) for q in stream] == [oracle[q] for q in stream]
            batched = GraphCacheService(primary).query_many(stream, jobs=4)
            assert [r.answer_ids for r in batched] == [oracle[q] for q in stream]
            assert method.calls - before == distinct, "lookup and query_many hit the memo"

            # A follower is a cache of its own: one memo fill, then nothing.
            replicas.sync()
            for _ in range(2):
                assert [replicas.lookup(q) for q in stream] == [oracle[q] for q in stream]
            assert method.calls - before == 2 * distinct
        primary.close()

    def test_cold_batched_prefetch_computes_each_structure_about_once(self):
        jobs = 4
        stream = _stream(count=200, seed=11)
        distinct = len(set(stream))
        assert distinct * jobs < len(stream)
        method = CountingMethod(SIMethod(DATASET, matcher="vf2plus"))
        serial = GraphCache(method, _small_config())
        expected = [serial.query(query) for query in stream]
        serial.close()

        before = method.calls
        service = GraphCacheService.for_method(method, _small_config())
        results = service.query_many(stream, jobs=jobs)
        service.close()
        # Two workers may miss on one structure at the same moment (the memo
        # computes outside its lock, like the other memos), never more than
        # there are workers.
        assert distinct <= method.calls - before <= distinct * jobs
        assert [
            (r.answer_ids, r.method_candidates, r.subiso_tests, r.shortcut)
            for r in results
        ] == [
            (r.answer_ids, r.method_candidates, r.subiso_tests, r.shortcut)
            for r in expected
        ]

    def test_sharded_cache_fills_one_memo_per_shard(self):
        stream = _stream()
        method = CountingMethod(SIMethod(DATASET, matcher="vf2plus"))
        cache = build_cache(method, _small_config(shards=3))
        for _ in range(2):
            for query in stream:
                cache.query(query)
                cache.lookup(query)
        # A structure always routes to the same shard, so still once each.
        assert method.calls == len(set(stream))
        cache.close()

    # ------------------------------------------------------------------ #
    # (d) Packed views inside a fork-pool worker.
    # ------------------------------------------------------------------ #
    @pytest.mark.skipif(not HAS_FORK, reason="the process pool needs fork")
    def test_packed_views_hit_the_memo_inside_pool_workers(self):
        stream = _stream()
        method = CountingMethod(SIMethod(DATASET, matcher="vf2plus"))
        config = GraphCacheConfig(cache_capacity=8, window_size=4, shards=2)
        with ProcessPoolCacheService(method, config, workers=2) as pool:
            first = pool.run(stream)
            second = pool.run(stream)
            stats = pool.runtime_statistics()
        # Every request reached its worker's cache as a PackedGraphView …
        assert stats.decode_avoided == 2 * len(stream)
        # … and each structure was filtered once, by the worker that owns it.
        assert method.calls == len(set(stream))
        assert [r.answer_ids for r in first] == [r.answer_ids for r in second]


# ---------------------------------------------------------------------- #
# (c) The bound.
# ---------------------------------------------------------------------- #
def test_filling_past_the_limit_clears_and_keeps_answering():
    graphs = len(DATASET)
    limit = 3 * graphs  # room for three SI candidate sets (the whole dataset)
    method = CountingMethod(SIMethod(DATASET, matcher="vf2plus"))
    cache = GraphCache(method, _small_config())
    stage = cache.pipeline.stages[0]
    stage.memo.limit = limit
    stream = _stream()
    oracle = {q: execute_query(method, q).answer_ids for q in set(stream)}
    assert len(oracle) > 3
    before = method.calls
    held = []
    for query in stream:
        assert cache.query(query).answer_ids == oracle[query]
        assert cache.lookup(query) == oracle[query]
        assert 0 < stage.memo.weight_held <= limit
        held.append(stage.memo.weight_held)
    assert any(later < earlier for earlier, later in zip(held, held[1:])), "never cleared"
    assert stage.memo.clears > 0
    # Clearing forgets, so some structures are filtered again — but far from all.
    assert len(oracle) < method.calls - before < len(stream)
    stage.memo.clear()
    assert stage.memo.weight_held == 0
    cache.close()


# ---------------------------------------------------------------------- #
# The admission signal scores a repeat's work like a first execution's.
# ---------------------------------------------------------------------- #
def test_admission_calibration_is_unchanged_by_repeats():
    delay = 0.02  # Method M's filter, far above a memo hit
    tiny = aids_like(scale=0.03, seed=5)
    pool = list(generate_type_a(tiny, "UU", 4, query_sizes=(3, 4), seed=2))
    assert len(set(pool)) == 4
    stream = pool * 4  # 16 requests, 12 of them repeats
    method = CountingMethod(SIMethod(tiny, matcher="vf2plus"), delay_s=delay)
    cache = GraphCache(
        method,
        GraphCacheConfig(
            cache_capacity=2,
            window_size=4,
            admission_control=True,
        ),
    )
    controller = cache.maintenance_engine.admission
    seen_by_admission = []
    filter_admitted = controller.filter_admitted

    def spy(entries, *args):
        seen_by_admission.extend(entries)
        return filter_admitted(entries, *args)

    controller.filter_admitted = spy
    verify, nodes = cache.pipeline.stages[3], {}
    verify_run = verify.run

    def counting_verify(ctx):
        verify_run(ctx)
        nodes[ctx.serial] = ctx.nodes_expanded

    verify.run = counting_verify
    results = [cache.query(query) for query in stream]
    cache.close()
    assert method.calls == 4

    repeats = results[4:]
    # What the caller is told is what happened: repeats skip Method M's filter.
    assert all(r.filter_time_s < delay / 4 for r in repeats)
    assert all(r.stage_times["mfilter"] < delay / 4 for r in repeats)
    # Exact hits are credited, never re-admitted: admission sees the four
    # first executions, then only repeats of the structures it rejected —
    # and what it scores for each is the request's verification work over
    # the query's own label-path features, whether Method M filtered it or
    # the memo answered.
    by_serial = {r.serial: r for r in results}
    assert [entry.query for entry in seen_by_admission[:4]] == pool
    assert len(seen_by_admission) > len(pool), "no rejected structure came back"
    assert not any(by_serial[e.serial].shortcut == "exact" for e in seen_by_admission)
    length = cache.config.index_path_length
    assert [e.expensiveness for e in seen_by_admission] == [
        expensiveness(nodes.get(e.serial, 0), len(extract_label_paths(e.query, length)))
        for e in seen_by_admission
    ]
    # So the calibrated threshold is one of the scores the calibration saw.
    assert controller.calibrated
    assert controller.threshold in controller.state_record()["observed_scores"]


# ---------------------------------------------------------------------- #
# (e) Eight threads, lock sanitizer on, a memo that keeps overflowing.
# ---------------------------------------------------------------------- #
def test_eight_threads_hammer_the_memo_under_the_lock_sanitizer(monkeypatch):
    monkeypatch.setenv(lock_runtime.ENV_VAR, "1")
    lock_runtime._reset_for_tests()
    limit = 4 * len(DATASET)
    method = SIMethod(DATASET, matcher="vf2plus")
    stream = _stream(count=96, seed=17)
    oracle = {q: execute_query(method, q).answer_ids for q in set(stream)}
    assert len(oracle) > 4
    cache = GraphCache(method, _small_config())
    stage = cache.pipeline.stages[0]
    stage.memo.limit = limit
    threads_count = 8
    barrier = threading.Barrier(threads_count)
    failures: list = []

    def worker(offset: int) -> None:
        try:
            barrier.wait(timeout=30)
            for position, query in enumerate(stream[offset:] + stream[:offset]):
                if position % 3 == 0:
                    answers = cache.query(query).answer_ids
                elif position % 3 == 1:
                    answers = cache.lookup(query)
                else:
                    answers = None
                    if cache.prefilter(query).candidates != DATASET.graph_ids:
                        failures.append(("wrong CS_M", offset, position))
                if answers is not None and answers != oracle[query]:
                    failures.append(("wrong answers", offset, position))
        except Exception as exc:  # noqa: BLE001 - surfaced via `failures`
            failures.append(exc)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(12 * i,), name=f"hammer-{i}")
            for i in range(threads_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch_interval)
        lock_runtime._reset_for_tests()
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    # A lost update on the id count would leave it out of step with the table.
    assert stage.memo.weight_held == sum(len(entry.candidates) for entry in stage.memo.values())
    assert 0 < stage.memo.weight_held <= limit
    cache.close()
