"""Concurrency guarantees of the staged query pipeline.

Two properties are pinned here (the ISSUE-2 hard invariant):

1. **Serial/concurrent equivalence** — for any workload,
   ``GraphCacheService.query_many(jobs>1)`` returns byte-identical answer
   sets and identical deterministic work counters
   (``subiso_tests_alleviated``, ``containment_tests``, ...) to a serial
   loop of ``GraphCache.query``.  This holds by construction: Mfilter is
   cache-state independent, and the GC stages execute in submission order.
2. **Race safety** — many threads hammering one shared cache never crash it,
   never overflow its capacity, and every individual answer set still equals
   what Method M alone would return (the paper's correctness guarantee is
   cache-state independent, so it must survive any interleaving).

These tests are auto-marked ``concurrency`` (see ``tests/conftest.py``) so CI
can run them as a dedicated job with a pinned ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import functools
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GraphCache, GraphCacheConfig, GraphCacheService
from repro.core.pipeline import STAGE_NAMES
from repro.exceptions import CacheError
from repro.graphs.generators import aids_like
from repro.methods import SIMethod, execute_query
from repro.workloads import generate_type_a


@functools.lru_cache(maxsize=4)
def _dataset(seed: int):
    """Small AIDS-like dataset, cached so hypothesis examples stay fast."""
    return aids_like(scale=0.05, seed=seed)


def _counters(cache: GraphCache) -> dict:
    """The deterministic work counters the equivalence invariant pins."""
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


class TestSerialConcurrentEquivalence:
    @pytest.mark.parametrize("admission", [False, True], ids=["all-admitted", "admission"])
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        window=st.sampled_from([2, 3, 5]),
        jobs=st.sampled_from([2, 4]),
    )
    def test_query_many_matches_serial(
        self, seed: int, window: int, jobs: int, admission: bool
    ) -> None:
        dataset = _dataset(seed % 3)
        workload = generate_type_a(
            dataset, "ZZ", 14, query_sizes=(3, 5, 8), seed=seed
        )
        config = GraphCacheConfig(
            cache_capacity=6, window_size=window, admission_control=admission
        )

        serial_cache = GraphCache(SIMethod(dataset, matcher="vf2plus"), config)
        serial_results = [serial_cache.query(query) for query in workload]

        service = GraphCacheService.for_method(
            SIMethod(dataset, matcher="vf2plus"), config
        )
        concurrent_results = service.query_many(list(workload), jobs=jobs)

        assert len(concurrent_results) == len(serial_results)
        for serial, concurrent in zip(serial_results, concurrent_results, strict=True):
            assert concurrent.answer_ids == serial.answer_ids
            assert concurrent.method_candidates == serial.method_candidates
            assert concurrent.final_candidates == serial.final_candidates
            assert concurrent.subiso_tests == serial.subiso_tests
            assert concurrent.containment_tests == serial.containment_tests
            assert concurrent.shortcut == serial.shortcut
            assert concurrent.short_circuit_stage == serial.short_circuit_stage
        assert _counters(service.cache) == _counters(serial_cache)
        assert service.cache.plan_journal.dumps() == serial_cache.plan_journal.dumps()

    def test_jobs_must_be_positive(self) -> None:
        service = GraphCacheService.for_method(
            SIMethod(_dataset(0), matcher="vf2plus")
        )
        with pytest.raises(CacheError):
            service.query_many([], jobs=0)


class TestStageAccounting:
    def test_stage_times_and_short_circuit(self) -> None:
        dataset = _dataset(0)
        cache = GraphCache(
            SIMethod(dataset, matcher="vf2plus"),
            GraphCacheConfig(cache_capacity=4, window_size=1),
        )
        assert tuple(stage.name for stage in cache.pipeline.stages) == STAGE_NAMES

        query = list(generate_type_a(dataset, "ZZ", 2, query_sizes=(4,), seed=3))[0]
        first = cache.query(query)
        assert set(STAGE_NAMES) <= set(first.stage_times)
        assert all(elapsed >= 0.0 for elapsed in first.stage_times.values())
        assert first.short_circuit_stage is None

        second = cache.query(query)
        assert second.shortcut == "exact"
        assert second.short_circuit_stage == "prune"
        assert second.subiso_tests == 0

    def test_shared_containment_matcher(self) -> None:
        """The configured matcher is resolved once and shared by the stages."""
        method = SIMethod(_dataset(0), matcher="vf2plus")
        cache = GraphCache(method)
        assert cache.containment_matcher is method.matcher

        named = GraphCache(method, GraphCacheConfig(containment_matcher="vf2"))
        assert named.containment_matcher is not method.matcher
        assert named.containment_matcher.name == "vf2"


class TestRaceSmoke:
    THREADS = 8

    def test_threads_hammer_one_shared_cache(self) -> None:
        dataset = _dataset(2)
        method = SIMethod(dataset, matcher="vf2plus")
        workload = generate_type_a(
            dataset, "ZZ", 48, query_sizes=(3, 5, 8), seed=17
        )
        expected = {}
        for query in workload:
            if query not in expected:
                expected[query] = execute_query(method, query).answer_ids

        cache = GraphCache(method, GraphCacheConfig(cache_capacity=6, window_size=3))
        queries = list(workload)
        chunks = [queries[i :: self.THREADS] for i in range(self.THREADS)]
        barrier = threading.Barrier(self.THREADS)
        failures: list = []

        def worker(chunk) -> None:
            try:
                barrier.wait(timeout=30)
                for query in chunk:
                    result = cache.query(query)
                    if result.answer_ids != expected[query]:
                        failures.append(
                            ("wrong answers", result.serial, result.answer_ids)
                        )
            except Exception as exc:  # noqa: BLE001 - surfaced via `failures`
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(chunk,), name=f"hammer-{i}")
            for i, chunk in enumerate(chunks)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert cache.runtime_statistics.queries_processed == len(queries)
        assert len(cache) <= 6
