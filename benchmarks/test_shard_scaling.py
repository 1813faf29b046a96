"""Shard scaling — the sharded cache is work-counter-neutral and scales out.

Two deterministic invariants of :class:`~repro.core.sharding.ShardedGraphCache`
are asserted at benchmark scale (plus informational wall-clock tables):

1. **Counter identity at shards=1** — ``ShardedGraphCache(shards=1,
   backend="memory")`` produces byte-identical per-query results and work
   counters to the plain ``GraphCache`` on the bench scenarios (the routing
   layer adds zero work).
2. **Work-counter-neutral routing** — for ``shards > 1``, driving the shards
   concurrently (``query_many(jobs=N)``) leaves every per-shard counter
   identical to a serial loop over the same sharded cache, and no query is
   lost or double-counted (aggregate ``queries_processed`` equals the
   workload size).

As established in PR 1, assertions run on deterministic work counters only;
wall-clock numbers are printed for the humans.
"""

from __future__ import annotations

import time

from _shared import WORKLOAD_LABELS, experiment_cell, work_counters, workload_by_label
from repro.bench.reporting import format_table
from repro.bench.scenarios import bench_config, get_method
from repro.core import GraphCacheService, ShardedGraphCache

METHOD = "ggsx"
DATASETS = ("aids", "pdbs")
SHARD_COUNTS = (1, 2, 4)


def _result_fields(result):
    return (
        result.answer_ids,
        result.method_candidates,
        result.final_candidates,
        result.subiso_tests,
        result.containment_tests,
        result.shortcut,
    )


def _runtime_counters(cache):
    runtime = cache.runtime_statistics
    return {
        "queries_processed": runtime.queries_processed,
        "subiso_tests": runtime.subiso_tests,
        "subiso_tests_alleviated": runtime.subiso_tests_alleviated,
        "containment_tests": runtime.containment_tests,
        "containment_memo_hits": runtime.containment_memo_hits,
        "cache_hits": runtime.cache_hits,
    }


def test_shards1_counter_identical_to_plain_cache(benchmark):
    """ShardedGraphCache(shards=1, backend='memory') ≡ plain GraphCache."""

    def run():
        comparisons = []
        for dataset in DATASETS:
            for label in WORKLOAD_LABELS:
                plain_cell = experiment_cell(dataset, METHOD, label)
                workload = workload_by_label(dataset, label)
                sharded = ShardedGraphCache(
                    get_method(dataset, METHOD), bench_config(shards=1)
                )
                sharded_results = [sharded.query(query) for query in workload]
                comparisons.append(
                    (dataset, label, plain_cell, sharded, sharded_results)
                )
        return comparisons

    comparisons = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for dataset, label, plain_cell, sharded, sharded_results in comparisons:
        workload = workload_by_label(dataset, label)
        plain_cache = plain_cell.cache
        # The cell keeps the results measured after its warm-up prefix.
        plain_results = plain_cell.cached_results
        warmup = len(workload) - len(plain_results)
        assert len(sharded_results) == len(workload) and warmup >= 0
        for mine, theirs in zip(sharded_results[warmup:], plain_results, strict=True):
            assert _result_fields(mine) == _result_fields(theirs), (dataset, label)
        assert _runtime_counters(sharded) == _runtime_counters(plain_cache), (
            dataset,
            label,
        )
        counters = work_counters(plain_cell)
        rows.append(
            {
                "scenario": f"{dataset}/{METHOD}/{label}",
                "queries": len(workload),
                "subiso_alleviated": int(counters["subiso_tests_alleviated"]),
                "containment_tests": int(counters["containment_tests"]),
                "identical": "yes",
            }
        )
    print()
    print("Shards=1 counter identity (sharded front end adds zero work):")
    print(format_table(rows))


def test_shard_scaling_microbenchmark(benchmark):
    """Routing is work-counter-neutral; concurrency only moves wall-clock."""
    dataset, label = "aids", "ZZ"
    workload = list(workload_by_label(dataset, label))

    def run():
        rows = []
        for shards in SHARD_COUNTS:
            config = bench_config(shards=shards)
            serial = ShardedGraphCache(get_method(dataset, METHOD), config)
            serial_results = [serial.query(query) for query in workload]

            concurrent = ShardedGraphCache(get_method(dataset, METHOD), config)
            started = time.perf_counter()
            concurrent_results = GraphCacheService(concurrent).query_many(
                workload, jobs=shards
            )
            elapsed = time.perf_counter() - started
            rows.append(
                (shards, serial, serial_results, concurrent, concurrent_results, elapsed)
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = []
    for shards, serial, serial_results, concurrent, concurrent_results, elapsed in rows:
        # Work-counter-neutral routing: the concurrent drive of the shards
        # changes no per-query result and no per-shard counter.
        for mine, theirs in zip(concurrent_results, serial_results, strict=True):
            assert _result_fields(mine) == _result_fields(theirs), shards
        assert [
            _runtime_counters(shard) for shard in concurrent.shards
        ] == [_runtime_counters(shard) for shard in serial.shards], shards
        aggregate = concurrent.runtime_statistics
        assert aggregate.queries_processed == len(workload)
        per_shard = [s.queries_processed for s in concurrent.shard_statistics()]
        assert sum(per_shard) == len(workload)
        table.append(
            {
                "shards": shards,
                "jobs": shards,
                "queries": len(workload),
                "per_shard_queries": "/".join(str(n) for n in per_shard),
                "subiso_alleviated": aggregate.subiso_tests_alleviated,
                "wall_ms (informational)": round(elapsed * 1000.0, 1),
            }
        )
    print()
    print("Shard-scaling microbenchmark (counters exact, wall-clock informational):")
    print(format_table(table))


def test_sharded_scenario_rows(benchmark):
    """Sharded + mmap experiment cells render as ordinary scenario rows."""

    def run():
        return [
            experiment_cell("aids", METHOD, "ZZ"),
            experiment_cell("aids", METHOD, "ZZ", shards=4),
            experiment_cell("aids", METHOD, "ZZ", backend="mmap"),
        ]

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    plain, sharded, mmap_cell = cells
    # The mmap backend is a pure storage swap: counter-identical to memory.
    assert work_counters(mmap_cell) == work_counters(plain)
    # The sharded cell answers every query identically (correctness is
    # cache-structure independent); its counters differ because each shard
    # prunes with its own cache contents.
    for mine, theirs in zip(sharded.cached_results, plain.cached_results, strict=True):
        assert mine.answer_ids == theirs.answer_ids
    rows = [cell.summary_row() for cell in cells]
    print()
    print("Scenario rows (config label carries -sN / -mmap):")
    print(format_table(rows))
    labels = [row["config"] for row in rows]
    assert labels == ["c30-b10", "c30-b10-s4", "c30-b10-mmap"]
