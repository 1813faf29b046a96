#!/usr/bin/env python3
"""Dense protein-contact-map analytics: cache pollution and admission control.

Scenario (§6.2 / Figure 9 of the paper): on dense graph datasets (protein
contact maps), most queries are cheap but a few are brutally expensive.
Without admission control the cache fills with cheap queries ("cache
pollution") and the expensive ones — which dominate total processing time —
see no benefit.  The expensiveness-based admission filter fixes that: it
scores each query by its verification work (search nodes the verifier
expanded) over its filtering work (distinct label paths of the query), and
admits the top quarter of the scores it saw over the first two windows.

The workload mixes queries with and without answers (Type B, 20 % no-answer),
served by Grapes with 6 simulated verification threads, as in the paper.

Run with::

    python examples/protein_analytics.py
"""

from __future__ import annotations

from repro import GraphCache, GraphCacheConfig
from repro.bench import aggregate_baseline, aggregate_cached, speedup
from repro.ftv import Grapes
from repro.graphs.generators import pcm_like
from repro.methods import execute_query
from repro.workloads import QueryPools, TypeBWorkloadGenerator


def run_with(method, workload, admission_control: bool):
    config = GraphCacheConfig(
        cache_capacity=25,
        window_size=10,
        replacement_policy="hd",
        admission_control=admission_control,
    )
    cache = GraphCache(method, config)
    results = [cache.query(query) for query in workload]
    return cache, results


def main() -> None:
    dataset = pcm_like(scale=0.5, seed=13)
    stats = dataset.statistics()
    print(f"dataset: {dataset.name}, {stats.graph_count} graphs, "
          f"avg degree {stats.mean_degree:.1f} (dense)")

    print("building Grapes index (6 simulated verification threads)...")
    method = Grapes(dataset, max_path_length=3, threads=6)

    print("building Type B query pools (20% no-answer queries)...")
    pools = QueryPools(
        dataset, query_sizes=(12, 16, 20), answer_pool_size=40,
        no_answer_pool_size=12, seed=5,
    )
    workload = TypeBWorkloadGenerator(pools, no_answer_probability=0.2, seed=9).generate(
        70, dataset_name=dataset.name
    )

    baseline = [execute_query(method, query) for query in workload]
    baseline_aggregate = aggregate_baseline(baseline)
    print(f"\nplain {method.name}: {baseline_aggregate.avg_time_s * 1000:.2f} ms/query")

    for admission in (False, True):
        label = "C + AC (admission control)" if admission else "C (no admission control)"
        cache, results = run_with(method, workload, admission)
        for execution, result in zip(baseline, results, strict=True):
            assert execution.answer_ids == result.answer_ids
        report = speedup(baseline_aggregate, aggregate_cached(results))
        threshold = cache.window_manager.admission.threshold
        print(f"\n{label}")
        print(f"  query-time speedup : {report.time_speedup:.2f}x")
        print(f"  sub-iso speedup    : {report.subiso_speedup:.2f}x")
        print(f"  exact-match hits   : {cache.runtime_statistics.exact_hits}")
        print(f"  empty shortcuts    : {cache.runtime_statistics.empty_shortcuts}")
        if admission:
            print(f"  calibrated expensiveness threshold: {threshold:.2f} nodes/feature")

    print("\nTakeaway: admission control keeps the expensive queries cached, "
          "raising the time speedup even when the sub-iso-count speedup drops "
          "(paper, Figure 9).")


if __name__ == "__main__":
    main()
