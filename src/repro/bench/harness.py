"""Experiment harness: run a workload with and without GraphCache and compare.

Every figure of the paper's evaluation boils down to the same experiment
shape: take a dataset, a Method M, a workload and a GraphCache configuration;
run the workload against the plain method (baseline) and against GraphCache
over the method; discard the warm-up window; report the average query time
and sub-iso test count of both runs and their ratio (the speedup).

:func:`run_experiment` performs exactly that and returns an
:class:`ExperimentResult`; the scripts in ``benchmarks/`` assemble those
results into the rows/series of each figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..core.cache import CacheQueryResult, GraphCache
from ..core.config import GraphCacheConfig
from ..core.pipeline import STAGE_NAMES
from ..core.service import GraphCacheService
from ..core.sharding import ShardedGraphCache, build_cache
from ..exceptions import BenchmarkError
from ..methods.base import Method
from ..methods.executor import QueryExecution, execute_query
from ..workloads.base import Workload
from .metrics import (
    SpeedupReport,
    aggregate_baseline,
    aggregate_cached,
    aggregate_stage_times,
    speedup,
)

__all__ = ["ExperimentResult", "run_baseline", "run_cached", "run_experiment"]


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one experiment cell (one bar in one of the paper's figures)."""

    name: str
    dataset_name: str
    method_name: str
    workload_name: str
    config_label: str
    speedups: SpeedupReport
    cache: Union[GraphCache, ShardedGraphCache]
    baseline_executions: Sequence[QueryExecution] = field(repr=False, default=())
    cached_results: Sequence[CacheQueryResult] = field(repr=False, default=())

    @property
    def time_speedup(self) -> float:
        """Query-time speedup of GraphCache over the plain method.

        Guarded against zero denominators on tiny/degenerate workloads:
        :func:`~repro.bench.metrics.speedup` computes every ratio through
        :func:`~repro.bench.metrics.finite_ratio`, so the value is always
        finite and report-safe.
        """
        return self.speedups.time_speedup

    @property
    def subiso_speedup(self) -> float:
        """Sub-iso-test-count speedup of GraphCache over the plain method.

        Guarded against zero denominators; always finite and report-safe.
        """
        return self.speedups.subiso_speedup

    def stage_breakdown(self) -> Dict[str, float]:
        """Average per-query wall-clock seconds spent in each pipeline stage."""
        return aggregate_stage_times(self.cached_results)

    def counter_breakdown(self) -> Dict[str, int]:
        """Deterministic work counters summed over the measured cached run."""
        return {
            "subiso_tests": sum(r.subiso_tests for r in self.cached_results),
            "subiso_alleviated": sum(
                max(0, r.method_candidates - r.subiso_tests)
                for r in self.cached_results
            ),
            "containment_tests": sum(r.containment_tests for r in self.cached_results),
            "containment_memo_hits": sum(
                r.containment_memo_hits for r in self.cached_results
            ),
        }

    def summary_row(self) -> Dict[str, object]:
        """Row dictionary used by the reporting helpers."""
        row: Dict[str, object] = {
            "experiment": self.name,
            "dataset": self.dataset_name,
            "method": self.method_name,
            "workload": self.workload_name,
            "config": self.config_label,
            "time_speedup": round(self.time_speedup, 2),
            "subiso_speedup": round(self.subiso_speedup, 2),
            "baseline_ms": round(self.speedups.baseline.avg_time_s * 1000.0, 3),
            "gc_ms": round(self.speedups.cached.avg_time_s * 1000.0, 3),
            "overhead_ms": round(self.speedups.cached.avg_maintenance_s * 1000.0, 3),
            "hit_rate": round(self.speedups.cached.cache_hit_rate, 3),
        }
        stages = self.stage_breakdown()
        for stage in STAGE_NAMES:
            row[f"{stage}_ms"] = round(stages.get(stage, 0.0) * 1000.0, 3)
        row.update(self.counter_breakdown())
        return row


def run_baseline(
    method: Method,
    workload: Workload,
    warmup_queries: int = 0,
    query_mode: str = "subgraph",
) -> List[QueryExecution]:
    """Run ``workload`` against the plain method; drop the warm-up prefix."""
    if warmup_queries >= len(workload):
        raise BenchmarkError(
            f"warm-up of {warmup_queries} queries consumes the whole workload "
            f"of {len(workload)} queries"
        )
    executions = [
        execute_query(method, query, query_mode=query_mode) for query in workload
    ]
    return executions[warmup_queries:]


def run_cached(
    method: Method,
    workload: Workload,
    config: Optional[GraphCacheConfig] = None,
    warmup_queries: Optional[int] = None,
    jobs: int = 1,
) -> tuple:
    """Run ``workload`` through GraphCache over ``method``.

    Returns ``(cache, measured_results)`` where ``measured_results`` excludes
    the warm-up prefix (by default one window, as in the paper).  The cache
    is built from the configuration: ``config.shards > 1`` yields a
    :class:`~repro.core.sharding.ShardedGraphCache`, and ``config.backend``
    selects the storage backend.  With ``jobs > 1`` the queries go through
    the batched service facade — Mfilter prefetch over a plain cache, full
    per-shard pipelines over a sharded one; answers and work counters are
    byte-identical to the serial run, with admission control on or off.
    """
    config = config or GraphCacheConfig()
    if warmup_queries is None:
        warmup_queries = config.warmup_windows * config.window_size
    if warmup_queries >= len(workload):
        raise BenchmarkError(
            f"warm-up of {warmup_queries} queries consumes the whole workload "
            f"of {len(workload)} queries"
        )
    cache = build_cache(method, config=config)
    if jobs > 1:
        results = GraphCacheService(cache).query_many(list(workload), jobs=jobs)
    else:
        results = [cache.query(query) for query in workload]
    # Quiesce background maintenance before anyone reads reports/journals:
    # a no-op under sync/barrier scheduling.
    cache.drain_maintenance()
    return cache, results[warmup_queries:]


def run_experiment(
    name: str,
    method: Method,
    workload: Workload,
    config: Optional[GraphCacheConfig] = None,
    baseline_executions: Optional[Sequence[QueryExecution]] = None,
    jobs: int = 1,
) -> ExperimentResult:
    """Run one experiment cell: baseline vs GraphCache on the same workload.

    ``baseline_executions`` may be supplied to reuse a baseline run across
    several cells that share the same method and workload (e.g. the five
    replacement policies of Figure 4).  ``jobs`` is forwarded to
    :func:`run_cached` (concurrent Mfilter prefetch; counters unchanged).
    """
    config = config or GraphCacheConfig()
    warmup = config.warmup_windows * config.window_size
    if baseline_executions is None:
        baseline_executions = run_baseline(
            method, workload, warmup_queries=warmup, query_mode=config.query_mode
        )
    cache, cached_results = run_cached(method, workload, config=config, jobs=jobs)

    report = speedup(
        aggregate_baseline(baseline_executions), aggregate_cached(cached_results)
    )
    return ExperimentResult(
        name=name,
        dataset_name=method.dataset.name,
        method_name=method.name,
        workload_name=workload.name,
        config_label=config.label(),
        speedups=report,
        cache=cache,
        baseline_executions=tuple(baseline_executions),
        cached_results=tuple(cached_results),
    )
