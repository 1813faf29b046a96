"""Turn a measured :class:`~benchmarks.e2e.engine.Run` into named metrics.

Every metric is ``name -> (value, unit)``.  Timings are reference-speed
seconds/milliseconds (``clock.py``).  The names are the yardstick later
changes are judged by: do not rename or redefine them in a change that also
claims a gain.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from benchmarks.e2e.engine import PassRecord, Run
from benchmarks.e2e.trace import END, NAME, PARENT, START, self_times
from repro.core.cache import CacheQueryResult

__all__ = ["attempted", "end_to_end_metrics", "info_metrics", "layer_metrics"]

Metrics = Dict[str, Tuple[float, str]]


def _percentile(ordered: List[float], share: float) -> float:
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _best(series: List[List[float]]) -> List[float]:
    """Per stream position, the least disturbed of the passes' observations."""
    return [min(values) for values in zip(*series, strict=True)]


def _split_latencies(run: Run) -> Tuple[List[float], List[float], List[float]]:
    """``(all, query, lookup)`` latencies, the last two sorted."""
    reads = run.stream.reads
    latency = _best([p.latency_s for p in run.passes])
    queries = sorted(v for v, read in zip(latency, reads, strict=True) if not read)
    lookups = sorted(v for v, read in zip(latency, reads, strict=True) if read)
    if not lookups:
        lookups = sorted(_best([p.probe_latency_s for p in run.passes]))
    return latency, queries, lookups


def end_to_end_metrics(run: Run) -> Metrics:
    """The bounded metrics of an untraced run (``BENCHMARK.json: end_to_end``)."""
    latency, queries, lookups = _split_latencies(run)
    # Cached against uncached within each pass (same Method M objects, same
    # stretch of time), then the median of the passes.
    speedups = [
        sum(p.method_s[query] for query in run.stream.measured) / sum(p.latency_s)
        for p in run.passes
    ]
    return {
        "setup_s": (statistics.median(p.setup_s for p in run.passes), "s"),
        "throughput_qps": (len(latency) / sum(latency), "1/s"),
        "query_p50_ms": (1e3 * _percentile(queries, 0.50), "ms"),
        "query_p95_ms": (1e3 * _percentile(queries, 0.95), "ms"),
        "lookup_p50_ms": (1e3 * _percentile(lookups, 0.50), "ms"),
        "lookup_p95_ms": (1e3 * _percentile(lookups, 0.95), "ms"),
        "speedup_vs_m": (statistics.median(speedups), "ratio"),
        "recover_s": (statistics.median(p.recover_s for p in run.passes), "s"),
        "rss_peak_mb": (run.rss_peak_mb, "MB"),
    }


def attempted(run: Run) -> int:
    """Requests sent and checked: measured requests and probes of every pass."""
    return sum(len(p.results) + len(p.probe_results) for p in run.passes)


def info_metrics(run: Run) -> Metrics:
    """Printed for the reader, not bounded.

    ``query_p99_ms`` does not repeat within a tenth; the raw wall-clock figures
    show what the reference-speed correction did; the rest describes the stream.
    """
    _, queries, _ = _split_latencies(run)
    first = run.passes[0]
    served = [r for r in first.results if isinstance(r, CacheQueryResult)]
    requests = len(first.results)
    return {
        "query_p99_ms": (1e3 * _percentile(queries, 0.99), "ms"),
        "failed_frac": (len(run.failures) / attempted(run), "ratio"),
        "raw_throughput_qps": (
            statistics.median(requests / p.raw_wall_s for p in run.passes),
            "1/s",
        ),
        "machine_speed": (
            statistics.median(run.clock.kernel_samples()) * 1e3,
            "ms/kernel",
        ),
        "hit_rate": (sum(r.cache_hit for r in served) / len(served), "ratio"),
        "exact_rate": (sum(r.shortcut == "exact" for r in served) / len(served), "ratio"),
        "distinct_share": (run.stream.distinct_share, "ratio"),
    }


def layer_metrics(run: Run) -> Metrics:
    """The per-layer metrics of a traced run (``BENCHMARK.json: per_layer``).

    ``run.passes`` is ``[untraced, traced]``; layer = module name.
    """
    untraced, traced = run.passes
    clock, tracer = run.clock, traced.tracer
    spans = tracer.spans
    own = self_times(spans)

    # Reference-speed seconds per span name: total, self, and call counts.
    total: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    roots: List[float] = []
    scale = 1.0
    for index, span in enumerate(spans):
        if span[PARENT] < 0:
            scale = clock.factor(span[START], span[END])
            if span[NAME] == "GraphCache.query":
                roots.append(scale * (span[END] - span[START]))
        name = span[NAME]
        total[name] = total.get(name, 0.0) + scale * (span[END] - span[START])
        self_s[name] = self_s.get(name, 0.0) + scale * own[index]
        calls[name] = calls.get(name, 0) + 1

    def seconds(name: str) -> float:
        return total.get(name, 0.0)

    served = [r for r in traced.results if isinstance(r, CacheQueryResult)]
    counters, layers = traced.counters, traced.layers
    verify_calls = calls.get("isomorphism.verify", 0)
    memo_hits = counters["core.processors.memo_hits"]
    confirmations = memo_hits + counters["core.processors.containment_tests"]
    rounds = counters["core.policies.rounds"]
    roots.sort()

    def qps(record: PassRecord) -> float:
        return len(record.latency_s) / sum(record.latency_s)

    metrics: Metrics = {
        "ftv.candidates_s": (seconds("ftv.candidates"), "s"),
        "ftv.candidates_calls": (calls.get("ftv.candidates", 0), "count"),
        "ftv.candidates_per_query": (
            tracer.candidates_returned / max(1, calls.get("ftv.candidates", 0)),
            "count",
        ),
        # Mfilter calls of query() whose result was then not thrown away by an
        # exact/empty shortcut (lookups return no shortcut flag).
        "ftv.useful_call_ratio": (
            sum(r.shortcut is None for r in served) / max(1, len(served)),
            "ratio",
        ),
        "ftv.index_build_s": (layers["ftv.index_build_s"], "s"),
        "ftv.index_bytes": (layers["ftv.index_bytes"], "bytes"),
        "isomorphism.verify_s": (seconds("isomorphism.verify"), "s"),
        "isomorphism.verify_calls": (verify_calls, "count"),
        "isomorphism.nodes_expanded": (tracer.nodes_expanded, "count"),
        "isomorphism.match_ratio": (tracer.verify_matched / max(1, verify_calls), "ratio"),
        "core.processors.process_s": (seconds("core.processors.process"), "s"),
        "core.processors.containment_s": (seconds("core.processors.containment"), "s"),
        "core.processors.containment_tests": (
            counters["core.processors.containment_tests"],
            "count",
        ),
        "core.processors.memo_hit_ratio": (memo_hits / max(1, confirmations), "ratio"),
        "core.processors.sub_hits": (sum(r.sub_hits for r in served), "count"),
        "core.processors.super_hits": (sum(r.super_hits for r in served), "count"),
        "core.processors.self_s": (self_s.get("core.processors.process", 0.0), "s"),
        "core.pruner.prune_s": (seconds("core.pruner.prune"), "s"),
        "core.pruner.candidates_in": (sum(r.method_candidates for r in served), "count"),
        "core.pruner.candidates_out": (sum(r.final_candidates for r in served), "count"),
        "core.pruner.direct_answers": (sum(r.direct_answers for r in served), "count"),
        "core.pruner.exact_shortcuts": (counters["core.cache.exact_hits"], "count"),
        "core.pruner.empty_shortcuts": (counters["core.cache.empty_shortcuts"], "count"),
        "core.pruner.tests_alleviated": (counters["core.cache.tests_alleviated"], "count"),
        "core.pipeline.commit_s": (seconds("core.pipeline.commit"), "s"),
        "core.pipeline.commit_self_s": (self_s.get("core.pipeline.commit", 0.0), "s"),
        "core.pipeline.self_s": (self_s.get("GraphCache.query", 0.0), "s"),
        "core.pipeline.request_p99_ms": (
            1e3 * _percentile(roots, 0.99) if roots else 0.0,
            "ms",
        ),
        "core.policies.rounds": (rounds, "count"),
        "core.policies.round_s": (sum(traced.rounds_s), "s"),
        "core.policies.round_p95_ms": (
            1e3 * _percentile(sorted(traced.rounds_s), 0.95) if traced.rounds_s else 0.0,
            "ms",
        ),
        "core.policies.admitted": (counters["core.policies.admitted"], "count"),
        "core.policies.evicted": (counters["core.policies.evicted"], "count"),
        "core.policies.rejected": (counters["core.policies.rejected"], "count"),
        "core.policies.index_ops": (counters["core.policies.index_ops"], "count"),
        "core.policies.backend_row_ops": (
            counters["core.policies.backend_row_ops"],
            "count",
        ),
        "core.policies.journal.frames": (
            counters["core.policies.journal.frames"],
            "count",
        ),
        "core.policies.journal.bytes": (layers["core.policies.journal.bytes"], "bytes"),
        "core.policies.journal.bytes_per_round": (
            layers["core.policies.journal.bytes"] / max(1, rounds),
            "bytes",
        ),
        "core.policies.journal.read_s": (layers["core.policies.journal.read_s"], "s"),
        "core.backends.rows_inserted": (counters["core.backends.rows_inserted"], "count"),
        "core.backends.rows_deleted": (counters["core.backends.rows_deleted"], "count"),
        "core.backends.segment_bytes": (layers["core.backends.segment_bytes"], "bytes"),
        "core.backends.seal_s": (layers["core.backends.seal_s"], "s"),
        "core.backends.compactions": (layers["core.backends.compactions"], "count"),
        "core.persistence.snapshot_s": (layers["core.persistence.snapshot_s"], "s"),
        "core.persistence.snapshot_bytes": (
            layers["core.persistence.snapshot_bytes"],
            "bytes",
        ),
        "core.persistence.replayed_rounds": (
            layers["core.persistence.replayed_rounds"],
            "count",
        ),
        "core.stores.cache_bytes": (layers["core.stores.cache_bytes"], "bytes"),
        "trace_overhead_frac": (1.0 - qps(traced) / qps(untraced), "ratio"),
    }
    # The replication layer is idle (all zero) without a replica.  A lookup's
    # self time is its span minus Mfilter, verification and containment, i.e.
    # the follower's processors + pruner + dispatch.
    for name, unit in (
        ("rounds_shipped", "count"),
        ("bytes_shipped", "bytes"),
        ("apply_s", "s"),
        ("rounds_behind_max", "rounds"),
        ("sync_s", "s"),
    ):
        metrics[f"core.replication.{name}"] = (
            layers.get(f"core.replication.{name}", 0),
            unit,
        )
    metrics["core.replication.lookup_self_s"] = (self_s.get("ReplicaSet.lookup", 0.0), "s")
    return metrics
