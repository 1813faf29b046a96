"""Drive one workload through the program's public API and measure it.

One closed-loop client on one thread: the next request is sent only after the
previous one returned.  A run makes ``PASSES`` *passes* over the same seeded
stream.  Each pass starts from nothing — dataset, Method M index, cache (and
replica) construction, warm-up — then serves the measured requests (with
read-only probes in between where no replica serves reads, and a snapshot at
the midpoint), then restarts the cache from that snapshot plus the journal.
After each pass the distinct queries go through the pass's own Method M
objects uncached: the correctness oracle and the ``speedup_vs_m`` baseline,
interleaved with the cached passes.

Work per stream position is identical in every pass, so what differs between
passes is machine noise.  Every timing is first normalised to reference speed
(``clock.py``); ``report.py`` then takes a request's latency as the minimum
over the passes (the least disturbed observation of identical work) and
one-off timings and ratios as the median over the passes.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from benchmarks.e2e.clock import CalibratedClock
from benchmarks.e2e.trace import TracedMatcher, TracedMethod, Tracer
from benchmarks.e2e.workloads import Stream, build_dataset
from repro.core.cache import CacheQueryResult
from repro.core.config import GraphCacheConfig
from repro.core.persistence import recover_cache, save_cache
from repro.core.policies import PlanJournal
from repro.core.replication import ReplicaSet, cache_state_digest
from repro.core.sharding import build_cache
from repro.ftv.ggsx import GraphGrepSX
from repro.graphs.graph import Graph
from repro.methods.executor import execute_query

__all__ = ["PASSES", "PassRecord", "Run", "run_workload"]

#: Cached passes per untraced run (a traced run makes one untraced and one
#: traced pass: per-layer metrics carry no regression bound).
PASSES = 3

#: Follower lag is sampled this often (requests) during a traced replica pass.
_LAG_SAMPLE_EVERY = 200

#: Restarts per pass; the pass reports the quickest (they do identical work,
#: mostly file reads, which the reference-speed correction does not cover).
_RESTARTS = 3

#: Requests between two bursts of read-only probes (see :func:`_schedule`).
_PROBE_BLOCK = 10

Answer = FrozenSet[int]


@dataclass
class PassRecord:
    """Raw observations of one pass; timings are reference-speed seconds."""

    setup_s: float
    #: Per measured request: normalised latency and what the call returned
    #: (``CacheQueryResult``, answer set, or the exception it raised).
    latency_s: List[float]
    results: List[object]
    #: The interleaved read-only probes (none with a replica), in send order.
    probe_latency_s: List[float]
    probe_results: List[object]
    probe_queries: List[Graph]
    recover_s: float
    digest_ok: bool
    #: Primary-side program counters over the measured requests; they repeat
    #: exactly for one seed on a single client.
    counters: Dict[str, int]
    #: One-off layer observations (seconds, bytes, counts) for the trace report.
    layers: Dict[str, float]
    #: Seconds each maintenance round of the measured requests took (the
    #: program's own ``MaintenanceReport.elapsed_s``).
    rounds_s: List[float]
    tracer: Optional[Tracer] = None
    #: Raw wall seconds of the measured requests (for the info lines).
    raw_wall_s: float = 0.0
    #: The pass's own Method M instance, and what each distinct query took
    #: through it uncached (filled in after the pass).
    method: Optional[GraphGrepSX] = None
    method_s: Dict[Graph, float] = field(default_factory=dict)


@dataclass
class Run:
    """Everything one invocation measured."""

    stream: Stream
    clock: CalibratedClock
    passes: List[PassRecord]
    #: ``(pass, "request"|"probe", position)`` of every wrong or raised answer.
    failures: List[Tuple[int, str, int]]
    rss_peak_mb: float


#: One schedule entry: the bound method to call, its argument, and the stream
#: position it serves (``None`` for an interleaved read-only probe).
Entry = Tuple[Callable[[Graph], object], Graph, Optional[int]]

#: What one call took: raw start and end, and what it returned or raised.
Timing = Tuple[float, float, object]


def _drive(
    schedule: Sequence[Entry], clock: CalibratedClock, tracer: Optional[Tracer]
) -> List[Timing]:
    """Send the scheduled requests one after the other; time each call."""
    timings: List[Timing] = []
    for call, query, position in schedule:
        traced = tracer is not None and position is not None
        if traced:
            tracer.begin_request(position, call.__qualname__)
        started = time.perf_counter()
        try:
            result = call(query)
        except Exception as exc:  # counted as a failed request by the checker
            result = exc
        ended = time.perf_counter()
        if traced:
            tracer.end_request(started, ended, result)
        timings.append((started, ended, result))
        clock.tick(ended)
    return timings


def _schedule(stream: Stream, primary, replicas, low: int, high: int) -> List[Entry]:
    """Stream positions ``low..high-1`` as calls, plus the read-only probes.

    A workload with a replica has its reads in the stream.  The others are
    pure ``query()`` streams, so to observe lookup latency on them the client
    follows every ``_PROBE_BLOCK`` requests with as many ``GraphCache.lookup``
    calls for the requests half a stream away.  A lookup changes no cache
    state, so answers and counters of the stream are what they would be
    without; probes are timed as ``lookup_*`` only and never traced.
    """
    count = len(stream.measured)
    entries: List[Entry] = []
    for position in range(low, high):
        call = replicas.lookup if stream.reads[position] else primary.query
        entries.append((call, stream.measured[position], position))
        if replicas is None and (position + 1) % _PROBE_BLOCK == 0:
            for probed in range(position + 1 - _PROBE_BLOCK, position + 1):
                query = stream.measured[(probed + count // 2) % count]
                entries.append((primary.lookup, query, None))
    return entries


def _primary_counters(primary) -> Dict[str, int]:
    runtime = primary.runtime_statistics
    reports = primary.window_manager.reports
    cache_ops, window_ops = (b.op_counts for b in primary.storage_backends())
    return {
        "core.cache.subiso_tests": runtime.subiso_tests,
        "core.cache.cache_hits": runtime.cache_hits,
        "core.cache.exact_hits": runtime.exact_hits,
        "core.cache.empty_shortcuts": runtime.empty_shortcuts,
        "core.cache.tests_alleviated": runtime.subiso_tests_alleviated,
        "core.processors.containment_tests": runtime.containment_tests,
        "core.processors.memo_hits": runtime.containment_memo_hits,
        "core.policies.rounds": len(reports),
        "core.policies.admitted": sum(len(r.admitted_serials) for r in reports),
        "core.policies.evicted": sum(len(r.evicted_serials) for r in reports),
        "core.policies.rejected": sum(len(r.rejected_serials) for r in reports),
        "core.policies.index_ops": sum(r.index_ops for r in reports),
        "core.policies.backend_row_ops": sum(r.backend_row_ops for r in reports),
        "core.policies.journal.frames": primary.plan_journal.last_round,
        "core.backends.rows_inserted": cache_ops.rows_inserted + window_ops.rows_inserted,
        "core.backends.rows_deleted": cache_ops.rows_deleted + window_ops.rows_deleted,
    }


def _run_pass(
    stream: Stream, clock: CalibratedClock, workdir: Path, tracer: Optional[Tracer]
) -> PassRecord:
    spec = stream.spec
    workdir.mkdir()
    journal_path = workdir / "journal.jsonl"
    snapshot_path = workdir / "snapshot.json"
    config = GraphCacheConfig(
        **spec.config,
        # Every workload journals to a file (fsync off) so that every workload
        # can be restarted from snapshot + journal.
        journal_path=str(journal_path),
        backend_path=str(workdir / "store") if spec.config.get("backend") else None,
    )
    layers: Dict[str, float] = {}

    # ---- set-up: dataset, Method M index, cache (+ replica), warm-up ------ #
    dataset, dataset_s = clock.timed(build_dataset, spec.dataset)
    ggsx, index_s = clock.timed(GraphGrepSX, dataset)
    layers["ftv.index_build_s"] = index_s
    layers["ftv.index_bytes"] = ggsx.index_size_bytes()
    method, matcher = ggsx, None
    if tracer is not None:
        method = TracedMethod(ggsx, tracer)
        matcher = TracedMatcher(ggsx.matcher, tracer)

    def build_and_warm():
        primary = build_cache(method, config, matcher=matcher)
        replicas = (
            ReplicaSet(primary, replicas=1, mode="thread", matcher=matcher)
            if spec.read_share
            else None
        )
        _drive([(primary.query, query, None) for query in stream.warmup], clock, None)
        if replicas is not None:
            replicas.sync()
        return primary, replicas

    (primary, replicas), warm_s = clock.timed(build_and_warm)
    try:
        # ---- measured requests, with a snapshot at the midpoint ----------- #
        count = len(stream.measured)
        sample_lag = tracer is not None and replicas is not None
        cuts = {count // 2, count}
        if sample_lag:
            cuts.update(range(_LAG_SAMPLE_EVERY, count, _LAG_SAMPLE_EVERY))
        before = _primary_counters(primary)
        journal_bytes_before = journal_path.stat().st_size
        schedule: List[Entry] = []
        timings: List[Timing] = []
        lag: List[int] = []
        gc.collect()
        low = 0
        for high in sorted(cuts):
            part = _schedule(stream, primary, replicas, low, high)
            schedule += part
            timings += _drive(part, clock, tracer)
            if high == count // 2:
                _, layers["core.persistence.snapshot_s"] = clock.timed(
                    save_cache, primary, snapshot_path
                )
            if sample_lag:
                lag.append(replicas.replication_statistics()[0]["rounds_behind"])
            low = high
        after = _primary_counters(primary)
        counters = {name: after[name] - before[name] for name in after}

        # ---- layer observations that need the live cache ------------------ #
        if replicas is not None:
            _, layers["core.replication.sync_s"] = clock.timed(replicas.sync)
            shipped = replicas.replication_statistics()[0]
            layers["core.replication.rounds_shipped"] = shipped["rounds_shipped"]
            layers["core.replication.bytes_shipped"] = shipped["bytes_shipped"]
            layers["core.replication.apply_s"] = shipped["apply_time_s"]
            layers["core.replication.rounds_behind_max"] = max(lag, default=0)
            counters["core.replication.rounds_shipped"] = shipped["rounds_shipped"]
        layers["core.stores.cache_bytes"] = primary.cache_size_bytes()
        _, layers["core.backends.seal_s"] = clock.timed(primary.seal_delta_storage)
        layers["core.backends.segment_bytes"] = sum(
            path.stat().st_size for path in workdir.glob("store.*.arena*")
        )
        layers["core.backends.compactions"] = len(primary.compaction_events)
        layers["core.policies.journal.bytes"] = (
            journal_path.stat().st_size - journal_bytes_before
        )
        rounds_s = [
            report.elapsed_s
            for report in primary.window_manager.reports[before["core.policies.rounds"] :]
        ]
        live_digest = cache_state_digest(
            primary, include_index_version=False, replicated_only=True
        )
    finally:
        if replicas is not None:
            replicas.close()
        primary.close()

    # ---- restart: midpoint snapshot + journal tail ------------------------ #
    _, layers["core.policies.journal.read_s"] = clock.timed(
        PlanJournal.read_records, journal_path
    )
    layers["core.persistence.snapshot_bytes"] = snapshot_path.stat().st_size
    recover_s = float("inf")
    digest_ok = True
    for _ in range(_RESTARTS):
        recovered, seconds = clock.timed(recover_cache, snapshot_path, method, journal_path)
        try:
            recover_s = min(recover_s, seconds)
            digest_ok &= live_digest == cache_state_digest(
                recovered, include_index_version=False, replicated_only=True
            )
            layers["core.persistence.replayed_rounds"] = (
                recovered.runtime_statistics.replay_rounds
            )
        finally:
            recovered.close()

    rows = list(zip(schedule, timings, strict=True))
    requests = [timing for (_, _, position), timing in rows if position is not None]
    probes = [(query, timing) for (_, query, position), timing in rows if position is None]
    return PassRecord(
        setup_s=dataset_s + index_s + warm_s,
        latency_s=[clock.normalised(started, ended) for started, ended, _ in requests],
        results=[result for _, _, result in requests],
        probe_latency_s=[clock.normalised(started, ended) for _, (started, ended, _) in probes],
        probe_results=[result for _, (_, _, result) in probes],
        probe_queries=[query for query, _ in probes],
        recover_s=recover_s,
        digest_ok=digest_ok,
        counters=counters,
        layers=layers,
        rounds_s=rounds_s,
        tracer=tracer,
        raw_wall_s=sum(ended - started for started, ended, _ in requests),
        method=ggsx,
    )


def _method_pass(
    method, stream: Stream, clock: CalibratedClock
) -> Tuple[Dict[Graph, Answer], Dict[Graph, float]]:
    """The distinct queries through uncached Method M: answers and typical times.

    Each distinct query once, then the first eighth of the stream again: a
    query the stream leans on is timed as often as it weighs.
    """
    queries = stream.distinct + stream.measured[: len(stream.measured) // 8]

    def uncached(query: Graph):
        return execute_query(method, query)

    timings = _drive([(uncached, query, None) for query in queries], clock, None)
    answers: Dict[Graph, Answer] = {}
    samples: Dict[Graph, List[float]] = {}
    for query, (started, ended, result) in zip(queries, timings, strict=True):
        if isinstance(result, Exception):
            raise result
        if answers.setdefault(query, result.answer_ids) != result.answer_ids:
            raise RuntimeError("uncached Method M gave two different answers")
        samples.setdefault(query, []).append(clock.normalised(started, ended))
    return answers, {query: statistics.median(values) for query, values in samples.items()}


def _answer(result: object) -> Optional[Answer]:
    if isinstance(result, CacheQueryResult):
        return result.answer_ids
    return None if isinstance(result, Exception) else result


def run_workload(stream: Stream, workdir: Path, trace: bool) -> Run:
    """Measure ``stream``: ``PASSES`` untraced passes, or one untraced + one traced.

    After each untraced pass the distinct queries go through that pass's own
    Method M instance, uncached: same dataset and index objects, same stretch
    of time, so the cached/uncached ratio is taken within a pass.
    """
    clock = CalibratedClock()
    tracers: List[Optional[Tracer]] = [None, Tracer()] if trace else [None] * PASSES
    passes: List[PassRecord] = []
    oracle: Dict[Graph, Answer] = {}
    for number, tracer in enumerate(tracers):
        record = _run_pass(stream, clock, workdir / f"pass{number}", tracer)
        passes.append(record)
        if tracer is None:
            answers, record.method_s = _method_pass(record.method, stream, clock)
            if oracle and answers != oracle:
                raise RuntimeError("uncached Method M gave two different answers")
            oracle = answers

    failures: List[Tuple[int, str, int]] = []
    for number, record in enumerate(passes):
        for kind, queries, results in (
            ("request", stream.measured, record.results),
            ("probe", record.probe_queries, record.probe_results),
        ):
            for position, (query, result) in enumerate(zip(queries, results, strict=True)):
                if _answer(result) != oracle[query]:
                    failures.append((number, kind, position))
    return Run(
        stream=stream,
        clock=clock,
        passes=passes,
        failures=failures,
        rss_peak_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
