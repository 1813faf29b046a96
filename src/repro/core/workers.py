"""Multi-process serving over a sealed graph arena.

:class:`ProcessPoolCacheService` is the process-level analogue of
:class:`~repro.core.sharding.ShardedGraphCache`: the cache is split into
crc32-routed shards, but the shards are served by ``N`` forked worker
processes instead of threads, so full GC pipelines run without sharing a
GIL.  The storage substrate is the mmap backend — the parent (optionally)
warms the cache in-process, seals every shard's arena segments, and only
then forks; each worker attaches the read-only segments and adopts the warm
contents through the ordinary backend warm-start path, sharing the sealed
pages with every sibling.

Protocol invariants:

* **No pickled graphs.**  Queries cross the process boundary as packed CSR
  records (:meth:`~repro.graphs.graph.Graph.packed_bytes`); routing
  happens parent-side from the query's interned label-path features (the
  same :func:`~repro.core.sharding.stable_feature_hash` a sharded cache
  uses), so a worker only ever receives queries for shards it owns.
  Replies are plain :class:`~repro.core.cache.CacheQueryResult` dataclasses
  (no ``Graph`` fields).
* **Deterministic counters.**  Worker ``w`` owns shards ``{k : k % N == w}``
  and serves each shard's sub-stream in submission order, so the aggregate
  work counters are identical to a single-process
  :class:`ShardedGraphCache` with the same shard count on the same
  workload — the counter-identity oracle the benchmarks pin.
* **Fork after seal.**  Workers are forked only after the parent's warm
  cache (if any) has been sealed and closed, so no locks or threads are
  alive at fork time and the children inherit nothing but the module state
  and the sealed files.
* **Zero-decode serving.**  A worker's query loop never constructs a
  ``Graph``: the packed bytes open as a CSR-native
  :class:`~repro.graphs.packed.PackedGraphView`, stored entries come back
  as memoised views over the attached arena, and the target dataset is a
  :class:`~repro.core.packed_dataset.PackedGraphDataset` over one shared
  segment sealed before the fork (instead of a per-process ``Graph`` copy).
  Every such query bumps the ``decode_avoided`` counter, so the identity
  suites can pin "zero ``Graph`` constructions" as
  ``decode_avoided == requests served``.  Long-lived pools absorb new
  admissions with :meth:`ProcessPoolCacheService.reseal` — each worker
  publishes its arena tails as delta segments (no stop-the-world rewrite).
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import CacheError
from ..graphs.graph import Graph
from ..graphs.packed import PackedGraph, PackedGraphView
from ..isomorphism.base import SubgraphMatcher
from ..methods.base import Method
from .cache import CacheQueryResult, CacheRuntimeStatistics, GraphCache
from .config import GraphCacheConfig
from .packed_dataset import PackedGraphDataset, seal_dataset
from .query_index import QueryGraphIndex
from .sharding import ShardedGraphCache, stable_feature_hash

__all__ = ["ProcessPoolCacheService", "fork_context"]


def fork_context() -> multiprocessing.context.BaseContext:
    """The ``fork`` multiprocessing context, or a :class:`CacheError`.

    Fork-after-seal is the only start method the process-level services
    support (workers inherit the Method and sealed arena paths through the
    copy-on-write image, never through pickling).  Centralised here so the
    worker pool and the replication fan-out raise the same guidance on
    platforms without ``fork``.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        raise CacheError(
            "this service requires the fork start method (POSIX); "
            "use the thread-based equivalent on this platform"
        )
    return multiprocessing.get_context("fork")


def _shard_config(config: GraphCacheConfig, shard: int, shards: int) -> GraphCacheConfig:
    """Per-shard worker configuration (mirrors ShardedGraphCache's derivation)."""
    backend_path = config.backend_path
    journal_path = config.journal_path
    if shards > 1:
        backend_path = ShardedGraphCache._shard_path(backend_path, shard)
        journal_path = ShardedGraphCache._shard_path(journal_path, shard)
    return replace(
        config, shards=1, backend_path=backend_path, journal_path=journal_path
    )


def _cache_arena_statistics(cache: GraphCache) -> Dict[str, object]:
    """Aggregate arena occupancy over a cache's storage backends."""
    tables = []
    for backend in cache.storage_backends():
        arena_statistics = getattr(backend, "arena_statistics", None)
        if arena_statistics is not None:
            tables.append(arena_statistics())
    return {
        "live_bytes": sum(t["live_bytes"] for t in tables),
        "dead_bytes": sum(t["dead_bytes"] for t in tables),
        "delta_segments": sum(t["delta_segments"] for t in tables),
        "tables": tables,
        "compaction_events": cache.compaction_events,
    }


def _worker_loop(
    conn, owned, method, config, shards, matcher, dataset_path, ftv_index_path
) -> None:
    """Serve full pipelines for the owned shards until told to close.

    Runs in the forked child.  ``method`` and ``config`` arrive through the
    fork's copy-on-write image, never through pickling; the caches built
    here attach the sealed arena segments read-only and warm-start from
    them.  The loop is zero-decode: the method is rebound to the shared
    packed dataset arena (which puts every cache here in view mode), queries
    open as :class:`PackedGraphView` records and stored entries are served
    as memoised views.

    When the parent sealed a ``*.ftv.arena`` feature index, the worker
    attaches it instead of serving from the copy-on-write image of the
    parent's built index — the postings become shared read-only pages.  A
    stale or mismatched index (dataset resealed after the build, different
    method parameters) fails the attach validation with a warning and the
    worker rebuilds in-process; over the attached packed dataset the rebuild
    is still CSR-native and decode-free.
    """
    method.rebind_dataset(
        PackedGraphDataset.attach(dataset_path, name=method.dataset.name)
    )
    if ftv_index_path is not None and os.path.exists(ftv_index_path):
        if not method.attach_feature_index(ftv_index_path):
            method.rebuild_index()
    caches: Dict[int, GraphCache] = {
        shard: GraphCache(method, _shard_config(config, shard, shards), matcher=matcher)
        for shard in owned
    }
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            kind = message[0]
            if kind == "query":
                replies: List[Tuple[int, CacheQueryResult]] = []
                for position, shard, payload in message[1]:
                    query = PackedGraphView(PackedGraph.from_bytes(payload))
                    replies.append((position, caches[shard].query(query)))
                conn.send(("result", replies))
            elif kind == "stats":
                conn.send(
                    (
                        "stats",
                        {
                            shard: cache.runtime_statistics.as_dict()
                            for shard, cache in caches.items()
                        },
                    )
                )
            elif kind == "reseal":
                published: Dict[int, int] = {}
                for shard, cache in caches.items():
                    published[shard] = cache.seal_delta_storage()
                    # Any compaction the delta publish triggered must finish
                    # before the reply: the reseal tick is the pool's control
                    # plane, so folds drain here, never on the query path.
                    cache.drain_maintenance()
                conn.send(("resealed", published))
            elif kind == "arena_stats":
                conn.send(
                    (
                        "arena_stats",
                        {
                            shard: _cache_arena_statistics(cache)
                            for shard, cache in caches.items()
                        },
                    )
                )
            elif kind == "close":
                conn.send(("closed", None))
                break
            else:  # pragma: no cover - protocol misuse guard
                raise CacheError(f"unknown worker message {kind!r}")
    finally:
        for cache in caches.values():
            cache.close()
        conn.close()


class ProcessPoolCacheService:
    """N forked workers serving crc32-routed shards over a sealed arena.

    Parameters
    ----------
    method:
        The Method M every worker serves (inherited through the fork).
    config:
        Cache configuration.  The backend is forced to ``"mmap"``; when no
        ``backend_path`` is given the service owns a temporary directory for
        the segments.  ``config.shards`` sets the shard count when > 1,
        otherwise the service uses one shard per worker.
    workers:
        Number of worker processes to fork (each owns ``shards / workers``
        of the shards, round-robin).
    matcher:
        Optional containment-matcher override, forwarded to every shard.

    Lifecycle: optionally :meth:`warm` with a query stream (runs a sharded
    cache in-process over the same segment paths), then :meth:`start` —
    which seals the warm state and forks — then :meth:`query` /
    :meth:`run`; finally :meth:`close`.  ``start`` is implicit on first use.
    """

    def __init__(
        self,
        method: Method,
        config: Optional[GraphCacheConfig] = None,
        workers: int = 2,
        matcher: Optional[SubgraphMatcher] = None,
    ) -> None:
        if workers < 1:
            raise CacheError("ProcessPoolCacheService needs at least one worker")
        fork_context()  # fail fast on platforms without fork
        base = config or GraphCacheConfig()
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        backend_path = base.backend_path
        if backend_path is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="graphcache-arena-")
            backend_path = os.path.join(self._tmpdir.name, "cache")
        shard_count = base.shards if base.shards > 1 else workers
        if workers > shard_count:
            raise CacheError(
                f"{workers} workers cannot share {shard_count} shards; "
                "raise config.shards or lower workers"
            )
        self._config = replace(
            base, backend="mmap", backend_path=backend_path, shards=shard_count
        )
        self._dataset_path = f"{backend_path}.dataset.arena"
        # One sealed feature index shared by the pool, when the method can
        # compile one (FTV methods).  Sealed in start(), attached by every
        # worker after the fork.
        self._ftv_index_path: Optional[str] = (
            f"{backend_path}.ftv.arena"
            if hasattr(method, "seal_feature_index")
            else None
        )
        self._method = method
        self._matcher = matcher
        self._workers = workers
        self._router_index = QueryGraphIndex(
            max_path_length=self._config.index_path_length,
            double_buffered=False,
        )
        self._warm_cache: Optional[ShardedGraphCache] = None
        self._processes: List[multiprocessing.process.BaseProcess] = []
        self._pipes: List = []
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def config(self) -> GraphCacheConfig:
        """Effective configuration (mmap backend, resolved shard count)."""
        return self._config

    @property
    def shard_count(self) -> int:
        """Number of crc32-routed shards across the pool."""
        return self._config.shards

    @property
    def started(self) -> bool:
        """Whether the workers have been forked."""
        return bool(self._processes)

    def shard_of(self, query: Graph) -> int:
        """Deterministic shard id for ``query`` (structural feature hash)."""
        if self._config.shards == 1:
            return 0
        features = self._router_index.query_features(query).counts
        return stable_feature_hash(features) % self._config.shards

    # ------------------------------------------------------------------ #
    def warm(self, queries: Iterable[Graph]) -> List[CacheQueryResult]:
        """Run ``queries`` through an in-process cache before forking.

        The warm cache writes to the same per-shard arena paths the workers
        will attach; :meth:`start` seals it.  Only valid before ``start``.
        """
        if self.started:
            raise CacheError("cannot warm a service whose workers are running")
        if self._warm_cache is None:
            self._warm_cache = ShardedGraphCache(
                self._method, self._config, matcher=self._matcher
            )
        return [self._warm_cache.query(query) for query in queries]

    def start(self) -> None:
        """Seal the warm state (if any) and fork the worker processes."""
        if self.started:
            return
        if self._closed:
            raise CacheError("service is closed")
        if self._warm_cache is not None:
            # Seal-then-close before forking: the workers attach the sealed
            # segments, and no warm-cache thread or lock survives the fork.
            self._warm_cache.seal_storage()
            self._warm_cache.close()
            self._warm_cache = None
        if not os.path.exists(self._dataset_path):
            # One shared packed copy of the target dataset: sealed here, once,
            # then attached read-only by every worker after the fork.
            seal_dataset(self._method.dataset, self._dataset_path)
        if self._ftv_index_path is not None and not os.path.exists(self._ftv_index_path):
            # Compile the parent's built feature index into one sealed
            # segment; workers attach it instead of rederiving (or carrying
            # a copy-on-write image of) the Python index structures.
            try:
                self._method.seal_feature_index(self._ftv_index_path)
            except CacheError:
                # Methods without a sealable index (attached-only instances,
                # FTV subclasses without seal support) serve from their
                # in-process index as before.
                self._ftv_index_path = None
        context = fork_context()
        for worker in range(self._workers):
            owned = tuple(
                shard
                for shard in range(self._config.shards)
                if shard % self._workers == worker
            )
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_loop,
                args=(
                    child_conn,
                    owned,
                    self._method,
                    self._config,
                    self._config.shards,
                    self._matcher,
                    self._dataset_path,
                    self._ftv_index_path,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            self._pipes.append(parent_conn)

    # ------------------------------------------------------------------ #
    def run(self, queries: Sequence[Graph]) -> List[CacheQueryResult]:
        """Serve a batch: route, ship packed bytes, collect in input order.

        Each worker receives its sub-stream in submission order (the
        determinism invariant); the workers execute concurrently and the
        replies are reassembled by position.
        """
        self.start()
        batches: List[List[Tuple[int, int, bytes]]] = [
            [] for _ in range(self._workers)
        ]
        for position, query in enumerate(queries):
            shard = self.shard_of(query)
            payload = query.packed_bytes()
            batches[shard % self._workers].append((position, shard, payload))
        active = []
        for worker, batch in enumerate(batches):
            if batch:
                self._pipes[worker].send(("query", batch))
                active.append(worker)
        results: List[Optional[CacheQueryResult]] = [None] * len(queries)
        for worker in active:
            kind, replies = self._pipes[worker].recv()
            if kind != "result":  # pragma: no cover - protocol misuse guard
                raise CacheError(f"unexpected worker reply {kind!r}")
            for position, result in replies:
                results[position] = result
        return results  # type: ignore[return-value]

    def query(self, query: Graph) -> CacheQueryResult:
        """Serve one query through its owning worker."""
        return self.run([query])[0]

    # ------------------------------------------------------------------ #
    def runtime_statistics(self) -> CacheRuntimeStatistics:
        """Pool-wide aggregate of every shard's runtime counters."""
        total = CacheRuntimeStatistics()
        for per_shard in self.shard_statistics().values():
            for spec in fields(CacheRuntimeStatistics):
                setattr(
                    total,
                    spec.name,
                    getattr(total, spec.name) + getattr(per_shard, spec.name),
                )
        return total

    def shard_statistics(self) -> Dict[int, CacheRuntimeStatistics]:
        """Per-shard runtime counters, collected from the owning workers."""
        self.start()
        collected: Dict[int, CacheRuntimeStatistics] = {}
        for pipe in self._pipes:
            pipe.send(("stats",))
        for pipe in self._pipes:
            kind, per_shard = pipe.recv()
            if kind != "stats":  # pragma: no cover - protocol misuse guard
                raise CacheError(f"unexpected worker reply {kind!r}")
            for shard, payload in per_shard.items():
                collected[shard] = CacheRuntimeStatistics(**payload)
        return collected

    def reseal(self) -> Dict[int, int]:
        """Publish every shard's arena tail as delta segments.

        Broadcasts the ``reseal`` message: each worker calls
        :meth:`~repro.core.backends.mmapped.MmapBackend.seal_delta` on its
        shards' backends, appending one ``.deltaN`` file per dirty arena
        without moving any sealed record (live views stay valid; no
        stop-the-world rewrite).  Returns ``{shard: records published}``.
        """
        self.start()
        published: Dict[int, int] = {}
        for pipe in self._pipes:
            pipe.send(("reseal",))
        for pipe in self._pipes:
            kind, per_shard = pipe.recv()
            if kind != "resealed":  # pragma: no cover - protocol misuse guard
                raise CacheError(f"unexpected worker reply {kind!r}")
            published.update(per_shard)
        return published

    def arena_statistics(self) -> Dict[str, object]:
        """Pool-wide arena occupancy (live/dead bytes, delta segments).

        Aggregates every shard's per-backend
        :meth:`~repro.core.backends.mmapped.MmapBackend.arena_statistics`
        and keeps the per-shard breakdown under ``"shards"``.
        """
        self.start()
        per_shard: Dict[int, Dict[str, object]] = {}
        for pipe in self._pipes:
            pipe.send(("arena_stats",))
        for pipe in self._pipes:
            kind, reply = pipe.recv()
            if kind != "arena_stats":  # pragma: no cover - protocol misuse guard
                raise CacheError(f"unexpected worker reply {kind!r}")
            per_shard.update(reply)
        return {
            "live_bytes": sum(s["live_bytes"] for s in per_shard.values()),
            "dead_bytes": sum(s["dead_bytes"] for s in per_shard.values()),
            "delta_segments": sum(s["delta_segments"] for s in per_shard.values()),
            "compaction_events": [
                event
                for shard in sorted(per_shard)
                for event in per_shard[shard].get("compaction_events", [])
            ],
            "shards": {shard: per_shard[shard] for shard in sorted(per_shard)},
        }

    @property
    def feature_index_path(self) -> Optional[str]:
        """Path of the pool's sealed ``*.ftv.arena`` feature index, if any."""
        return self._ftv_index_path

    def arena_paths(self) -> List[Path]:
        """Sealed segment files of every shard (cache + window stores)."""
        paths = []
        for shard in range(self._config.shards):
            base = _shard_config(self._config, shard, self._config.shards)
            for table in ("cache_entries", "window_entries"):
                candidate = Path(f"{base.backend_path}.{table}.arena")
                if candidate.exists():
                    paths.append(candidate)
        return paths

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the workers, close the pipes, drop any owned temp storage."""
        if self._closed:
            return
        self._closed = True
        if self._warm_cache is not None:
            self._warm_cache.close()
            self._warm_cache = None
        for pipe in self._pipes:
            try:
                pipe.send(("close",))
            except (BrokenPipeError, OSError):
                continue
        for pipe in self._pipes:
            try:
                pipe.recv()
            except (EOFError, OSError):
                pass
            pipe.close()
        for process in self._processes:
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - hung worker guard
                process.terminate()
                process.join(timeout=5)
        self._processes = []
        self._pipes = []
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "ProcessPoolCacheService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
