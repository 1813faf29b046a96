"""GraphCacheService: a batched, concurrency-ready facade over GraphCache.

The ROADMAP's north-star scenario is heavy query traffic against one shared
cache.  :class:`GraphCacheService` serves that shape and scales along two
axes, depending on what it wraps:

* **Plain** :class:`~repro.core.cache.GraphCache` — Method-M filtering (the
  cache-state independent ``MfilterStage``) is prefetched for the batch on a
  thread pool, while the GC stages — processors, pruning, verification and
  the serialized commit — still execute in submission order on the calling
  thread.  One GC lock means GC stages never overlap.  This batch-level
  prefetch is the only overlap of Mfilter with other work: within one query
  the pipeline runs its stages in order.
* :class:`~repro.core.sharding.ShardedGraphCache` — the batch is partitioned
  by the deterministic shard router and each shard's sub-batch runs its
  **full pipelines** (processors, prune, verify, commit) on its own worker
  thread: N shards, N GC locks, N concurrent commits.

Because ``Mfilter`` reads only the method's own dataset index, prefetching it
concurrently cannot change what any later stage observes; and because each
shard processes its sub-batch in submission order, sharded execution is
*deterministically equivalent* to a serial loop over ``cache.query``:
byte-identical answer sets and identical deterministic work counters
(``subiso_tests_alleviated``, ``containment_tests``, ...) per shard and in
aggregate, for any workload (property-tested in
``tests/core/test_pipeline_concurrency.py`` and
``tests/core/test_sharding_concurrency.py``).  Wall-clock timings are the
only thing that may differ; admission control scores work, not time, so
this holds with it on too.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..exceptions import CacheError
from ..graphs.graph import Graph
from ..isomorphism.base import SubgraphMatcher
from ..methods.base import Method
from .cache import CacheQueryResult, GraphCache
from .config import GraphCacheConfig
from .policies import MaintenanceReport
from .sharding import ShardedGraphCache, build_cache

__all__ = ["GraphCacheService"]


class GraphCacheService:
    """Batched query service over one (thread-safe) cache, plain or sharded.

    Parameters
    ----------
    cache:
        The cache instance to serve queries through — a :class:`GraphCache`
        or a :class:`~repro.core.sharding.ShardedGraphCache`.  One service
        per cache; several services may also share a cache — the underlying
        stores and the per-(shard-)cache GC locks make that safe.
    """

    def __init__(self, cache: Union[GraphCache, ShardedGraphCache]) -> None:
        self._cache = cache

    @classmethod
    def for_method(
        cls,
        method: Method,
        config: Optional[GraphCacheConfig] = None,
        matcher: Optional[SubgraphMatcher] = None,
    ) -> "GraphCacheService":
        """Build a fresh cache over ``method`` (sharded when the config says
        so) and wrap it in a service."""
        return cls(build_cache(method, config=config, matcher=matcher))

    # ------------------------------------------------------------------ #
    @property
    def cache(self) -> Union[GraphCache, ShardedGraphCache]:
        """The wrapped cache (exposed for inspection and statistics)."""
        return self._cache

    def query(self, query: Graph) -> CacheQueryResult:
        """Answer a single query (plain delegation to the cache)."""
        return self._cache.query(query)

    def query_many(
        self, queries: Iterable[Graph], jobs: int = 1
    ) -> List[CacheQueryResult]:
        """Answer a batch of independent queries, in order.

        With ``jobs > 1`` over a plain cache, Method M's filtering is
        prefetched for the whole batch on a pool of ``jobs`` worker threads,
        overlapping with the GC stages of earlier queries; the GC stages run
        in submission order.  Over a sharded cache, the batch is partitioned
        by the shard router and up to ``jobs`` shards execute their full
        pipelines concurrently, each in submission order.  Either way,
        results and work counters are byte-identical to a serial
        ``cache.query`` loop.
        """
        if jobs < 1:
            raise CacheError(f"jobs must be >= 1, got {jobs}")
        ordered: Sequence[Graph] = list(queries)
        if jobs == 1 or len(ordered) <= 1:
            return [self._cache.query(query) for query in ordered]
        if isinstance(self._cache, ShardedGraphCache):
            # Any shard count, including 1: the sharded path degenerates to a
            # single worker draining one bucket in submission order, which is
            # exactly a serial loop (ShardedGraphCache has no prefilter hook).
            return self._query_many_sharded(self._cache, ordered, jobs)
        return self._query_many_prefiltered(ordered, jobs)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _query_many_sharded(
        cache: ShardedGraphCache, ordered: Sequence[Graph], jobs: int
    ) -> List[CacheQueryResult]:
        """Partition by shard; each shard runs full pipelines on a worker.

        Every query keeps its batch position, so the returned list is in
        submission order even though shards complete independently.  Within a
        shard the sub-batch order equals submission order — the property that
        makes per-shard counters deterministic.
        """
        buckets: Dict[int, List[Tuple[int, Graph]]] = {}
        for position, query in enumerate(ordered):
            buckets.setdefault(cache.shard_of(query), []).append((position, query))

        results: List[Optional[CacheQueryResult]] = [None] * len(ordered)

        def run_shard(shard_id: int) -> None:
            shard = cache.shards[shard_id]
            for position, query in buckets[shard_id]:
                results[position] = shard.query(query)

        workers = min(jobs, len(buckets)) or 1
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="gc-shard"
        ) as pool:
            futures = [pool.submit(run_shard, shard_id) for shard_id in buckets]
            for future in futures:
                future.result()  # re-raises any shard-side exception
        return list(results)  # type: ignore[arg-type]

    def _query_many_prefiltered(
        self, ordered: Sequence[Graph], jobs: int
    ) -> List[CacheQueryResult]:
        """Plain cache: overlap Mfilter prefetch with in-order GC stages."""
        prefilter = self._cache.prefilter  # the memoised Mfilter seam
        # Bounded look-ahead: keep ~2*jobs prefetches in flight instead of
        # submitting the whole batch, so peak memory stays O(jobs) candidate
        # sets rather than O(batch) while the worker pool never starves.
        lookahead = 2 * jobs
        results: List[CacheQueryResult] = []
        pending: deque = deque()
        with ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="gc-prefilter"
        ) as pool:
            for query in ordered[:lookahead]:
                pending.append(pool.submit(prefilter, query))
            for position, query in enumerate(ordered):
                filtered = pending.popleft().result()
                if position + lookahead < len(ordered):
                    pending.append(pool.submit(prefilter, ordered[position + lookahead]))
                results.append(self._cache.execute_prefiltered(query, filtered))
        return results

    def drain_maintenance(self) -> None:
        """Block until the wrapped cache's pending maintenance is applied.

        Relevant under ``maintenance_mode="background"``: call it before
        reading maintenance reports/journals (or rely on the drain-on-close
        and drain-before-snapshot guarantees).  Must not be called while
        holding a shard's GC lock.
        """
        self._cache.drain_maintenance()

    def close(self) -> None:
        """Drain pending maintenance and release the cache's resources."""
        self._cache.close()

    def maintenance_reports(self) -> List[MaintenanceReport]:
        """Every cache-update round the wrapped cache has run so far.

        Sharded caches report all shards' rounds (grouped by shard id); each
        report carries its :class:`~repro.core.policies.plan.MaintenancePlan`
        and the O(window) apply-side op counters, so a service operator can
        audit admission/eviction decisions without touching cache internals.
        """
        if isinstance(self._cache, ShardedGraphCache):
            return self._cache.maintenance_reports()
        return self._cache.window_manager.reports
