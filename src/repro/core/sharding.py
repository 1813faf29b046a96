"""ShardedGraphCache: N independent GraphCache shards behind one front end.

PR 2 made one :class:`~repro.core.cache.GraphCache` thread-safe, but every
commit in the whole service still serializes on that cache's single GC lock —
``query_many(jobs=N)`` can only overlap Method-M filtering, never the GC
stages themselves.  Sharding removes that ceiling the way the paper's Cache
Manager architecture (§6.1) invites: the data layer is split into N fully
independent shards, each a complete :class:`GraphCache` with its own stores,
GCindex, statistics, window manager **and its own GC lock**, so N full
pipelines — processors, pruning, verification and commit — run concurrently,
one per shard.

Routing invariant
-----------------
Queries are routed by a **deterministic, process-independent hash** of the
query's interned label-path features (the same feature extractor GCindex
uses).  Consequences the tests pin:

* the same query structure always lands on the same shard — in one run, in a
  replay, and across processes (`zlib.crc32` over the canonical feature
  string; no dependence on ``PYTHONHASHSEED``);
* ``shards=1`` routes everything to shard 0, which *is* a plain
  ``GraphCache`` — answers and deterministic work counters are identical to
  an unsharded cache on any workload (counter-identity invariant);
* within each shard, queries execute in submission order, so per-shard work
  counters are deterministic no matter how many service threads drive the
  shards.

Because routing is structural, repeated (Zipf-skewed) query structures hit
the shard that already caches them; distinct structures spread by hash.  Each
shard owns ``cache_capacity`` entries and its own window, so a sharded cache
holds up to ``N x cache_capacity`` entries overall — capacity scales with N,
which is the point.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from ..graphs.graph import Graph
from ..isomorphism.base import SubgraphMatcher
from ..methods.base import Method
from .cache import CacheQueryResult, CacheRuntimeStatistics, GraphCache
from .config import GraphCacheConfig
from .policies import (
    MaintenanceEngine,
    MaintenanceReport,
    MaintenanceScheduler,
    PlanJournal,
)
from .query_index import QueryGraphIndex

__all__ = ["ShardedGraphCache", "build_cache", "stable_feature_hash"]

#: Unit separators for the canonical feature serialization (never occur in
#: vertex labels produced by the generators or the transaction format).
_LABEL_SEP = "\x1f"
_FEATURE_SEP = "\x1e"


def stable_feature_hash(features: Counter) -> int:
    """Process-independent hash of a query-feature counter.

    The counter maps label-path tuples to occurrence counts (the GCindex
    feature extractor).  Features are serialized in sorted order and hashed
    with ``zlib.crc32``, so the value — and therefore shard routing — is
    identical across runs, machines and ``PYTHONHASHSEED`` values.
    """
    payload = _FEATURE_SEP.join(
        f"{_LABEL_SEP.join(path)}={count}"
        for path, count in sorted(features.items())
    )
    return zlib.crc32(payload.encode("utf-8"))


class ShardedGraphCache:
    """N independent :class:`GraphCache` shards with feature-hash routing.

    Parameters
    ----------
    method:
        The Method M shared by every shard.  Method state (dataset, FTV
        index, matcher plan memo) is read-only on the query path, so one
        instance safely serves all shards concurrently.
    config:
        Cache configuration; ``config.shards`` sets the shard count (every
        shard gets the full ``cache_capacity``/``window_size``).  With
        ``backend="mmap"`` and a ``backend_path``, shard ``k`` derives its
        arenas from ``<path>.shard<k>`` so shard files stay independent.
    matcher:
        Optional containment-matcher override, forwarded to every shard.
    """

    def __init__(
        self,
        method: Method,
        config: Optional[GraphCacheConfig] = None,
        matcher: Optional[SubgraphMatcher] = None,
    ) -> None:
        self._config = config or GraphCacheConfig()
        self._method = method
        # The router's feature extractor mirrors GCindex's (same path length,
        # same memo) but is a dedicated instance so routing never contends
        # with any shard's index lock; it is never mutated, so one copy.
        self._router_index = QueryGraphIndex(
            max_path_length=self._config.index_path_length,
            double_buffered=False,
        )
        self._shards: Tuple[GraphCache, ...] = tuple(
            GraphCache(method, self._shard_config(shard), matcher=matcher)
            for shard in range(self._config.shards)
        )

    @staticmethod
    def _shard_path(path: Optional[str], shard: int) -> Optional[str]:
        """Derive shard ``shard``'s file from a base path (``<name>.shard<k>``)."""
        if path is None:
            return None
        return str(Path(path).with_name(f"{Path(path).name}.shard{shard}"))

    def _shard_config(self, shard: int) -> GraphCacheConfig:
        """Per-shard configuration: one plain cache, own backend + journal."""
        backend_path = self._config.backend_path
        journal_path = self._config.journal_path
        if self._config.shards > 1:
            backend_path = self._shard_path(backend_path, shard)
            journal_path = self._shard_path(journal_path, shard)
        return replace(
            self._config,
            shards=1,
            backend_path=backend_path,
            journal_path=journal_path,
        )

    # ------------------------------------------------------------------ #
    @property
    def config(self) -> GraphCacheConfig:
        """The sharded cache's configuration (``config.shards`` shards)."""
        return self._config

    @property
    def method(self) -> Method:
        """The Method M shared by every shard."""
        return self._method

    @property
    def shards(self) -> Tuple[GraphCache, ...]:
        """The shard caches, indexed by shard id."""
        return self._shards

    @property
    def shard_count(self) -> int:
        """Number of shards."""
        return len(self._shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    # ------------------------------------------------------------------ #
    def shard_of(self, query: Graph) -> int:
        """Deterministic shard id for ``query`` (structural feature hash)."""
        if len(self._shards) == 1:
            return 0
        features = self._router_index.query_features(query).counts
        return stable_feature_hash(features) % len(self._shards)

    def shard_for(self, query: Graph) -> GraphCache:
        """The shard cache that serves ``query``."""
        return self._shards[self.shard_of(query)]

    # ------------------------------------------------------------------ #
    def query(self, query: Graph) -> CacheQueryResult:
        """Answer a query through its shard's full pipeline."""
        return self.shard_for(query).query(query)

    def answer(self, query: Graph) -> FrozenSet[int]:
        """Convenience wrapper returning only the answer set."""
        return self.query(query).answer_ids

    def lookup(self, query: Graph) -> FrozenSet[int]:
        """Answer a query read-only through its shard (replica serving path).

        Routes like :meth:`query` but delegates to
        :meth:`GraphCache.lookup`: no serial is assigned, nothing joins the
        window and no statistics move — the sharded twin of the replica
        read path.
        """
        return self.shard_for(query).lookup(query)

    # ------------------------------------------------------------------ #
    @property
    def runtime_statistics(self) -> CacheRuntimeStatistics:
        """Shard-wise aggregate of every shard's runtime counters.

        Summed field-by-field over the dataclass fields, so counters added to
        :class:`CacheRuntimeStatistics` later aggregate automatically.
        """
        total = CacheRuntimeStatistics()
        for shard in self._shards:
            runtime = shard.runtime_statistics
            for spec in fields(CacheRuntimeStatistics):
                setattr(
                    total,
                    spec.name,
                    getattr(total, spec.name) + getattr(runtime, spec.name),
                )
        return total

    def shard_statistics(self) -> List[CacheRuntimeStatistics]:
        """Per-shard runtime counters, indexed by shard id."""
        return [shard.runtime_statistics for shard in self._shards]

    def maintenance_engines(self) -> List[MaintenanceEngine]:
        """Per-shard maintenance engines, indexed by shard id.

        Every shard runs its own engine (own statistics rows, own admission
        calibration) under its own GC lock — maintenance rounds on different
        shards proceed concurrently, like everything else per-shard.
        """
        return [shard.maintenance_engine for shard in self._shards]

    def maintenance_schedulers(self) -> List[MaintenanceScheduler]:
        """Per-shard maintenance schedulers, indexed by shard id."""
        return [shard.maintenance_scheduler for shard in self._shards]

    def plan_journals(self) -> List[PlanJournal]:
        """Per-shard plan journals, indexed by shard id."""
        return [shard.plan_journal for shard in self._shards]

    def drain_maintenance(self) -> None:
        """Block until every shard's pending maintenance rounds are applied."""
        for shard in self._shards:
            shard.drain_maintenance()

    def maintenance_reports(self) -> List[MaintenanceReport]:
        """Every shard's cache-update reports, grouped by shard id order."""
        collected: List[MaintenanceReport] = []
        for shard in self._shards:
            collected.extend(shard.window_manager.reports)
        return collected

    def cache_size_bytes(self) -> int:
        """Approximate memory footprint summed over the shards."""
        return sum(shard.cache_size_bytes() for shard in self._shards)

    def seal_storage(self) -> None:
        """Seal every shard's sealable backends (mmap segment publish)."""
        for shard in self._shards:
            shard.seal_storage()

    def seal_delta_storage(self) -> int:
        """Delta-publish every shard's arena tails; returns records published.

        Each shard also runs its automatic-compaction check (see
        :meth:`GraphCache.seal_delta_storage`).
        """
        return sum(shard.seal_delta_storage() for shard in self._shards)

    @property
    def compaction_events(self) -> List[Dict[str, object]]:
        """Completed automatic-compaction events across shards (shard order)."""
        collected: List[Dict[str, object]] = []
        for shard in self._shards:
            collected.extend(shard.compaction_events)
        return collected

    def close(self) -> None:
        """Release every shard's pipeline and backend resources."""
        for shard in self._shards:
            shard.close()


def build_cache(
    method: Method,
    config: Optional[GraphCacheConfig] = None,
    matcher: Optional[SubgraphMatcher] = None,
) -> Union[GraphCache, ShardedGraphCache]:
    """Build the cache the configuration asks for: plain, or sharded.

    ``config.shards == 1`` (default) yields a plain :class:`GraphCache`;
    anything larger yields a :class:`ShardedGraphCache`.  This is the single
    construction point the harness, the service facade and the CLI share.
    """
    config = config or GraphCacheConfig()
    if config.shards > 1:
        return ShardedGraphCache(method, config, matcher=matcher)
    return GraphCache(method, config, matcher=matcher)
