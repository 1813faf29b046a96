"""GraphCache configuration.

All knobs the paper discusses are collected in one frozen dataclass so that a
configuration can be logged alongside experiment results and shared between
the cache, the window manager and the benchmark harness.  Defaults follow the
paper's defaults: cache capacity ``C = 100`` entries, window size ``W = 20``,
the hybrid (HD) replacement policy, admission control disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..exceptions import CacheError

__all__ = ["GraphCacheConfig", "QueryMode"]

#: Valid query modes: GraphCache serves subgraph queries (dataset graphs that
#: contain the query) or supergraph queries (dataset graphs contained in it).
QueryMode = str

_VALID_MODES = ("subgraph", "supergraph")
_VALID_POLICIES = ("lru", "pop", "pin", "pinc", "hd")
_VALID_ADMISSION_KINDS = ("threshold", "adaptive")
_VALID_BACKENDS = ("memory", "mmap")
_VALID_MAINTENANCE_MODES = ("sync", "background", "barrier")


@dataclass(frozen=True)
class GraphCacheConfig:
    """Configuration of a :class:`~repro.core.cache.GraphCache` instance.

    Attributes
    ----------
    cache_capacity:
        Maximum number of cached queries (paper default: 100).
    window_size:
        Number of new queries batched before a cache-update round (paper
        default: 20).
    replacement_policy:
        One of ``"lru"``, ``"pop"``, ``"pin"``, ``"pinc"``, ``"hd"``.
    admission_control:
        Enable the expensiveness-based admission filter of §6.2.  A query's
        expensiveness is its verification work over its filtering work
        (:func:`~repro.core.stores.expensiveness`); the threshold is the
        score that the top quarter of the first two windows' requests reach
        (:class:`~repro.core.policies.admission.AdmissionController`).
    admission_kind:
        Which admission controller the maintenance engine runs:
        ``"threshold"`` (the §6.2 quantile-calibrated filter, default) or
        ``"adaptive"`` (the hill-climbing extension).  Resolved through the
        :mod:`repro.core.policies` registry, like ``replacement_policy``.
    query_mode:
        ``"subgraph"`` (default) or ``"supergraph"``.
    index_path_length:
        Maximum label-path length indexed by GCindex over cached queries.
    warmup_windows:
        Number of initial windows excluded from benchmark statistics (the
        paper allows one window before measuring).
    containment_matcher:
        Registry name of the matcher used for query-vs-query containment
        checks in the GC processors (``None`` = the method's own verifier).
        Resolved once by :class:`~repro.core.cache.GraphCache` so every
        pipeline stage shares one matcher instance and plan memo.
    backend:
        Storage backend of the cache/window stores: ``"memory"`` (the seed's
        in-RAM dictionaries, default) or ``"mmap"`` (packed query graphs in
        an append-only arena, zero-copy reads, sealable to a shared segment
        for multi-process serving).  See
        :mod:`repro.core.backends`.
    backend_path:
        mmap arena base path holding the stores
        (``None`` keeps the data in memory).  Sharded caches derive one
        file per shard from this path.
    shards:
        Number of independent :class:`~repro.core.cache.GraphCache` shards a
        :class:`~repro.core.sharding.ShardedGraphCache` splits the cache
        into.  ``1`` (default) means an unsharded cache; plain
        :class:`~repro.core.cache.GraphCache` ignores this field.
    maintenance_mode:
        Where cache-update rounds execute (see
        :mod:`repro.core.policies.scheduler`): ``"sync"`` (inline on the
        committing thread, default), ``"background"`` (on a worker thread,
        off the query path — the paper's separate maintenance thread) or
        ``"barrier"`` (worker thread + completion barrier; the deterministic
        test mode whose plan stream is byte-identical to ``sync``).
    journal_path:
        Optional file receiving the append-only maintenance plan journal
        (one JSON line per applied
        :class:`~repro.core.policies.plan.MaintenancePlan`).  ``None`` keeps
        the journal in memory only.  Sharded caches derive one file per
        shard from this path, like ``backend_path``.
    journal_fsync:
        When ``True``, every journal append is flushed and fsync'd before
        the round returns, so a checkpoint can never be durably ahead of
        its own journal — the invariant crash recovery
        (:func:`~repro.core.persistence.recover_cache`) relies on.  Default
        off: the journal is still append-mode-per-record (a crash loses at
        most the line being written), but the OS may buffer it.
    compaction_threshold:
        Automatic arena compaction trigger for the mmap backend: after each
        delta publish (:meth:`~repro.core.cache.GraphCache.seal_delta_storage`),
        any arena whose ``dead_bytes / live_bytes`` ratio reaches this value
        is folded by a full :meth:`~repro.core.backends.mmapped.MmapBackend.compact`
        — scheduled through the maintenance scheduler, so in ``background``
        mode the fold runs off the query path.  ``None`` (default) disables
        automatic compaction; deltas accumulate until an explicit seal.
    """

    cache_capacity: int = 100
    window_size: int = 20
    replacement_policy: str = "hd"
    admission_control: bool = False
    admission_kind: str = "threshold"
    query_mode: QueryMode = "subgraph"
    index_path_length: int = 3
    warmup_windows: int = 1
    containment_matcher: Optional[str] = None
    backend: str = "memory"
    backend_path: Optional[str] = None
    shards: int = 1
    maintenance_mode: str = "sync"
    journal_path: Optional[str] = None
    journal_fsync: bool = False
    compaction_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cache_capacity <= 0:
            raise CacheError("cache_capacity must be positive")
        if self.window_size <= 0:
            raise CacheError("window_size must be positive")
        if self.replacement_policy.lower() not in _VALID_POLICIES:
            raise CacheError(
                f"unknown replacement policy {self.replacement_policy!r}; "
                f"valid policies: {', '.join(_VALID_POLICIES)}"
            )
        if self.query_mode not in _VALID_MODES:
            raise CacheError(
                f"unknown query mode {self.query_mode!r}; valid modes: {', '.join(_VALID_MODES)}"
            )
        if self.admission_kind.lower() not in _VALID_ADMISSION_KINDS:
            raise CacheError(
                f"unknown admission kind {self.admission_kind!r}; "
                f"valid kinds: {', '.join(_VALID_ADMISSION_KINDS)}"
            )
        if self.index_path_length < 1:
            raise CacheError("index_path_length must be >= 1")
        if self.warmup_windows < 0:
            raise CacheError("warmup_windows must be >= 0")
        if self.backend.lower() not in _VALID_BACKENDS:
            raise CacheError(
                f"unknown storage backend {self.backend!r}; "
                f"valid backends: {', '.join(_VALID_BACKENDS)}"
            )
        if self.backend_path is not None and self.backend.lower() != "mmap":
            raise CacheError("backend_path is only meaningful with backend='mmap'")
        if self.shards < 1:
            raise CacheError("shards must be >= 1")
        if self.maintenance_mode.lower() not in _VALID_MAINTENANCE_MODES:
            raise CacheError(
                f"unknown maintenance mode {self.maintenance_mode!r}; "
                f"valid modes: {', '.join(_VALID_MAINTENANCE_MODES)}"
            )
        if self.compaction_threshold is not None and self.compaction_threshold <= 0:
            raise CacheError("compaction_threshold must be positive (or None)")

    def label(self) -> str:
        """Short label like ``c100-b20`` used in the paper's figures.

        Non-default storage choices are appended (``c100-b20-s4-mmap``) so
        sharded/backend experiment rows stay distinguishable in reports.
        """
        label = f"c{self.cache_capacity}-b{self.window_size}"
        if self.shards > 1:
            label += f"-s{self.shards}"
        if self.backend.lower() != "memory":
            label += f"-{self.backend.lower()}"
        if self.maintenance_mode.lower() != "sync":
            label += f"-{self.maintenance_mode.lower()}"
        if self.compaction_threshold is not None:
            label += f"-compact{self.compaction_threshold:g}"
        return label
