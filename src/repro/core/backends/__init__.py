"""Pluggable storage backends for the Cache/Window data layer (§6.1).

The paper separates the Cache Manager's *logic* from its *data layer*
precisely so the stores can grow independently of the cache algorithms.
This package makes that separation concrete: the typed stores in
:mod:`repro.core.stores` are thin facades over a :class:`StorageBackend`,
a small keyed-record interface with two implementations:

* :class:`InMemoryBackend` — today's in-RAM dictionaries, extracted.  Zero
  serialization cost on the hot path; the store's contents live exactly as
  long as the process.  This is the default and the right choice for
  benchmark runs and any cache that fits in RAM.
* :class:`MmapBackend` — query graphs as packed CSR records in an
  append-only :class:`~repro.core.backends.arena.GraphArena`.  ``get()``
  decodes lazily to zero-copy numpy views over the segment; once sealed the
  segment is a single read-only ``np.memmap`` that any number of processes
  can attach and share pages over — the storage substrate of the
  multi-process serving path (:mod:`repro.core.workers`) and the durable
  store a reopened cache warm-starts from without a JSON snapshot.

Backends store *entries* (opaque typed objects such as
:class:`~repro.core.stores.CacheEntry`) keyed by the query's serial number
and preserve insertion order when iterating — the same observable behaviour
as a Python ``dict`` — so switching backends never changes replacement
decisions or work counters.  Serialization is delegated to an
:class:`EntryCodec` supplied by the owning store; in-memory backends skip it
entirely.

Choosing a backend is a :class:`~repro.core.config.GraphCacheConfig` concern
(``backend="memory" | "mmap"``, optional ``backend_path`` for a durable
arena); :func:`create_backend` is the single construction point.
"""

from __future__ import annotations

from typing import Optional

from ...exceptions import CacheError
from .arena import ArenaExtent, GraphArena
from .base import BackendOpCounts, EntryCodec, StorageBackend
from .memory import InMemoryBackend
from .mmapped import MmapBackend

__all__ = [
    "AVAILABLE_BACKENDS",
    "ArenaExtent",
    "BackendOpCounts",
    "EntryCodec",
    "GraphArena",
    "StorageBackend",
    "InMemoryBackend",
    "MmapBackend",
    "create_backend",
]

#: Registry names accepted by :func:`create_backend` and the configuration.
AVAILABLE_BACKENDS = ("memory", "mmap")


def create_backend(
    kind: str,
    codec: EntryCodec,
    path: Optional[str] = None,
    table: str = "entries",
    packed_views: bool = False,
) -> StorageBackend:
    """Build a storage backend by registry name.

    Parameters
    ----------
    kind:
        ``"memory"`` or ``"mmap"``.
    codec:
        The entry codec of the owning store (used by serializing backends).
    path:
        mmap: base path the arena segment and its sidecar are derived from.
        ``None`` keeps the data in memory (useful for tests and for
        bounded-RAM behaviour without durability).
    table:
        Logical table name, so several stores (cache entries, window
        entries, shards) can share one base path.
    packed_views:
        mmap only: serve entry queries as CSR-native
        :class:`~repro.graphs.packed.PackedGraphView` objects instead of
        decoded ``Graph`` instances (the serving mode of pool workers).
        Ignored by the memory backend, which stores real ``Graph`` objects.
    """
    name = kind.lower()
    if name == "memory":
        return InMemoryBackend()
    if name == "mmap":
        return MmapBackend(codec, path=path, table=table, packed_views=packed_views)
    raise CacheError(
        f"unknown storage backend {kind!r}; available: {', '.join(AVAILABLE_BACKENDS)}"
    )
