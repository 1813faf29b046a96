"""Memory-mapped storage backend: entries as offsets into a graph arena.

:class:`MmapBackend` keeps every entry's *query graph* as a packed record in
a :class:`~repro.core.backends.arena.GraphArena` and everything else (serial,
answer set, expensiveness) in RAM.  An entry this process wrote keeps the query
object it was written from (a reference, not a copy), so ``get()`` hands that
object back and never decodes its own writes.  Only entries adopted from a
sealed sidecar (attach, warm start, pool workers) are decoded, lazily: the
stored extent is read from the arena — a single ``np.memmap`` once sealed —
through the struct-unpacking fast path
(:meth:`~repro.graphs.packed.PackedGraph.decode_graph`), never through the
dict/text materialising codec route of the entry codecs.

``apply_delta`` stays transactional through the offset table: removals and
additions mutate the ``serial -> extent`` dict under one lock hold, and the
bytes of removed entries merely become dead extents that the next
:meth:`seal` compacts away.  Sealing writes the segment file atomically
(tempfile + ``os.replace``) together with a ``<segment>.meta.json`` sidecar
holding the per-entry records, so another process — typically a forked
:class:`~repro.core.workers.ProcessPoolCacheService` worker — can attach the
pair read-only and adopt the warm contents with shared pages.

The codec contract is honoured with a twist: the entry codec's ``query``
field stores an arena extent instead of graph text inside the sidecar.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ...analysis.runtime import make_rlock
from ...exceptions import CacheError
from ...graphs.graph import Graph
from ..atomic_io import publish
from .arena import ArenaExtent, GraphArena
from .base import EntryCodec, StorageBackend

__all__ = ["MmapBackend"]

_META_VERSION = 2

#: Stand-in query used to run an entry through the owning store's text codec
#: without serialising the real graph: the mmap backend stores graphs as
#: arena extents, so the codec's ``query`` field is filled with the empty
#: graph's text and replaced by the extent.
_STUB_GRAPH = Graph(labels=(), edges=())


class MmapBackend(StorageBackend):
    """Arena-backed storage backend (see module docstring).

    Parameters
    ----------
    codec:
        The owning store's entry codec; used for the seal sidecar.
    path:
        Base path of the backing files; the segment lands in
        ``<path>.<table>.arena`` and its sidecar in
        ``<path>.<table>.arena.meta.json``.  ``None`` keeps the arena in RAM
        (no sealing — tests and bounded-RAM behaviour without durability).
        If a sealed segment already exists at the derived path, the backend
        attaches it and adopts its entries (warm start).
    table:
        Logical table name, so the cache and window stores of one cache (and
        every shard) derive distinct files from one base path.
    packed_views:
        When true, ``get()``/``entries()`` return entries whose ``query`` is
        the arena's memoised CSR-native
        :class:`~repro.graphs.packed.PackedGraphView` instead of a ``Graph``
        — the zero-decode serving mode of pool workers.
    """

    name = "mmap"

    def __init__(
        self,
        codec: EntryCodec,
        path: Optional[str] = None,
        table: str = "entries",
        packed_views: bool = False,
    ) -> None:
        super().__init__()
        self._codec = codec
        self._table = table
        self._packed_views = packed_views
        self._segment: Optional[Path] = (
            Path(f"{path}.{table}.arena") if path is not None else None
        )
        self._lock = make_rlock("backend")
        # The offset table: serial -> (extent, entry).  The entry is the one
        # put() was given; records adopted from a sidecar hold a stub whose
        # query is None and is decoded from the extent on read.
        self._records: Dict[int, Tuple[ArenaExtent, Any]] = {}
        if self._segment is not None and self._segment.exists():
            self._arena = GraphArena.attach(self._segment)
            self._adopt_sidecar()
        else:
            self._arena = GraphArena(self._segment)

    # ------------------------------------------------------------------ #
    @property
    def arena(self) -> GraphArena:
        """The backing arena (exposed for inspection and benchmarks)."""
        return self._arena

    @property
    def arena_path(self) -> Optional[str]:
        """Path of the (future or attached) segment file, if any."""
        return str(self._segment) if self._segment is not None else None

    @property
    def meta_path(self) -> Optional[Path]:
        """Path of the sealed sidecar describing the entries."""
        if self._segment is None:
            return None
        return self._segment.with_name(self._segment.name + ".meta.json")

    # ------------------------------------------------------------------ #
    # Single-entry operations.
    # ------------------------------------------------------------------ #
    def put(self, serial: int, entry: Any) -> None:
        with self._lock:
            previous = self._records.get(serial)
            if previous is not None:
                self._arena.free(previous[0])
            self._records[serial] = (self._arena.append_graph(entry.query), entry)
            self.op_counts.rows_inserted += 1

    def _resolve(self, extent: ArenaExtent, entry: Any) -> Any:
        """``entry`` with a readable query (call under the backend lock)."""
        if self._packed_views:
            return entry._replace(query=self._arena.view_at(extent))
        if entry.query is None:
            return entry._replace(query=self._arena.graph_at(extent))
        return entry

    def get(self, serial: int) -> Any:
        with self._lock:
            record = self._records.get(serial)
            return None if record is None else self._resolve(*record)

    def get_stub(self, serial: int) -> Any:
        with self._lock:
            record = self._records.get(serial)
        return None if record is None else record[1]

    def delete(self, serial: int) -> bool:
        with self._lock:
            record = self._records.pop(serial, None)
            if record is None:
                return False
            self._arena.free(record[0])
            self.op_counts.rows_deleted += 1
            return True

    def contains(self, serial: int) -> bool:
        with self._lock:
            return serial in self._records

    # ------------------------------------------------------------------ #
    # Bulk operations.
    # ------------------------------------------------------------------ #
    def serials(self) -> List[int]:
        with self._lock:
            return list(self._records)

    def entries(self) -> List[Any]:
        with self._lock:
            return [self._resolve(*record) for record in self._records.values()]

    def count(self) -> int:
        with self._lock:
            return len(self._records)

    def replace_all(self, items: Iterable[Tuple[int, Any]]) -> None:
        replacement = list(items)
        with self._lock:
            self.op_counts.bulk_rewrites += 1
            self.op_counts.rows_deleted += len(self._records)
            self.op_counts.rows_inserted += len(replacement)
            for extent, _ in self._records.values():
                self._arena.free(extent)
            self._records = {}
            for serial, entry in replacement:
                self._records[serial] = (self._arena.append_graph(entry.query), entry)

    def clear(self) -> None:
        with self._lock:
            self.op_counts.bulk_rewrites += 1
            self.op_counts.rows_deleted += len(self._records)
            for extent, _ in self._records.values():
                self._arena.free(extent)
            self._records = {}

    def apply_delta(
        self, add: Iterable[Tuple[int, Any]], remove: Iterable[int]
    ) -> None:
        # One lock hold across the whole delta — the offset table never
        # exposes the evictions without the admissions (same atomicity as
        # the in-memory dict swap).
        additions = list(add)
        with self._lock:
            for serial in remove:
                record = self._records.pop(serial, None)
                if record is not None:
                    self._arena.free(record[0])
                    self.op_counts.rows_deleted += 1
            for serial, entry in additions:
                previous = self._records.get(serial)
                if previous is not None:
                    self._arena.free(previous[0])
                self._records[serial] = (self._arena.append_graph(entry.query), entry)
                self.op_counts.rows_inserted += 1

    # ------------------------------------------------------------------ #
    # Seal / attach lifecycle.
    # ------------------------------------------------------------------ #
    def seal(self) -> None:
        """Compact live extents into the segment file and publish atomically.

        Writes the arena segment plus the ``.meta.json`` sidecar describing
        every entry (codec record with the ``query`` field replaced by the
        new extent).  After sealing, this backend serves reads from the
        read-only mmap, and other processes may attach the same files.
        """
        if self._segment is None:
            raise CacheError(
                "cannot seal an mmap backend without a backend_path"
            )
        with self._lock:
            order = list(self._records.items())
            remap = self._arena.seal([extent for _, (extent, _) in order])
            records: List[Dict[str, Any]] = []
            resealed: Dict[int, Tuple[ArenaExtent, Any]] = {}
            for serial, (extent, entry) in order:
                moved = ArenaExtent(remap[extent.offset], extent.length)
                resealed[serial] = (moved, entry)
                record = self._codec.encode(entry._replace(query=_STUB_GRAPH))
                record["query"] = [moved.offset, moved.length]
                records.append(record)
            self._records = resealed
            self._write_sidecar(records)

    def seal_delta(self) -> int:
        """Publish new admissions as a delta segment — no stop-the-world rewrite.

        Falls back to a full :meth:`seal` when no base segment exists yet
        (first seal of the backend's lifetime).  Otherwise the arena appends
        one ``.deltaN`` file holding just the tail records — extents do not
        move, so only the sidecar is rewritten — and an attaching worker
        picks up base + deltas.  Returns the number of records published.
        """
        if self._segment is None:
            raise CacheError(
                "cannot seal an mmap backend without a backend_path"
            )
        with self._lock:
            if not self._arena.sealed:
                before = len(self._records)
                self.seal()
                return before
            published = self._arena.seal_delta()
            if published:
                records: List[Dict[str, Any]] = []
                for extent, entry in self._records.values():
                    record = self._codec.encode(entry._replace(query=_STUB_GRAPH))
                    record["query"] = [extent.offset, extent.length]
                    records.append(record)
                self._write_sidecar(records)
            return published

    def compact(self, trigger_ratio: Optional[float] = None) -> Dict[str, Any]:
        """Fold every delta segment (and all dead bytes) into a fresh base seal.

        This is the reclamation half of the delta lifecycle: ``seal_delta``
        appends segments forever and never reclaims dead extents, so a
        long-lived backend calls ``compact`` when the dead/live ratio crosses
        the configured threshold (see
        :attr:`~repro.core.config.GraphCacheConfig.compaction_threshold`).
        Runs a full :meth:`seal` under the backend lock — extents move, but
        every live record survives byte-identically — and returns the event
        record the cache surfaces to the CLI: trigger ratio, bytes
        reclaimed, and how many delta segments were folded.
        """
        with self._lock:
            before_dead = self._arena.dead_bytes
            folded = self._arena.delta_count
            ratio = (
                trigger_ratio
                if trigger_ratio is not None
                else before_dead / self._arena.live_bytes
                if self._arena.live_bytes
                else float("inf")
            )
            self.seal()
            return {
                "table": self._table,
                "trigger_ratio": ratio,
                "bytes_reclaimed": before_dead - self._arena.dead_bytes,
                "segments_folded": folded,
                "live_bytes": self._arena.live_bytes,
                "dead_bytes": self._arena.dead_bytes,
            }

    def arena_statistics(self) -> Dict[str, Any]:
        """Occupancy of the backing arena (re-seal pressure observability)."""
        with self._lock:
            return {
                "table": self._table,
                "live_bytes": self._arena.live_bytes,
                "dead_bytes": self._arena.dead_bytes,
                "delta_segments": self._arena.delta_count,
                "segments": self._arena.segment_stats(),
            }

    def _write_sidecar(self, records: List[Dict[str, Any]]) -> None:
        payload = {
            "version": _META_VERSION,
            "table": self._table,
            "arena": self._segment.name,
            "records": records,
        }
        # It names the live segment: durable before it replaces the old one.
        blob = json.dumps(payload).encode("utf-8")
        publish(self.meta_path, lambda stream: stream.write(blob))

    def _adopt_sidecar(self) -> None:
        """Rebuild the offset table of an attached sealed segment."""
        meta = self.meta_path
        if meta is None or not meta.exists():
            raise CacheError(
                f"sealed arena {self._segment} has no sidecar {meta}"
            )
        payload = json.loads(meta.read_text(encoding="utf-8"))
        if payload.get("version") != _META_VERSION:
            raise CacheError(f"{meta}: unsupported sidecar version")
        stub_text = None
        for record in payload["records"]:
            offset, length = (int(x) for x in record["query"])
            if stub_text is None:
                from ...graphs.io import graph_to_text

                stub_text = graph_to_text(_STUB_GRAPH)
            entry = self._codec.decode({**record, "query": stub_text})
            self._records[int(record["serial"])] = (
                ArenaExtent(offset, length),
                entry._replace(query=None),
            )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        with self._lock:
            self._arena.close()
