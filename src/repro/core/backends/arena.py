"""Append-only packed-graph arena segments with atomic publish-on-seal.

A :class:`GraphArena` is the storage substrate of the mmap backend: packed
graph records (:meth:`~repro.graphs.packed.PackedGraph.to_bytes`) are
appended to a write-once byte segment and addressed by ``(offset, length)``
extents.  The lifecycle has two phases:

* **open** — appends go to an in-RAM tail buffer; reads are zero-copy numpy
  views over that buffer.  Deleting an entry only marks its extent dead
  (:meth:`free`); the bytes stay until the next seal.
* **sealed** — :meth:`seal` compacts the live extents into a single segment
  file (fixed header, packed records, trailing JSON offset table) written to
  a temp file and published atomically with ``os.replace``, then re-opens it
  as a read-only ``np.memmap``.  Any process may :meth:`attach` the sealed
  file and share the pages; appends after sealing land in a fresh
  process-local tail, so read-only workers keep serving full pipelines
  (their admissions stay private) while the sealed prefix is shared.
* **delta-sealed** — :meth:`seal_delta` publishes just the open tail as an
  additional ``<segment>.deltaN`` file instead of rewriting the whole arena.
  Offsets do not move (the tail already starts where the sealed region
  ends), so no remap is needed and long-lived serving pools absorb new
  admissions without a stop-the-world rewrite; the next full :meth:`seal`
  folds every delta back into one compacted base segment.

Offsets are payload-relative and stable within a phase; full sealing
compacts dead extents away and returns an old→new offset remap for the
owner's offset table.  :meth:`view_at` memoises one
:class:`~repro.graphs.packed.PackedGraphView` per live offset — the arena
address keys the memo, so memos keyed on the (hash-cached) view — compiled
matcher plans, containment verdicts — keep hitting across requests.  The arena itself is deliberately
lock-free: the owning :class:`~repro.core.backends.mmapped.MmapBackend`
serialises access under its ``backend`` lock, exactly like the dict inside
the in-memory backend.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ...exceptions import CacheError
from ...graphs.packed import PackedGraph, PackedGraphView
from ..atomic_io import publish

__all__ = ["ArenaExtent", "GraphArena"]

PathLike = Union[str, os.PathLike]

#: Segment-file header: 8-byte magic + four little-endian int64 fields
#: (version, payload length, table offset, table length).  Graph arenas and
#: sealed feature indexes share the layout under their own magic.
_MAGIC = b"GCARENA1"
SEGMENT_HEADER_BYTES = 8 + 4 * 8
_VERSION = 1


def write_segment(target: Path, magic: bytes, payloads: Sequence[bytes], table: Dict) -> None:
    """Publish ``magic``, the header, ``payloads`` and the JSON ``table`` to ``target``."""
    length = sum(len(payload) for payload in payloads)
    blob = json.dumps(table).encode("utf-8")
    header = magic + np.array(
        [_VERSION, length, SEGMENT_HEADER_BYTES + length, len(blob)], dtype="<i8"
    ).tobytes()
    target.parent.mkdir(parents=True, exist_ok=True)
    publish(target, lambda stream: stream.writelines([header, *payloads, blob]))


def read_segment_table(path: Path, magic: bytes, kind: str) -> Tuple[int, Dict]:
    """Validate a :func:`write_segment` header; return ``(payload_length, table)``.

    A file whose header, payload and table do not exactly fill it, or whose
    table is not a UTF-8 JSON object, raises :class:`CacheError`.
    """
    with open(path, "rb") as stream:
        raw = stream.read(SEGMENT_HEADER_BYTES)
        if len(raw) < SEGMENT_HEADER_BYTES or raw[:8] != magic:
            raise CacheError(f"{path}: not a {kind} segment file")
        version, payload_length, table_offset, table_length = np.frombuffer(
            raw, dtype="<i8", count=4, offset=8
        ).tolist()
        if version != _VERSION:
            raise CacheError(f"{path}: unsupported {kind} version {version}")
        size = os.fstat(stream.fileno()).st_size
        if (
            min(payload_length, table_length) < 0
            or table_offset != SEGMENT_HEADER_BYTES + payload_length
            or table_offset + table_length != size
        ):
            raise CacheError(f"{path}: {kind} header does not match the {size}-byte file")
        stream.seek(table_offset)
        try:
            table = json.loads(stream.read(table_length).decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
            raise CacheError(f"{path}: unreadable {kind} table ({exc})") from None
    if not isinstance(table, dict):
        raise CacheError(f"{path}: {kind} table is not a JSON object")
    return payload_length, table


class ArenaExtent(NamedTuple):
    """Address of one packed record inside an arena (payload-relative)."""

    offset: int
    length: int


def _table_extents(path: Path, table: Dict, start: int) -> Dict[int, ArenaExtent]:
    """The extents a segment's table lists, shifted by the segment's ``start``."""
    try:
        return {
            start + int(o): ArenaExtent(start + int(o), int(n)) for o, n in table["graphs"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError(f"{path}: malformed graph-arena table ({exc!r})") from None


class _Segment(NamedTuple):
    """One sealed, mmapped region of the arena's payload address space."""

    start: int  # payload-relative offset of the segment's first byte
    length: int  # payload bytes in this segment
    buffer: np.memmap
    path: Path


class GraphArena:
    """One append-only packed-graph segment (see module docstring)."""

    def __init__(self, path: Optional[PathLike] = None) -> None:
        self._path: Optional[Path] = Path(path) if path is not None else None
        # Sealed regions, in address order: segment 0 is the base file, the
        # rest are delta files published by seal_delta().
        self._segments: List[_Segment] = []
        self._sealed_end = 0  # payload bytes served by the sealed mmaps
        # Tail records are kept as one immutable bytes object per append:
        # zero-copy views stay valid forever and never block later appends
        # (a shared bytearray would raise BufferError on resize while any
        # numpy view over it is alive).
        self._tail: Dict[int, bytes] = {}
        self._tail_end = 0  # payload-relative offset of the next append
        self._live_bytes = 0
        self._dead_bytes = 0
        self._extents: Dict[int, ArenaExtent] = {}
        # One PackedGraphView per live offset (see view_at).
        self._views: Dict[int, PackedGraphView] = {}

    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Optional[Path]:
        """Segment file this arena seals to / was attached from."""
        return self._path

    @property
    def sealed(self) -> bool:
        """Whether a sealed segment file backs the arena's base region."""
        return bool(self._segments)

    @property
    def delta_count(self) -> int:
        """Delta segments published since the last full seal (or attach)."""
        return max(0, len(self._segments) - 1)

    @property
    def live_bytes(self) -> int:
        """Bytes referenced by live extents."""
        return self._live_bytes

    @property
    def dead_bytes(self) -> int:
        """Bytes of freed extents awaiting reclamation by the next seal."""
        return self._dead_bytes

    # ------------------------------------------------------------------ #
    # Appending / freeing
    # ------------------------------------------------------------------ #
    def append(self, payload: bytes) -> ArenaExtent:
        """Append one packed record; returns its extent."""
        if len(payload) % 8:
            raise CacheError("arena records must be 8-byte aligned")
        offset = max(self._tail_end, self._sealed_end)
        payload = bytes(payload)
        self._tail[offset] = payload
        self._tail_end = offset + len(payload)
        extent = ArenaExtent(offset, len(payload))
        self._extents[offset] = extent
        self._live_bytes += len(payload)
        return extent

    def append_graph(self, graph) -> ArenaExtent:
        """Append ``graph``'s packed record (:meth:`~repro.graphs.graph.Graph.packed_bytes`)."""
        return self.append(graph.packed_bytes())

    def free(self, extent: ArenaExtent) -> None:
        """Mark an extent dead.

        Tail records are dropped immediately (their chunk is private);
        sealed-region extents only stop being counted live — the bytes stay
        in the segment file until the next :meth:`seal` compacts them away.
        """
        self._live_bytes -= extent.length
        self._extents.pop(extent.offset, None)
        self._views.pop(extent.offset, None)
        if self._tail.pop(extent.offset, None) is None:
            self._dead_bytes += extent.length

    # ------------------------------------------------------------------ #
    # Zero-copy reads
    # ------------------------------------------------------------------ #
    def _sealed_location(self, extent: ArenaExtent):
        """Resolve a sealed extent to ``(segment buffer, byte offset)``."""
        offset, length = extent
        for segment in reversed(self._segments):
            if offset >= segment.start:
                if offset + length > segment.start + segment.length:
                    raise CacheError(
                        f"arena extent {extent} crosses a segment boundary"
                    )
                return segment.buffer, SEGMENT_HEADER_BYTES + (offset - segment.start)
        raise CacheError(f"arena extent {extent} is not in any sealed segment")

    def packed_at(self, extent: ArenaExtent) -> PackedGraph:
        """Open the record at ``extent`` as a zero-copy :class:`PackedGraph`."""
        offset, length = extent
        if offset < self._sealed_end:
            buffer, start = self._sealed_location(extent)
            return PackedGraph.from_buffer(buffer, start)
        chunk = self._tail.get(offset)
        if chunk is None or len(chunk) != length:
            raise CacheError(f"arena extent {extent} is not a live tail record")
        return PackedGraph.from_buffer(chunk, 0)

    def graph_at(self, extent: ArenaExtent):
        """Decode the record at ``extent`` straight into a ``Graph``.

        Uses :meth:`PackedGraph.decode_graph`, the struct-unpacking fast
        path, instead of materialising intermediate numpy views first.
        """
        offset, length = extent
        if offset < self._sealed_end:
            buffer, start = self._sealed_location(extent)
            return PackedGraph.decode_graph(buffer, start)
        chunk = self._tail.get(offset)
        if chunk is None or len(chunk) != length:
            raise CacheError(f"arena extent {extent} is not a live tail record")
        return PackedGraph.decode_graph(chunk, 0)

    def view_at(self, extent: ArenaExtent) -> PackedGraphView:
        """The memoised CSR-native match view of the record at ``extent``.

        One :class:`PackedGraphView` per live offset: repeat requests get
        the *same* object back, so lazily-derived state (bitmask core,
        cached hash — and with it downstream memo entries keyed on the
        view) survives across requests.  The memo is dropped
        per-offset by :meth:`free` and wholesale by a full :meth:`seal`
        (offsets move); :meth:`seal_delta` keeps it (offsets don't).
        """
        view = self._views.get(extent.offset)
        if view is None:
            view = PackedGraphView(self.packed_at(extent))
            self._views[extent.offset] = view
        return view

    def bytes_at(self, extent: ArenaExtent) -> bytes:
        """Copy out the raw record bytes at ``extent`` (seal/compact path)."""
        offset, length = extent
        if offset < self._sealed_end:
            buffer, start = self._sealed_location(extent)
            return bytes(memoryview(buffer)[start : start + length])
        chunk = self._tail.get(offset)
        if chunk is None or len(chunk) != length:
            raise CacheError(f"arena extent {extent} is not a live tail record")
        return chunk

    # ------------------------------------------------------------------ #
    # Seal / attach lifecycle
    # ------------------------------------------------------------------ #
    def seal(
        self,
        live: Sequence[ArenaExtent],
        path: Optional[PathLike] = None,
    ) -> Dict[int, int]:
        """Compact ``live`` extents into the segment file and publish it.

        The records are rewritten densely in the given order; dead extents
        are reclaimed and every delta segment is folded into the new base
        file (the delta files are deleted).  The file is written to a temp
        file in the target directory and moved into place with
        ``os.replace``, so readers only ever observe a complete segment.
        Afterwards the arena serves the sealed file through a read-only
        ``np.memmap`` and starts an empty tail.  Returns the ``old offset ->
        new offset`` remap.
        """
        target = Path(path) if path is not None else self._path
        if target is None:
            raise CacheError("cannot seal an arena without a segment path")
        records: List[Tuple[ArenaExtent, bytes]] = [
            (extent, self.bytes_at(extent)) for extent in live
        ]
        remap: Dict[int, int] = {}
        position = 0
        for extent, payload in records:
            remap[extent.offset] = position
            position += len(payload)
        table = {
            "version": _VERSION,
            "graphs": [
                [remap[extent.offset], extent.length] for extent, _ in records
            ],
        }
        stale_deltas = [segment.path for segment in self._segments[1:]]
        write_segment(target, _MAGIC, [payload for _, payload in records], table)
        self._path = target
        self._install_segments(
            [self._open_segment(target, 0, position)]
        )
        for stale in stale_deltas + self._existing_delta_paths(target):
            if stale.exists():
                stale.unlink()
        self._tail = {}
        self._tail_end = 0
        self._extents = {
            remap[extent.offset]: ArenaExtent(remap[extent.offset], extent.length)
            for extent, _ in records
        }
        self._live_bytes = position
        self._dead_bytes = 0
        return remap

    def seal_delta(self) -> int:
        """Publish the open tail as one additional delta segment file.

        The tail region ``[sealed_end, tail_end)`` is written verbatim to
        ``<segment>.deltaN`` — holes left by records freed while still in
        the tail are zero-filled and counted dead — so **offsets do not
        move**: no remap, the offset table stays valid, and memoised views
        (:meth:`view_at`) survive.  Returns the number of records published
        (0 when the tail is empty, making re-seal ticks free).
        """
        if self._path is None:
            raise CacheError("cannot seal an arena without a segment path")
        if not self._segments:
            raise CacheError("seal_delta requires a sealed base segment; seal() first")
        if not self._tail:
            return 0
        start = self._sealed_end
        end = self._tail_end
        payload = bytearray(end - start)
        live: List[ArenaExtent] = []
        for offset, chunk in sorted(self._tail.items()):
            payload[offset - start : offset - start + len(chunk)] = chunk
            live.append(self._extents[offset])
        gap_bytes = len(payload) - sum(len(chunk) for chunk in self._tail.values())
        index = len(self._segments)  # base is segment 0, deltas are 1..N
        target = self._delta_path(self._path, index)
        table = {
            "version": _VERSION,
            "start": start,
            "graphs": [[extent.offset - start, extent.length] for extent in live],
        }
        write_segment(target, _MAGIC, [bytes(payload)], table)
        self._segments.append(self._open_segment(target, start, len(payload)))
        self._sealed_end = end
        self._tail = {}
        self._tail_end = 0
        self._dead_bytes += gap_bytes
        return len(live)

    @classmethod
    def attach(cls, path: PathLike) -> "GraphArena":
        """Open a sealed segment file read-only (shared pages across processes).

        Delta files published by :meth:`seal_delta` are discovered and
        mapped in order after the base segment, so an attaching worker sees
        exactly the records the owner had sealed (base + every delta).
        """
        arena = cls(path)
        base = Path(path)
        payload_length, table = read_segment_table(base, _MAGIC, "graph-arena")
        segments = [arena._open_segment(base, 0, payload_length)]
        extents = _table_extents(base, table, 0)
        position = payload_length
        for delta in cls._existing_delta_paths(base):
            delta_length, delta_table = read_segment_table(delta, _MAGIC, "graph-arena")
            start = delta_table.get("start")
            if start != position:
                raise CacheError(
                    f"{delta}: delta segment starts at {start!r}, expected {position}"
                )
            segments.append(arena._open_segment(delta, start, delta_length))
            extents.update(_table_extents(delta, delta_table, start))
            position = start + delta_length
        arena._install_segments(segments)
        arena._extents = extents
        arena._live_bytes = sum(
            extent.length for extent in arena._extents.values()
        )
        arena._dead_bytes = position - arena._live_bytes
        return arena

    def extents(self) -> List[ArenaExtent]:
        """Extents of every live record, in append order (the offset table)."""
        return list(self._extents.values())

    def segment_stats(self) -> List[Dict[str, object]]:
        """Per-segment occupancy: name, kind, total/live/dead bytes.

        The observable that makes re-seal pressure visible from the CLI —
        dead bytes in the base/delta files are only reclaimed by the next
        full :meth:`seal`.
        """
        stats: List[Dict[str, object]] = []
        for position, segment in enumerate(self._segments):
            live = sum(
                extent.length
                for extent in self._extents.values()
                if segment.start <= extent.offset < segment.start + segment.length
            )
            stats.append(
                {
                    "segment": segment.path.name,
                    "kind": "base" if position == 0 else "delta",
                    "bytes": segment.length,
                    "live_bytes": live,
                    "dead_bytes": segment.length - live,
                }
            )
        if self._tail:
            tail_bytes = sum(len(chunk) for chunk in self._tail.values())
            stats.append(
                {
                    "segment": "<tail>",
                    "kind": "tail",
                    "bytes": tail_bytes,
                    "live_bytes": tail_bytes,
                    "dead_bytes": 0,
                }
            )
        return stats

    # ------------------------------------------------------------------ #
    # Segment-file plumbing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _delta_path(base: Path, index: int) -> Path:
        return base.with_name(f"{base.name}.delta{index}")

    @classmethod
    def _existing_delta_paths(cls, base: Path) -> List[Path]:
        """Delta files for ``base`` that exist on disk, in publish order."""
        paths: List[Path] = []
        index = 1
        while True:
            candidate = cls._delta_path(base, index)
            if not candidate.exists():
                return paths
            paths.append(candidate)
            index += 1

    @staticmethod
    def _open_segment(path: Path, start: int, payload_length: int) -> _Segment:
        buffer = np.memmap(path, dtype=np.uint8, mode="r")
        return _Segment(start, payload_length, buffer, path)

    def _install_segments(self, segments: List[_Segment]) -> None:
        self._segments = segments
        self._sealed_end = (
            segments[-1].start + segments[-1].length if segments else 0
        )
        self._views.clear()

    def close(self) -> None:
        """Release the mmaps (the tail buffer stays usable)."""
        if self._segments:
            # np.memmap has no public close; dropping the references unmaps.
            self._segments = []
            self._sealed_end = 0
            self._views.clear()

    def __repr__(self) -> str:
        state = "sealed" if self.sealed else "open"
        return (
            f"<GraphArena {state} path={str(self._path) if self._path else None!r} "
            f"live={self._live_bytes}B dead={self._dead_bytes}B>"
        )
