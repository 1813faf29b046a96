"""Append-only journal of applied maintenance plans.

Every cache-update round the scheduler executes appends the round's
:class:`~repro.core.policies.plan.MaintenancePlan` — as its
:meth:`~repro.core.policies.plan.MaintenancePlan.to_record` dictionary — to a
:class:`PlanJournal`.  The journal is the durable, ordered decision stream of
one cache (one journal per shard for a sharded cache):

* **audit log** — each record carries the complete rationale of one round
  (admitted/rejected/evicted serials, policy, HD delegate, admission
  threshold, per-victim utilities), so ``graphcache maintenance`` can explain
  any admission or eviction after the fact;
* **replication feed** — the decide/apply split makes a plan mechanically
  applicable, so each record also carries the round's *admitted entries*
  (encoded window entries) and the *hit events* observed since the previous
  round: a frame a replica (or a crash recovery) can replay through
  :meth:`~repro.core.policies.engine.MaintenanceEngine.replay` to reproduce
  the primary's cache evolution without re-deciding anything.  Live shipping
  goes through :meth:`subscribe` — subscribers see every appended record in
  order;
* **equivalence evidence** — :meth:`dumps` renders the stream in a canonical
  byte form (sorted-key JSON lines), which is what the scheduler benchmarks
  compare to prove ``barrier`` scheduling produces a byte-identical plan
  stream to ``sync``.  It covers whole records: no record carries a clock
  reading (an admitted entry's expensiveness is a ratio of work counters),
  so two runs that made the same decisions render the same bytes.

When constructed with a ``path`` the journal is also written through to disk
as JSON lines, one record per line, through one append handle opened by the
first append (:meth:`close` releases it).  Each frame is flushed as it is
written, so readers see whole frames and a crash can lose at most the round
being written.  ``fsync=True`` also fsyncs every append (and, once, the
directory of a file it creates), so a checkpoint taken after a round can
never be durably ahead of its own journal.

Each record carries a 1-based ``round`` sequence number.  An existing file
is adopted on first use (or by the recovery read, :meth:`PlanJournal.stream`):
numbering continues past its last round, and a crash-torn fragment is cut
back to the last complete line.  :meth:`truncate_before`
compacts the file by dropping rounds already folded into a checkpoint
(atomic tempfile publish; surviving rounds keep their original numbers).
A checkpoint is written in the same line format — one state record per
shard (:mod:`repro.core.persistence`) — and :func:`read_lines` reads both.
"""

from __future__ import annotations

import json
import os
from collections import deque
from pathlib import Path
from typing import (
    Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple, Union,
)

from ...analysis.runtime import make_lock
from ...exceptions import CacheError
from ..atomic_io import fsync_directory, publish
from ..stores import WindowEntry, WindowEntryCodec
from .plan import MaintenancePlan

__all__ = ["PlanJournal", "canonical_line", "read_lines"]

PathLike = Union[str, Path]

#: One hit event as journaled: ``(serial, benefiting_serial, cs_reduction,
#: cost_reduction, special)`` — the exact argument tuple of
#: :meth:`~repro.core.policies.engine.MaintenanceEngine.on_hit`.
HitEvent = Tuple[int, int, float, float, bool]


#: ``json.dumps(record, sort_keys=True, separators=(",", ":"))``, built once.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
#: Decodes a line's text (``json.loads`` on bytes detects their encoding per call).
_DECODER = json.JSONDecoder()


def canonical_line(record: Dict[str, Any]) -> str:
    """One canonical JSON line per record (sorted keys, compact separators):
    the encoding of journal frames and snapshot state records alike."""
    return _CANONICAL.encode(record)


def read_lines(
    path: PathLike, whole: bool = False
) -> Iterator[Tuple[int, Dict[str, Any], int, int]]:
    """The one reader of the line format, for journals and snapshots alike.

    Streams ``(lineno, record, size_bytes, end)`` for every non-blank line,
    one decode a line: ``end`` is the byte offset past the line's newline
    (the one it should have, if a crash cut only that).  A journal can end
    mid-record — a crash while :meth:`PlanJournal.append` was writing — so
    an undecodable *final* line is skipped; one before it raises
    :class:`~repro.exceptions.CacheError`.  ``whole=True`` reads a file
    published whole (a snapshot): every line must decode and end with its
    newline, so a cut file fails closed instead.
    """
    offset = 0
    torn: Optional[Tuple[int, json.JSONDecodeError]] = None
    with open(path, "rb") as stream:
        for lineno, raw in enumerate(stream, start=1):
            offset += len(raw)
            line = raw.strip()
            if not line:
                continue
            if torn is not None:
                raise CacheError(
                    f"{path}: line {torn[0]} is not a journal record ({torn[1].msg}); "
                    f"only the final line of a crashed append may be partial"
                ) from torn[1]
            try:
                record = _DECODER.decode(line.decode("utf-8", "surrogatepass"))
            except json.JSONDecodeError as exc:
                if whole:
                    raise CacheError(f"{path}: line {lineno} is not a record ({exc.msg})") from exc
                torn = (lineno, exc)
                continue
            if whole and not raw.endswith(b"\n"):
                raise CacheError(f"{path}: line {lineno} was cut short")
            yield lineno, record, len(line), offset + (not raw.endswith(b"\n"))


def _scan(path: PathLike) -> Iterator[Tuple[Dict[str, Any], int, int]]:
    """:func:`read_lines` over a journal, each record carrying its ``round``
    (see :meth:`PlanJournal.read_records`)."""
    previous_round = 0
    for _, record, size, end in read_lines(path):
        record["round"] = previous_round = int(record.get("round", previous_round + 1))
        yield record, size, end


def decode_hits(raw: Sequence[Sequence[Any]]) -> Tuple[HitEvent, ...]:
    """Decode journaled hit events back into ``on_hit`` argument tuples."""
    return tuple([
        (int(s), int(b), float(cs), float(cost), bool(special))
        for s, b, cs, cost, special in raw
    ])


class PlanJournal:
    """In-memory (and optionally on-disk) append-only stream of plan records.

    Parameters
    ----------
    path:
        Optional file to write the stream through to, one JSON line per
        applied plan.  ``None`` keeps the journal in memory only.
    fsync:
        When ``True`` (and file-backed), every append is fsync'd before
        :meth:`append` returns — the durability mode the crash-recovery
        tests run under.  The append that creates the file also fsyncs its
        directory, so the file itself survives a crash.

    Memory bound: an in-memory-only journal (``path=None``) retains every
    record — it *is* the store.  A file-backed journal retains only the most
    recent :data:`MEMORY_LIMIT` records in RAM (the full stream lives on
    disk; :meth:`read_records` reads it back), so a long-running service's
    audit log does not grow the process without bound.
    """

    #: In-memory records retained by a *file-backed* journal (newest kept).
    MEMORY_LIMIT = 4096

    def __init__(self, path: Optional[PathLike] = None, fsync: bool = False) -> None:
        self._path = None if path is None else Path(path)
        self._fsync = bool(fsync)
        self._count = 0
        self._records: Deque[Dict[str, Any]] = deque(
            maxlen=self.MEMORY_LIMIT if self._path is not None else None
        )
        self._lock = make_lock("journal")
        # Opened by the first append; only touched under the journal lock.
        self._handle: Optional[TextIO] = None
        self._subscribers: List[Callable[[Dict[str, Any], str], None]] = []
        self._last_round = 0
        # An existing file is adopted on first use (see _adopt).
        self._adopted = self._path is None

    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Optional[Path]:
        """The backing file, or ``None`` for an in-memory journal."""
        return self._path

    @property
    def fsync(self) -> bool:
        """Whether appends are fsync'd through to disk."""
        return self._fsync

    @property
    def last_round(self) -> int:
        """The highest round number appended (or adopted from the file)."""
        with self._lock:
            self._adopt()
            return self._last_round

    def __len__(self) -> int:
        """Total number of plans ever appended (not the retained tail)."""
        with self._lock:
            return self._count

    def subscribe(self, callback: Callable[[Dict[str, Any], str], None]) -> None:
        """Register ``callback(record, line)`` for every future append.

        Callbacks run under the journal lock, so a subscriber observes the
        exact append order — the property replication relies on.  They must
        therefore be cheap (enqueue-and-return) and must not acquire any
        lock ranked at or below ``journal``.
        """
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Dict[str, Any], str], None]) -> None:
        """Remove a subscriber registered with :meth:`subscribe`."""
        with self._lock:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

    def append(
        self,
        plan: MaintenancePlan,
        admitted_entries: Optional[Sequence[WindowEntry]] = None,
        hits: Optional[Sequence[HitEvent]] = None,
    ) -> None:
        """Append one applied plan (and write it through, if file-backed).

        ``admitted_entries`` (the window entries the plan admitted, in plan
        order) and ``hits`` (the hit events observed since the previous
        round) make the record a complete replayable frame; omitting them
        keeps the record a pure audit entry, as pre-replication journals
        were.
        """
        record = plan.to_record()
        if admitted_entries is not None:
            record["admitted_entries"] = [
                WindowEntryCodec.encode(entry) for entry in admitted_entries
            ]
        if hits is not None:
            record["hits"] = [list(event) for event in hits]
        with self._lock:
            self._adopt()
            self._last_round += 1
            record["round"] = self._last_round
            line = canonical_line(record)
            self._count += 1
            self._records.append(record)
            if self._path is not None:
                if self._handle is None:
                    created = not self._path.exists()
                    self._handle = self._path.open("a", encoding="utf-8")
                    if created and self._fsync:  # the new directory entry, too
                        fsync_directory(self._path.parent)
                self._handle.write(line + "\n")
                self._handle.flush()
                if self._fsync:
                    os.fsync(self._handle.fileno())
            for callback in self._subscribers:
                callback(record, line)

    def close(self) -> None:
        """Close the append handle; idempotent, and a later append reopens."""
        with self._lock:
            self._close_handle()

    def _adopt(self, scanned: Optional[Tuple[int, int]] = None) -> None:
        """Adopt the existing file once (under the journal lock): continue its
        numbering and cut a crash-torn fragment back to the last complete
        line, fsync'd under ``fsync=True``, so the next append starts a line
        of its own.  ``scanned`` is ``(last_round, end)`` of a whole-file
        :func:`_scan` the caller already made."""
        if self._adopted:
            return
        self._adopted = True
        if scanned is None:
            if not self._path.exists():
                return
            scanned = (0, 0)
            for record, _, end in _scan(self._path):
                scanned = (record["round"], end)
        self._last_round, end = scanned
        size = self._path.stat().st_size
        if size != end:
            with self._path.open("r+b") as stream:
                if size > end:
                    stream.truncate(end)
                else:  # the final record lost only its newline
                    stream.seek(size)
                    stream.write(b"\n")
                    stream.flush()
                if self._fsync:
                    os.fsync(stream.fileno())

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def records(self) -> List[Dict[str, Any]]:
        """The retained plan records, in application order.

        Complete for in-memory journals; the most recent
        :data:`MEMORY_LIMIT` for file-backed ones (read the file via
        :meth:`read_records` for the full stream).
        """
        with self._lock:
            return list(self._records)

    def plans(self) -> List[MaintenancePlan]:
        """The retained plans, rebuilt from their records."""
        return [MaintenancePlan.from_record(record) for record in self.records()]

    def dumps(self) -> str:
        """Canonical byte stream of the retained records (sorted-key JSON
        lines).

        Two schedulers that made identical decisions produce identical
        strings — the byte-identity the ``barrier``-vs-``sync`` benchmark
        asserts (in-memory journals retain the whole stream).
        """
        return "\n".join(canonical_line(record) for record in self.records())

    # ------------------------------------------------------------------ #
    # Compaction.
    # ------------------------------------------------------------------ #
    def truncate_before(self, round_watermark: int) -> int:
        """Drop every record with ``round <= round_watermark`` from the file.

        The compaction counterpart of a checkpoint: once a snapshot's
        watermark covers a round, its record is dead weight for recovery
        and can be folded away.  The surviving tail is republished
        atomically (:func:`~repro.core.atomic_io.publish`), so a crash mid-compaction
        leaves either the old or the new file, never a torn mix.  Surviving
        records keep their original round numbers.  Returns the number of
        records dropped.  In-memory journals compact their deque directly.
        """
        with self._lock:
            self._adopt()  # keep the numbering even if every round is dropped
            dropped = 0
            self._close_handle()  # the next append opens the republished file
            if self._path is not None and self._path.exists():
                all_records = self.read_records(self._path)
                kept = [r for r in all_records if r["round"] > round_watermark]
                dropped = len(all_records) - len(kept)
                blob = "".join(canonical_line(record) + "\n" for record in kept)
                publish(self._path, lambda stream: stream.write(blob.encode("utf-8")))
            retained = [
                r
                for r in self._records
                if r.get("round", round_watermark + 1) > round_watermark
            ]
            if self._path is None:
                dropped = len(self._records) - len(retained)
            self._records = deque(retained, maxlen=self._records.maxlen)
            return dropped

    # ------------------------------------------------------------------ #
    def stream(
        self, since_round: int, path: Optional[PathLike] = None
    ) -> Iterator[Tuple[Dict[str, Any], int]]:
        """Stream ``(record, size_bytes)`` for every record of ``path``
        (default: this journal's file) with ``round >= since_round`` — the
        recovery read: one decode per line, every check of
        :meth:`read_records`.  Read to its end, the journal's own file is
        adopted for appending, so it is never decoded again."""
        scanned = (0, 0)
        for record, size, end in _scan(path or self._path):
            scanned = (record["round"], end)
            if record["round"] >= since_round:
                yield record, size
        if path is None or Path(path) == self._path:
            with self._lock:
                self._adopt(scanned)

    @staticmethod
    def read_records(
        path: PathLike,
        since_round: Optional[int] = None,
        tail: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Read a journal file back into records (skipping blank lines).

        Every returned record carries a ``round`` number: taken from the
        record when present, else inferred sequentially (legacy journals
        predate round numbering).  ``since_round`` keeps only records with
        ``round >= since_round``; ``tail`` keeps only the last ``tail``
        records (applied after ``since_round``).

        A torn final line is skipped and an undecodable earlier one raises
        :class:`~repro.exceptions.CacheError` (see :func:`read_lines`); a
        missing or unreadable file raises the underlying :class:`OSError`.
        """
        records = [
            record
            for record, _, _ in _scan(path)
            if since_round is None or record["round"] >= since_round
        ]
        if tail is not None and tail >= 0:
            records = records[-tail:] if tail else []
        return records
