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
  stream to ``sync``.  Volatile keys (``admitted_entries`` carries measured
  wall-clock filter/verify times) are excluded from that rendering, so the
  identity remains a statement about *decisions*, not timings.

When constructed with a ``path`` the journal is also written through to disk
as JSON lines, one record per line, through one append handle opened by the
first append (:meth:`close` releases it).  Each frame is flushed as it is
written, so readers see whole frames and a crash can lose at most the round
being written.  ``fsync=True`` also fsyncs every append (and, once, the
directory of a file it creates), so a checkpoint taken after a round can
never be durably ahead of its own journal.

Each record carries a 1-based ``round`` sequence number.  Re-opening an
existing file adopts the highest round already on disk, so a recovered cache
continues the numbering instead of restarting it.  :meth:`truncate_before`
compacts the file by dropping rounds already folded into a checkpoint
(atomic tempfile publish; surviving rounds keep their original numbers).
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import deque
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, TextIO, Tuple, Union

from ...analysis.runtime import make_lock
from ...exceptions import CacheError
from ..stores import WindowEntry, WindowEntryCodec
from .plan import MaintenancePlan

__all__ = ["PlanJournal"]

PathLike = Union[str, Path]

#: Record keys excluded from :meth:`PlanJournal.dumps`: they carry measured
#: wall-clock times (window-entry filter/verify seconds), which differ between
#: two otherwise decision-identical runs.
_VOLATILE_KEYS = ("admitted_entries", "hits")

#: One hit event as journaled: ``(serial, benefiting_serial, cs_reduction,
#: cost_reduction, special)`` — the exact argument tuple of
#: :meth:`~repro.core.policies.engine.MaintenanceEngine.on_hit`.
HitEvent = Tuple[int, int, float, float, bool]


#: ``json.dumps(record, sort_keys=True, separators=(",", ":"))``, built once.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical_line(record: Dict[str, Any]) -> str:
    """One canonical JSON line per record (sorted keys, compact separators)."""
    return _CANONICAL.encode(record)


def decode_hits(raw: Sequence[Sequence[Any]]) -> Tuple[HitEvent, ...]:
    """Decode journaled hit events back into ``on_hit`` argument tuples."""
    return tuple(
        (int(s), int(b), float(cs), float(cost), bool(special))
        for s, b, cs, cost, special in raw
    )


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
    disk; use :meth:`load` to read it back), so a long-running service's
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
        # Adopt the numbering of an existing file so a recovered cache
        # continues the round sequence instead of colliding with it.
        self._last_round = 0
        if self._path is not None and self._path.exists():
            existing = self.read_records(self._path)
            if existing:
                self._last_round = existing[-1]["round"]

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
            self._last_round += 1
            record["round"] = self._last_round
            line = _canonical_line(record)
            self._count += 1
            self._records.append(record)
            if self._path is not None:
                if self._handle is None:
                    created = not self._path.exists()
                    self._handle = self._path.open("a", encoding="utf-8")
                    if created and self._fsync:  # the new directory entry, too
                        directory = os.open(self._path.parent, os.O_RDONLY)
                        try:
                            os.fsync(directory)
                        finally:
                            os.close(directory)
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

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def records(self) -> List[Dict[str, Any]]:
        """The retained plan records, in application order.

        Complete for in-memory journals; the most recent
        :data:`MEMORY_LIMIT` for file-backed ones (read the file via
        :meth:`load` for the full stream).
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
        asserts (in-memory journals retain the whole stream).  Volatile
        keys (:data:`_VOLATILE_KEYS` — measured wall-clock times) are
        excluded so the identity covers decisions, not timings.
        """
        return "\n".join(
            _canonical_line(
                {k: v for k, v in record.items() if k not in _VOLATILE_KEYS}
            )
            for record in self.records()
        )

    # ------------------------------------------------------------------ #
    # Compaction.
    # ------------------------------------------------------------------ #
    def truncate_before(self, round_watermark: int) -> int:
        """Drop every record with ``round <= round_watermark`` from the file.

        The compaction counterpart of a checkpoint: once a snapshot's
        watermark covers a round, its record is dead weight for recovery
        and can be folded away.  The surviving tail is republished
        atomically (tempfile + ``os.replace``), so a crash mid-compaction
        leaves either the old or the new file, never a torn mix.  Surviving
        records keep their original round numbers.  Returns the number of
        records dropped.  In-memory journals compact their deque directly.
        """
        with self._lock:
            dropped = 0
            self._close_handle()  # the next append opens the republished file
            if self._path is not None and self._path.exists():
                all_records = self.read_records(self._path)
                kept = [r for r in all_records if r["round"] > round_watermark]
                dropped = len(all_records) - len(kept)
                fd, tmp_name = tempfile.mkstemp(
                    dir=str(self._path.parent), prefix=self._path.name + ".tmp"
                )
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as handle:
                        for record in kept:
                            handle.write(_canonical_line(record) + "\n")
                        handle.flush()
                        os.fsync(handle.fileno())
                    os.replace(tmp_name, self._path)
                except BaseException:
                    Path(tmp_name).unlink(missing_ok=True)
                    raise
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

        Append-only journals can legitimately end mid-record: a crash while
        :meth:`append` was writing leaves a torn final line.  That tail is
        skipped — every complete earlier round is still returned.  An
        undecodable line anywhere *before* the tail means the file is not a
        plan journal (or was corrupted in place) and raises
        :class:`~repro.exceptions.CacheError`; a missing or unreadable file
        raises the underlying :class:`OSError`.
        """
        numbered = [
            (lineno, line.strip())
            for lineno, line in enumerate(
                Path(path).read_text(encoding="utf-8").splitlines(), start=1
            )
            if line.strip()
        ]
        records: List[Dict[str, Any]] = []
        previous_round = 0
        for position, (lineno, line) in enumerate(numbered):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if position == len(numbered) - 1:
                    break  # torn tail of an interrupted append
                raise CacheError(
                    f"{path}: line {lineno} is not a journal record ({exc.msg}); "
                    f"only the final line of a crashed append may be partial"
                ) from exc
            record["round"] = int(record.get("round", previous_round + 1))
            previous_round = record["round"]
            records.append(record)
        if since_round is not None:
            records = [r for r in records if r["round"] >= since_round]
        if tail is not None and tail >= 0:
            records = records[-tail:] if tail else []
        return records

    @staticmethod
    def load(path: PathLike) -> List[MaintenancePlan]:
        """Read a journal file back into plans (see :meth:`read_records`)."""
        return [
            MaintenancePlan.from_record(record)
            for record in PlanJournal.read_records(path)
        ]
