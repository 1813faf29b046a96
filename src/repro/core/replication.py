"""Journal-driven read replicas: scale the read path horizontally.

The decide/apply split (PR 3) made a maintenance round a *mechanical* object:
a :class:`~repro.core.policies.plan.MaintenancePlan` plus the round's admitted
window entries and the hit events observed since the previous round.  PR 10
journals exactly that — every appended record is a complete, replayable
**frame** — which turns the plan journal into a replication feed:

* the **primary** is an ordinary :class:`~repro.core.cache.GraphCache` (or
  :class:`~repro.core.sharding.ShardedGraphCache`) that owns admission: it
  serves queries, fills its window, decides and applies rounds, and appends
  frames to its journal;
* a :class:`ReplicaSet` ships every shard's current state record, then
  subscribes to its journal and ships each frame, in append order, to N
  **followers** — read-only caches that restore the record and apply the
  frames, one at a time, through the same entry as crash recovery
  (:meth:`~repro.core.cache.GraphCache.restore`, then
  :meth:`~repro.core.cache.GraphCache.replay_frames`) without re-deciding
  anything, so a follower can join a fresh, warm or restarted primary;
* followers serve :meth:`~repro.core.cache.GraphCache.lookup` — the full
  GC read pipeline (Mfilter → processors → pruner → verification) with no
  serial assignment, no window commit and no statistics movement — so read
  throughput scales with the replica count while the primary alone mutates.

**Identity invariant** (pinned by the tests and the replication benchmark):
because a state record is the fold of rounds ``1..w`` and a frame carries
everything ``apply`` consumed on the primary, a follower that restored the
record and applied rounds ``w+1..k`` holds *exactly* the primary's cache
state at round ``k``'s boundary — same entries, same per-query statistics,
same GCindex publication version, same next serial.

Two fan-out modes:

* ``mode="thread"`` — followers live in-process, one applier thread per
  replica (reads still overlap Method-M filtering; cheap and portable);
* ``mode="process"`` — followers are forked children
  (:func:`~repro.core.workers.fork_context`), each owning a full cache and
  applying frames shipped over a pipe, so replica reads escape the GIL the
  same way :class:`~repro.core.workers.ProcessPoolCacheService` shards do.

Lock discipline: the journal subscriber runs under the ``journal`` lock
(rank 45) and only touches the ``replication.state`` counters (rank 47) and
a stdlib queue — frames are enqueued, never applied, on the primary's
commit path.  The ``replication.reader`` lock (rank 48) guards only the
round-robin cursor and is released before any follower work.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import asdict, replace
from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..analysis.runtime import make_lock
from ..exceptions import CacheError
from ..graphs.graph import Graph
from ..graphs.io import graph_from_text, graph_to_text
from ..isomorphism.base import SubgraphMatcher
from ..memo import BoundedMemo
from ..methods.base import Method
from .cache import GraphCache
from .config import GraphCacheConfig
from .policies import MaintenancePlan
from .policies.journal import HitEvent, PlanJournal, decode_hits
from .sharding import ShardedGraphCache, build_cache
from .statistics import CachedQueryStats
from .stores import CacheEntryCodec, WindowEntry, WindowEntryCodec
from .workers import fork_context

__all__ = [
    "CacheReplica",
    "ReplicaSet",
    "ReplicationFrame",
    "cache_state_digest",
]

AnyCache = Union[GraphCache, ShardedGraphCache]


# ---------------------------------------------------------------------- #
# Frames.
# ---------------------------------------------------------------------- #
class ReplicationFrame(NamedTuple):
    """One shippable maintenance round: plan + admitted entries + hits.

    The decoded form of one journal record — everything a follower (or a
    crash recovery) needs to reproduce the round's effect on the cache
    without re-deciding it.
    """

    plan: MaintenancePlan
    entries: Tuple[WindowEntry, ...]  # checked: queries are ParsedGraphs
    hits: Tuple[HitEvent, ...]
    size_bytes: int

    @classmethod
    def from_record(cls, record: Dict[str, Any], size_bytes: int, dataset_size: int,
                    parsed: Optional[BoundedMemo] = None) -> "ReplicationFrame":
        """Decode a journal record into a frame.

        ``size_bytes`` is the length of the record's journal line.  Admitted
        entries are checked, not built (:meth:`WindowEntryCodec.check`, with
        the ``parsed`` memo of a frame stream), their answers against the
        ``dataset_size`` graphs of the dataset.  A
        record that admits serials but carries no ``admitted_entries``
        predates frame journaling (pre-PR-10 audit-only journals) and cannot
        be replayed — that is a hard error, not a silent skip, because a
        replica that dropped such a round would silently diverge.
        """
        plan = MaintenancePlan.from_record(record)
        if plan.admitted_serials and "admitted_entries" not in record:
            raise CacheError(
                "journal record admits serials but carries no admitted entries; "
                "this journal predates replication frames and cannot be "
                "replayed (re-run the primary to produce a frame journal)"
            )
        entries = record.get("admitted_entries", ())
        checked = tuple([WindowEntryCodec.check(entry, dataset_size, parsed) for entry in entries])
        return cls(plan, checked, decode_hits(record.get("hits", ())), size_bytes)


# ---------------------------------------------------------------------- #
# State digests (the identity oracle).
# ---------------------------------------------------------------------- #
def _shard_digest(shard: GraphCache, replicated_only: bool) -> Dict[str, Any]:
    entries = sorted(
        (
            CacheEntryCodec.encode(shard.cached_entry(serial))
            for serial in shard.cached_serials
        ),
        key=lambda record: record["serial"],
    )
    stats = [
        asdict(shard.statistics_manager.snapshot(record["serial"])) for record in entries
    ]
    digest: Dict[str, Any] = {
        "entries": entries,
        "stats": stats,
        "index_version": shard.query_index.version,
    }
    if not replicated_only:
        # A window query has no row; its statistics are an empty row.
        window_entries = sorted(shard.window_entries(), key=lambda entry: entry.serial)
        stats += [asdict(CachedQueryStats(e.serial)) for e in window_entries]
        digest["window"] = [WindowEntryCodec.encode(e) for e in window_entries]
        digest["next_serial"] = shard.current_serial
    return digest


def cache_state_digest(
    cache: AnyCache,
    include_index_version: bool = True,
    replicated_only: bool = False,
) -> List[Dict[str, Any]]:
    """Per-shard, JSON-able digest of the replicated cache state.

    Covers exactly what replication promises to keep identical: the cached
    entries, the window contents, the per-query statistics of every live
    serial, the serial counter and the GCindex publication version.  Two
    caches with equal digests are indistinguishable to the read path.
    (Statistics are compared only for live serials — cached or windowed —
    matching what snapshots persist.)

    Two restrictions, for the two comparison contexts:

    * ``include_index_version=False`` drops the GCindex version: it is a
      *publication counter*, identical between a primary and a replica that
      applied the same rounds from scratch, but structurally different
      after a snapshot restore (one rebuild replaces many publishes) —
      recovery comparisons exclude it.
    * ``replicated_only=True`` drops the in-flight window and the serial
      counter: a replica tracks the primary *at round boundaries*, so
      between a shard's rounds the primary's window holds entries (and its
      serial counter covers queries) no frame has shipped yet.  What
      remains — cached entries, their statistics, the index version — is
      the state the read path serves from; entries and index version are
      identical at every instant, while hit statistics may *lead* the
      replica by the hit events buffered for the next frame.  The strict
      full-digest identity therefore holds exactly at each shard's round
      boundaries (what the tests pin, shard by shard).
    """
    shards: Sequence[GraphCache]
    if isinstance(cache, ShardedGraphCache):
        shards = cache.shards
    else:
        shards = (cache,)
    digests = [_shard_digest(shard, replicated_only) for shard in shards]
    if not include_index_version:
        for digest in digests:
            digest.pop("index_version")
    return digests


# ---------------------------------------------------------------------- #
# One follower.
# ---------------------------------------------------------------------- #
def _follower_config(config: GraphCacheConfig) -> GraphCacheConfig:
    """A follower's configuration, derived from the primary's.

    Same policies, capacities and shard count (frames are addressed by shard
    id, so the topology must match); but memory-backed, journal-less and
    synchronous — a follower never journals (a replayed round is already
    journaled on the primary) and never schedules rounds of its own.
    """
    return replace(
        config,
        backend="memory",
        backend_path=None,
        journal_path=None,
        journal_fsync=False,
        maintenance_mode="sync",
        compaction_threshold=None,
    )


class CacheReplica:
    """One read-only follower cache, fed frames and serving lookups.

    Built from the primary's configuration via :func:`_follower_config`;
    apply order is the caller's responsibility (the :class:`ReplicaSet`
    applier thread preserves journal append order per shard).
    """

    def __init__(
        self,
        method: Method,
        config: GraphCacheConfig,
        matcher: Optional[SubgraphMatcher] = None,
        name: str = "replica",
    ) -> None:
        self.name = name
        self._cache = build_cache(
            method, _follower_config(config), matcher=matcher
        )

    @property
    def cache(self) -> AnyCache:
        """The follower cache (exposed for inspection and tests)."""
        return self._cache

    def apply_frame(self, shard: int, record: Dict[str, Any], line: Optional[str]) -> None:
        """Apply one shipped record to the addressed shard, only through the
        one restore-then-replay entry: the primary's state record (shipped
        first, with no journal ``line``) is restored, each journal frame
        after it replayed; frame by frame, the follower matches the primary
        at every boundary."""
        if isinstance(self._cache, ShardedGraphCache):
            target = self._cache.shards[shard]
        else:
            target = self._cache
        if line is None:
            target.restore(record)
            return
        size = len(target.method.dataset)
        frame = ReplicationFrame.from_record(record, len(line.encode("utf-8")), size)
        target.replay_frames((frame,))

    def lookup(self, query: Graph) -> FrozenSet[int]:
        """Serve one read-only query (no serial, no window, no statistics)."""
        return self._cache.lookup(query)

    def state_digest(
        self, replicated_only: bool = False
    ) -> List[Dict[str, Any]]:
        """Per-shard digest of the follower state (identity oracle)."""
        return cache_state_digest(
            self._cache, replicated_only=replicated_only
        )

    def statistics(self) -> Dict[str, Any]:
        """Replication counters: rounds/bytes applied, apply seconds."""
        runtime = self._cache.runtime_statistics
        return {
            "rounds_applied": runtime.replay_rounds,
            "bytes_applied": runtime.replay_bytes,
            "apply_time_s": runtime.replay_apply_time_s,
        }

    def close(self) -> None:
        """Release the follower's pipeline and store resources."""
        self._cache.close()


# ---------------------------------------------------------------------- #
# Fan-out backends.
# ---------------------------------------------------------------------- #
class _ThreadFollower:
    """In-process follower: a queue-fed applier thread over a CacheReplica."""

    def __init__(
        self,
        name: str,
        method: Method,
        config: GraphCacheConfig,
        matcher: Optional[SubgraphMatcher],
    ) -> None:
        self.name = name
        self._replica = CacheReplica(method, config, matcher=matcher, name=name)
        self._queue: "queue.Queue" = queue.Queue()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._loop, name=f"graphcache-{name}", daemon=True
        )
        self._thread.start()

    def ship(self, shard: int, record: Dict[str, Any], line: Optional[str]) -> None:
        self._queue.put(("frame", shard, record, line))

    def _loop(self) -> None:
        while True:
            message = self._queue.get()
            try:
                if message[0] == "stop":
                    return
                if self._error is None:
                    _, shard, record, line = message
                    self._replica.apply_frame(shard, record, line)
            except BaseException as exc:  # surfaced on the next sync()
                self._error = exc
            finally:
                self._queue.task_done()

    def sync(self) -> None:
        self._queue.join()
        if self._error is not None:
            raise CacheError(
                f"{self.name} failed to apply a replication frame: "
                f"{self._error}"
            ) from self._error

    def lookup(self, query: Graph) -> FrozenSet[int]:
        return self._replica.lookup(query)

    def state_digest(
        self, replicated_only: bool = False
    ) -> List[Dict[str, Any]]:
        return self._replica.state_digest(replicated_only=replicated_only)

    def statistics(self) -> Dict[str, Any]:
        return self._replica.statistics()

    def close(self) -> None:
        self._queue.put(("stop",))
        self._thread.join(timeout=30)
        self._replica.close()


def _follower_process_loop(conn, method, config, matcher) -> None:
    """Serve one forked follower until told to close.

    ``method``/``config`` arrive through the fork's copy-on-write image.
    Frames are fire-and-forget (pipelined); the first apply error is
    remembered and surfaced on the next control message, mirroring the
    thread follower's sync semantics.
    """
    replica = CacheReplica(method, config, matcher=matcher)
    error: Optional[str] = None
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            kind = message[0]
            if kind == "frame":
                if error is None:
                    try:
                        _, shard, record, line = message
                        replica.apply_frame(shard, record, line)
                    except BaseException as exc:
                        error = repr(exc)
            elif kind == "sync":
                conn.send(("synced", error, replica.statistics()))
            elif kind == "lookup":
                answers = replica.lookup(graph_from_text(message[1]))
                conn.send(("answers", sorted(answers)))
            elif kind == "digest":
                conn.send(
                    ("digest", replica.state_digest(replicated_only=message[1]))
                )
            elif kind == "stats":
                conn.send(("stats", replica.statistics()))
            elif kind == "close":
                conn.send(("closed", None))
                break
            else:  # pragma: no cover - protocol misuse guard
                raise CacheError(f"unknown follower message {kind!r}")
    finally:
        replica.close()
        conn.close()


class _ProcessFollower:
    """Forked follower: frames and control calls serialized on one feeder.

    The feeder thread is the only user of the parent end of the pipe, so
    frame shipping and control round-trips never interleave; control calls
    ride the same queue as frames and therefore observe every frame shipped
    before them (per-replica FIFO).
    """

    def __init__(
        self,
        name: str,
        method: Method,
        config: GraphCacheConfig,
        matcher: Optional[SubgraphMatcher],
    ) -> None:
        self.name = name
        context = fork_context()
        parent_conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_follower_process_loop,
            args=(child_conn, method, _follower_config(config), matcher),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._conn = parent_conn
        self._queue: "queue.Queue" = queue.Queue()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._loop, name=f"graphcache-{name}-feeder", daemon=True
        )
        self._thread.start()

    def ship(self, shard: int, record: Dict[str, Any], line: Optional[str]) -> None:
        self._queue.put(("frame", shard, record, line))

    def _call(self, *message: Any) -> Any:
        """Round-trip one control message through the feeder queue."""
        done = threading.Event()
        box: Dict[str, Any] = {}
        self._queue.put(("call", message, box, done))
        done.wait(timeout=60)
        if not done.is_set():
            raise CacheError(f"{self.name} did not answer {message[0]!r}")
        if "error" in box:
            raise CacheError(
                f"{self.name} failed on {message[0]!r}: {box['error']}"
            )
        return box["reply"]

    def _loop(self) -> None:
        while True:
            message = self._queue.get()
            try:
                if message[0] == "stop":
                    return
                if message[0] == "frame":
                    if self._error is None:
                        self._conn.send(message)
                else:  # ("call", payload, box, done)
                    _, payload, box, done = message
                    try:
                        self._conn.send(payload)
                        _, *reply = self._conn.recv()
                        box["reply"] = reply
                    except BaseException as exc:
                        box["error"] = repr(exc)
                    finally:
                        done.set()
            except BaseException as exc:
                self._error = exc
            finally:
                self._queue.task_done()

    def sync(self) -> None:
        self._queue.join()
        if self._error is not None:
            raise CacheError(
                f"{self.name} failed to ship a replication frame: "
                f"{self._error}"
            ) from self._error
        error, _stats = self._call("sync")
        if error is not None:
            raise CacheError(
                f"{self.name} failed to apply a replication frame: {error}"
            )

    def lookup(self, query: Graph) -> FrozenSet[int]:
        (answers,) = self._call("lookup", graph_to_text(query))
        return frozenset(int(x) for x in answers)

    def state_digest(
        self, replicated_only: bool = False
    ) -> List[Dict[str, Any]]:
        (digest,) = self._call("digest", replicated_only)
        return digest

    def statistics(self) -> Dict[str, Any]:
        (stats,) = self._call("stats")
        return stats

    def close(self) -> None:
        try:
            self._call("close")
        except CacheError:
            pass
        self._queue.put(("stop",))
        self._thread.join(timeout=30)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
        self._process.join(timeout=30)
        if self._process.is_alive():  # pragma: no cover - hung follower guard
            self._process.terminate()
            self._process.join(timeout=5)


# ---------------------------------------------------------------------- #
# The replica set.
# ---------------------------------------------------------------------- #
class ReplicaSet:
    """N journal-fed read replicas behind one primary cache.

    Parameters
    ----------
    primary:
        The cache that owns admission, fresh or warm: every follower starts
        from each shard's current state record (empty for a fresh primary)
        and replicates forward from the frames past its watermark.
    replicas:
        Number of followers (each a complete cache with the primary's shard
        topology).
    mode:
        ``"thread"`` (in-process appliers) or ``"process"`` (forked
        followers over pipes; requires the POSIX ``fork`` start method).
    matcher:
        Optional containment-matcher override forwarded to every follower.

    Frames ship from a journal subscriber (append order per shard is the
    apply order); :meth:`sync` is the read-your-rounds barrier — after it
    returns, every follower has applied every round journaled before the
    call, and :meth:`lookup` answers from replica state identical to the
    primary's round boundary.
    """

    def __init__(
        self,
        primary: AnyCache,
        replicas: int = 2,
        mode: str = "thread",
        matcher: Optional[SubgraphMatcher] = None,
    ) -> None:
        if replicas < 1:
            raise CacheError("a ReplicaSet needs at least one replica")
        if mode not in ("thread", "process"):
            raise CacheError(f"unknown replication mode {mode!r}")
        self._primary = primary
        self._mode = mode
        if isinstance(primary, ShardedGraphCache):
            self._shards: Tuple[GraphCache, ...] = primary.shards
        else:
            self._shards = (primary,)
        self._state_lock = make_lock("replication.state")
        self._reader_lock = make_lock("replication.reader")
        self._cursor = 0
        self._rounds_shipped = 0
        self._bytes_shipped = 0
        follower_cls = _ThreadFollower if mode == "thread" else _ProcessFollower
        self._followers = [
            follower_cls(
                f"replica-{index}", primary.method, primary.config, matcher
            )
            for index in range(replicas)
        ]
        self._subscriptions = []
        for shard_id, shard in enumerate(self._shards):
            shard.snapshot_state(self._attacher(shard_id, shard.plan_journal))
        self._closed = False

    def _attacher(self, shard_id: int, journal: PlanJournal):
        """The follower bootstrap, run by ``snapshot_state`` under the
        shard's GC lock: ship the state record, then subscribe to the
        journal, before any later round can append."""

        def _ship(record: Dict[str, Any], line: str) -> None:
            # Runs under the journal lock (rank 45): bump the ship counters
            # (rank 47) and enqueue — the frame is applied on the follower's
            # own thread/process, never on the primary's commit path.
            with self._state_lock:  # repro: lock[replication.state]
                self._rounds_shipped += 1
                self._bytes_shipped += len(line.encode("utf-8"))
            for follower in self._followers:
                follower.ship(shard_id, record, line)

        def attach(state: Dict[str, Any]) -> None:
            for follower in self._followers:
                follower.ship(shard_id, state, None)
            journal.subscribe(_ship)
            self._subscriptions.append((journal, _ship))

        return attach

    # ------------------------------------------------------------------ #
    @property
    def primary(self) -> AnyCache:
        """The cache that owns admission."""
        return self._primary

    @property
    def mode(self) -> str:
        """Fan-out mode: ``"thread"`` or ``"process"``."""
        return self._mode

    def sync(self) -> None:
        """Block until every follower has applied every shipped frame.

        Raises :class:`~repro.exceptions.CacheError` if any follower failed
        to apply a frame (the failure is remembered, not swallowed).
        """
        for follower in self._followers:
            follower.sync()

    def lookup(self, query: Graph) -> FrozenSet[int]:
        """Serve one read-only query from the next replica (round-robin).

        The reader lock guards only the cursor and is released before the
        follower runs, so concurrent lookups proceed on distinct replicas.
        """
        with self._reader_lock:  # repro: lock[replication.reader]
            index = self._cursor % len(self._followers)
            self._cursor += 1
        return self._followers[index].lookup(query)

    def replica_digests(
        self, replicated_only: bool = False
    ) -> List[List[Dict[str, Any]]]:
        """Every follower's per-shard state digest (call :meth:`sync` first)."""
        return [
            follower.state_digest(replicated_only=replicated_only)
            for follower in self._followers
        ]

    def primary_digest(
        self, replicated_only: bool = False
    ) -> List[Dict[str, Any]]:
        """The primary's per-shard state digest."""
        return cache_state_digest(
            self._primary, replicated_only=replicated_only
        )

    def replication_statistics(self) -> List[Dict[str, Any]]:
        """Per-replica lag metrics: rounds behind, bytes shipped, apply time."""
        with self._state_lock:  # repro: lock[replication.state]
            shipped = self._rounds_shipped
            shipped_bytes = self._bytes_shipped
        collected = []
        for follower in self._followers:
            stats = follower.statistics()
            collected.append(
                {
                    "replica": follower.name,
                    "mode": self._mode,
                    "rounds_shipped": shipped,
                    "rounds_applied": stats["rounds_applied"],
                    "rounds_behind": max(
                        0, shipped - stats["rounds_applied"]
                    ),
                    "bytes_shipped": shipped_bytes,
                    "bytes_applied": stats["bytes_applied"],
                    "apply_time_s": stats["apply_time_s"],
                }
            )
        return collected

    def close(self) -> None:
        """Detach from the journals and stop every follower."""
        if self._closed:
            return
        self._closed = True
        for journal, callback in self._subscriptions:
            journal.unsubscribe(callback)
        self._subscriptions = []
        for follower in self._followers:
            follower.close()

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
