"""Persistence of GraphCache state across sessions.

The paper's Cache Manager loads its stores from disk on startup and writes
them back on shutdown (§6.1) so that a long-running analytics deployment does
not start from a cold cache after a restart.  This module provides the same
capability for :class:`~repro.core.cache.GraphCache` and
:class:`~repro.core.sharding.ShardedGraphCache`: the cached queries, their
answer sets, their statistics, the in-flight window and the configuration are
written to a single JSON snapshot; loading the snapshot restores a warm cache
in front of the same (re-built) Method M.

Snapshot format v4 (this module writes and reads v4 only; an older snapshot
raises :class:`~repro.exceptions.CacheError` naming its version):

* one **sub-snapshot per shard** — a plain cache is a one-shard snapshot —
  each carrying its cached entries (+ per-query statistics), its current
  window entries (+ statistics), its serial counter, its **maintenance
  state** and its **journal round watermark** — the highest
  :class:`~repro.core.policies.journal.PlanJournal` round already folded
  into the snapshot, which is what :func:`recover_cache` replays past;
* ``next_serial`` is the shard's actual serial counter, *not* its
  ``queries_processed`` count;
* the window **is** persisted: restoring mid-window replays exactly,
  instead of silently losing up to ``window_size - 1`` admissions;
* the ``maintenance`` record carries the admission controller's full
  state — calibration scores, windows observed, fixed threshold, and the
  adaptive controller's hill-climb history — so a cache saved
  *mid-calibration* resumes exactly where it stopped.  The replacement
  policy's incremental utility heap is **not** serialized: its contents
  are derived from the per-entry statistics the snapshot already carries,
  so the restore path rebuilds it instead of trusting a second copy that
  could drift.

Restores go through the public :meth:`GraphCache.restore` API — persistence
never reaches into private stores — so the entries land in whatever storage
backend the configuration selects (in-memory or mmap) and GCindex is
rebuilt through the same code path the engine's delta apply uses.

Snapshots are published atomically, so a crash mid-save leaves the previous
checkpoint intact: ``checkpoint + journal replay`` (:func:`recover_cache`)
always starts from a complete checkpoint.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from ..exceptions import CacheError
from ..methods.base import Method
from .atomic_io import publish
from .cache import GraphCache
from .config import GraphCacheConfig
from .replication import ReplicationFrame
from .sharding import ShardedGraphCache
from .statistics import CachedQueryStats
from .stores import CacheEntryCodec, WindowEntryCodec

__all__ = ["save_cache", "load_cache", "recover_cache"]

PathLike = Union[str, Path]

_FORMAT_VERSION = 4


def _shard_payload(shard: GraphCache) -> Dict[str, Any]:
    """Sub-snapshot of one (shard) cache: entries, window, stats, serial,
    maintenance state.

    Built from :meth:`GraphCache.snapshot_state`, which reads everything
    under the shard's GC lock — snapshotting a cache that is concurrently
    serving queries can never observe a half-finished maintenance round.
    """
    entries, stats, window_entries, next_serial, maintenance = (
        shard.snapshot_state()
    )
    stats_by_serial = {snapshot.serial: snapshot for snapshot in stats}

    def with_stats(record: Dict[str, Any]) -> Dict[str, Any]:
        record["statistics"] = asdict(stats_by_serial[record["serial"]])
        return record

    return {
        "next_serial": next_serial,
        "entries": [with_stats(CacheEntryCodec.encode(e)) for e in entries],
        "window": [with_stats(WindowEntryCodec.encode(e)) for e in window_entries],
        "maintenance": maintenance,
        # The journal round watermark: every round <= this is folded into
        # the entries/stats above (snapshot_state drains pending rounds
        # first, so the journal cannot be mid-round here).  recover_cache
        # replays strictly past it.
        "journal_round": shard.plan_journal.last_round,
    }


def save_cache(
    cache: Union[GraphCache, ShardedGraphCache], path: PathLike
) -> None:
    """Write a warm-cache snapshot of ``cache`` to ``path`` (JSON, format v4).

    The snapshot is published atomically
    (:func:`~repro.core.atomic_io.publish`) — a crash mid-save leaves the
    previous checkpoint (if any) intact, never a torn file.
    """
    shards = cache.shards if isinstance(cache, ShardedGraphCache) else (cache,)
    payload = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(cache.config),
        "shard_count": len(shards),
        "dataset_name": cache.method.dataset.name,
        "dataset_size": len(cache.method.dataset),
        "shards": [_shard_payload(shard) for shard in shards],
    }
    blob = json.dumps(payload, indent=2).encode("utf-8")
    publish(path, lambda stream: stream.write(blob))


def _restore_shard(shard: GraphCache, payload: Dict[str, Any]) -> None:
    """Feed one sub-snapshot through the public ``restore`` API."""
    entries = [CacheEntryCodec.decode(record) for record in payload["entries"]]
    window_entries = [WindowEntryCodec.decode(record) for record in payload["window"]]
    stats = [
        CachedQueryStats(**record["statistics"])
        for record in payload["entries"] + payload["window"]
    ]
    shard.restore(
        entries,
        stats=stats,
        next_serial=int(payload["next_serial"]),
        window_entries=window_entries,
        maintenance=payload["maintenance"],
    )


def load_cache(
    path: PathLike, method: Method
) -> Union[GraphCache, ShardedGraphCache]:
    """Restore a warm cache over ``method`` from a v4 snapshot.

    Returns a plain :class:`GraphCache` for single-shard snapshots and a
    :class:`ShardedGraphCache` for multi-shard ones.  The snapshot must have
    been taken against a dataset of the same size (answer sets are stored as
    graph ids); a mismatch raises :class:`CacheError` rather than silently
    returning wrong answers.
    """
    return _load_payload(json.loads(Path(path).read_text(encoding="utf-8")), method)


def _load_payload(
    payload: Dict[str, Any], method: Method
) -> Union[GraphCache, ShardedGraphCache]:
    """:func:`load_cache` over an already parsed snapshot."""
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise CacheError(
            f"unsupported cache snapshot version {version!r}: "
            f"load_cache reads v{_FORMAT_VERSION} only"
        )
    if payload["dataset_size"] != len(method.dataset):
        raise CacheError(
            f"snapshot was taken against a dataset of {payload['dataset_size']} graphs, "
            f"but the supplied method serves {len(method.dataset)} graphs"
        )

    config_fields = dict(payload["config"])
    # Older v4 snapshots carry retired config keys: ``execution_mode`` (every
    # stage order gave the same answers and counters; stages now always run
    # in order) and ``packed_match`` (the serving mode now follows the
    # dataset: views in pool workers, decoded graphs in-process).
    for retired in ("execution_mode", "packed_match"):
        config_fields.pop(retired, None)
    try:
        config = GraphCacheConfig(**config_fields)
    except TypeError as exc:
        raise CacheError(f"snapshot config is not a GraphCacheConfig: {exc}") from exc
    shard_payloads = payload["shards"]
    if payload["shard_count"] != len(shard_payloads):
        raise CacheError(
            f"snapshot declares {payload['shard_count']} shards but carries "
            f"{len(shard_payloads)} sub-snapshots"
        )

    if payload["shard_count"] > 1:
        if config.shards != payload["shard_count"]:
            raise CacheError(
                f"snapshot of {payload['shard_count']} shards does not match "
                f"config.shards={config.shards}"
            )
        sharded = ShardedGraphCache(method, config)
        for shard, shard_payload in zip(sharded.shards, shard_payloads, strict=True):
            _restore_shard(shard, shard_payload)
        return sharded

    cache = GraphCache(method, config)
    _restore_shard(cache, shard_payloads[0])
    return cache


def recover_cache(
    path: PathLike,
    method: Method,
    journal: Optional[PathLike] = None,
) -> Union[GraphCache, ShardedGraphCache]:
    """Load a v4 checkpoint and replay journal rounds past its watermark.

    The crash-recovery entry point: ``path`` is the last published
    checkpoint and ``journal`` the (possibly crash-torn) plan journal the
    writer was appending to.  Each shard's frames past its checkpoint
    ``journal_round`` watermark are streamed through one
    :meth:`GraphCache.replay_frames` call, reproducing the uninterrupted
    run's entries, statistics and serial counter at the last fully
    journaled round.  A torn final line is ignored; an undecodable line
    before it raises :class:`CacheError`.  A mid-window snapshot already
    holds the hits buffered for the next frame, so that prefix is skipped.

    Cost: one snapshot parse, one decode per journal line (which also adopts
    a shard's own journal for appending) and a full check of every admitted
    entry, so a damaged one fails even if the tail evicts it.  The rest is
    for the tail's *net* effect: an entry admitted and evicted after the
    checkpoint never becomes a Graph, is never packed, indexed or stored;
    memory holds the live entries, not the tail.

    ``journal=None`` replays from each shard's configured
    ``journal_path``; an explicit path is used directly (for sharded
    snapshots it is the base path of the per-shard files, exactly as
    ``config.journal_path`` is).  A missing journal file means there is
    nothing past the checkpoint.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    cache = _load_payload(payload, method)
    shards = cache.shards if isinstance(cache, ShardedGraphCache) else (cache,)
    try:
        for index, (shard, sub) in enumerate(
            zip(shards, payload["shards"], strict=True)
        ):
            if journal is None:
                journal_path = shard.config.journal_path
            elif len(shards) > 1:
                journal_path = ShardedGraphCache._shard_path(str(journal), index)
            else:
                journal_path = journal
            if journal_path is None or not Path(journal_path).exists():
                continue
            since_round = int(sub.get("journal_round", 0)) + 1
            shard.replay_frames(_tail_frames(shard, Path(journal_path), since_round))
    except BaseException:
        cache.close()
        raise
    return cache


def _tail_frames(
    shard: GraphCache, path: Path, since_round: int
) -> Iterator[ReplicationFrame]:
    """Decode the frames of ``path`` from ``since_round`` on, one at a time."""
    skip_hits = None
    for record, size_bytes in shard.plan_journal.stream(since_round, path):
        frame = ReplicationFrame.from_record(record, size_bytes)
        if skip_hits is None:  # the restored pending hits prefix this frame
            skip_hits = len(shard.maintenance_engine.take_pending_hits())
            frame = replace(frame, hits=frame.hits[skip_hits:])
        yield frame
