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
backend the configuration selects (in-memory or SQLite) and GCindex is
rebuilt through the same code path the engine's delta apply uses.

Snapshots are published atomically (tempfile + ``os.replace``), so a crash
mid-save leaves the previous checkpoint intact — the invariant that makes
``checkpoint + journal replay`` (:func:`recover_cache`) a safe recovery
story: the journal is append-only with a torn-tail-tolerant decoder, and the
checkpoint is either the old complete one or the new complete one.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..exceptions import CacheError
from ..methods.base import Method
from .cache import GraphCache
from .config import GraphCacheConfig
from .policies import PlanJournal
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

    The snapshot is published atomically: the payload is written to a
    tempfile in the target directory, fsync'd, and moved over ``path`` with
    ``os.replace`` — a crash mid-save leaves the previous checkpoint (if
    any) intact, never a torn file.
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
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent) or ".", prefix=target.name + ".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        Path(tmp_name).unlink(missing_ok=True)
        raise


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
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
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

    config = GraphCacheConfig(**payload["config"])
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
    writer was appending to.  Every journal frame with a round number
    strictly greater than the checkpoint's per-shard ``journal_round``
    watermark is replayed through :meth:`GraphCache.replay_plan` — the
    same delta machinery replicas use — reproducing the uninterrupted
    run's state byte-for-byte (entries, statistics, serial counter) up to
    the last fully journaled round.  A torn final line (the append the
    crash interrupted) is tolerated and ignored.

    ``journal=None`` replays from each shard's configured
    ``journal_path``; an explicit path is used directly (for sharded
    snapshots it is treated as the base path and per-shard files are
    derived from it, exactly as ``config.journal_path`` is).  A missing
    journal file simply means there is nothing past the checkpoint.

    A snapshot taken mid-window persists the hit events already absorbed
    since the last round (the engine's pending-hit buffer); the first
    replayed frame contains those events as its prefix, so recovery skips
    exactly that many and never double-counts a hit.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    # Imported here: replication builds on cache/sharding like this module
    # does, and the frame codec is the single place journal records are
    # decoded for replay.
    from .replication import ReplicationFrame

    cache = load_cache(path, method)
    shards = cache.shards if isinstance(cache, ShardedGraphCache) else (cache,)
    for index, (shard, sub) in enumerate(
        zip(shards, payload["shards"], strict=True)
    ):
        watermark = int(sub.get("journal_round", 0))
        if journal is not None:
            journal_path = (
                Path(ShardedGraphCache._shard_path(str(journal), index))
                if len(shards) > 1
                else Path(journal)
            )
        else:
            journal_path = (
                None
                if shard.config.journal_path is None
                else Path(shard.config.journal_path)
            )
        if journal_path is None or not journal_path.exists():
            continue
        records = PlanJournal.read_records(journal_path, since_round=watermark + 1)
        if not records:
            continue  # pending hits stay buffered: the next frame must carry them
        # Hits absorbed between the watermark round and the snapshot are
        # already in the restored statistics; they are the prefix of the
        # first replayed frame.
        skip_hits = len(shard.maintenance_engine.take_pending_hits())
        for record in records:
            frame = ReplicationFrame.from_record(record)
            hits = frame.hits[skip_hits:] if skip_hits else frame.hits
            skip_hits = 0
            shard.replay_plan(
                frame.plan,
                frame.entries,
                hits=hits,
                frame_bytes=frame.size_bytes,
            )
    return cache
