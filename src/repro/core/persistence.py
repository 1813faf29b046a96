"""Persistence of GraphCache state across sessions.

The paper's Cache Manager loads its stores from disk on startup and writes
them back on shutdown (§6.1) so that a long-running analytics deployment does
not start from a cold cache after a restart.  This module provides the same
capability for :class:`~repro.core.cache.GraphCache` and
:class:`~repro.core.sharding.ShardedGraphCache`.

A shard's state is written in the plan journal's own format: one canonical
JSON line (:func:`~repro.core.policies.journal.canonical_line`), its **state
record** (:meth:`GraphCache.snapshot_state`) — the cached entries with their
statistics rows, the window entries, the serial counter, the maintenance
state (admission calibration, adaptive history, the window's request count
and the hits buffered for the next frame), the GCindex publication version
and the ``journal_round`` watermark, the last journaled round folded in.  A
journal frame is a transition; a state record is their fold, and one reader,
:func:`~repro.core.policies.journal.read_lines`, decodes both.

Snapshot format v6 (the only one read; an older snapshot raises
:class:`~repro.exceptions.CacheError`): a header line — ``format_version``,
``config``, ``dataset_name``, ``dataset_size``, ``shard_count`` — then one
state record per shard.  The file is published atomically, so unlike a
journal it has no legitimate torn tail: a cut line, a missing shard or a
damaged record fails the load with a :class:`CacheError` naming the file and
the record.  :func:`recover_cache` restores each shard's record and replays
the journal frames past its watermark through the same entry,
:meth:`GraphCache.restore`, that starts a late follower of a
:class:`~repro.core.replication.ReplicaSet`.  Recovery memory is the live
entries plus at most 1 024 parsed entry texts (one frame stream's memo,
emptied when full), never the whole tail.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..exceptions import CacheError, GraphError, GraphFormatError
from ..memo import BoundedMemo
from ..methods.base import Method
from .atomic_io import publish
from .cache import GraphCache
from .config import GraphCacheConfig
from .policies.journal import canonical_line, read_lines
from .replication import ReplicationFrame
from .sharding import ShardedGraphCache, build_cache

__all__ = ["save_cache", "load_cache", "recover_cache"]

PathLike = Union[str, Path]
AnyCache = Union[GraphCache, ShardedGraphCache]

_FORMAT_VERSION = 6


#: What decoding a damaged record raises.
_DAMAGE = (KeyError, TypeError, ValueError, GraphError, GraphFormatError)


def _damaged(path: PathLike, what: str, cause: Exception) -> CacheError:
    """The :class:`CacheError` naming the file and the damaged record."""
    return CacheError(f"{path}: {what} is damaged: {cause!r}")


def _shards(cache: AnyCache) -> Tuple[GraphCache, ...]:
    return cache.shards if isinstance(cache, ShardedGraphCache) else (cache,)


def save_cache(cache: AnyCache, path: PathLike) -> None:
    """Write a warm-cache snapshot of ``cache`` to ``path`` (format v6).

    The snapshot is published atomically
    (:func:`~repro.core.atomic_io.publish`) — a crash mid-save leaves the
    previous checkpoint (if any) intact, never a torn file.
    """
    shards = _shards(cache)
    header = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(cache.config),
        "shard_count": len(shards),
        "dataset_name": cache.method.dataset.name,
        "dataset_size": len(cache.method.dataset),
    }
    records = [header] + [shard.snapshot_state() for shard in shards]
    blob = "".join(canonical_line(record) + "\n" for record in records).encode("utf-8")
    publish(path, lambda stream: stream.write(blob))


def _read(path: PathLike, method: Method) -> Tuple[AnyCache, List[Tuple[int, Dict[str, Any]]]]:
    """Read a snapshot: the empty cache its header describes, over
    ``method``, and each shard's ``(lineno, state record)``."""
    lines = list(read_lines(path, whole=True))
    if not lines:
        raise CacheError(f"{path}: empty snapshot")
    _, header, _, _ = lines[0]
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != _FORMAT_VERSION:
        raise CacheError(
            f"unsupported cache snapshot version {version!r}: "
            f"load_cache reads v{_FORMAT_VERSION} only"
        )
    try:
        dataset_size, shard_count = int(header["dataset_size"]), int(header["shard_count"])
        config = GraphCacheConfig(**header["config"])
    except _DAMAGE as exc:
        raise _damaged(path, "the header (line 1)", exc) from exc
    if dataset_size != len(method.dataset):
        raise CacheError(
            f"snapshot was taken against a dataset of {dataset_size} graphs, "
            f"but the supplied method serves {len(method.dataset)} graphs"
        )
    if len(lines) - 1 != shard_count or config.shards != shard_count:
        raise CacheError(
            f"{path}: snapshot declares {shard_count} shards "
            f"(config.shards={config.shards}) but carries {len(lines) - 1} state records"
        )
    return build_cache(method, config, warm_start=False), [line[:2] for line in lines[1:]]


def load_cache(path: PathLike, method: Method) -> AnyCache:
    """Restore a warm cache over ``method`` from a v6 snapshot.

    Returns a plain :class:`GraphCache` for single-shard snapshots and a
    :class:`ShardedGraphCache` for multi-shard ones.  The snapshot must have
    been taken against a dataset of the same size (answer sets are stored as
    graph ids, each checked against it); a mismatch raises
    :class:`CacheError` rather than silently returning wrong answers.
    """
    return _restore(path, method, None, replay=False)


def recover_cache(
    path: PathLike, method: Method, journal: Optional[PathLike] = None
) -> AnyCache:
    """Load a v6 checkpoint and replay journal rounds past its watermark.

    The crash-recovery entry point: ``path`` is the last published
    checkpoint and ``journal`` the (possibly crash-torn) plan journal the
    writer was appending to.  Each shard goes through one
    :meth:`GraphCache.restore`: its state record, then its frames past the
    record's ``journal_round`` watermark, reproducing the uninterrupted
    run's entries, statistics and serial counter at the last fully
    journaled round.  A torn final journal line is ignored; an undecodable
    line before it, or a damaged record, raises :class:`CacheError`.

    Cost: each shard starts once, from its state record (what a sealed
    arena under it holds is not adopted first); one decode per snapshot and
    journal line, from its UTF-8 text (the journal read also adopts a
    shard's own journal for appending); one parse per distinct admitted
    entry text, and every other check of every admitted entry, so a damaged
    one fails even if the tail evicts it.  The rest is for the tail's *net*
    effect: an entry admitted and evicted after the checkpoint never becomes
    a Graph, is never packed, indexed or stored.

    ``journal=None`` replays from each shard's configured
    ``journal_path``; an explicit path is used directly (for sharded
    snapshots it is the base path of the per-shard files, exactly as
    ``config.journal_path`` is).  A missing journal file means there is
    nothing past the checkpoint.
    """
    return _restore(path, method, journal, replay=True)


def _restore(
    path: PathLike, method: Method, journal: Optional[PathLike], replay: bool
) -> AnyCache:
    """Restore every shard of the snapshot at ``path``; with ``replay``,
    each is followed by its journal's frames past the shard's watermark."""
    cache, records = _read(path, method)
    shards = _shards(cache)
    try:
        for index, (shard, (lineno, state)) in enumerate(zip(shards, records, strict=True)):
            if journal is None:
                journal_path = shard.config.journal_path
            elif len(shards) > 1:
                journal_path = ShardedGraphCache._shard_path(str(journal), index)
            else:
                journal_path = journal
            try:
                frames: Iterator[ReplicationFrame] = iter(())
                if replay and journal_path is not None and Path(journal_path).exists():
                    frames = _frames(shard, Path(journal_path), int(state["journal_round"]) + 1)
                shard.restore(state, frames)
            except _DAMAGE as exc:
                what = f"shard {index}'s state (line {lineno}) or journal tail"
                raise _damaged(path, what, exc) from exc
    except BaseException:
        cache.close()
        raise
    return cache


def _frames(shard: GraphCache, path: Path, since_round: int) -> Iterator[ReplicationFrame]:
    """Decode the frames of ``path`` from ``since_round`` on, one at a time,
    parsing each distinct admitted entry text once (a memo of this stream)."""
    size, parsed = len(shard.method.dataset), BoundedMemo(1024)
    for record, size_bytes in shard.plan_journal.stream(since_round, path):
        try:
            frame = ReplicationFrame.from_record(record, size_bytes, size, parsed)
        except _DAMAGE as exc:
            raise _damaged(path, f"journal round {record['round']}", exc) from exc
        yield frame
