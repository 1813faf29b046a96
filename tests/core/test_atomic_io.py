"""One atomic publisher: every whole-file write fsyncs, renames, fsyncs the directory.

:func:`repro.core.atomic_io.publish` is the only tempfile + ``os.replace``
path in ``src/``.  The spy below records the order of ``os.fsync`` and
``os.replace`` calls: a file may only be moved into place after its own
bytes were fsync'd, and the rename itself is made durable by an fsync of
the directory afterwards.  All five publishing sites are driven through it.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.atomic_io import publish
from repro.core.backends import MmapBackend
from repro.core.cache import GraphCache
from repro.core.config import GraphCacheConfig
from repro.core.persistence import save_cache
from repro.core.policies import PlanJournal
from repro.core.policies.plan import MaintenancePlan
from repro.core.stores import CacheEntry, CacheEntryCodec
from repro.ftv.ggsx import GraphGrepSX
from repro.graphs.generators import aids_like
from repro.graphs.graph import Graph


@pytest.fixture
def durability_log(monkeypatch):
    """``[("fsync", inode) | ("replace", source inode, target path)]`` in call order."""
    log = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        log.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        log.append(("replace", os.stat(src).st_ino, Path(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return log


def _published(log):
    """Targets moved into place, each checked for file-then-directory fsync."""
    targets = []
    for position, event in enumerate(log):
        if event[0] != "replace":
            continue
        _, source, target = event
        synced_before = {inode for kind, inode, *_ in log[:position] if kind == "fsync"}
        synced_after = {inode for kind, inode, *_ in log[position + 1 :] if kind == "fsync"}
        assert source in synced_before, f"{target} replaced before its bytes were fsync'd"
        assert target.parent.stat().st_ino in synced_after, f"{target}'s rename not fsync'd"
        targets.append(target.name)
    return targets


def test_publish_writes_atomically_and_durably(tmp_path, durability_log):
    target = tmp_path / "file.bin"
    publish(target, lambda stream: stream.write(b"first"))
    assert target.read_bytes() == b"first"
    assert _published(durability_log) == ["file.bin"]


def test_a_failing_writer_leaves_the_old_file_and_no_tempfile(tmp_path, durability_log):
    target = tmp_path / "file.bin"
    target.write_bytes(b"old")

    def writer(stream):
        stream.write(b"torn")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        publish(target, writer)
    assert target.read_bytes() == b"old"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["file.bin"]
    assert durability_log == []


def _entry(serial):
    return CacheEntry(
        serial=serial,
        query=Graph(labels=["C", "O"], edges=[(0, 1)], graph_id=serial),
        answer_ids=frozenset({serial}),
    )


def _seal_mmap_backend(tmp_path):
    backend = MmapBackend(CacheEntryCodec(), path=str(tmp_path / "store"), table="entries")
    backend.put(1, _entry(1))
    backend.seal()  # segment + sidecar
    backend.put(2, _entry(2))
    backend.seal_delta()  # delta segment + sidecar
    backend.close()
    return {"store.entries.arena", "store.entries.arena.delta1", backend.meta_path.name}


def _seal_feature_index(tmp_path):
    GraphGrepSX(aids_like(scale=0.02, seed=1)).seal_feature_index(tmp_path / "index.ftv.arena")
    return {"index.ftv.arena"}


def _save_cache(tmp_path):
    dataset = aids_like(scale=0.02, seed=1)
    cache = GraphCache(GraphGrepSX(dataset), GraphCacheConfig(cache_capacity=4, window_size=2))
    for graph in list(dataset)[:4]:
        cache.query(graph.induced_subgraph(range(min(3, graph.order))))
    save_cache(cache, tmp_path / "snapshot.json")
    cache.close()
    return {"snapshot.json"}


def _truncate_journal(tmp_path):
    journal = PlanJournal(tmp_path / "journal.jsonl")
    for serial in (1, 2, 3):
        journal.append(MaintenancePlan(serial, (serial,), (serial,), (), (), "lru"))
    assert journal.truncate_before(2) == 2
    journal.close()
    return {"journal.jsonl"}


@pytest.mark.parametrize(
    "site", [_seal_mmap_backend, _seal_feature_index, _save_cache, _truncate_journal],
    ids=["graph-arena+sidecar", "feature-index", "snapshot", "journal-truncate"],
)
def test_every_publishing_site_goes_through_the_durable_publisher(
    site, tmp_path, durability_log
):
    expected = site(tmp_path)
    assert set(_published(durability_log)) == expected
    assert not list(tmp_path.glob("*.tmp"))
