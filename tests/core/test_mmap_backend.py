"""Mmap-backend specifics beyond the shared storage contract suite.

``tests/core/test_backends.py`` already runs :class:`MmapBackend` through
the full backend contract; this module pins the arena-specific lifecycle —
seal/attach warm starts, dead-extent reclamation, the sidecar format, the
transactional delta, and the snapshot records carrying arena addresses.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.backends import MmapBackend
from repro.core.policies import PlanJournal
from repro.core.policies.plan import MaintenancePlan
from repro.core.stores import (
    CacheEntry,
    CacheEntryCodec,
    WindowEntry,
    WindowEntryCodec,
)
from repro.exceptions import CacheError
from repro.graphs.graph import Graph


def entry(serial, answers=(0,), order=2):
    labels = ["C", "O", "N", "S"][:order] if order <= 4 else ["C"] * order
    edges = [(i, i + 1) for i in range(order - 1)]
    return CacheEntry(
        serial=serial,
        query=Graph(labels=labels, edges=edges, graph_id=serial),
        answer_ids=frozenset(answers),
    )


def make_backend(tmp_path, table="entries"):
    return MmapBackend(CacheEntryCodec(), path=str(tmp_path / "store"), table=table)


class TestSealAttach:
    def test_seal_then_attach_adopts_entries(self, tmp_path):
        backend = make_backend(tmp_path)
        originals = [entry(serial, answers=(serial,)) for serial in (1, 2, 3)]
        for item in originals:
            backend.put(item.serial, item)
        backend.seal()
        backend.close()

        attached = make_backend(tmp_path)
        assert attached.serials() == [1, 2, 3]
        for original in originals:
            adopted = attached.get(original.serial)
            assert adopted == original
            assert adopted.query.graph_id == original.serial
        attached.close()

    def test_sealed_reads_keep_working_in_the_sealing_process(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.put(1, entry(1))
        backend.seal()
        assert backend.get(1) == entry(1)
        backend.close()

    def test_seal_requires_backend_path(self):
        backend = MmapBackend(CacheEntryCodec())
        backend.put(1, entry(1))
        with pytest.raises(CacheError):
            backend.seal()
        backend.close()

    def test_attach_without_sidecar_rejected(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.put(1, entry(1))
        backend.seal()
        backend.close()
        backend.meta_path.unlink()
        with pytest.raises(CacheError):
            make_backend(tmp_path)

    def test_sidecar_is_codec_generic(self, tmp_path):
        """The window store's codec (extra timing fields) seals and adopts
        through the same stub-graph mechanism as the cache codec."""
        backend = MmapBackend(
            WindowEntryCodec(), path=str(tmp_path / "store"), table="window_entries"
        )
        item = WindowEntry(
            serial=5,
            query=Graph(labels=["C", "N"], edges=[(0, 1)], graph_id=5),
            answer_ids=frozenset({9}),
            filter_time_s=0.25,
            verify_time_s=0.5,
        )
        backend.put(5, item)
        backend.seal()
        backend.close()
        attached = MmapBackend(
            WindowEntryCodec(), path=str(tmp_path / "store"), table="window_entries"
        )
        assert attached.get(5) == item
        attached.close()

    def test_sidecar_stores_extents_not_graph_text(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.put(1, entry(1))
        backend.seal()
        payload = json.loads(backend.meta_path.read_text())
        assert payload["version"] == 1
        (record,) = payload["records"]
        offset, length = record["query"]
        assert offset == 0 and length > 0
        backend.close()


class TestDurablePublish:
    def test_every_published_file_is_fsynced_before_replace(self, tmp_path, monkeypatch):
        """Segment and sidecar alike: ``os.replace`` only ever moves a file
        whose contents were fsync'd first (the sidecar names the live
        segment, so a torn one after a crash loses the whole store)."""
        synced, published = set(), []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            synced.add(os.fstat(fd).st_ino)
            real_fsync(fd)

        def replace(src, dst):
            published.append((Path(dst).name, os.stat(src).st_ino in synced))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        backend = make_backend(tmp_path)
        backend.put(1, entry(1))
        backend.seal()
        backend.put(2, entry(2))
        assert backend.seal_delta() == 1
        backend.close()
        names = [name for name, _ in published]
        assert names.count(backend.meta_path.name) == 2
        assert any(name != backend.meta_path.name for name in names)
        assert all(durable for _, durable in published), published

    @pytest.mark.parametrize("durable", [True, False])
    def test_journal_creation_fsyncs_the_directory_once(
        self, tmp_path, monkeypatch, durable
    ):
        """A journal created under ``fsync=True`` must survive a crash: the
        append that creates the file also fsyncs its directory entry; later
        appends fsync only the file; ``fsync=False`` fsyncs nothing."""
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        def plan(serial):
            return MaintenancePlan(serial, (serial,), (serial,), (), (), "lru")

        monkeypatch.setattr(os, "fsync", fsync)
        path = tmp_path / "journal.jsonl"
        journal = PlanJournal(path, fsync=durable)
        journal.append(plan(1))
        first, synced[:] = list(synced), []
        journal.append(plan(2))
        journal.append(plan(3))
        later, synced[:] = list(synced), []
        journal.close()
        reopened = PlanJournal(path, fsync=durable)  # the file exists now
        reopened.append(plan(4))
        reopened.close()
        file_inode, dir_inode = path.stat().st_ino, tmp_path.stat().st_ino
        if durable:
            assert sorted(first) == sorted([file_inode, dir_inode])
            assert later == [file_inode, file_inode]
            assert synced == [file_inode]
        else:
            assert first == later == synced == []


class TestDeadExtentReclamation:
    def test_seal_compacts_dead_extents(self, tmp_path):
        backend = make_backend(tmp_path)
        for serial in range(1, 6):
            backend.put(serial, entry(serial))
        backend.seal()
        sealed_bytes = backend.arena.total_bytes
        # Freeing sealed-region extents leaves dead bytes in the segment
        # until the next seal compacts them away.
        backend.delete(2)
        backend.delete(4)
        backend.put(1, entry(1, answers=(7,)))  # overwrite frees the old extent
        arena = backend.arena
        assert arena.dead_bytes > 0
        backend.seal()
        assert arena.dead_bytes == 0
        assert arena.live_bytes == arena.total_bytes
        assert arena.total_bytes < sealed_bytes
        assert sorted(backend.serials()) == [1, 3, 5]
        assert backend.get(1).answer_ids == frozenset({7})
        backend.close()


class TestTransactionalDelta:
    def test_apply_delta_removals_then_additions(self, tmp_path):
        backend = make_backend(tmp_path)
        for serial in (1, 2, 3):
            backend.put(serial, entry(serial))
        backend.apply_delta(
            add=[(4, entry(4)), (2, entry(2, answers=(8,)))], remove=[1, 99]
        )
        assert sorted(backend.serials()) == [2, 3, 4]
        assert backend.get(2).answer_ids == frozenset({8})
        assert backend.op_counts.rows_deleted == 1  # serial 99 was absent
        backend.close()


class TestSnapshotRecords:
    def test_dump_records_carry_arena_addresses(self, tmp_path):
        backend = make_backend(tmp_path)
        originals = [entry(serial) for serial in (1, 2)]
        for item in originals:
            backend.put(item.serial, item)
        records = backend.dump_records()
        codec = CacheEntryCodec()
        for original, record in zip(originals, records):
            assert record["arena"]["path"] == backend.arena_path
            assert record["arena"]["length"] > 0
            # The portable text stays loadable by the ordinary codec.
            decoded = codec.decode({k: v for k, v in record.items() if k != "arena"})
            assert decoded == original
        backend.close()


class TestDeltaSeal:
    """Incremental re-seal: tails publish as delta segments, extents stay put."""

    def test_first_seal_delta_falls_back_to_full_seal(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.put(1, entry(1))
        backend.put(2, entry(2))
        assert backend.seal_delta() == 2
        assert backend.arena.sealed
        assert backend.arena.delta_count == 0
        backend.close()

    def test_delta_appends_without_moving_sealed_records(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.put(1, entry(1))
        backend.seal()
        sealed_view = backend.get(1)
        backend.put(2, entry(2, answers=(9,)))
        assert backend.seal_delta() == 1
        assert backend.arena.delta_count == 1
        # The base record did not move and still decodes identically.
        assert backend.get(1) == sealed_view
        assert backend.get(2) == entry(2, answers=(9,))
        backend.close()

    def test_attach_adopts_base_plus_deltas(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.put(1, entry(1))
        backend.seal()
        backend.put(2, entry(2))
        backend.seal_delta()
        backend.put(3, entry(3))
        backend.seal_delta()
        assert backend.arena.delta_count == 2
        backend.close()

        attached = make_backend(tmp_path)
        assert sorted(attached.serials()) == [1, 2, 3]
        for serial in (1, 2, 3):
            assert attached.get(serial) == entry(serial)
        assert attached.arena.delta_count == 2
        attached.close()

    def test_full_seal_folds_deltas_back(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.put(1, entry(1))
        backend.seal()
        backend.put(2, entry(2))
        backend.seal_delta()
        delta_file = tmp_path / "store.entries.arena.delta1"
        assert delta_file.exists()
        backend.seal()
        assert backend.arena.delta_count == 0
        assert not delta_file.exists()
        assert backend.get(2) == entry(2)
        backend.close()

    def test_empty_tail_publishes_nothing(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.put(1, entry(1))
        backend.seal()
        assert backend.seal_delta() == 0
        assert backend.arena.delta_count == 0
        backend.close()


class TestArenaStatistics:
    def test_statistics_track_segments_and_occupancy(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.put(1, entry(1))
        backend.seal()
        backend.put(2, entry(2))
        backend.seal_delta()
        stats = backend.arena_statistics()
        assert stats["table"] == "entries"
        assert stats["live_bytes"] > 0
        assert stats["delta_segments"] == 1
        kinds = [segment["kind"] for segment in stats["segments"]]
        assert kinds == ["base", "delta"]
        backend.close()

    def test_dead_bytes_after_delete(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.put(1, entry(1))
        backend.put(2, entry(2))
        backend.seal()
        backend.delete(1)
        stats = backend.arena_statistics()
        assert stats["dead_bytes"] > 0
        backend.close()
