"""Contract suite for the pluggable storage backends (and their facades).

Every backend must expose dict-like observable semantics — keyed access,
insertion-ordered iteration, atomic ``replace_all`` — so that switching the
data layer never changes replacement decisions or work counters.  The suite
runs identically against :class:`InMemoryBackend` and :class:`MmapBackend`
(in-memory, file-based, re-attached after a seal, and compacted), which is
the "every
backend passes the same store contract suite as InMemory" acceptance
criterion.
"""

from __future__ import annotations

import json

import pytest

from repro.core.backends import (
    AVAILABLE_BACKENDS,
    InMemoryBackend,
    MmapBackend,
    create_backend,
)
from repro.core.config import GraphCacheConfig
from repro.core.stores import (
    CacheEntry,
    CacheEntryCodec,
    CacheStore,
    WindowEntry,
    WindowEntryCodec,
    WindowStore,
)
from repro.exceptions import CacheError
from repro.graphs.graph import Graph


def cache_entry(serial, answers=(0,)):
    return CacheEntry(
        serial=serial,
        query=Graph(labels=["C", "O"], edges=[(0, 1)], graph_id=serial),
        answer_ids=frozenset(answers),
    )


def reopened_mmap(tmp_path):
    """A writable backend attached to an (empty) sealed segment: the warm
    start path, with every write landing after the adoption."""
    path = str(tmp_path / "store")
    first = MmapBackend(CacheEntryCodec(), path=path)
    first.seal()
    first.close()
    return MmapBackend(CacheEntryCodec(), path=path)


def compacted_mmap(tmp_path):
    """A backend whose sealed entries were all deleted and then folded away
    by ``compact``: the contract must hold on the rewritten arena."""
    backend = MmapBackend(CacheEntryCodec(), path=str(tmp_path / "store"))
    for serial in (1, 2, 3):
        backend.put(serial, cache_entry(serial))
    backend.seal()
    for serial in (1, 2, 3):
        backend.delete(serial)
    backend.compact()
    return backend


BACKEND_FACTORIES = {
    "memory": lambda tmp_path: InMemoryBackend(),
    "mmap-memory": lambda tmp_path: MmapBackend(CacheEntryCodec()),
    "mmap-file": lambda tmp_path: MmapBackend(
        CacheEntryCodec(), path=str(tmp_path / "store")
    ),
    "mmap-reopened": reopened_mmap,
    "mmap-compacted": compacted_mmap,
}


@pytest.fixture(params=sorted(BACKEND_FACTORIES))
def backend(request, tmp_path):
    instance = BACKEND_FACTORIES[request.param](tmp_path)
    yield instance
    instance.close()


class TestBackendContract:
    def test_put_get_contains_delete(self, backend):
        assert backend.get(1) is None
        backend.put(1, cache_entry(1))
        assert backend.contains(1)
        assert 1 in backend
        assert backend.get(1).serial == 1
        assert backend.get(1).answer_ids == frozenset({0})
        assert backend.delete(1)
        assert not backend.delete(1)
        assert not backend.contains(1)

    def test_put_overwrites_in_place(self, backend):
        backend.put(1, cache_entry(1, answers=(0,)))
        backend.put(2, cache_entry(2))
        backend.put(1, cache_entry(1, answers=(3, 4)))
        assert backend.get(1).answer_ids == frozenset({3, 4})
        # Overwriting keeps the original position, like a Python dict.
        assert backend.serials() == [1, 2]

    def test_insertion_order_preserved(self, backend):
        for serial in (5, 2, 9, 1):
            backend.put(serial, cache_entry(serial))
        assert backend.serials() == [5, 2, 9, 1]
        assert [entry.serial for entry in backend.entries()] == [5, 2, 9, 1]

    def test_count_and_len(self, backend):
        assert backend.count() == len(backend) == 0
        backend.put(1, cache_entry(1))
        backend.put(2, cache_entry(2))
        assert backend.count() == len(backend) == 2

    def test_replace_all_resets_contents_and_order(self, backend):
        backend.put(1, cache_entry(1))
        backend.put(2, cache_entry(2))
        backend.replace_all((s, cache_entry(s)) for s in (7, 3))
        assert backend.serials() == [7, 3]
        assert not backend.contains(1)
        # Insertions after a swap continue the order.
        backend.put(11, cache_entry(11))
        assert backend.serials() == [7, 3, 11]

    def test_clear(self, backend):
        backend.put(1, cache_entry(1))
        backend.clear()
        assert backend.count() == 0
        assert backend.serials() == []

    def test_entries_round_trip_through_codec(self, backend):
        # Snapshots write each entry through CacheEntryCodec: whatever a
        # backend hands back must survive that record format unchanged.
        for serial in (4, 2):
            backend.put(serial, cache_entry(serial, answers=(serial, 0)))
        records = [CacheEntryCodec.encode(entry) for entry in backend.entries()]
        assert [record["serial"] for record in records] == [4, 2]
        decoded = [CacheEntryCodec.decode(record) for record in records]
        assert decoded == backend.entries()


class TestMmapDurability:
    def test_file_backend_survives_seal_and_reopen(self, tmp_path):
        path = str(tmp_path / "durable")
        backend = MmapBackend(CacheEntryCodec(), path=path)
        backend.put(3, cache_entry(3, answers=(1, 2)))
        backend.put(1, cache_entry(1))
        backend.seal()
        backend.close()

        reopened = MmapBackend(CacheEntryCodec(), path=path)
        assert reopened.serials() == [3, 1]
        assert reopened.get(3).answer_ids == frozenset({1, 2})
        reopened.close()

    def test_two_tables_share_one_base_path(self, tmp_path):
        path = str(tmp_path / "shared")
        cache_backend = MmapBackend(CacheEntryCodec(), path=path, table="cache_entries")
        window_backend = MmapBackend(
            WindowEntryCodec(), path=path, table="window_entries"
        )
        cache_backend.put(1, cache_entry(1))
        window_backend.put(1, WindowEntry(1, cache_entry(1).query, frozenset({0}), 2.0))
        assert cache_backend.count() == 1
        assert window_backend.count() == 1
        assert isinstance(window_backend.get(1), WindowEntry)
        assert cache_backend.arena_path != window_backend.arena_path
        cache_backend.close()
        window_backend.close()


class TestFactory:
    def test_available_backends(self):
        assert AVAILABLE_BACKENDS == ("memory", "mmap")

    def test_create_by_name(self, tmp_path):
        assert isinstance(create_backend("memory", CacheEntryCodec()), InMemoryBackend)
        mmap_backend = create_backend(
            "mmap", CacheEntryCodec(), path=str(tmp_path / "x")
        )
        assert isinstance(mmap_backend, MmapBackend)
        mmap_backend.close()

    @pytest.mark.parametrize("kind", ["redis", "sqlite"])
    def test_unknown_backend_rejected(self, kind):
        with pytest.raises(CacheError):
            create_backend(kind, CacheEntryCodec())
        with pytest.raises(CacheError):
            GraphCacheConfig(backend=kind)


@pytest.fixture(params=["memory", "mmap", "mmap-file"])
def store_backend_kind(request):
    return request.param


@pytest.fixture
def new_backend(store_backend_kind, tmp_path):
    """Build a backend of the parametrised kind; ``mmap-file`` gives every
    table its own segment under one base path."""

    def build(codec, table="entries"):
        if store_backend_kind == "mmap-file":
            return create_backend(
                "mmap", codec, path=str(tmp_path / "facade"), table=table
            )
        return create_backend(store_backend_kind, codec)

    return build


class TestStoreFacadesOverBackends:
    """CacheStore/WindowStore behave identically over every backend."""

    def test_cache_store_contract(self, new_backend):
        store = CacheStore(2, backend=new_backend(CacheEntryCodec()))
        store.add(cache_entry(1))
        assert 1 in store and len(store) == 1 and not store.is_full
        assert store.free_slots() == 1
        store.add(cache_entry(2))
        assert store.is_full
        with pytest.raises(CacheError):
            store.add(cache_entry(3))
        with pytest.raises(CacheError):
            store.add(cache_entry(1))
        assert store.get(2).serial == 2
        with pytest.raises(CacheError):
            store.get(99)
        assert store.evict(1).serial == 1
        with pytest.raises(CacheError):
            store.evict(1)
        store.replace_contents([cache_entry(5), cache_entry(6)])
        assert store.serials() == [5, 6]
        store.close()

    def test_cache_store_answers_read(
        self, store_backend_kind, new_backend, monkeypatch
    ):
        store = CacheStore(2, backend=new_backend(CacheEntryCodec()))
        store.add(cache_entry(1, answers=(3, 4)))
        store.add(cache_entry(2, answers=()))
        if store_backend_kind.startswith("mmap"):
            # The answers-only read never decodes the query graph.
            def no_decode(extent):
                raise AssertionError("answers() decoded a query graph")

            monkeypatch.setattr(store.backend.arena, "graph_at", no_decode)
        assert store.answers(1) == frozenset({3, 4})
        assert store.answers(2) == frozenset()
        assert store.answers(99) is None  # evicted or never cached
        store.close()

    def test_window_store_contract(self, new_backend):
        store = WindowStore(2, backend=new_backend(WindowEntryCodec()))
        query = Graph(labels=["C", "O"], edges=[(0, 1)])

        def window_entry(serial):
            return WindowEntry(serial, query, frozenset({0}), 10.0)

        store.add(window_entry(2))
        store.add(window_entry(1))
        assert len(store) == 2
        with pytest.raises(CacheError):
            store.add(window_entry(3))
        assert [entry.serial for entry in store.entries()] == [1, 2]
        drained = store.drain()
        assert [entry.serial for entry in drained] == [1, 2]
        assert len(store) == 0
        store.close()

    def test_facade_actually_uses_the_given_backend(self, new_backend):
        """Regression: an *empty* backend is falsy (it has __len__); the
        facade must keep it anyway rather than silently defaulting."""
        backend = new_backend(CacheEntryCodec(), table="cache_entries")
        store = CacheStore(2, backend=backend)
        assert store.backend is backend
        window_backend = new_backend(WindowEntryCodec(), table="window_entries")
        window = WindowStore(2, backend=window_backend)
        assert window.backend is window_backend
        store.close()
        window.close()

    def test_mmap_facade_is_durable_across_reopen(self, tmp_path):
        """Entries added through the facade survive into a new process-like
        reopen of the same sealed arena (the segment, not a JSON snapshot)."""
        path = str(tmp_path / "facade")
        store = CacheStore(
            3, backend=MmapBackend(CacheEntryCodec(), path=path, table="cache_entries")
        )
        store.add(cache_entry(1, answers=(0, 4)))
        store.add(cache_entry(2))
        store.backend.seal()
        store.close()
        reopened = CacheStore(
            3, backend=MmapBackend(CacheEntryCodec(), path=path, table="cache_entries")
        )
        assert reopened.serials() == [1, 2]
        assert reopened.get(1).answer_ids == frozenset({0, 4})
        reopened.close()

    def test_cache_store_records_load_over_another_backend(
        self, store_backend_kind, new_backend
    ):
        store = CacheStore(3, backend=new_backend(CacheEntryCodec()))
        store.add(cache_entry(1, answers=(0, 2)))
        store.add(cache_entry(2))
        records = json.loads(json.dumps([CacheEntryCodec.encode(e) for e in store]))
        # Snapshot records taken over one backend load into any other.
        other_kind = "mmap" if store_backend_kind == "memory" else "memory"
        loaded = CacheStore(3, backend=create_backend(other_kind, CacheEntryCodec()))
        loaded.replace_contents([CacheEntryCodec.decode(record) for record in records])
        assert loaded.serials() == [1, 2]
        assert loaded.get(1).answer_ids == frozenset({0, 2})
        assert loaded.get(2).query == store.get(2).query
        store.close()
        loaded.close()
