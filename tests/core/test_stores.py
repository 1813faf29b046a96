"""Tests for the Cache and Window data stores."""

from __future__ import annotations

import json

import pytest

from repro.core.stores import (
    CacheEntry,
    CacheEntryCodec,
    CacheStore,
    WindowEntry,
    WindowStore,
    expensiveness,
)
from repro.exceptions import CacheError
from repro.graphs.graph import Graph


def entry(serial, answers=(0,)):
    return CacheEntry(
        serial=serial,
        query=Graph(labels=["C", "O"], edges=[(0, 1)], graph_id=serial),
        answer_ids=frozenset(answers),
    )


def window_entry(serial, nodes=10, features=3):
    return WindowEntry(
        serial=serial,
        query=Graph(labels=["C", "O"], edges=[(0, 1)]),
        answer_ids=frozenset({0}),
        expensiveness=expensiveness(nodes, features),
    )


class TestCacheStore:
    def test_capacity_validation(self):
        with pytest.raises(CacheError):
            CacheStore(0)

    def test_add_and_get(self):
        store = CacheStore(2)
        store.add(entry(1))
        assert store.get(1).serial == 1
        assert 1 in store
        assert len(store) == 1

    def test_add_duplicate_rejected(self):
        store = CacheStore(2)
        store.add(entry(1))
        with pytest.raises(CacheError):
            store.add(entry(1))

    def test_add_when_full_rejected(self):
        store = CacheStore(1)
        store.add(entry(1))
        assert store.is_full
        with pytest.raises(CacheError):
            store.add(entry(2))

    def test_free_slots(self):
        store = CacheStore(3)
        store.add(entry(1))
        assert store.free_slots() == 2

    def test_evict(self):
        store = CacheStore(2)
        store.add(entry(1))
        evicted = store.evict(1)
        assert evicted.serial == 1
        assert len(store) == 0

    def test_evict_missing_raises(self):
        with pytest.raises(CacheError):
            CacheStore(1).evict(9)

    def test_get_missing_raises(self):
        with pytest.raises(CacheError):
            CacheStore(1).get(9)

    def test_replace_contents(self):
        store = CacheStore(3)
        store.add(entry(1))
        store.replace_contents([entry(2), entry(3)])
        assert sorted(store.serials()) == [2, 3]

    def test_persistence_round_trip(self):
        # Snapshots persist a store as CacheEntryCodec records in JSON.
        store = CacheStore(4)
        store.add(entry(1, answers=(0, 2)))
        store.add(entry(5, answers=()))
        text = json.dumps([CacheEntryCodec.encode(e) for e in store])
        loaded = CacheStore(4)
        loaded.replace_contents([CacheEntryCodec.decode(r) for r in json.loads(text)])
        assert sorted(loaded.serials()) == [1, 5]
        assert loaded.get(1).answer_ids == frozenset({0, 2})
        assert loaded.get(5).answer_ids == frozenset()
        assert loaded.get(1).query == store.get(1).query

    def test_replace_contents_over_capacity_rejected(self):
        store = CacheStore(1)
        with pytest.raises(CacheError):
            store.replace_contents([entry(1), entry(2)])

    def test_replace_contents_duplicate_serials_rejected(self):
        store = CacheStore(3)
        with pytest.raises(CacheError):
            store.replace_contents([entry(1), entry(1)])

    def test_iteration_snapshot(self):
        store = CacheStore(3)
        store.add(entry(1))
        store.add(entry(2))
        assert {e.serial for e in store} == {1, 2}


class TestWindowStore:
    def test_capacity_validation(self):
        with pytest.raises(CacheError):
            WindowStore(0)

    def test_add_until_full(self):
        store = WindowStore(2)
        store.add(window_entry(1))
        store.add(window_entry(2))
        assert len(store) == store.capacity == 2
        with pytest.raises(CacheError):
            store.add(window_entry(3))

    def test_duplicate_serial_rejected(self):
        store = WindowStore(3)
        store.add(window_entry(1))
        with pytest.raises(CacheError):
            store.add(window_entry(1))

    def test_drain_returns_ordered_and_clears(self):
        store = WindowStore(3)
        store.add(window_entry(5))
        store.add(window_entry(2))
        drained = store.drain()
        assert [e.serial for e in drained] == [2, 5]
        assert len(store) == 0

    def test_entries_without_draining(self):
        store = WindowStore(3)
        store.add(window_entry(9))
        assert [e.serial for e in store.entries()] == [9]
        assert len(store) == 1

    def test_contains_and_iter(self):
        store = WindowStore(2)
        store.add(window_entry(1))
        assert 1 in store
        assert [e.serial for e in store] == [1]

    def test_expensiveness(self):
        """Search nodes expanded over distinct label-path features."""
        assert window_entry(1, nodes=12, features=3).expensiveness == 4.0
        assert window_entry(1, nodes=5, features=0).expensiveness == float("inf")
        assert window_entry(1, nodes=0, features=0).expensiveness == 0.0
        assert window_entry(1, nodes=0, features=7).expensiveness == 0.0
