"""Tests for the Statistics Manager and its per-query rows."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.policies import policy_by_name
from repro.core.statistics import CachedQueryStats, StatisticsManager
from repro.exceptions import CacheError


class TestCachedQueryStats:
    def test_a_row_holds_only_what_a_policy_reads(self):
        """Table 1's columns; a query's shape and cost are not statistics."""
        assert [field.name for field in dataclasses.fields(CachedQueryStats)] == [
            "serial", "hits", "special_hits", "last_hit_serial",
            "cs_reduction", "cost_reduction",
        ]
        assert CachedQueryStats(serial=4) == CachedQueryStats(
            4, hits=0, special_hits=0, last_hit_serial=None,
            cs_reduction=0.0, cost_reduction=0.0,
        )


def _manager(policy="lru"):
    return StatisticsManager(policy_by_name(policy))


class TestStatisticsManager:
    def test_add_and_snapshot_round_trip(self):
        manager = _manager()
        manager.add(CachedQueryStats(serial=11, cs_reduction=3.0, cost_reduction=9.0))
        snapshot = manager.snapshot(11)
        assert snapshot.serial == 11
        assert snapshot.cs_reduction == 3.0
        assert snapshot.cost_reduction == 9.0
        assert snapshot.hits == 0
        assert snapshot.last_hit_serial is None

    def test_add_rejects_a_second_row(self):
        manager = _manager()
        manager.add(CachedQueryStats(serial=1))
        with pytest.raises(CacheError):
            manager.add(CachedQueryStats(serial=1, hits=3))
        assert manager.snapshot(1).hits == 0

    def test_record_hit_updates_counters(self):
        manager = _manager()
        manager.add(CachedQueryStats(serial=11))
        manager.record_hit(11, benefiting_serial=20, cs_reduction=3, cost_reduction=120.0)
        manager.record_hit(11, benefiting_serial=25, cs_reduction=2, cost_reduction=80.0)
        snapshot = manager.snapshot(11)
        assert snapshot.hits == 2
        assert snapshot.last_hit_serial == 25
        assert snapshot.cs_reduction == 5
        assert snapshot.cost_reduction == 200.0
        assert snapshot.special_hits == 0

    def test_record_hit_mutates_the_one_row(self):
        manager = _manager()
        row = CachedQueryStats(serial=11)
        manager.add(row)
        manager.record_hit(11, 12, 1.0, 2.0)
        assert row.hits == 1
        assert manager.snapshots() == [row]

    def test_special_hit_counted(self):
        manager = _manager()
        manager.add(CachedQueryStats(serial=3))
        manager.record_hit(3, benefiting_serial=9, cs_reduction=1, cost_reduction=1.0, special=True)
        assert manager.snapshot(3).special_hits == 1

    def test_remove(self):
        manager = _manager()
        manager.add(CachedQueryStats(serial=7, hits=3))
        manager.remove(7)
        assert 7 not in manager.known_serials()
        with pytest.raises(CacheError):
            manager.snapshot(7)
        manager.remove(7)  # tolerated

    def test_record_hit_on_unknown_serial_is_dropped(self):
        """A hit landing after remove must not resurrect the row.

        Under background maintenance a query can confirm a hit against a
        GCindex snapshot whose entry the worker evicts before the query
        commits; re-creating the statistics row would leak a permanent
        ghost entry nothing ever deletes.
        """
        manager = _manager()
        manager.add(CachedQueryStats(serial=7))
        manager.remove(7)
        manager.record_hit(7, benefiting_serial=9, cs_reduction=1, cost_reduction=1.0)
        assert 7 not in manager.known_serials()
        manager.record_hit(99, benefiting_serial=9, cs_reduction=1, cost_reduction=1.0)
        assert 99 not in manager.known_serials()

    def test_snapshots_bulk_order_preserved(self):
        manager = _manager()
        for serial in (5, 3, 9):
            manager.add(CachedQueryStats(serial=serial, hits=serial))
        # Every row, in insertion order (the cache store's order).
        snapshots = manager.snapshots()
        assert [s.serial for s in snapshots] == [5, 3, 9]
        assert [s.hits for s in snapshots] == [5, 3, 9]

    def test_snapshots_are_copies(self):
        manager = _manager()
        manager.add(CachedQueryStats(serial=2))
        copy = manager.snapshot(2)
        copy.hits = 40
        manager.record_hit(2, benefiting_serial=3, cs_reduction=0.0, cost_reduction=0.0)
        assert manager.snapshot(2).hits == 1
        assert copy.hits == 40

    def test_rows_keep_insertion_order_across_remove(self):
        manager = _manager()
        for serial in (4, 1, 8):
            manager.add(CachedQueryStats(serial=serial))
        manager.remove(1)
        manager.add(CachedQueryStats(serial=1))
        assert manager.known_serials() == [4, 8, 1]

    def test_rebuild_installs_copies(self):
        manager = _manager()
        manager.add(CachedQueryStats(serial=99))
        given = [CachedQueryStats(serial=3, hits=2), CachedQueryStats(serial=1)]
        manager.rebuild(given)
        assert manager.known_serials() == [3, 1]
        manager.record_hit(3, benefiting_serial=5, cs_reduction=0.0, cost_reduction=0.0)
        assert manager.snapshot(3).hits == 3
        assert given[0].hits == 2


class TestVictimSelection:
    def test_a_hit_rekeys_the_recency_heap(self):
        manager = _manager("lru")
        manager.add(CachedQueryStats(serial=1))
        manager.add(CachedQueryStats(serial=2))
        # Serial 1 becomes the most recently used.
        manager.record_hit(1, benefiting_serial=3, cs_reduction=1.0, cost_reduction=1.0)
        assert manager.select_victims(1, 4).victims == (2,)
        manager.remove(2)
        assert manager.select_victims(1, 4).victims == (1,)

    def test_selection_copies_the_named_rows(self):
        manager = _manager("pop")
        for serial in (1, 2, 3):
            manager.add(CachedQueryStats(serial=serial, hits=serial))
        outcome = manager.select_victims(1, 10, copy_serials=[3, 1])
        assert outcome.victims == (1,)
        assert [row.serial for row in outcome.copies] == [3, 1]
        outcome.copies[0].hits = 0
        assert manager.snapshot(3).hits == 3
        with pytest.raises(CacheError):
            manager.select_victims(1, 10, copy_serials=[4])

    def test_hd_reports_its_delegate_even_without_victims(self):
        manager = _manager("hd")
        manager.add(CachedQueryStats(serial=1, cs_reduction=1.0))
        outcome = manager.select_victims(0, 5)
        assert (outcome.policy, outcome.delegate, outcome.victims) == ("hd", "pinc", ())
        assert _manager("pop").select_victims(0, 5).delegate is None

    def test_rejects_impossible_counts(self):
        manager = _manager()
        manager.add(CachedQueryStats(serial=1))
        with pytest.raises(CacheError):
            manager.select_victims(-1, 5)
        with pytest.raises(CacheError):
            manager.select_victims(2, 5)
