"""Tests for the Window Manager (batched cache updates)."""

from __future__ import annotations

from repro.core.policies import AdmissionController, WindowManager, policy_by_name
from repro.core.query_index import QueryGraphIndex
from repro.core.statistics import StatisticsManager
from repro.core.stores import CacheStore, WindowEntry, WindowStore
from repro.graphs.graph import Graph


def make_manager(cache_capacity=4, window_size=2, policy="lru", admission=None):
    cache_store = CacheStore(cache_capacity)
    window_store = WindowStore(window_size)
    statistics = StatisticsManager(policy_by_name(policy))
    index = QueryGraphIndex(max_path_length=2)
    manager = WindowManager(
        cache_store=cache_store,
        window_store=window_store,
        statistics=statistics,
        index=index,
        admission=admission or AdmissionController(enabled=False),
    )
    return manager, cache_store, window_store, statistics, index


def entry(serial, verify=1.0, filter_=0.1, label=None):
    """A window entry whose structure is its own unless ``label`` is shared
    (a repeat of one structure folds into the first waiting entry)."""
    return WindowEntry(
        serial=serial,
        query=Graph(labels=["C", label or f"O{serial}"], edges=[(0, 1)], graph_id=serial),
        answer_ids=frozenset({serial % 3}),
        filter_time_s=filter_,
        verify_time_s=verify,
    )


class TestWindowFilling:
    def test_no_maintenance_until_window_full(self):
        manager, cache_store, window_store, _, _ = make_manager(window_size=3)
        assert manager.add_query(entry(1)) is None
        assert manager.add_query(entry(2)) is None
        assert len(window_store) == 2
        assert len(cache_store) == 0

    def test_maintenance_on_full_window(self):
        manager, cache_store, window_store, _, index = make_manager(window_size=2)
        manager.add_query(entry(1))
        report = manager.add_query(entry(2))
        assert report is not None
        assert report.window_queries == 2
        assert sorted(report.admitted_serials) == [1, 2]
        assert report.evicted_serials == ()
        assert len(cache_store) == 2
        assert len(window_store) == 0
        assert sorted(index.serials()) == [1, 2]

    def test_statistics_row_starts_at_admission(self):
        manager, _, _, statistics, _ = make_manager(window_size=2)
        manager.add_query(entry(7, verify=2.0, filter_=0.5))
        # A waiting query has no row: nothing can credit it yet.
        assert 7 not in statistics.known_serials()
        manager.add_query(entry(8))
        snapshot = statistics.snapshot(7)
        assert snapshot.order == 2
        assert snapshot.verify_time_s == 2.0
        assert snapshot.filter_time_s == 0.5


class TestEviction:
    def test_eviction_when_cache_full(self):
        manager, cache_store, _, statistics, index = make_manager(
            cache_capacity=2, window_size=2, policy="lru"
        )
        manager.add_query(entry(1))
        manager.add_query(entry(2))  # cache now {1, 2}
        manager.add_query(entry(3))
        report = manager.add_query(entry(4))
        assert report is not None
        assert len(report.evicted_serials) == 2
        assert len(cache_store) == 2
        assert sorted(cache_store.serials()) == [3, 4]
        # Evicted statistics are forgotten.
        for serial in report.evicted_serials:
            assert serial not in statistics.known_serials()
        assert sorted(index.serials()) == [3, 4]

    def test_partial_eviction_uses_free_slots(self):
        manager, cache_store, _, _, _ = make_manager(cache_capacity=3, window_size=2)
        manager.add_query(entry(1))
        manager.add_query(entry(2))  # cache {1,2}, one slot free
        manager.add_query(entry(3))
        report = manager.add_query(entry(4))
        assert len(report.evicted_serials) == 1
        assert len(cache_store) == 3

    def test_window_larger_than_cache(self):
        manager, cache_store, _, _, _ = make_manager(cache_capacity=2, window_size=4)
        for serial in range(1, 4):
            manager.add_query(entry(serial))
        report = manager.add_query(entry(4))
        assert report is not None
        assert len(cache_store) <= 2
        # Only the most recent admitted queries fit.
        assert set(cache_store.serials()) == {3, 4}


class TestAdmissionIntegration:
    def test_rejected_queries_not_cached(self):
        admission = AdmissionController(enabled=True, threshold=5.0)
        manager, cache_store, _, statistics, _ = make_manager(
            window_size=2, admission=admission
        )
        manager.add_query(entry(1, verify=10.0, filter_=1.0))  # ratio 10 → admit
        report = manager.add_query(entry(2, verify=1.0, filter_=1.0))  # ratio 1 → reject
        assert report.admitted_serials == (1,)
        assert report.rejected_serials == (2,)
        assert cache_store.serials() == [1]
        assert 2 not in statistics.known_serials()

    def test_observation_feeds_calibration(self):
        admission = AdmissionController(
            enabled=True, expensive_fraction=0.5, calibration_windows=1
        )
        manager, _, _, _, _ = make_manager(window_size=2, admission=admission)
        manager.add_query(entry(1, verify=1.0))
        manager.add_query(entry(2, verify=9.0))
        assert admission.calibrated


class TestRequestCounting:
    def test_repeat_of_a_waiting_structure_folds_into_it(self):
        manager, _, window_store, statistics, _ = make_manager(window_size=3)
        manager.add_query(entry(1, label="N"))
        manager.add_query(entry(2, label="N"))
        assert manager.state_record()["window_requests"] == 2
        assert len(window_store) == 1
        assert 2 not in statistics.known_serials()
        report = manager.add_query(entry(3))
        assert report.plan.window_serials == (1, 3)
        assert manager.state_record()["window_requests"] == 0

    def test_credited_requests_still_fire_the_round(self):
        manager, cache_store, window_store, _, _ = make_manager(window_size=2)
        assert manager.add_query(entry(1), credited=True) is None
        assert len(window_store) == 0
        report = manager.add_query(entry(2), credited=True)
        assert report is not None
        assert report.plan.window_serials == () and report.plan.current_serial == 2
        assert len(cache_store) == 0


class TestAccounting:
    def test_reports_accumulate(self):
        manager, _, _, _, _ = make_manager(window_size=1)
        manager.add_query(entry(1))
        manager.add_query(entry(2))
        assert len(manager.reports) == 2
        assert manager.total_maintenance_s >= 0.0
        assert manager.reports[0].cache_size_after == 1

    def test_policy_and_admission_exposed(self):
        manager, _, _, _, _ = make_manager(policy="pin")
        assert manager.policy.name == "pin"
        assert manager.admission.enabled is False
