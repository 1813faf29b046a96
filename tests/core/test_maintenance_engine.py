"""Tests for the unified maintenance engine (decide/apply, deltas, heap).

Covers the PR-4 acceptance surface:

* the decide/apply split — the paper's Table 1 running example reproduces
  byte-for-byte from the :class:`MaintenancePlan` alone;
* the O(window²) → O(window) rejected-set fix, including the
  duplicate-serial regression;
* the incremental victim selection picking identical victims to the
  full-rescore oracle, for all five policies, under randomized hit streams;
* row-level ``apply_delta`` on both store backends (order, errors,
  counters);
* the admission registry and the engine's persistable state.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.backends import create_backend
from repro.core.policies import (
    AdaptiveAdmissionController,
    AdmissionController,
    MaintenanceEngine,
    MaintenancePlan,
    admission_by_name,
    admission_from_record,
    available_admission_controllers,
    policy_by_name,
)
from repro.core.query_index import QueryGraphIndex
from repro.core.statistics import CachedQueryStats, StatisticsManager
from repro.core.stores import (
    CacheEntry,
    CacheEntryCodec,
    CacheStore,
    WindowEntry,
)
from repro.exceptions import CacheError
from repro.graphs.graph import Graph

#: The statistics snapshot of Table 1 in the paper (§6.3).
TABLE_1 = [
    CachedQueryStats(serial=11, hits=23, last_hit_serial=91, cs_reduction=170, cost_reduction=2600),
    CachedQueryStats(serial=13, hits=32, last_hit_serial=51, cs_reduction=80, cost_reduction=1200),
    CachedQueryStats(serial=37, hits=26, last_hit_serial=69, cs_reduction=76, cost_reduction=780),
    CachedQueryStats(serial=53, hits=13, last_hit_serial=78, cs_reduction=210, cost_reduction=360),
    CachedQueryStats(serial=82, hits=5, last_hit_serial=90, cs_reduction=120, cost_reduction=150),
    CachedQueryStats(serial=91, hits=4, last_hit_serial=95, cs_reduction=10, cost_reduction=270),
]
CURRENT_SERIAL = 100


def query_graph(serial: int) -> Graph:
    return Graph(labels=["C", "O"], edges=[(0, 1)], graph_id=serial)


def window_entry(serial, verify=1.0, filter_=0.1) -> WindowEntry:
    return WindowEntry(
        serial=serial,
        query=query_graph(serial),
        answer_ids=frozenset({serial % 3}),
        filter_time_s=filter_,
        verify_time_s=verify,
    )


def make_engine(
    capacity=6,
    policy="hd",
    admission=None,
    backend="memory",
    backend_path=None,
    cross_check=False,
):
    codec = CacheEntryCodec()
    store = CacheStore(
        capacity, backend=create_backend(backend, codec, path=backend_path)
    )
    statistics = StatisticsManager(policy_by_name(policy))
    index = QueryGraphIndex(max_path_length=2)
    engine = MaintenanceEngine(
        cache_store=store,
        statistics=statistics,
        index=index,
        admission=admission,
        cross_check=cross_check,
    )
    return engine, store, statistics, index


def seed_table1(statistics, store):
    """Install the Table 1 population as the cached state."""
    for stats in TABLE_1:
        store.add(
            CacheEntry(
                serial=stats.serial,
                query=query_graph(stats.serial),
                answer_ids=frozenset({stats.serial % 5}),
            )
        )
    statistics.rebuild(TABLE_1)


class TestPlanGolden:
    """The Table 1 running example, byte-for-byte from the plan alone."""

    def test_table1_plan_record(self):
        engine, store, statistics, _ = make_engine(capacity=6, policy="hd")
        seed_table1(statistics, store)
        window = [window_entry(99), window_entry(100)]
        plan = engine.decide(window, current_serial=CURRENT_SERIAL)
        # The paper: HD sees CoV(R) < 1, delegates to PINC, evicts {53, 82};
        # utility order puts 53 (360/47) before 82 (150/18).
        assert plan.to_record() == {
            "current_serial": 100,
            "window_serials": [99, 100],
            "admitted_serials": [99, 100],
            "rejected_serials": [],
            "evicted_serials": [53, 82],
            "policy": "hd",
            "policy_delegate": "pinc",
            "admission_threshold": None,
            "victim_utilities": [[53, 360 / 47], [82, 150 / 18]],
        }

    def test_plan_json_round_trip(self):
        engine, store, statistics, _ = make_engine(capacity=6, policy="hd")
        seed_table1(statistics, store)
        plan = engine.decide(
            [window_entry(99), window_entry(100)], current_serial=CURRENT_SERIAL
        )
        # The plan is pure data: a JSON round-trip reproduces it exactly.
        restored = MaintenancePlan.from_record(json.loads(json.dumps(plan.to_record())))
        assert restored == plan

    @pytest.mark.parametrize(
        "policy, expected",
        [
            ("lru", {13, 37}),
            ("pop", {11, 53}),
            ("pin", {13, 91}),
            ("pinc", {53, 82}),
            ("hd", {53, 82}),
        ],
    )
    def test_all_five_policies_match_paper(self, policy, expected):
        engine, store, statistics, _ = make_engine(capacity=6, policy=policy)
        seed_table1(statistics, store)
        plan = engine.decide(
            [window_entry(99), window_entry(100)], current_serial=CURRENT_SERIAL
        )
        assert set(plan.evicted_serials) == expected

    def test_decide_is_repeatable(self):
        """Pure decide (no apply) must not consume heap state."""
        engine, store, statistics, _ = make_engine(capacity=6, policy="lru")
        seed_table1(statistics, store)
        window = [window_entry(99), window_entry(100)]
        first = engine.decide(window, current_serial=CURRENT_SERIAL)
        second = engine.decide(window, current_serial=CURRENT_SERIAL)
        assert first.evicted_serials == second.evicted_serials == (13, 37)


class TestRejectedSetSemantics:
    """The O(window²) identity-by-equality scan is gone; rejection is per serial."""

    def test_rejection_partitions_by_serial(self):
        admission = AdmissionController(enabled=True, threshold=5.0)
        engine, _, _, _ = make_engine(capacity=6, admission=admission)
        window = [
            window_entry(1, verify=10.0, filter_=1.0),  # ratio 10 → admit
            window_entry(2, verify=1.0, filter_=1.0),   # ratio 1  → reject
        ]
        plan = engine.decide(window, current_serial=2)
        assert plan.admitted_serials == (1,)
        assert plan.rejected_serials == (2,)

    def test_duplicate_serial_follows_the_admitted_copy(self):
        """Regression: two window entries sharing a serial, only one of which
        passes admission.  The seed's ``entry not in admitted`` equality scan
        would have listed the serial as *both* admitted and rejected (the
        copies differ in their timing fields, so ``!=``); per-serial
        partitioning keeps the plan consistent."""
        admission = AdmissionController(enabled=True, threshold=5.0)
        engine, _, _, _ = make_engine(capacity=6, admission=admission)
        window = [
            window_entry(7, verify=10.0, filter_=1.0),  # admitted copy
            window_entry(7, verify=1.0, filter_=1.0),   # rejected copy
            window_entry(8, verify=1.0, filter_=1.0),   # genuinely rejected
        ]
        plan = engine.decide(window, current_serial=8)
        assert 7 in plan.admitted_serials
        assert 7 not in plan.rejected_serials
        assert plan.rejected_serials == (8,)
        assert not set(plan.admitted_serials) & set(plan.rejected_serials)


class TestHeapVersusOracle:
    """Incremental victim selection is identical to full-snapshot re-scoring."""

    @pytest.mark.parametrize("policy", ["lru", "pop", "pin", "pinc", "hd"])
    def test_randomized_hit_streams(self, policy):
        rng = random.Random(hash(policy) % 100_000)
        engine, store, statistics, _ = make_engine(capacity=12, policy=policy)
        # Install 12 entries through the delta path (as maintenance would).
        for serial in range(1, 13):
            store_entry = window_entry(serial, verify=rng.uniform(0.5, 3.0))
            store.apply_delta(
                [
                    CacheEntry(
                        serial=serial,
                        query=store_entry.query,
                        answer_ids=store_entry.answer_ids,
                    )
                ],
                [],
            )
            statistics.add(
                CachedQueryStats(serial=serial, order=2, size=1, distinct_labels=2)
            )
        # Randomized hit stream through the engine's hook.
        for benefiting in range(13, 113):
            serial = rng.randint(1, 12)
            engine.on_hit(
                serial=serial,
                benefiting_serial=benefiting,
                cs_reduction=float(rng.randint(0, 6)),
                cost_reduction=rng.uniform(0.0, 40.0),
                special=rng.random() < 0.1,
            )
            if benefiting % 10 == 0:
                for evict_count in (1, 3, 12):
                    outcome = statistics.select_victims(evict_count, benefiting)
                    assert list(outcome.victims) == engine.oracle_victims(
                        evict_count, benefiting
                    ), (policy, benefiting, evict_count)

    def test_cross_check_records_nothing_when_identical(self):
        engine, store, statistics, _ = make_engine(
            capacity=6, policy="hd", cross_check=True
        )
        seed_table1(statistics, store)
        engine.decide([window_entry(99), window_entry(100)], current_serial=100)
        assert engine.oracle_mismatches == []

    def test_heap_rejects_overdraw_like_the_oracle(self):
        engine, store, statistics, _ = make_engine(capacity=6)
        seed_table1(statistics, store)
        with pytest.raises(CacheError):
            statistics.select_victims(7, CURRENT_SERIAL)

    def test_heap_add_rejects_duplicates(self):
        statistics = StatisticsManager(policy_by_name("lru"))
        statistics.add(CachedQueryStats(serial=1))
        with pytest.raises(CacheError):
            statistics.add(CachedQueryStats(serial=1))


class TestApplyDeltas:
    """apply() performs O(window) row/index mutations, never a rewrite."""

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_apply_is_delta_only(self, backend):
        engine, store, statistics, index = make_engine(
            capacity=6, policy="hd", backend=backend
        )
        seed_table1(statistics, store)
        for stats in TABLE_1:
            index.add(stats.serial, query_graph(stats.serial))
        rewrites_before = store.backend.op_counts.bulk_rewrites

        window = [window_entry(99), window_entry(100)]
        plan = engine.decide(window, current_serial=CURRENT_SERIAL)
        index_ops, row_ops = engine.apply(plan, window)

        assert index_ops == 4  # 2 removes + 2 adds
        assert row_ops == 4    # 2 deletes + 2 inserts
        assert store.backend.op_counts.bulk_rewrites == rewrites_before
        # Survivors keep their order; admissions append (both backends).
        assert store.serials() == [11, 13, 37, 91, 99, 100]
        assert sorted(index.serials()) == [11, 13, 37, 91, 99, 100]
        # Evicted rows are forgotten; admitted rows start.
        assert 53 not in statistics.known_serials()
        assert 82 not in statistics.known_serials()
        assert 99 in statistics

    def test_apply_updates_heap_population(self):
        engine, store, statistics, _ = make_engine(capacity=6, policy="hd")
        seed_table1(statistics, store)
        window = [window_entry(99), window_entry(100)]
        plan = engine.decide(window, current_serial=CURRENT_SERIAL)
        engine.apply(plan, window)
        assert len(statistics) == len(store)
        assert 53 not in statistics and 82 not in statistics
        # An admitted query's row starts from its window entry, appended in
        # the store's order.
        assert statistics.known_serials() == store.serials()
        assert statistics.snapshot(99) == CachedQueryStats.of_window_entry(window[0])


class TestCacheStoreApplyDelta:
    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_order_and_contents(self, backend):
        store = CacheStore(
            4, backend=create_backend(backend, CacheEntryCodec())
        )
        entries = {
            serial: CacheEntry(
                serial=serial,
                query=query_graph(serial),
                answer_ids=frozenset({serial}),
            )
            for serial in (1, 2, 3, 4, 5, 6)
        }
        for serial in (1, 2, 3, 4):
            store.add(entries[serial])
        store.apply_delta([entries[5], entries[6]], [2, 4])
        assert store.serials() == [1, 3, 5, 6]
        assert store.get(5).answer_ids == frozenset({5})

    def test_missing_removal_rejected(self):
        store = CacheStore(4)
        with pytest.raises(CacheError):
            store.apply_delta([], [42])

    def test_colliding_addition_rejected(self):
        store = CacheStore(4)
        entry = CacheEntry(serial=1, query=query_graph(1), answer_ids=frozenset())
        store.add(entry)
        with pytest.raises(CacheError):
            store.apply_delta([entry], [])

    def test_readding_a_removed_serial_is_allowed(self):
        store = CacheStore(4)
        entry = CacheEntry(serial=1, query=query_graph(1), answer_ids=frozenset())
        store.add(entry)
        replacement = CacheEntry(
            serial=1, query=query_graph(1), answer_ids=frozenset({9})
        )
        store.apply_delta([replacement], [1])
        assert store.get(1).answer_ids == frozenset({9})

    def test_duplicate_additions_rejected(self):
        store = CacheStore(4)
        entry = CacheEntry(serial=1, query=query_graph(1), answer_ids=frozenset())
        with pytest.raises(CacheError):
            store.apply_delta([entry, entry], [])

    def test_capacity_still_enforced(self):
        store = CacheStore(2)
        def entry(serial):
            return CacheEntry(
                serial=serial, query=query_graph(serial), answer_ids=frozenset()
            )
        store.add(entry(1))
        store.add(entry(2))
        with pytest.raises(CacheError):
            store.apply_delta([entry(3)], [])
        store.apply_delta([entry(3)], [1])
        assert store.serials() == [2, 3]


class TestAdmissionRegistry:
    def test_available_kinds(self):
        assert available_admission_controllers() == ["adaptive", "threshold"]

    def test_by_name(self):
        assert isinstance(admission_by_name("threshold"), AdmissionController)
        adaptive = admission_by_name("Adaptive", enabled=True)
        assert isinstance(adaptive, AdaptiveAdmissionController)

    def test_unknown_kind_rejected(self):
        with pytest.raises(CacheError):
            admission_by_name("fifo")

    def test_record_round_trip_threshold(self):
        controller = AdmissionController(
            enabled=True, expensive_fraction=0.5, calibration_windows=3
        )
        controller.observe_window([window_entry(1, verify=2.0)])
        record = json.loads(json.dumps(controller.state_record()))
        restored = admission_from_record(record)
        assert isinstance(restored, AdmissionController)
        assert not isinstance(restored, AdaptiveAdmissionController)
        assert restored.state_record() == controller.state_record()

    def test_record_round_trip_adaptive_mid_climb(self):
        controller = AdaptiveAdmissionController(
            enabled=True, calibration_windows=1, step_factor=2.0
        )
        controller.observe_window([window_entry(i, verify=float(i)) for i in range(1, 9)])
        controller.record_window_saving(2.0)
        controller.record_window_saving(1.0)  # reversal: direction + step mutate
        record = json.loads(json.dumps(controller.state_record()))
        restored = admission_from_record(record)
        assert isinstance(restored, AdaptiveAdmissionController)
        assert restored.state_record() == controller.state_record()
        # The restored controller continues the climb identically.
        restored.record_window_saving(3.0)
        controller.record_window_saving(3.0)
        assert restored.threshold == controller.threshold
        assert restored.threshold_history == controller.threshold_history


class TestEngineState:
    def test_state_record_is_json_compatible(self):
        engine, _, _, _ = make_engine(
            admission=AdmissionController(enabled=True, calibration_windows=2)
        )
        engine.decide([window_entry(1), window_entry(2)], current_serial=2)
        record = json.loads(json.dumps(engine.state_record()))
        assert record["policy"]["name"] == "hd"
        assert record["admission"]["windows_observed"] == 1

    def test_restore_state_resumes_calibration(self):
        engine, _, _, _ = make_engine(
            admission=AdmissionController(
                enabled=True, expensive_fraction=0.5, calibration_windows=2
            )
        )
        engine.decide(
            [window_entry(1, verify=1.0), window_entry(2, verify=9.0)],
            current_serial=2,
        )
        assert not engine.admission.calibrated

        fresh, _, _, _ = make_engine(
            admission=AdmissionController(
                enabled=True, expensive_fraction=0.5, calibration_windows=2
            )
        )
        fresh.restore_state(json.loads(json.dumps(engine.state_record())))
        # One more window completes the calibration exactly as the original
        # engine would have.
        fresh.decide(
            [window_entry(3, verify=2.0), window_entry(4, verify=8.0)],
            current_serial=4,
        )
        engine.decide(
            [window_entry(3, verify=2.0), window_entry(4, verify=8.0)],
            current_serial=4,
        )
        assert fresh.admission.calibrated
        assert fresh.admission.threshold == engine.admission.threshold

    def test_restore_none_keeps_cold_state(self):
        engine, _, _, _ = make_engine()
        before = engine.state_record()
        engine.restore_state(None)
        assert engine.state_record() == before


class TestAdaptiveFeedbackLoop:
    """The engine drives the adaptive hill-climb live, per round."""

    def make_adaptive_engine(self):
        return make_engine(
            capacity=8,
            admission=AdaptiveAdmissionController(
                enabled=True, expensive_fraction=0.5, calibration_windows=1
            ),
        )

    def test_threshold_adapts_after_each_round(self):
        engine, _, statistics, _ = self.make_adaptive_engine()
        # Round 1 calibrates; the history is seeded with the threshold.
        engine.run([window_entry(i, verify=float(i)) for i in (1, 2, 3, 4)], 4)
        assert engine.admission.calibrated
        seeded = len(engine.admission.threshold_history)
        # Hits between rounds accumulate the estimated cost saving that
        # feeds the climb on the next round.
        engine.on_hit(1, benefiting_serial=5, cs_reduction=2.0, cost_reduction=8.0)
        engine.run([window_entry(i, verify=1.0) for i in (5, 6, 7, 8)], 8)
        assert len(engine.admission.threshold_history) > seeded

    def test_pending_saving_survives_state_round_trip(self):
        engine, _, _, _ = self.make_adaptive_engine()
        engine.run([window_entry(i, verify=float(i)) for i in (1, 2, 3, 4)], 4)
        engine.on_hit(1, benefiting_serial=5, cs_reduction=1.0, cost_reduction=6.5)
        record = json.loads(json.dumps(engine.state_record()))
        assert record["window_cost_saving"] == 6.5

        fresh, _, _, _ = self.make_adaptive_engine()
        fresh.restore_state(record)
        fresh_plan, _, _, _ = fresh.run(
            [window_entry(i, verify=1.0) for i in (5, 6, 7, 8)], 8
        )
        engine_plan, _, _, _ = engine.run(
            [window_entry(i, verify=1.0) for i in (5, 6, 7, 8)], 8
        )
        # Same admission decisions at decide time, and — because the pending
        # saving survived — the same post-round hill-climb step.
        assert fresh_plan.admitted_serials == engine_plan.admitted_serials
        assert fresh_plan.admission_threshold == engine_plan.admission_threshold
        assert fresh.admission.threshold == engine.admission.threshold

    def test_threshold_kind_gets_no_feedback(self):
        engine, _, _, _ = make_engine(
            admission=AdmissionController(enabled=True, calibration_windows=1)
        )
        engine.run([window_entry(i, verify=float(i)) for i in (1, 2, 3, 4)], 4)
        threshold = engine.admission.threshold
        engine.on_hit(1, benefiting_serial=5, cs_reduction=1.0, cost_reduction=9.0)
        engine.run([window_entry(i, verify=1.0) for i in (5, 6, 7, 8)], 8)
        assert engine.admission.threshold == threshold
