"""Tests for the runtime lock-order sanitizer (REPRO_LOCK_SANITIZER=1)."""

from __future__ import annotations

import threading

import pytest

from repro.analysis import runtime as rt


@pytest.fixture(autouse=True)
def sanitizer_on(monkeypatch):
    monkeypatch.setenv(rt.ENV_VAR, "1")
    rt._reset_for_tests()
    yield
    rt._reset_for_tests()


class TestRankAssertion:
    def test_out_of_rank_acquisition_raises(self):
        stats = rt.make_rlock("stats")
        gc = rt.make_rlock("gc")
        with stats:
            with pytest.raises(rt.LockRankError, match="rank"):
                gc.acquire()

    def test_increasing_ranks_are_allowed(self):
        gc = rt.make_rlock("gc")
        store = rt.make_rlock("store.cache")
        backend = rt.make_rlock("backend")
        with gc:
            with store:
                with backend:
                    pass

    def test_same_rank_sibling_is_rejected(self):
        shard_a = rt.make_rlock("gc")
        shard_b = rt.make_rlock("gc")
        with shard_a:
            with pytest.raises(rt.LockRankError):
                shard_b.acquire()

    def test_error_names_both_acquisition_sites(self):
        stats = rt.make_rlock("stats")
        gc = rt.make_rlock("gc")
        with stats:
            with pytest.raises(rt.LockRankError, match=r"test_sanitizer\.py"):
                gc.acquire()

    def test_held_stack_is_clean_after_violation(self):
        stats = rt.make_rlock("stats")
        gc = rt.make_rlock("gc")
        with stats:
            with pytest.raises(rt.LockRankError):
                gc.acquire()
        with gc:  # nothing held any more: must succeed
            with stats:
                pass


class TestReentrancy:
    def test_rlock_reacquire_is_allowed(self):
        gc = rt.make_rlock("gc")
        with gc:
            with gc:
                pass
        assert not gc.locked()

    def test_plain_lock_self_deadlock_is_reported(self):
        serial = rt.make_lock("serial")
        with serial:
            with pytest.raises(rt.LockRankError, match="self-deadlock"):
                serial.acquire()


class TestCycleDetection:
    def test_ab_ba_cycle_detected_single_threaded(self):
        a = rt.make_lock("fixture.cycle.a")
        b = rt.make_lock("fixture.cycle.b")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(rt.LockCycleError, match="potential deadlock"):
                a.acquire()

    def test_cross_thread_cycle_detected_without_deadlocking(self):
        a = rt.make_lock("fixture.xthread.a")
        b = rt.make_lock("fixture.xthread.b")

        def forward() -> None:
            with a:
                with b:
                    pass

        worker = threading.Thread(target=forward)
        worker.start()
        worker.join()

        with b:
            with pytest.raises(rt.LockCycleError):
                a.acquire()

    def test_consistent_order_never_trips(self):
        a = rt.make_lock("fixture.order.a")
        b = rt.make_lock("fixture.order.b")
        for _ in range(3):
            with a:
                with b:
                    pass


class TestConditionIntegration:
    def test_condition_wait_notify_across_threads(self):
        cond = rt.make_condition("index.readers")
        ready = []

        def waiter() -> None:
            with cond:
                while not ready:
                    cond.wait(timeout=5)

        worker = threading.Thread(target=waiter)
        worker.start()
        with cond:
            ready.append(True)
            cond.notify_all()
        worker.join(timeout=5)
        assert not worker.is_alive()

    def test_condition_respects_rank_of_its_lock(self):
        write = rt.make_rlock("index.write")
        cond = rt.make_condition("index.readers")
        with write:  # rank 25 then 50: the publish-side pattern
            with cond:
                cond.notify_all()


class TestFactoryModes:
    def test_disabled_returns_raw_primitives(self, monkeypatch):
        monkeypatch.setenv(rt.ENV_VAR, "0")
        assert not isinstance(rt.make_lock("gc"), rt.SanitizedLock)
        assert not isinstance(rt.make_rlock("gc"), rt.SanitizedLock)

    def test_enabled_ranks_come_from_the_table(self):
        gc = rt.make_rlock("gc")
        stats = rt.make_rlock("stats")
        assert (gc.rank, stats.rank) == (0, 35)

    def test_explicit_rank_override(self):
        lock = rt.make_lock("fixture.custom", rank=7)
        assert lock.rank == 7

    def test_unranked_lock_skips_rank_check(self):
        custom = rt.make_lock("fixture.unranked")
        stats = rt.make_rlock("stats")
        with stats:
            with custom:  # no rank: only cycle detection applies
                pass
