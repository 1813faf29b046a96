"""BoundedMemo against the bound rules the memos it replaced applied.

A memo cleared at a count (``len >= limit`` before inserting) and the
Mfilter memo cleared at a weight (``ids + len(CS_M) > limit``) are one rule,
``weight_held + weight > limit``; the model test replays random put/clear
sequences against a plain dict that applies each old rule as written.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import runtime as lock_runtime
from repro.memo import BoundedMemo

_KEYS = st.integers(min_value=0, max_value=12)
_PUT = st.tuples(st.just("put"), _KEYS, st.integers(min_value=1, max_value=6))
_OPS = st.lists(st.one_of(_PUT, st.just(("clear",))), max_size=80)


class _Reference:
    """A plain dict with one old site's bound rule."""

    def __init__(self, limit: int, rule: str) -> None:
        self.limit, self.rule = limit, rule
        self.table: dict = {}
        self.weights: dict = {}
        self.clears = 0

    def _full(self, weight: int) -> bool:
        if self.rule == "count":  # containment verdicts, features, plans, parses
            return len(self.table) >= self.limit
        return sum(self.weights.values()) + weight > self.limit  # Mfilter ids

    def clear(self) -> None:
        self.table.clear()
        self.weights.clear()
        self.clears += 1

    def put(self, key, value, weight):
        if key in self.table:  # a racing miss already stored it
            return self.table[key]
        if self._full(weight):
            self.clear()
        self.table[key] = value
        self.weights[key] = weight
        return value


@pytest.mark.parametrize("rule", ["count", "ids"])
@settings(max_examples=200, deadline=None)
@given(ops=_OPS, limit=st.integers(min_value=1, max_value=10))
def test_the_memo_matches_each_old_bound_rule(rule, ops, limit):
    memo, reference = BoundedMemo(limit), _Reference(limit, rule)
    for step, op in enumerate(ops):
        if op[0] == "clear":
            memo.clear()
            reference.clear()
            continue
        _, key, weight = op
        weight = 1 if rule == "count" else weight
        value = (key, step)  # a later put of a held key offers a new value
        assert memo.put(key, value, weight) == reference.put(key, value, weight)
        assert dict(memo) == reference.table
        assert memo.weight_held == sum(reference.weights.values())
        assert memo.clears == reference.clears
        assert memo.get(key) == reference.table[key]


def test_a_value_heavier_than_the_limit_is_still_held():
    memo = BoundedMemo(4)
    assert memo.put("a", 1, 3) == 1
    assert memo.put("b", 2, 9) == 2  # clears first, then holds the heavy entry
    assert dict(memo) == {"b": 2}
    assert (memo.weight_held, memo.clears) == (9, 1)


@pytest.mark.concurrency
def test_eight_threads_probe_and_put_while_the_memo_keeps_clearing(monkeypatch):
    monkeypatch.setenv(lock_runtime.ENV_VAR, "1")
    lock_runtime._reset_for_tests()
    limit, keys, heaviest = 12, 48, 4
    memo = BoundedMemo(limit)

    def value(key):
        return ("value", key)

    def weight(key):
        return key % heaviest + 1

    failures: list = []
    barrier = threading.Barrier(8)

    def worker(offset: int) -> None:
        try:
            barrier.wait(timeout=30)
            for step in range(3_000):
                key = (offset * 7 + step * 5) % keys
                held = memo.get(key)
                if held is not None and held != value(key):
                    failures.append(("wrong probe", key, held))
                if memo.put(key, value(key), weight(key)) != value(key):
                    failures.append(("wrong put", key))
                if memo.weight_held > limit + heaviest:
                    failures.append(("overweight", memo.weight_held))
        except Exception as exc:  # noqa: BLE001 - surfaced via `failures`
            failures.append(exc)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch_interval)
        lock_runtime._reset_for_tests()
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert memo.clears > 0, "the limit never fired"
    # A lost update on the weight would leave it out of step with the table.
    assert memo.weight_held == sum(weight(key) for key in memo)
    assert all(held == value(key) for key, held in memo.items())
