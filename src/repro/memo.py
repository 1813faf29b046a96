"""BoundedMemo: the one keyed memo behind every repeated-structure shortcut.

Probes are the builtin ``dict`` methods (``get``, ``in``, ``len``): a hit
runs no Python frame and takes no lock.  Writes go through :meth:`put`,
under one leaf lock (rank ``memo``), with one bound rule: a put that would
take the held weight past ``limit`` empties the memo first.  With the
default weight of 1 that is "clear when ``len >= limit``".  Values are never
``None``, so ``get(key) is None`` is a miss.
"""

from __future__ import annotations

from typing import Any, Hashable

from .analysis.runtime import make_lock

__all__ = ["BoundedMemo"]


class BoundedMemo(dict):
    """A ``dict`` written through :meth:`put` and cleared at a weight limit."""

    __slots__ = ("limit", "weight_held", "clears", "_lock")

    def __init__(self, limit: int) -> None:
        super().__init__()
        #: The most weight held before the next :meth:`put` clears the memo.
        self.limit = limit
        #: Total weight of the entries held.
        self.weight_held = 0
        #: How many times the memo has been emptied.
        self.clears = 0
        self._lock = make_lock("memo")

    def put(self, key: Hashable, value: Any, weight: int = 1) -> Any:
        """Memoise ``value`` under ``key``; return the value now held (the
        first writer wins, so a racing miss gets the stored value back)."""
        with self._lock:
            held = self.get(key)
            if held is not None:
                return held
            if self.weight_held + weight > self.limit:
                super().clear()
                self.weight_held = 0
                self.clears += 1
            self[key] = value
            self.weight_held += weight
        return value

    def clear(self) -> None:
        """Forget every entry (the hook a dataset update must call)."""
        with self._lock:
            super().clear()
            self.weight_held = 0
            self.clears += 1
