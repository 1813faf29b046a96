"""In-memory storage backend: the extracted dictionaries of the seed stores."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from ...analysis.runtime import make_rlock
from .base import StorageBackend

__all__ = ["InMemoryBackend"]


class InMemoryBackend(StorageBackend):
    """Entries live in a plain dict; no serialization on any path.

    This is exactly the data structure the stores used before the backend
    abstraction existed, so it is the zero-overhead default.
    """

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._entries: Dict[int, Any] = {}
        # Backends may be used directly (contract tests, ad-hoc tools); the
        # store facades add their own coarser lock on top.
        self._lock = make_rlock("backend")

    # ------------------------------------------------------------------ #
    def put(self, serial: int, entry: Any) -> None:
        with self._lock:
            self._entries[serial] = entry
            self.op_counts.rows_inserted += 1

    def get(self, serial: int) -> Any:
        with self._lock:
            return self._entries.get(serial)

    def delete(self, serial: int) -> bool:
        with self._lock:
            existed = self._entries.pop(serial, None) is not None
            if existed:
                self.op_counts.rows_deleted += 1
            return existed

    def contains(self, serial: int) -> bool:
        with self._lock:
            return serial in self._entries

    # ------------------------------------------------------------------ #
    def serials(self) -> List[int]:
        with self._lock:
            return list(self._entries)

    def entries(self) -> List[Any]:
        with self._lock:
            return list(self._entries.values())

    def count(self) -> int:
        with self._lock:
            return len(self._entries)

    def replace_all(self, items: Iterable[Tuple[int, Any]]) -> None:
        replacement = {serial: entry for serial, entry in items}
        with self._lock:
            self.op_counts.bulk_rewrites += 1
            self.op_counts.rows_deleted += len(self._entries)
            self.op_counts.rows_inserted += len(replacement)
            self._entries = replacement

    def clear(self) -> None:
        with self._lock:
            self.op_counts.bulk_rewrites += 1
            self.op_counts.rows_deleted += len(self._entries)
            self._entries = {}

    def apply_delta(
        self, add: Iterable[Tuple[int, Any]], remove: Iterable[int]
    ) -> None:
        # Override the base composition to hold the lock across the whole
        # delta: a concurrent reader never observes the evictions without
        # the admissions (the same atomicity replace_all gives).
        additions = list(add)
        with self._lock:
            for serial in remove:
                if self._entries.pop(serial, None) is not None:
                    self.op_counts.rows_deleted += 1
            for serial, entry in additions:
                self._entries[serial] = entry
                self.op_counts.rows_inserted += 1
