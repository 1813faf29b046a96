"""The storage-backend contract shared by every data-layer implementation.

A backend is a bounded-free (capacity policy stays in the store facade),
keyed record container with ``dict``-like observable semantics:

* entries are keyed by the query serial number (an ``int``),
* iteration yields entries in **insertion order** (``replace_all`` resets
  that order to the order of the given sequence; ``apply_delta`` preserves
  the survivors' order and appends the additions),
* mutations are atomic with respect to concurrent readers.

Backends never interpret entries; serialization — when a backend needs it —
goes through the :class:`EntryCodec` provided by the owning store, which maps
an entry object to a JSON-compatible record dictionary and back.

Every backend counts its row mutations in :attr:`StorageBackend.op_counts`
(:class:`BackendOpCounts`).  The counters are deterministic functions of the
workload, which is what lets the maintenance benchmark assert — by counting,
not timing — that a cache-update round performs O(window) row operations
instead of rewriting the whole store.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Protocol, Tuple

__all__ = ["BackendOpCounts", "EntryCodec", "StorageBackend"]


@dataclass
class BackendOpCounts:
    """Row-mutation counters of one storage backend.

    ``bulk_rewrites`` counts whole-store swaps (``replace_all``/``clear``);
    their per-row cost still lands in ``rows_inserted``/``rows_deleted``, so
    ``row_ops`` is the total number of row mutations however they happened.
    """

    rows_inserted: int = 0
    rows_deleted: int = 0
    bulk_rewrites: int = 0

    @property
    def row_ops(self) -> int:
        """Total row mutations (inserts + deletes)."""
        return self.rows_inserted + self.rows_deleted


class EntryCodec(Protocol):
    """Maps typed store entries to JSON-compatible record dictionaries."""

    def encode(self, entry: Any) -> Dict[str, Any]:
        """Serialize ``entry`` into a JSON-compatible dictionary."""
        ...  # pragma: no cover

    def decode(self, record: Dict[str, Any]) -> Any:
        """Reconstruct an entry from a dictionary produced by :meth:`encode`."""
        ...  # pragma: no cover


class StorageBackend(ABC):
    """Keyed entry container with dict-like, insertion-ordered semantics."""

    #: Registry name of the backend (``"memory"``, ``"mmap"``).
    name: str = "abstract"

    def __init__(self) -> None:
        #: Deterministic row-mutation counters (see :class:`BackendOpCounts`).
        self.op_counts = BackendOpCounts()

    # ------------------------------------------------------------------ #
    # Single-entry operations.
    # ------------------------------------------------------------------ #
    @abstractmethod
    def put(self, serial: int, entry: Any) -> None:
        """Insert or overwrite the entry stored under ``serial``."""

    @abstractmethod
    def get(self, serial: int) -> Any:
        """Return the entry stored under ``serial`` or ``None`` if absent."""

    def get_stub(self, serial: int) -> Any:
        """:meth:`get`, but a backend that stores the query graph apart may
        leave it out (``query=None``); the default returns the full entry."""
        return self.get(serial)

    @abstractmethod
    def delete(self, serial: int) -> bool:
        """Remove the entry under ``serial``; return whether it existed."""

    @abstractmethod
    def contains(self, serial: int) -> bool:
        """Whether an entry is stored under ``serial``."""

    # ------------------------------------------------------------------ #
    # Bulk operations.
    # ------------------------------------------------------------------ #
    @abstractmethod
    def serials(self) -> List[int]:
        """All keys, in insertion order."""

    @abstractmethod
    def entries(self) -> List[Any]:
        """All entries, in insertion order (a point-in-time snapshot)."""

    @abstractmethod
    def count(self) -> int:
        """Number of stored entries."""

    @abstractmethod
    def replace_all(self, items: Iterable[Tuple[int, Any]]) -> None:
        """Atomically swap the whole contents for ``items`` (sets the order)."""

    @abstractmethod
    def clear(self) -> None:
        """Remove every entry."""

    def apply_delta(
        self, add: Iterable[Tuple[int, Any]], remove: Iterable[int]
    ) -> None:
        """Row-level delta: delete ``remove``, then append ``add``.

        The maintenance engine's apply step — O(len(add) + len(remove))
        row mutations where ``replace_all`` costs O(store).  Survivors keep
        their iteration position; additions append in the given order (the
        same observable result a ``replace_all`` with survivors + additions
        would produce).  The default implementation composes the primitive
        ``delete``/``put`` ops; backends that must publish the delta
        atomically (one lock hold) override it.
        """
        for serial in remove:
            self.delete(serial)
        for serial, entry in add:
            self.put(serial, entry)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release any resources held by the backend (no-op by default)."""

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.count()

    def __contains__(self, serial: int) -> bool:
        return self.contains(serial)
