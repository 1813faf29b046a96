"""Golden fixture: restoring a state record is sanctioned, a side route is not.

``GraphCache.restore`` writes the store too, but it is on the sanctioned
path (the follower's state bootstrap), so the traversal does not descend
into it; the replica's second route to ``CacheStore.add`` is still the one
REPRO008 mutation.
"""


class CacheStore:
    def add(self, entry) -> None:
        pass


class GraphCache:
    def __init__(self, store: CacheStore) -> None:
        self._store = store

    def restore(self, state, frames=()) -> None:
        self._store.add(state)


class LateReplica:
    def __init__(self, cache: GraphCache, store: CacheStore) -> None:
        self._cache = cache
        self._store = store

    def apply_frame(self, shard: int, record, line) -> None:
        self._cache.restore(record)
        self._backfill(record)

    def _backfill(self, record) -> None:
        self._store.add(record)
