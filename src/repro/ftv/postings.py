"""Counted label-path postings: the one in-RAM layout of every path index.

GraphGrepSX and Grapes index the label paths of every dataset graph, and
GraphCache's query index (``GCindex``) those of every cached query.  All
three only ask "which owners hold this exact feature, and how often", never
a prefix question, so the layout is a flat map ``feature tuple -> {owner_id:
count}``: one dictionary probe per feature.  ``owner_id`` is a dataset-graph
id for the FTV methods and a cached-query serial for the GCindex.
:meth:`~repro.ftv.index_arena.FeatureIndexArena.seal` compiles
:meth:`Postings.iter_features` into CSR arrays, sorting features and owners,
so the segment bytes do not depend on insertion order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

__all__ = ["Postings"]

FeatureKey = Tuple[str, ...]

_NO_POSTINGS: Dict[int, int] = {}


class Postings:
    """A counted postings map ``feature -> {owner_id: count}``."""

    def __init__(self) -> None:
        self._postings: Dict[FeatureKey, Dict[int, int]] = {}
        self._feature_count = 0
        self._owners: set = set()

    @property
    def feature_count(self) -> int:
        """Number of distinct (feature, owner) postings inserted."""
        return self._feature_count

    @property
    def owners(self) -> frozenset:
        """Set of all owner ids holding at least one posting."""
        return frozenset(self._owners)

    def __len__(self) -> int:
        return self._feature_count

    # ------------------------------------------------------------------ #
    def insert(self, feature: Sequence[str], owner_id: int, count: int = 1) -> None:
        """Record that ``owner_id`` contains ``feature`` ``count`` times (additive)."""
        self.insert_features({tuple(feature): count}, owner_id)

    def insert_features(self, features: Mapping[FeatureKey, int], owner_id: int) -> None:
        """Bulk-insert a feature counter (tuple keys) for a single owner."""
        postings, added, inserted = self._postings, 0, False
        for feature, count in features.items():
            if count > 0:
                inserted = True
                counts = postings.get(feature)
                if counts is None:
                    postings[feature] = {owner_id: count}
                    added += 1
                elif owner_id in counts:
                    counts[owner_id] += count
                else:
                    counts[owner_id] = count
                    added += 1
        if inserted:
            self._feature_count += added
            self._owners.add(owner_id)

    def remove_owner(self, owner_id: int, features: Iterable[FeatureKey]) -> None:
        """Remove ``owner_id``'s postings under ``features`` (cache eviction).

        ``features`` are the keys the owner was inserted under, so a removal
        costs O(the owner's own features); a key the owner has no posting
        under is skipped, and a feature left without owners is dropped.
        """
        if owner_id not in self._owners:
            return
        postings, removed = self._postings, 0
        for feature in features:
            counts = postings.get(feature)
            if counts is not None and counts.pop(owner_id, None) is not None:
                removed += 1
                if not counts:
                    del postings[feature]
        self._feature_count -= removed
        self._owners.discard(owner_id)

    # ------------------------------------------------------------------ #
    def lookup(self, feature: Sequence[str]) -> Dict[int, int]:
        """Return ``{owner_id: count}`` for owners containing ``feature`` (a copy)."""
        return dict(self._postings.get(tuple(feature), _NO_POSTINGS))

    def filter(self, query_features: Mapping[Sequence[str], int]) -> frozenset:
        """Owners containing *every* query feature with sufficient multiplicity.

        Returns every owner when the query has no features (no filtering
        power).  Longer features are probed first: they are the rarest, so
        they shrink the survivor set fastest.
        """
        return self.filter_ordered(
            sorted(query_features.items(), key=lambda item: -len(item[0]))
        )

    def filter_ordered(self, probe: Sequence[Tuple[FeatureKey, int]]) -> frozenset:
        """:meth:`filter` over ``(feature, count)`` pairs already in probe order."""
        if not probe:
            return frozenset(self._owners)
        postings = self._postings
        feature, needed = probe[0]
        survivors = [
            owner
            for owner, count in postings.get(feature, _NO_POSTINGS).items()
            if count >= needed
        ]
        # Later features only probe the survivors; no owner set is built.
        for feature, needed in probe[1:]:
            if not survivors:
                break
            count_of = postings.get(feature, _NO_POSTINGS).get
            survivors = [owner for owner in survivors if count_of(owner, 0) >= needed]
        return frozenset(survivors)

    # ------------------------------------------------------------------ #
    def iter_features(self) -> Iterator[Tuple[FeatureKey, Dict[int, int]]]:
        """Yield ``(feature, {owner: count})`` for every stored feature."""
        for feature, counts in self._postings.items():
            yield feature, dict(counts)

    def approximate_size_bytes(self) -> int:
        """Rough memory footprint estimate, used for space-overhead reports."""
        return 64 + sum(
            112 + 8 * len(feature) + 16 * len(counts)
            for feature, counts in self._postings.items()
        )
