"""Prefix trie over label-path features (the GraphGrepSX index structure).

GraphGrepSX stores the label paths of every dataset graph in a suffix/prefix
trie whose nodes record, per graph, how many times the path ending at that
node occurs.  Filtering a query walks the trie once per query feature and
intersects the sets of graphs whose recorded count is at least the query's
count.

The same structure, with per-query metadata instead of per-dataset-graph
metadata, underpins GraphCache's own query index (``GCindex``), which is why
it lives in its own module.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence, Tuple

__all__ = ["PathTrie"]


class _TrieNode:
    """Internal trie node: children by label plus per-owner occurrence counts."""

    __slots__ = ("children", "counts")

    def __init__(self) -> None:
        self.children: Dict[str, _TrieNode] = {}
        self.counts: Dict[int, int] = {}


class PathTrie:
    """A counted prefix trie mapping label sequences to ``{owner_id: count}``.

    ``owner_id`` is a dataset-graph id for FTV indexes and a cached-query id
    for GraphCache's query index.
    """

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._feature_count = 0
        self._owners: set = set()

    # ------------------------------------------------------------------ #
    @property
    def feature_count(self) -> int:
        """Number of distinct (feature, owner) postings inserted."""
        return self._feature_count

    @property
    def owners(self) -> frozenset:
        """Set of all owner ids present in the trie."""
        return frozenset(self._owners)

    def __len__(self) -> int:
        return self._feature_count

    # ------------------------------------------------------------------ #
    def insert(self, feature: Sequence[str], owner_id: int, count: int = 1) -> None:
        """Record that ``owner_id`` contains ``feature`` ``count`` times (additive)."""
        if count <= 0:
            return
        node = self._root
        for label in feature:
            child = node.children.get(label)
            if child is None:
                child = _TrieNode()
                node.children[label] = child
            node = child
        if owner_id not in node.counts:
            self._feature_count += 1
        node.counts[owner_id] = node.counts.get(owner_id, 0) + count
        self._owners.add(owner_id)

    def insert_features(self, features: Dict[Sequence[str], int], owner_id: int) -> None:
        """Bulk-insert a feature counter for a single owner."""
        for feature, count in features.items():
            self.insert(feature, owner_id, count)

    def remove_owner(self, owner_id: int, features: Iterable[Sequence[str]]) -> None:
        """Remove ``owner_id``'s postings (used on cache eviction).

        ``features`` are the keys the owner was inserted under: only those
        paths are walked, so a removal costs O(the owner's own features), not
        O(trie).  Nodes left without postings and children are pruned.
        """
        if owner_id not in self._owners:
            return
        for feature in features:
            path = [self._root]
            for label in feature:
                child = path[-1].children.get(label)
                if child is None:
                    break
                path.append(child)
            else:
                if path[-1].counts.pop(owner_id, None) is not None:
                    self._feature_count -= 1
                for depth in range(len(feature), 0, -1):
                    if path[depth].counts or path[depth].children:
                        break
                    del path[depth - 1].children[feature[depth - 1]]
        self._owners.discard(owner_id)

    # ------------------------------------------------------------------ #
    def _counts(self, feature: Sequence[str]) -> Dict[int, int]:
        """The live ``{owner_id: count}`` table at ``feature`` — read-only."""
        node = self._root
        for label in feature:
            node = node.children.get(label)
            if node is None:
                return {}
        return node.counts

    def lookup(self, feature: Sequence[str]) -> Dict[int, int]:
        """Return ``{owner_id: count}`` for owners containing ``feature`` (a copy)."""
        return dict(self._counts(feature))

    def owners_with_feature(self, feature: Sequence[str], min_count: int = 1) -> frozenset:
        """Owners containing ``feature`` at least ``min_count`` times."""
        return frozenset(
            owner for owner, count in self._counts(feature).items() if count >= min_count
        )

    def filter(self, query_features: Dict[Sequence[str], int]) -> frozenset:
        """Owners containing *every* query feature with sufficient multiplicity.

        Returns the full owner set when the query has no features (no
        filtering power).
        """
        if not query_features:
            return frozenset(self._owners)
        # Evaluate rare features first: they shrink the survivor set fastest.
        ordered = sorted(query_features.items(), key=lambda item: -len(item[0]))
        feature, needed = ordered[0]
        survivors = [
            owner for owner, count in self._counts(feature).items() if count >= needed
        ]
        # Later features only probe the survivors; no owner set is built.
        for feature, needed in ordered[1:]:
            if not survivors:
                break
            count_of = self._counts(feature).get
            survivors = [owner for owner in survivors if count_of(owner, 0) >= needed]
        return frozenset(survivors)

    # ------------------------------------------------------------------ #
    def iter_features(self) -> Iterator[Tuple[Tuple[str, ...], Dict[int, int]]]:
        """Yield ``(feature, {owner: count})`` for every stored feature."""
        stack: list = [((), self._root)]
        while stack:
            prefix, node = stack.pop()
            if node.counts:
                yield prefix, dict(node.counts)
            for label, child in node.children.items():
                stack.append((prefix + (label,), child))

    def approximate_size_bytes(self) -> int:
        """Rough memory footprint estimate, used for space-overhead reports."""
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += 64  # node overhead
            total += 48 * len(node.children)
            total += 16 * len(node.counts)
            stack.extend(node.children.values())
        return total
