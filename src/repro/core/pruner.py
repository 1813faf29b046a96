"""Candidate Set Pruner: equations (1) and (2) plus the special cases of §5.1.

The pruner combines Method M's candidate set ``CS_M(g)`` with the containment
relations discovered by the GC processors:

**Subgraph queries** (answers are dataset graphs that *contain* the query):

* every graph in the answer set of a cached ``g' ⊇ g`` also contains ``g`` —
  those graphs go straight to the answer set and leave the candidate set
  (equation 1);
* a graph outside the answer set of a cached ``g'' ⊆ g`` cannot contain ``g``
  — the candidate set is intersected with each such answer set (equation 2);
* **special case 1**: an isomorphic cached query answers the query outright;
* **special case 2**: a cached ``g'' ⊆ g`` with an empty answer set proves the
  query's answer set is empty.

**Supergraph queries** (answers are dataset graphs *contained in* the query)
use the exact inverse roles of ``Resultsub`` and ``Resultsuper``, as described
at the end of §5.1.

The pruner also reports, per contributing cached query, exactly which dataset
graphs it removed from the candidate set — the Statistics Monitor turns that
into the ``R`` and ``C`` utility components of the PIN / PINC / HD policies.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional

from .processors import ProcessorOutcome
from .stores import CacheStore

__all__ = ["PruningResult", "CandidateSetPruner"]


class PruningResult(NamedTuple):
    """Outcome of candidate-set pruning for one query.

    Attributes
    ----------
    final_candidates:
        Dataset-graph ids that still require sub-iso verification.
    direct_answers:
        Dataset-graph ids added to the answer set without verification.
    shortcut:
        ``"exact"`` when an isomorphic cached query answered the query,
        ``"empty"`` when the empty-answer special case fired, else ``None``.
    shortcut_serial:
        Serial of the cached query that triggered the shortcut, if any.
    contributions:
        ``{cached serial: ids of candidate-set graphs this entry removed}`` —
        the per-entry candidate-set reduction used for the ``R`` statistic.
    """

    final_candidates: FrozenSet[int]
    direct_answers: FrozenSet[int]
    shortcut: Optional[str]
    shortcut_serial: Optional[int]
    contributions: Dict[int, FrozenSet[int]]


class CandidateSetPruner:
    """Applies the cache-derived pruning rules to Method M's candidate set."""

    def __init__(self, cache_store: CacheStore, query_mode: str = "subgraph") -> None:
        self._cache_store = cache_store
        self._query_mode = query_mode

    # ------------------------------------------------------------------ #
    def prune(
        self,
        method_candidates: FrozenSet[int],
        outcome: ProcessorOutcome,
    ) -> PruningResult:
        """Prune ``method_candidates`` using the processors' findings."""
        if self._query_mode == "subgraph":
            expanding = outcome.result_sub      # g ⊆ g': answers of g' are answers of g
            restricting = outcome.result_super  # g'' ⊆ g: answers of g must lie in answers of g''
        else:
            expanding = outcome.result_super    # g'' ⊆ g: answers of g'' are answers of g
            restricting = outcome.result_sub    # g ⊆ g': answers of g must lie in answers of g'

        # Every store read below goes through the tolerant ``answers``: the
        # serials come from a published GCindex snapshot, and a background
        # maintenance apply may have evicted one of them from the store in
        # the meantime.  Skipping such an entry wholesale is exactly as if
        # the processors had never found it — answers stay correct, the
        # query merely forgoes that entry's pruning contribution.  Under
        # sync scheduling (apply and pruning both under the GC lock) a miss
        # is impossible and behaviour is unchanged.

        # Special case 1: exact (isomorphic) hit — return the cached answer.
        if outcome.exact_match_serial is not None:
            serial = outcome.exact_match_serial
            answer = self._cache_store.answers(serial)
            if answer is not None:
                return PruningResult(
                    frozenset(), answer, "exact", serial, {serial: method_candidates}
                )

        # Special case 2: a restricting entry with an empty answer set proves
        # the final answer set is empty.
        for serial in sorted(restricting):
            answer = self._cache_store.answers(serial)
            if answer is not None and not answer:
                return PruningResult(
                    frozenset(), frozenset(), "empty", serial, {serial: method_candidates}
                )

        contributions: Dict[int, set] = {}
        candidates = set(method_candidates)
        direct_answers: set = set()

        # Equation (1) (subgraph mode): graphs in the answer set of any cached
        # query that contains g are guaranteed answers.
        for serial in sorted(expanding):
            answer = self._cache_store.answers(serial)
            if answer is None:
                continue
            removed = candidates & answer
            if removed:
                contributions.setdefault(serial, set()).update(removed)
                candidates -= removed
            direct_answers |= answer

        # Equation (2) (subgraph mode): the remaining candidates must lie in
        # the answer set of every cached query contained in g.
        for serial in sorted(restricting):
            answer = self._cache_store.answers(serial)
            if answer is None:
                continue
            removed = candidates - answer
            if removed:
                contributions.setdefault(serial, set()).update(removed)
                candidates &= answer
            if not candidates:
                break

        return PruningResult(
            final_candidates=frozenset(candidates),
            direct_answers=frozenset(direct_answers),
            shortcut=None,
            shortcut_serial=None,
            contributions={
                serial: frozenset(ids) for serial, ids in contributions.items()
            },
        )
