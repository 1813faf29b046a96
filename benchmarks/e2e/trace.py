"""Benchmark-side tracing: spans recorded around the calls into each layer.

Nothing under ``src/`` is instrumented.  The traced pass wraps the layers from
outside:

* the engine opens a **root span** per request (its id is the stream position)
  around ``GraphCache.query`` / ``ReplicaSet.lookup``;
* :class:`TracedMethod` is a benchmark-side ``Method`` that delegates to the
  real one and records an ``ftv.candidates`` span per Mfilter call and an
  ``isomorphism.verify`` span per sub-iso test;
* :class:`TracedMatcher` goes in through the public ``matcher=`` argument of
  ``build_cache`` / ``ReplicaSet`` and records a
  ``core.processors.containment`` span per query-vs-query test;
* the processors / prune / commit stages and the maintenance round have no
  seam to wrap, so their spans are built from the program's own public timers
  (``CacheQueryResult.stage_times`` and ``maintenance_time_s``): the duration
  is the program's, the position is "right after the span that precedes it in
  pipeline order" (commit and its round end with the request).

Spans stay in memory as ``[name, start, end, parent, request]`` rows and are
written as JSON lines only after the run.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.cache import CacheQueryResult
from repro.graphs.graph import Graph
from repro.isomorphism.base import MatchOutcome, SearchBudget, SubgraphMatcher
from repro.methods.base import Method, VerificationRecord

__all__ = ["TracedMatcher", "TracedMethod", "Tracer", "self_times"]

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Span recorder for the client thread of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        # Work counts taken at the same boundaries as the spans.
        self.candidates_returned = 0
        self.verify_matched = 0
        self.nodes_expanded = 0

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; return its index.

        Outside a request (warm-up, the read-only replay, the restart) nothing
        is recorded and the index is -1.
        """
        if not self._stack:
            return -1
        request = self.spans[self._stack[0]][REQUEST]
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1], request])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        """End span ``index`` (and drop anything an exception left open)."""
        if index >= 0:
            self.spans[index][END] = time.perf_counter()
            del self._stack[self._stack.index(index) :]

    def begin_request(self, request: int, name: str) -> None:
        """Reserve the root span of stream position ``request``."""
        self.spans.append([name, 0.0, 0.0, -1, request])
        self._stack = [len(self.spans) - 1]

    def end_request(self, start: float, end: float, result: object) -> None:
        """Close the root span on the engine's own timestamps.

        For a ``query()`` result the stage spans are added from the program's
        timers and the wrapper spans recorded meanwhile are re-parented under
        the stage they ran in.
        """
        root = self._stack[0]
        self._stack.clear()
        self.spans[root][START], self.spans[root][END] = start, end
        if isinstance(result, CacheQueryResult):
            self._add_stage_spans(root, result)

    def _add_stage_spans(self, root: int, result: CacheQueryResult) -> None:
        request = self.spans[root][REQUEST]
        children = range(root + 1, len(self.spans))
        stages = result.stage_times
        cursor = next(
            (self.spans[i][END] for i in children if self.spans[i][NAME] == "ftv.candidates"),
            self.spans[root][START],
        )
        processors = len(self.spans)
        self.spans.append(
            ["core.processors.process", cursor, cursor + stages["processors"], root, request]
        )
        for i in children:
            if self.spans[i][NAME] == "core.processors.containment":
                self.spans[i][PARENT] = processors
        cursor += stages["processors"]
        self.spans.append(
            ["core.pruner.prune", cursor, cursor + stages["prune"], root, request]
        )
        end = self.spans[root][END]
        commit = len(self.spans)
        self.spans.append(
            ["core.pipeline.commit", end - stages["commit"], end, root, request]
        )
        if result.maintenance_time_s:
            self.spans.append(
                ["core.policies.round", end - result.maintenance_time_s, end, commit, request]
            )

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (name, start, end, parent, request)."""
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def self_times(spans: List[list]) -> List[float]:
    """Per span: duration minus the part of it its direct children cover."""
    covered: Dict[int, float] = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            low, high = spans[parent][START], spans[parent][END]
            covered[parent] += max(0.0, min(end, high) - max(start, low))
    return [
        span[END] - span[START] - covered[index] for index, span in enumerate(spans)
    ]


class TracedMethod(Method):
    """A ``Method`` that delegates to the real one inside spans."""

    def __init__(self, inner: Method, tracer: Tracer) -> None:
        super().__init__(inner.dataset, inner.matcher)
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name
        self.supports_supergraph = inner.supports_supergraph
        self.verify_parallelism = inner.verify_parallelism

    def candidates(self, query: Graph) -> frozenset:
        tracer = self._tracer
        index = tracer.open("ftv.candidates")
        try:
            found = self._inner.candidates(query)
        finally:
            tracer.close(index)
        if index >= 0:
            tracer.candidates_returned += len(found)
        return found

    def _verify(self, call, query: Graph, graph_id: int) -> VerificationRecord:
        tracer = self._tracer
        index = tracer.open("isomorphism.verify")
        try:
            record = call(query, graph_id)
        finally:
            tracer.close(index)
        if index >= 0:
            tracer.verify_matched += record.matched
            tracer.nodes_expanded += record.nodes_expanded
        return record

    def verify(self, query: Graph, graph_id: int) -> VerificationRecord:
        return self._verify(self._inner.verify, query, graph_id)

    def verify_supergraph(self, query: Graph, graph_id: int) -> VerificationRecord:
        return self._verify(self._inner.verify_supergraph, query, graph_id)

    def index_size_bytes(self) -> int:
        return self._inner.index_size_bytes()


class TracedMatcher(SubgraphMatcher):
    """A matcher that delegates query-vs-query tests to the real one in spans."""

    def __init__(self, inner: SubgraphMatcher, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name

    def _search(self, pattern, target, budget, want_embedding):
        return self._inner._search(pattern, target, budget, want_embedding)

    def match(
        self,
        pattern: Graph,
        target: Graph,
        budget: Optional[SearchBudget] = None,
        want_embedding: bool = True,
    ) -> MatchOutcome:
        tracer = self._tracer
        index = tracer.open("core.processors.containment")
        try:
            return self._inner.match(
                pattern, target, budget=budget, want_embedding=want_embedding
            )
        finally:
            tracer.close(index)
