"""An independent answer oracle: every cached answer against networkx.

The cache's correctness claim is that it returns exactly Method M's answer
set.  The other correctness suites take Method M itself (or the processors
with the exact-hit table switched off) as the reference, so a fault shared by
the cache and Method M would pass them.  Here the reference shares no code
with the program: networkx's subgraph monomorphism test, taken over every
dataset graph (``tests/isomorphism/helpers.py``).

Hypothesis draws small labelled datasets (connected random graphs over the
labels C/N/O) and request streams mixing fresh queries, earlier queries grown
by one vertex, exact repeats and vertex-renumbered repeats, so the exact-hit
table, the processors' isomorphism loop, the pruning equations and the
empty-answer shortcut all answer.  A capacity of 3
and a window of 2 make rounds admit and evict in mid-stream.  Every
``query()`` answer and every ``lookup()`` answer, on the memory and on the
mmap backend, must equal the oracle's.

Both query modes are judged.  In subgraph mode (GraphGrepSX as Method M) a
dataset graph answers when it contains the query; in supergraph mode
(``SupergraphFeatureIndex``) when the query contains it, so there the
dataset holds small pieces of random graphs and fresh queries are random
graphs of four to nine vertices.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cache import GraphCache
from repro.core.config import GraphCacheConfig
from repro.ftv.ggsx import GraphGrepSX
from repro.ftv.supergraph import SupergraphFeatureIndex
from repro.graphs.dataset import GraphDataset
from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph
from ..isomorphism.helpers import LABELS, networkx_is_subgraph

BACKENDS = ("memory", "mmap")
MODES = ("subgraph", "supergraph")
KINDS = ("fresh", "grown", "repeat", "renumbered")

steps = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 2**16)), min_size=6, max_size=16
)


def _dataset(seed: int, mode: str) -> GraphDataset:
    rng = random.Random(seed)
    graphs = [random_connected_graph(rng.randint(5, 9), 2.4, LABELS, rng) for _ in range(6)]
    if mode == "supergraph":
        graphs = [_piece(graph, rng) for graph in graphs]
    return GraphDataset(graphs)


def _piece(graph: Graph, rng: random.Random) -> Graph:
    """A connected induced piece of ``graph`` (two to five vertices)."""
    chosen = [rng.randrange(graph.order)]
    frontier = set(graph.neighbors(chosen[0]))
    while frontier and len(chosen) < rng.randint(2, 5):
        vertex = rng.choice(sorted(frontier))
        chosen.append(vertex)
        frontier = (frontier | set(graph.neighbors(vertex))) - set(chosen)
    return graph.induced_subgraph(chosen)


def _renumbered(query: Graph, rng: random.Random) -> Graph:
    """``query`` with its vertices renumbered (isomorphic, usually not ``==``)."""
    order = list(range(query.order))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    return Graph(
        labels=[query.label(old) for old in order],
        edges=[(position[u], position[v]) for u, v in query.edges],
    )


def _grown(query: Graph, rng: random.Random) -> Graph:
    """``query`` plus one vertex hung off one of its vertices (a supergraph)."""
    return Graph(
        labels=list(query.labels) + [rng.choice(LABELS + ["S"])],
        edges=list(query.edges) + [(rng.randrange(query.order), query.order)],
    )


def _stream(dataset: GraphDataset, drawn, mode: str) -> List[Graph]:
    queries: List[Graph] = []
    for kind, value in drawn:
        rng = random.Random(value)
        if (kind == "fresh" or not queries) and mode == "supergraph":
            queries.append(random_connected_graph(rng.randint(4, 9), 2.4, LABELS, rng))
        elif kind == "fresh" or not queries:
            if rng.random() < 0.7:
                queries.append(_piece(dataset[rng.randrange(len(dataset))], rng))
            else:  # may carry "S", which no dataset graph has
                queries.append(random_connected_graph(rng.randint(2, 4), 2.0, LABELS + ["S"], rng))
        elif kind == "grown":
            queries.append(_grown(rng.choice(queries), rng))
        elif kind == "repeat":
            queries.append(rng.choice(queries))
        else:
            queries.append(_renumbered(rng.choice(queries), rng))
    return queries


class Oracle:
    """Answer sets by networkx, over every dataset graph."""

    def __init__(self, dataset: GraphDataset, mode: str) -> None:
        self._dataset = dataset
        self._mode = mode
        self._answers: Dict[Graph, frozenset] = {}

    def _answers_query(self, query: Graph, graph: Graph) -> bool:
        if self._mode == "supergraph":
            return networkx_is_subgraph(graph, query)
        return networkx_is_subgraph(query, graph)

    def __call__(self, query: Graph) -> frozenset:
        if query not in self._answers:
            self._answers[query] = frozenset(
                graph_id
                for graph_id, graph in enumerate(self._dataset)
                if self._answers_query(query, graph)
            )
        return self._answers[query]


def _serve(backend: str, mode: str, dataset: GraphDataset, queries: List[Graph]):
    """Serve ``queries`` through a fresh cache, checking every answer;
    returns the cache (closed) and its ``query()`` results."""
    oracle = Oracle(dataset, mode)
    method = SupergraphFeatureIndex(dataset) if mode == "supergraph" else GraphGrepSX(dataset)
    cache = GraphCache(
        method,
        GraphCacheConfig(cache_capacity=3, window_size=2, backend=backend, query_mode=mode),
    )
    results = []
    try:
        for position, query in enumerate(queries):
            results.append(cache.query(query))
            assert results[-1].answer_ids == oracle(query), position
            for probe in (query, queries[position // 2]):
                assert cache.lookup(probe) == oracle(probe), position
    finally:
        cache.close()
    return cache, results


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dataset_seed=st.integers(0, 2**16), drawn=steps)
def test_every_answer_equals_the_networkx_oracle(backend, mode, dataset_seed, drawn):
    dataset = _dataset(dataset_seed, mode)
    _serve(backend, mode, dataset, _stream(dataset, drawn, mode))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_the_streams_reach_every_hit_path(backend, mode):
    """The drawn streams are not trivial: over a few fixed ones the cache
    evicts, answers exact hits from the table and through the processors'
    loop, takes direct answers from the pruning equations and (in subgraph
    mode) proves empty answers.  The supergraph-mode shortcut needs a query
    contained in a cached query without answers, which streams of queries
    larger than the dataset graphs almost never make."""
    rng = random.Random(7)
    totals = dict(table_exact=0, loop_exact=0, direct=0, empty=0, evicted=0)
    for _ in range(12):
        dataset = _dataset(rng.randrange(2**16), mode)
        drawn = [(rng.choice(KINDS), rng.randrange(2**16)) for _ in range(16)]
        cache, results = _serve(backend, mode, dataset, _stream(dataset, drawn, mode))
        for result in results:
            confirmed = result.containment_tests + result.containment_memo_hits
            totals["table_exact"] += result.shortcut == "exact" and not confirmed
            totals["loop_exact"] += result.shortcut == "exact" and bool(confirmed)
            totals["direct"] += result.direct_answers > 0
            totals["empty"] += result.shortcut == "empty"
        totals["evicted"] += sum(len(r.evicted_serials) for r in cache.window_manager.reports)
    if mode == "supergraph":
        del totals["empty"]
    assert all(totals.values()), totals
