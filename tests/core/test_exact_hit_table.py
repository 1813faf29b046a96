"""The GCindex's exact-hit table: a Graph-equal repeat is one probe.

Every copy of the index keeps ``structure → serial`` next to its graphs, and
the same ``_apply_*`` calls maintain both, so the table is published with a
round, replayed into the retired copy, rebuilt by ``restore`` and recovery
and replayed on followers.  The processors probe it before reading features;
the exact-match loop stays for isomorphic queries numbered differently,
and for an equal twin whose lower serial was evicted.  The stream oracle runs the same processors with the probe answering
"absent", so every request takes the loop: answers, shortcuts,
contributions and hit events must not move.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import (
    GraphCacheConfig,
    PackedGraphDataset,
    ReplicaSet,
    recover_cache,
    save_cache,
    seal_dataset,
)
from repro.core.cache import GraphCache
from repro.core.pipeline import PruneStage
from repro.core.policies.engine import MaintenanceEngine
from repro.core.processors import CacheProcessors
from repro.core.query_index import IndexView, QueryGraphIndex
from repro.ftv.ggsx import GraphGrepSX
from repro.graphs.generators import aids_like
from repro.graphs.graph import Graph
from repro.isomorphism.cost import estimate_subiso_cost
from repro.methods import SIMethod
from repro.workloads import generate_type_a

from ..isomorphism.helpers import networkx_is_subgraph

DATASET = aids_like(scale=0.05, seed=3)
METHOD = SIMethod(DATASET, matcher="vf2plus")

CC_EDGE = Graph(labels=["C", "C"], edges=[(0, 1)])
CCO_PATH = Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)])
CCON_PATH = Graph(labels=["C", "C", "O", "N"], edges=[(0, 1), (1, 2), (2, 3)])


def renumbered(graph: Graph) -> Graph:
    """``graph`` with its vertex numbering reversed (isomorphic to it)."""
    last = graph.order - 1
    return Graph(
        labels=list(reversed(graph.labels)),
        edges=[(last - u, last - v) for u, v in graph.edges],
    )


def _stream(count=60, seed=7):
    return list(generate_type_a(DATASET, "ZZ", count, query_sizes=(3, 5, 8), seed=seed))


def _expected_table(buffer):
    """``{graph: lowest serial}`` over the buffer's indexed graphs."""
    expected = {}
    for serial in sorted(buffer.graphs):
        expected.setdefault(buffer.graphs[serial], serial)
    return expected


def _assert_tables(index: QueryGraphIndex):
    """Every copy's table matches its graphs; at rest the copies agree."""
    for buffer in index._buffers:
        assert buffer.exact == _expected_table(buffer)
    assert all(buffer.exact == index._buffers[0].exact for buffer in index._buffers)


def _assert_cache_table(cache: GraphCache):
    _assert_tables(cache.query_index)
    cached = {cache.cached_entry(serial).query: serial for serial in cache.cached_serials}
    assert cache.query_index._buffers[0].exact == cached


# --------------------------------------------------------------------------- #
# Index maintenance.
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("double_buffered", [True, False], ids=["double", "single"])
def test_every_mutation_keeps_the_table_equal_to_the_graphs(double_buffered):
    index = QueryGraphIndex(max_path_length=3, double_buffered=double_buffered)
    index.add(1, CC_EDGE)
    _assert_tables(index)
    index.add(2, CCO_PATH)
    index.add(3, Graph(labels=["C", "C"], edges=[(0, 1)]))  # an equal twin of 1
    _assert_tables(index)
    with index.view() as snapshot:
        assert snapshot.exact_serial(CC_EDGE) == 1
    index.remove(1)
    # The surviving twin leaves the table; the processors' loop finds it.
    for buffer in index._buffers:
        assert buffer.exact == {CCO_PATH: 2}
    outcome = CacheProcessors(index).process(CC_EDGE)
    assert outcome.exact_match_serial == 3 and outcome.containment_tests == 1
    index.remove(3)
    index.remove(99)  # absent: a no-op
    _assert_tables(index)
    with index.view() as snapshot:
        assert snapshot.exact_serial(CC_EDGE) is None
    index.rebuild([(5, CCON_PATH), (6, CCO_PATH), (4, CCO_PATH)])
    _assert_tables(index)
    with index.view() as snapshot:
        assert snapshot.exact_serial(CCO_PATH) == 4
        assert snapshot.exact_serial(CC_EDGE) is None
    index.apply_delta([(7, CC_EDGE)], [4, 5])
    for buffer in index._buffers:
        assert buffer.exact == {CC_EDGE: 7}  # twin 6 is left to the loop
    index.remove(6)
    _assert_tables(index)


def test_a_batch_publishes_the_table_atomically_and_replays_the_retired_copy():
    index = QueryGraphIndex(max_path_length=3)
    index.add(1, CC_EDGE)
    published = index._buffers[index._published]
    unpublished = []

    def read():
        # Readers still see the published copy, table included.
        with index.view() as snapshot:
            unpublished.append((snapshot.exact_serial(CC_EDGE), snapshot.exact_serial(CCO_PATH)))

    index.apply_delta([(2, CCO_PATH)], [1], before_publish=read)
    assert unpublished == [(1, None)]
    with index.view() as snapshot:
        assert snapshot.exact_serial(CC_EDGE) is None
        assert snapshot.exact_serial(CCO_PATH) == 2
    # The copy readers used before the batch was retired and replayed.
    assert index._buffers[index._published] is not published
    assert published.exact == {CCO_PATH: 2}
    _assert_tables(index)


def test_concurrent_readers_never_see_a_table_out_of_step_with_its_graphs():
    index = QueryGraphIndex(max_path_length=3)
    # Twelve distinct structures cycling through eight live serials: no twins.
    pool = list(dict.fromkeys(_stream(count=60)))[:12]
    assert len(pool) == 12
    stop = threading.Event()
    torn = []

    def read():
        while not stop.is_set():
            with index.view() as snapshot:
                buffer = snapshot._buffer
                if buffer.exact != _expected_table(buffer):
                    torn.append(snapshot.version)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=read) for _ in range(4)]
    try:
        for reader in readers:
            reader.start()
        for serial in range(1, 301):
            index.apply_delta(
                [(serial, pool[serial % len(pool)])], [serial - 8] if serial > 8 else []
            )
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert torn == []
    _assert_tables(index)


@pytest.mark.parametrize("mode", ["sync", "background"])
def test_a_cache_keeps_the_table_equal_to_its_entries_after_every_round(mode):
    cache = GraphCache(
        METHOD, GraphCacheConfig(cache_capacity=6, window_size=3, maintenance_mode=mode)
    )
    for query in _stream():
        cache.query(query)
        cache.drain_maintenance()
        _assert_cache_table(cache)
    cache.close()


def test_restore_recovery_and_a_thread_follower_rebuild_the_table(tmp_path):
    config = GraphCacheConfig(
        cache_capacity=6, window_size=3, journal_path=str(tmp_path / "journal.jsonl")
    )
    primary = GraphCache(METHOD, config)
    stream = _stream()
    with ReplicaSet(primary, replicas=1, mode="thread") as replicas:
        for query in stream[:30]:
            primary.query(query)
        save_cache(primary, tmp_path / "snapshot.json")
        for query in stream[30:]:
            primary.query(query)
        replicas.sync()
        follower = replicas._followers[0]._replica.cache
        _assert_cache_table(follower)
        assert follower.query_index._buffers[0].exact == (
            primary.query_index._buffers[0].exact
        )
    primary.close()

    recovered = recover_cache(tmp_path / "snapshot.json", METHOD, tmp_path / "journal.jsonl")
    _assert_cache_table(recovered)
    assert recovered.query_index._buffers[0].exact == primary.query_index._buffers[0].exact
    recovered.close()


# --------------------------------------------------------------------------- #
# The processors.
# --------------------------------------------------------------------------- #
def _processors(entries):
    index = QueryGraphIndex(max_path_length=3)
    for serial, graph in entries:
        index.add(serial, graph)
    return CacheProcessors(index)


def test_a_graph_equal_repeat_runs_no_test_and_no_memo_probe():
    processors = _processors([(1, CCON_PATH), (2, CC_EDGE), (3, CCO_PATH)])
    outcome = processors.process(Graph(labels=["C", "C", "O"], edges=[(0, 1), (1, 2)]))
    assert outcome.exact_match_serial == 3
    assert outcome.result_sub == outcome.result_super == frozenset({3})
    assert outcome.containment_tests == 0
    assert outcome.memo_hits == 0
    assert len(processors.memo) == 0


def test_a_renumbered_repeat_is_still_an_exact_hit_through_the_loop():
    query = _stream(count=20)[-1]
    twin = renumbered(query)
    assert twin != query and networkx_is_subgraph(twin, query)
    cache = GraphCache(METHOD, GraphCacheConfig(cache_capacity=6, window_size=1))
    first = cache.query(query)
    assert first.serial in cache.cached_serials
    with cache.query_index.view() as snapshot:
        assert snapshot.exact_serial(twin) is None
    result = cache.query(twin)
    assert result.shortcut == "exact"
    assert result.containment_tests + result.containment_memo_hits >= 1
    assert result.answer_ids == first.answer_ids
    cache.close()


# --------------------------------------------------------------------------- #
# The stream oracle: the loop alone must reach the same decisions.
# --------------------------------------------------------------------------- #
def _record(monkeypatch, table: bool):
    """Spy on every request's pruning decision and on crediting; with
    ``table=False`` the probe always misses."""
    events = []
    if not table:
        monkeypatch.setattr(IndexView, "exact_serial", lambda self, query: None)
    run = PruneStage.run
    on_hit = MaintenanceEngine.on_hit

    def spy_prune(self, ctx):
        result = run(self, ctx)
        events.append(
            (
                ctx.serial,
                ctx.outcome.exact_match_serial,
                ctx.pruning.shortcut,
                ctx.pruning.shortcut_serial,
                {key: frozenset(ids) for key, ids in ctx.pruning.contributions.items()},
            )
        )
        return result

    def spy_on_hit(self, **kwargs):
        events.append(tuple(sorted(kwargs.items())))
        on_hit(self, **kwargs)

    monkeypatch.setattr(PruneStage, "run", spy_prune)
    monkeypatch.setattr(MaintenanceEngine, "on_hit", spy_on_hit)
    return events


def _replay_stream(name, tmp_path, monkeypatch, table):
    from benchmarks.e2e.workloads import RUN_SECONDS, SPECS, build_dataset, generate

    spec = SPECS[name]
    stream = generate(spec, 1, RUN_SECONDS)
    directory = tmp_path / ("table" if table else "oracle")
    directory.mkdir()
    config = GraphCacheConfig(
        **spec.config,
        backend_path=str(directory / "store") if spec.config.get("backend") else None,
    )
    cache = GraphCache(GraphGrepSX(build_dataset(spec.dataset)), config)
    with monkeypatch.context() as patch:
        events = _record(patch, table)
        answers = [cache.query(query).answer_ids for query in stream.warmup]
        exact = 0
        for query, read in zip(stream.measured, stream.reads, strict=True):
            if read:
                answers.append(cache.lookup(query))
            else:
                result = cache.query(query)
                answers.append(result.answer_ids)
                exact += result.shortcut == "exact"
    cached = sorted(cache.cached_serials)
    cache.close()
    return answers, events, cached, exact


@pytest.mark.parametrize(
    "name",
    ["aids_pool_hit", "pdbs_uniform_miss", "aids_write_durable", "aids_replica_readmix"],
)
def test_the_table_reaches_the_loops_decisions_on_every_e2e_request(
    name, tmp_path, monkeypatch
):
    answers, events, cached, exact = _replay_stream(name, tmp_path, monkeypatch, True)
    oracle = _replay_stream(name, tmp_path, monkeypatch, False)
    assert exact > 0
    assert answers == oracle[0]
    assert events == oracle[1]
    assert cached == oracle[2]


# --------------------------------------------------------------------------- #
# Crediting reads a vertex-count vector.
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module", params=["plain", "packed"])
def dataset(request, tmp_path_factory):
    if request.param == "plain":
        yield DATASET
        return
    path = seal_dataset(DATASET, tmp_path_factory.mktemp("packed") / "dataset.arena")
    packed = PackedGraphDataset.attach(path)
    yield packed
    packed.close()


def test_the_credited_cost_equals_the_per_graph_order_sum_bit_for_bit(dataset, monkeypatch):
    assert dataset.orders == tuple(graph.order for graph in dataset)
    credited = []
    run = PruneStage.run

    def spy_prune(self, ctx):
        # Every request commits (the stream makes no lookups), and with sync
        # maintenance the store does not change between prune and commit.
        result = run(self, ctx)
        query = ctx.query
        labels = max(1, len(query.distinct_labels()))
        for cached_serial, removed in ctx.pruning.contributions.items():
            if removed and cached_serial in cache.cached_serials:
                old = 0.0
                for graph_id in removed:
                    old += estimate_subiso_cost(query.order, labels, dataset[graph_id].order)
                credited.append((cached_serial, ctx.serial, old))
        return result

    on_hit = MaintenanceEngine.on_hit
    seen = []

    def spy_on_hit(self, **kwargs):
        if kwargs["cs_reduction"]:
            seen.append((kwargs["serial"], kwargs["benefiting_serial"], kwargs["cost_reduction"]))
        on_hit(self, **kwargs)

    monkeypatch.setattr(PruneStage, "run", spy_prune)
    monkeypatch.setattr(MaintenanceEngine, "on_hit", spy_on_hit)
    cache = GraphCache(
        SIMethod(dataset, matcher="vf2plus"),
        GraphCacheConfig(cache_capacity=6, window_size=3),
    )
    for query in _stream(count=90):
        cache.query(query)
    cache.close()
    assert seen, "the stream credited no pruned candidate"
    assert seen == credited
