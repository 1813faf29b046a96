"""A shortcut does constant work: its credit, answer set and index view.

An exact hit (or an empty-answer proof) removes Method M's whole candidate
set ``CS_M``, so its credit ``R = |CS_M|``, ``C = Σ cost(n, L, N_g)`` depends on
the query structure alone.  The Mfilter memo prices it once and keeps it
beside ``CS_M``; a repeated shortcut reads it.  The cached answer set is
handed through without a copy, and the GCindex view is its own context
manager.  Checked here:

* on every request of the four e2e streams, each cached entry's ``R`` and
  ``C`` equal, bit for bit, the per-candidate loop the commit used to run;
* a repeated exact hit calls no cost row and never iterates the dataset's
  vertex-count vector;
* an exact hit returns the cached entry's own answer set, from ``query()``
  and ``lookup()`` alike;
* a view releases its reader count (double-buffered) or the write lock
  (single copy) when the ``with`` body raises;
* clearing the Mfilter memo, at its id limit or between filter and commit,
  leaves every credited float unchanged;
* an exact hit and an exact lookup never enter verification, and the hit
  still reports every stage, ``verify`` as 0.0;
* the five per-request records refuse attribute assignment.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import pipeline
from repro.core.cache import CacheQueryResult, GraphCache
from repro.core.config import GraphCacheConfig
from repro.core.pipeline import STAGE_NAMES, VerifyStage
from repro.core.policies.engine import MaintenanceEngine
from repro.core.processors import ProcessorOutcome
from repro.core.pruner import PruningResult
from repro.core.query_index import QueryGraphIndex
from repro.core.stores import CacheEntry, WindowEntry
from repro.ftv.ggsx import GraphGrepSX
from repro.graphs.generators import aids_like
from repro.graphs.graph import Graph
from repro.isomorphism.cost import subiso_cost_row
from repro.workloads import generate_type_a

STREAMS = ("aids_pool_hit", "pdbs_uniform_miss", "aids_write_durable", "aids_replica_readmix")

DATASET = aids_like(scale=0.05, seed=3)


def _stream(name):
    from benchmarks.e2e.workloads import RUN_SECONDS, SPECS, generate

    return SPECS[name], generate(SPECS[name], 1, RUN_SECONDS)


def _e2e_cache(spec, tmp_path):
    from benchmarks.e2e.workloads import build_dataset

    config = GraphCacheConfig(
        **spec.config,
        backend_path=str(tmp_path / "store") if spec.config.get("backend") else None,
    )
    return GraphCache(GraphGrepSX(build_dataset(spec.dataset)), config)


def _loop_credit(query, removed_ids, orders):
    """The per-candidate loop the commit ran before the credit was memoised."""
    costs = subiso_cost_row(query.order, max(1, len(query.distinct_labels())), max(orders))
    cost_saving = 0.0
    for graph_id in removed_ids:
        cost_saving += costs[orders[graph_id]]
    return float(len(removed_ids)), cost_saving


def _spy_expected_credit(monkeypatch, orders):
    """Accumulate, per cached serial, the ``(R, C)`` the old loop credits."""
    expected = {}
    record = GraphCache._record_contributions

    def spy(self, query, serial, outcome, pruning):
        for cached, removed in pruning.contributions.items():
            if cached in self._cache_store:
                r, c = _loop_credit(query, removed, orders)
                total = expected.setdefault(cached, [0.0, 0.0])
                total[0] += r
                total[1] += c
        return record(self, query, serial, outcome, pruning)

    monkeypatch.setattr(GraphCache, "_record_contributions", spy)
    return expected


def _credit_events(monkeypatch):
    events = []
    on_hit = MaintenanceEngine.on_hit

    def spy(self, **kwargs):
        events.append(
            (kwargs["serial"], kwargs["benefiting_serial"],
             kwargs["cs_reduction"].hex(), kwargs["cost_reduction"].hex())
        )
        on_hit(self, **kwargs)

    monkeypatch.setattr(MaintenanceEngine, "on_hit", spy)
    return events


# --------------------------------------------------------------------------- #
# The stored R and C equal the per-candidate loop on every e2e request.
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", STREAMS)
def test_every_cached_entry_holds_the_loops_credit_bit_for_bit(name, tmp_path, monkeypatch):
    spec, stream = _stream(name)
    cache = _e2e_cache(spec, tmp_path)
    expected = _spy_expected_credit(monkeypatch, cache.method.dataset.orders)
    statistics = cache.statistics_manager
    shortcuts, mismatches = 0, []

    def check(serial):
        for cached in cache.cached_serials:
            stats = statistics.snapshot(cached)
            want = expected.get(cached, [0.0, 0.0])
            got = [stats.cs_reduction, stats.cost_reduction]
            if [value.hex() for value in got] != [value.hex() for value in want]:
                mismatches.append((serial, cached, got, want))

    for query in stream.warmup:
        check(cache.query(query).serial)
    for query, read in zip(stream.measured, stream.reads, strict=True):
        if read:
            cache.lookup(query)
            continue
        result = cache.query(query)
        shortcuts += result.shortcut is not None
        check(result.serial)
    cache.close()
    assert shortcuts > 0 and expected
    assert mismatches == []


# --------------------------------------------------------------------------- #
# A repeated exact hit prices nothing and copies nothing.
# --------------------------------------------------------------------------- #
class _CountingOrders(tuple):
    iterations = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


def _cached_query():
    """A cache holding ``query`` and having credited one exact hit on it."""
    query = next(iter(generate_type_a(DATASET, "ZZ", 1, query_sizes=(5,), seed=11)))
    cache = GraphCache(GraphGrepSX(DATASET), GraphCacheConfig(cache_capacity=4, window_size=1))
    cache.query(query)
    assert cache.query(query).shortcut == "exact"
    return cache, query


def test_a_repeated_exact_hit_reads_its_credit_without_pricing(monkeypatch):
    cache, query = _cached_query()
    dataset = cache.method.dataset
    assert dataset.max_order == max(dataset.orders)
    monkeypatch.setitem(dataset.__dict__, "orders", _CountingOrders(dataset.orders))
    credited = _credit_events(monkeypatch)
    rows = subiso_cost_row.cache_info()  # every call, wherever it is imported
    for _ in range(5):
        assert cache.query(query).shortcut == "exact"
    assert subiso_cost_row.cache_info() == rows
    cache.close()
    assert len(credited) == 5
    assert _CountingOrders.iterations == 0


def test_an_exact_hit_hands_the_cached_answer_set_through():
    cache, query = _cached_query()
    with cache.query_index.view() as snapshot:
        serial = snapshot.exact_serial(query)
    cached = cache.cached_entry(serial).answer_ids
    assert cached
    result = cache.query(query)
    assert result.shortcut == "exact"
    assert result.answer_ids is cached
    assert cache.lookup(query) is cached
    cache.close()


# --------------------------------------------------------------------------- #
# The view is its own context manager.
# --------------------------------------------------------------------------- #
def test_a_double_buffered_view_releases_its_reader_when_the_body_raises():
    index = QueryGraphIndex(double_buffered=True)
    index.add(1, Graph(labels=["C", "O"], edges=[(0, 1)]))
    buffer = index._buffers[index._published]
    with pytest.raises(RuntimeError):
        with index.view() as snapshot:
            assert buffer.readers == 1 and 1 in snapshot
            raise RuntimeError("reader failed")
    assert buffer.readers == 0
    index.add(2, Graph(labels=["C", "N"], edges=[(0, 1)]))  # would wait on a leaked reader
    assert sorted(index.serials()) == [1, 2]


def test_a_single_copy_view_releases_the_write_lock_when_the_body_raises():
    index = QueryGraphIndex(double_buffered=False)
    with pytest.raises(RuntimeError):
        with index.view():
            raise RuntimeError("reader failed")
    writer = threading.Thread(target=index.add, args=(1, Graph(labels=["C"], edges=[])))
    writer.start()
    writer.join(timeout=10)
    assert not writer.is_alive(), "the write lock leaked out of the view"
    assert index.serials() == [1]


# --------------------------------------------------------------------------- #
# A cleared memo changes no credited float.
# --------------------------------------------------------------------------- #
def _pool_events(monkeypatch, tmp_path, limit=None):
    spec, stream = _stream("aids_pool_hit")
    cache = _e2e_cache(spec, tmp_path)
    stage = cache.pipeline.stages[0]
    clears = []
    with monkeypatch.context() as patch:
        if limit is not None:
            patch.setattr(pipeline, "MFILTER_MEMO_ID_LIMIT", limit)
            clear = type(stage).clear_memo
            patch.setattr(type(stage), "clear_memo", lambda self: clears.append(1) or clear(self))
        events = _credit_events(patch)
        for query in stream.warmup + stream.measured[:1500]:
            cache.query(query)
    cache.close()
    return events, len(clears)


def test_clearing_the_memo_at_its_id_limit_credits_identical_floats(monkeypatch, tmp_path):
    events, _ = _pool_events(monkeypatch, tmp_path / "full")
    cleared, clears = _pool_events(monkeypatch, tmp_path / "small", limit=400)
    assert clears >= 10
    assert cleared == events


def test_clearing_the_memo_between_filter_and_commit_credits_identical_floats(monkeypatch):
    cache, query = _cached_query()
    stage = cache.pipeline.stages[0]
    credited = _credit_events(monkeypatch)
    cache.query(query)  # the memoised credit
    filtered = cache.prefilter(query)
    stage.clear_memo()  # no memo entry at commit
    cache.execute_prefiltered(query, filtered)
    cache.prefilter(query)  # a memo entry over another CS_M object
    assert stage._memo[query].candidates is not filtered.candidates
    cache.execute_prefiltered(query, filtered)
    cache.close()
    assert len(credited) == 3
    assert len({(r, c) for _, _, r, c in credited}) == 1


# --------------------------------------------------------------------------- #
# An exact hit does none of the pipeline's other work.
# --------------------------------------------------------------------------- #
def test_an_exact_hit_and_an_exact_lookup_never_enter_verification(monkeypatch):
    cache, query = _cached_query()
    entered = []
    run, verify = VerifyStage.run, pipeline.verify_candidates
    monkeypatch.setattr(VerifyStage, "run", lambda *a: entered.append("run") or run(*a))
    monkeypatch.setattr(
        pipeline, "verify_candidates", lambda *a, **k: entered.append("verify") or verify(*a, **k)
    )
    results = [cache.query(query) for _ in range(3)]
    answers = [cache.lookup(query) for _ in range(3)]
    cache.close()
    assert entered == []
    assert all(result.shortcut == "exact" for result in results)
    assert answers == [result.answer_ids for result in results]
    for result in results:
        assert tuple(result.stage_times) == STAGE_NAMES
        assert result.stage_times["verify"] == 0.0


def test_a_miss_still_enters_verification(monkeypatch):
    """The spy above can see a verification: a fresh query runs one."""
    cache, _ = _cached_query()
    entered = []
    run = VerifyStage.run
    monkeypatch.setattr(VerifyStage, "run", lambda *a: entered.append("run") or run(*a))
    fresh = next(iter(generate_type_a(DATASET, "ZZ", 1, query_sizes=(3,), seed=5)))
    result = cache.query(fresh)
    cache.close()
    assert result.final_candidates > 0 and entered == ["run"]
    assert tuple(result.stage_times) == STAGE_NAMES


def test_the_per_request_records_refuse_attribute_assignment():
    cache, query = _cached_query()
    result = cache.query(query)
    ctx = pipeline.StageContext(query=query, serial=0)
    cache.pipeline.execute_readonly(ctx)
    entry = cache.cached_entry(next(iter(cache.cached_serials)))
    window = WindowEntry(1, query, frozenset(), 0.5, 1.0)
    cache.close()
    records = (
        (result, CacheQueryResult),
        (ctx.outcome, ProcessorOutcome),
        (ctx.pruning, PruningResult),
        (window, WindowEntry),
        (entry, CacheEntry),
    )
    for record, kind in records:
        assert type(record) is kind
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)  # a field
        with pytest.raises(AttributeError):
            record.note = "added"  # no attribute dictionary either
