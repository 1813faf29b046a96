"""A shortcut does constant work: its credit, answer set and index view.

An exact hit (or an empty-answer proof) removes Method M's whole candidate
set ``CS_M``, so its credit ``R = |CS_M|``, ``C = Σ cost(n, L, N_g)`` depends on
the query structure alone.  The Mfilter memo prices it once and keeps it
beside ``CS_M``; a repeated shortcut reads it.  The cached answer set is
handed through without a copy, and the GCindex view is its own context
manager.  Checked here:

* on every request of the four e2e streams, each cached entry's ``R`` and
  ``C`` equal, bit for bit, the per-candidate loop the commit used to run,
  and the request credits each still-cached contribution exactly once;
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
* the five per-request records refuse attribute assignment;
* a request that verifies nothing (exact hit, empty shortcut) and any
  lookup hold the GC lock once, a verifying miss twice;
* a round publishes its whole GCindex delta with one version bump, and the
  op counters still count one add or remove per logical op.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import pipeline
from repro.core.cache import CacheQueryResult, GraphCache
from repro.core.config import GraphCacheConfig
from repro.core.pipeline import STAGE_NAMES, CommitStage, VerifyStage
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


def _spy_expected_credit(monkeypatch, cache):
    """Accumulate, per cached serial, the ``(R, C)`` the old loop credits, and
    collect every request whose ``on_hit`` calls differ from the credits it
    owes (one per contribution whose entry is still cached)."""
    expected, unpaid, credits = {}, [], []
    orders = cache.method.dataset.orders
    commit, on_hit = CommitStage.run, MaintenanceEngine.on_hit

    def spy_commit(self, ctx):
        cached, owed = set(cache.cached_serials), []
        for serial, removed in ctx.pruning.contributions.items():
            if serial in cached:
                r, c = _loop_credit(ctx.query, removed, orders)
                total = expected.setdefault(serial, [0.0, 0.0])
                total[0] += r
                total[1] += c
                owed.append((serial, r.hex(), c.hex()))
        credits.clear()
        commit(self, ctx)
        got = [credit for credit in credits if credit[0] in ctx.pruning.contributions]
        if sorted(got) != sorted(owed):  # a missing, extra or mispriced credit
            unpaid.append((ctx.serial, owed, got))

    def spy_on_hit(self, **kwargs):
        credits.append(
            (kwargs["serial"], kwargs["cs_reduction"].hex(), kwargs["cost_reduction"].hex())
        )
        on_hit(self, **kwargs)

    monkeypatch.setattr(CommitStage, "run", spy_commit)
    monkeypatch.setattr(MaintenanceEngine, "on_hit", spy_on_hit)
    return expected, unpaid


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
    expected, unpaid = _spy_expected_credit(monkeypatch, cache)
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
    assert unpaid == [] and mismatches == []


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
    if limit is not None:
        stage.memo.limit = limit
    with monkeypatch.context() as patch:
        events = _credit_events(patch)
        for query in stream.warmup + stream.measured[:1500]:
            cache.query(query)
    cache.close()
    return events, stage.memo.clears


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
    stage.memo.clear()  # no memo entry at commit
    cache.execute_prefiltered(query, filtered)
    cache.prefilter(query)  # a memo entry over another CS_M object
    assert stage.memo[query].candidates is not filtered.candidates
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
    window = WindowEntry(1, query, frozenset(), 2.0)
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
        field = record._fields[0]  # read outside the raises: a record has fields
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.note = "added"  # no attribute dictionary either


# --------------------------------------------------------------------------- #
# One critical section per unverified request, one publication per round.
# --------------------------------------------------------------------------- #
class _CountingLock:
    """Counts the holds taken through it of the lock it wraps."""

    def __init__(self, lock):
        self._lock = lock
        self.holds = 0

    def __enter__(self):
        self.holds += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


def _count_gc_holds(cache):
    counting = _CountingLock(cache.pipeline.gc_lock)
    cache.pipeline._gc_lock = counting
    return counting


def test_a_request_that_verifies_nothing_takes_the_gc_lock_once():
    cache, query = _cached_query()
    empty = Graph(labels=["C", "Xx"], edges=[(0, 1)])  # no dataset graph holds it
    assert cache.query(empty).answer_ids == frozenset()
    assert cache.query(empty).shortcut == "exact"  # cached after its round
    grown = Graph(labels=["C", "Xx", "O"], edges=[(0, 1), (1, 2)])
    counting = _count_gc_holds(cache)
    shortcuts = []
    for request in (query, grown):
        before = counting.holds
        shortcuts.append(cache.query(request).shortcut)
        assert counting.holds - before == 1
    before = counting.holds
    assert cache.lookup(query)
    assert counting.holds - before == 1
    cache.close()
    assert shortcuts == ["exact", "empty"]


def test_a_verifying_miss_takes_it_twice_and_a_verifying_lookup_once():
    cache, _ = _cached_query()
    fresh = next(iter(generate_type_a(DATASET, "ZZ", 1, query_sizes=(3,), seed=5)))
    other = next(iter(generate_type_a(DATASET, "ZZ", 1, query_sizes=(4,), seed=8)))
    counting = _count_gc_holds(cache)
    result = cache.query(fresh)
    assert result.final_candidates > 0 and counting.holds == 2
    verified = cache.lookup(other)
    assert counting.holds == 3
    cache.close()
    plain = GraphCache(GraphGrepSX(DATASET))
    assert verified == plain.lookup(other)
    plain.close()


def test_a_round_publishes_its_whole_delta_once():
    cache = GraphCache(GraphGrepSX(DATASET), GraphCacheConfig(cache_capacity=2, window_size=1))
    queries = list(dict.fromkeys(generate_type_a(DATASET, "ZZ", 12, query_sizes=(4,), seed=2)))
    index = cache.query_index
    rounds = []
    for query in queries:
        version, ops = index.version, (index.op_counts.adds, index.op_counts.removes)
        cache.query(query)
        plan = cache.window_manager.reports[-1].plan
        delta = (len(plan.admitted_serials), len(plan.evicted_serials))
        assert (index.op_counts.adds - ops[0], index.op_counts.removes - ops[1]) == delta
        assert index.version - version == (1 if any(delta) else 0)
        rounds.append(delta)
    cache.close()
    assert (1, 1) in rounds  # an eviction and an admission in one publication


def test_a_delta_counts_one_op_per_logical_add_or_remove():
    index = QueryGraphIndex(double_buffered=True)
    a, b = Graph(labels=["C", "O"], edges=[(0, 1)]), Graph(labels=["C", "N"], edges=[(0, 1)])
    index.apply_delta([(1, a), (2, b)], [7])  # 7 was never indexed
    assert (index.op_counts.adds, index.op_counts.removes, index.version) == (2, 0, 1)
    index.apply_delta([(3, a)], [1, 2, 1])
    assert (index.op_counts.adds, index.op_counts.removes, index.version) == (3, 2, 2)
    index.apply_delta([], [9])  # changes nothing, publishes nothing
    assert index.version == 2
    assert index.serials() == [3]
    assert all(buffer.graphs == {3: a} for buffer in index._buffers)


def _copies(index):
    return [
        (buffer.graphs, buffer.exact, dict(buffer.postings.iter_features()))
        for buffer in index._buffers
    ]


def test_a_delta_that_raises_still_publishes_what_landed_in_both_copies():
    index = QueryGraphIndex(double_buffered=True)
    a, b = Graph(labels=["C", "O"], edges=[(0, 1)]), Graph(labels=["C", "N"], edges=[(0, 1)])
    index.add(1, a)

    def hook():
        raise RuntimeError("hook failed")

    with pytest.raises(RuntimeError):
        index.apply_delta([(2, b)], [1], before_publish=hook)
    assert (index.version, index.serials()) == (2, [2])
    with pytest.raises(AttributeError):  # the second addition is no graph
        index.apply_delta([(3, a), (4, None)], [2])
    assert (index.version, index.serials()) == (3, [3])
    assert (index.op_counts.adds, index.op_counts.removes) == (3, 2)
    first, second = _copies(index)
    assert first == second and first[0] == {3: a}
    index.apply_delta([(5, b)])  # the next delta starts from equal copies
    first, second = _copies(index)
    assert first == second and first[0] == {3: a, 5: b}
