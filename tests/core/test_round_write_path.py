"""A maintenance round moves the objects and bytes it already has.

Four contracts of the write path, each checked on the e2e streams:

* packing is one path whose bytes never change: ``from_graph(g).to_bytes()``
  over every distinct query of the four streams and every stand-in dataset
  graph hashes to the digests pinned below;
* the mmap backend never decodes what this process wrote: a drained window
  entry carries the very request object, and only a second process-like
  attach (or ``packed_views`` mode) reads the arena;
* the plan journal appends through one open handle and its frames stay the
  canonical ``json.dumps(record, sort_keys=True, separators=(",", ":"))``;
* an exact hit's credit read from the cost row equals the per-candidate
  ``estimate_subiso_cost`` sum bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.backends.mmapped import MmapBackend
from repro.core.cache import GraphCache
from repro.core.config import GraphCacheConfig
from repro.core.policies import PlanJournal
from repro.core.policies.engine import MaintenanceEngine
from repro.core.policies.plan import MaintenancePlan
from repro.core.stores import CacheEntry, CacheEntryCodec, WindowStore
from repro.ftv.ggsx import GraphGrepSX
from repro.graphs.graph import Graph
from repro.graphs.packed import PackedGraph, PackedGraphView
from repro.isomorphism.cost import estimate_subiso_cost

STREAMS = ("aids_pool_hit", "pdbs_uniform_miss", "aids_write_durable", "aids_replica_readmix")

#: sha256 over ``from_graph(g).to_bytes()`` of each group, in stream order
#: (warm-up then measured, first appearance, seed 1 at ``RUN_SECONDS``) or
#: dataset order.  Every arena record and sealed segment holds these bytes,
#: so a faster packer must reproduce them exactly.
PACKED_DIGESTS = {
    "aids_pool_hit": "94a14c32341609ea661c0c25411bfae234d2b891af4a15d0fe6cc8affbaa1343",
    "pdbs_uniform_miss": "e7559cf7a3fefd37f65bd4ff1cf5d5ba92ad82b5f7f9ef7f1d90464a0cb8b79d",
    "aids_write_durable": "577e89797a8662032a3061fc2b9053bb774ab11cd7521af55f449078b7ef13d0",
    "aids_replica_readmix": "4fa733805de9d7b427e125f274090ba270c1872957e99b33d166269a704d83ef",
    "aids": "fd27f8d1c81ffd2c8e48c61a7d92b6b5e70c528d573229950a674ce5bb012c75",
    "pdbs": "c2d8fc60f2491f3161fd4f3db2450296ce726be89a601050bf667f15716169cd",
}


def _stream(name):
    from benchmarks.e2e.workloads import RUN_SECONDS, SPECS, generate

    return SPECS[name], generate(SPECS[name], 1, RUN_SECONDS)


def _packed_digest(graphs):
    digest = hashlib.sha256()
    for graph in graphs:
        digest.update(PackedGraph.from_graph(graph).to_bytes())
    return digest.hexdigest()


def _plan(serial):
    return MaintenancePlan(
        current_serial=serial,
        window_serials=(serial,),
        admitted_serials=(serial,),
        rejected_serials=(),
        evicted_serials=(),
        policy="lru",
    )


# --------------------------------------------------------------------------- #
# One packing path, byte-identical records.
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", STREAMS)
def test_stream_queries_pack_to_the_pinned_bytes(name):
    _, stream = _stream(name)
    distinct = list(dict.fromkeys(stream.warmup + stream.measured))
    assert _packed_digest(distinct) == PACKED_DIGESTS[name]


@pytest.mark.parametrize("name", ["aids", "pdbs"])
def test_dataset_graphs_pack_to_the_pinned_bytes(name):
    from benchmarks.e2e.workloads import build_dataset

    assert _packed_digest(build_dataset(name)) == PACKED_DIGESTS[name]


# --------------------------------------------------------------------------- #
# Never decode what this process wrote.
# --------------------------------------------------------------------------- #
def test_a_round_never_decodes_its_own_writes(tmp_path, monkeypatch):
    from benchmarks.e2e.workloads import build_dataset

    spec, stream = _stream("aids_write_durable")
    config = GraphCacheConfig(**spec.config, backend_path=str(tmp_path / "store"))
    method = GraphGrepSX(build_dataset(spec.dataset))
    decodes = []
    real_decode = PackedGraph.decode_graph.__func__

    def spy_decode(cls, buffer, offset=0):
        decodes.append(offset)
        return real_decode(cls, buffer, offset)

    drained = []
    real_drain = WindowStore.drain

    def spy_drain(self):
        entries = real_drain(self)
        drained.extend(entries)
        return entries

    monkeypatch.setattr(PackedGraph, "decode_graph", classmethod(spy_decode))
    monkeypatch.setattr(WindowStore, "drain", spy_drain)
    cache = GraphCache(method, config)
    requests = {}
    for query in stream.warmup + stream.measured:
        requests[cache.query(query).serial] = query
    cached = {serial: cache.cached_entry(serial).query for serial in cache.cached_serials}
    assert decodes == []
    assert drained and all(entry.query is requests[entry.serial] for entry in drained)
    assert all(query is requests[serial] for serial, query in cached.items())

    cache.seal_storage()
    cache.close()
    attached = GraphCache(method, config)
    assert sorted(attached.cached_serials) == sorted(cached)
    for serial, query in cached.items():
        assert attached.cached_entry(serial).query == query
    assert len(decodes) >= len(cached)
    attached.close()


def test_packed_views_mode_still_returns_views():
    backend = MmapBackend(CacheEntryCodec(), packed_views=True)
    query = Graph(labels=("C", "O"), edges=[(0, 1)])
    backend.put(1, CacheEntry(serial=1, query=query, answer_ids=frozenset({2})))
    for entry in (backend.get(1), *backend.entries()):
        assert isinstance(entry.query, PackedGraphView)
        assert entry.query == query
    backend.close()


def test_mmap_backend_hands_back_the_written_object():
    backend = MmapBackend(CacheEntryCodec())
    query = Graph(labels=("C", "O"), edges=[(0, 1)])
    entry = CacheEntry(serial=1, query=query, answer_ids=frozenset({2}))
    backend.put(1, entry)
    assert backend.get(1).query is query
    assert [e.query for e in backend.entries()] == [query]
    assert backend.entries()[0].query is query
    (record,) = backend.dump_records()
    assert record["query"] == CacheEntryCodec.encode(entry)["query"]
    backend.delete(1)
    assert backend.get(1) is None and backend.entries() == []
    backend.close()


# --------------------------------------------------------------------------- #
# One journal handle.
# --------------------------------------------------------------------------- #
@pytest.fixture
def journal_opens(monkeypatch):
    opens = []
    real_open = Path.open

    def counting_open(self, mode="r", *args, **kwargs):
        if "a" in mode:
            opens.append(self)
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    return opens


def test_the_journal_opens_its_file_once_per_lifetime(tmp_path, journal_opens):
    path = tmp_path / "journal.jsonl"
    journal = PlanJournal(path)
    for serial in range(1, 6):
        journal.append(_plan(serial))
        # Every frame is flushed: a reader sees each whole line at once.
        assert len(PlanJournal.read_records(path)) == serial
    assert journal_opens == [path]

    assert journal.truncate_before(3) == 3
    journal.append(_plan(6))
    journal.append(_plan(7))
    assert journal_opens == [path, path]
    assert [r["round"] for r in PlanJournal.read_records(path)] == [4, 5, 6, 7]

    journal.close()
    journal.close()
    journal.append(_plan(8))  # an append after close reopens the file
    journal.close()
    assert journal_opens == [path] * 3
    assert [r["round"] for r in PlanJournal.read_records(path)] == [4, 5, 6, 7, 8]


def test_cache_close_closes_the_journal(tmp_path):
    from repro.graphs.generators import aids_like
    from repro.methods import SIMethod

    config = GraphCacheConfig(
        cache_capacity=4, window_size=2, journal_path=str(tmp_path / "j.jsonl")
    )
    cache = GraphCache(SIMethod(aids_like(scale=0.02, seed=1), matcher="vf2plus"), config)
    for graph in list(cache.method.dataset)[:4]:
        cache.query(graph.induced_subgraph(range(min(3, graph.order))))
    assert cache.plan_journal._handle is not None
    cache.close()
    assert cache.plan_journal._handle is None


# --------------------------------------------------------------------------- #
# The four streams: canonical frames, one open, cost-row credit.
# --------------------------------------------------------------------------- #
def _old_credit(query, removed_ids, orders):
    """Reference: the per-candidate sum the cost row must reproduce."""
    query_order = query.order
    query_labels = max(1, len(query.distinct_labels()))
    saving = 0.0
    for graph_id in removed_ids:
        saving += estimate_subiso_cost(query_order, query_labels, orders[graph_id])
    return saving


@pytest.mark.parametrize("name", STREAMS)
def test_stream_frames_are_canonical_and_credit_reads_the_cost_row(
    name, tmp_path, monkeypatch, journal_opens
):
    from benchmarks.e2e.workloads import build_dataset

    spec, stream = _stream(name)
    journal_path = tmp_path / "journal.jsonl"
    config = GraphCacheConfig(
        **spec.config,
        backend_path=str(tmp_path / "store") if spec.config.get("backend") else None,
        journal_path=str(journal_path),
    )
    cache = GraphCache(GraphGrepSX(build_dataset(spec.dataset)), config)
    orders = cache.method.dataset.orders

    checked, mismatches, credited = [], [], []
    record = GraphCache._record_contributions
    on_hit = MaintenanceEngine.on_hit

    def spy_record(self, query, serial, outcome, pruning):
        want = {
            cached: _old_credit(query, ids, orders).hex()
            for cached, ids in pruning.contributions.items()
            if cached in self._cache_store
        }
        credited.clear()
        record(self, query, serial, outcome, pruning)
        got = {cached: cost.hex() for cached, cost in credited if cached in want}
        checked.append(len(want))
        if got != want:
            mismatches.append((serial, want, got))

    def spy_on_hit(self, **kwargs):
        credited.append((kwargs["serial"], kwargs["cost_reduction"]))
        on_hit(self, **kwargs)

    monkeypatch.setattr(GraphCache, "_record_contributions", spy_record)
    monkeypatch.setattr(MaintenanceEngine, "on_hit", spy_on_hit)
    frames = []
    cache.plan_journal.subscribe(lambda record, line: frames.append((record, line)))
    for query in stream.warmup:
        cache.query(query)
    for query, read in zip(stream.measured, stream.reads, strict=True):
        if read:
            cache.lookup(query)
        else:
            cache.query(query)
    cache.close()

    assert sum(checked) > 0 and mismatches == []
    assert frames
    for record_, line in frames:
        assert line == json.dumps(record_, sort_keys=True, separators=(",", ":"))
    assert journal_path.read_text(encoding="utf-8").splitlines() == [
        line for _, line in frames
    ]
    assert journal_opens.count(journal_path) == 1
