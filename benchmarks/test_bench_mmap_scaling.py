"""Packed storage scaling — zero-copy arena serving vs dict materialisation.

Five cells around the mmap arena backend (PRs: packed graph storage,
CSR-native matching):

1. **Build cost** — writing the bench workload into a sealed
   :class:`~repro.core.backends.arena.GraphArena` (informational wall
   clock; record counts asserted).
2. **Per-record decode** — the dict-materialising text codec
   (``CacheEntryCodec.decode``) vs the zero-copy
   ``PackedGraph.decode_graph`` route, plus the arena's ``backend.get()``.
3. **Aggregate serving QPS at workers ∈ {1, 2, 4}** — ``k`` forked
   processes attach the sealed arena read-only and each serves its slice of
   the request stream through ``MmapBackend.get``; aggregate QPS is total
   requests over wall clock, fork and attach included.  The *single-process
   figure* is the same request stream served in-process through the
   dict-materialising codec route of cell 2.  On a single-core host the
   worker axis is flat by construction — the reported speedup is the
   zero-copy decode advantage, not parallelism — so the JSON records the
   host's CPU count next to the figures.
4. **Counter identity** — memory ≡ mmap on the full experiment pipeline,
   and sharded-memory ≡ multi-process-mmap runtime counters and answers —
   the pool's workers serve every request as a zero-decode
   ``PackedGraphView`` (``decode_avoided`` pinned to the request count) —
   on all 12 aids/pdbs scenario cells.
5. **Packed-match serve rate** — per-request ``get()`` + sub-iso match
   against the stored query, served CSR-native on memoised views vs
   decode-then-match through fresh ``Graph`` construction; verdicts
   asserted identical, the ratio recorded.
6. **FTV index construction and serving** (PR: sealed shareable feature
   index) — CSR-native ``dataset_path_features`` vs the decode-then-extract
   baseline over the bench payloads (Counter identity asserted, the ratio
   recorded), cold ``FeatureIndexArena.attach`` + content-hash
   handshake vs a full in-process index rebuild, and per-query filter rate
   through the in-process trie vs the sealed CSR postings — candidate sets
   asserted identical.
7. **FTV identity grid** — decoded-built vs CSR-native-built indexes for
   all three FTV methods on all 12 aids/pdbs scenarios: candidate sets per
   query, full-pipeline runtime counters, and zero ``Graph`` constructions
   while building over the packed dataset.

As established in PR 1, assertions run on deterministic counters and
round-trip equality only; wall-clock figures are printed and written to
``BENCH_mmap_scaling.json`` for the humans.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from functools import lru_cache
from typing import Dict, List, Tuple

from _shared import (
    WORKLOAD_LABELS,
    emit_bench_json,
    experiment_cell,
    work_counters,
    workload_by_label,
)
from repro.bench.reporting import format_table
from repro.bench.scenarios import bench_config, get_dataset, get_method
from repro.core import GraphCache, ProcessPoolCacheService, ShardedGraphCache
from repro.core.backends import create_backend
from repro.core.packed_dataset import PackedGraphDataset, seal_dataset
from repro.core.stores import CacheEntry, CacheEntryCodec
from repro.ftv.features import dataset_path_features, extract_label_paths
from repro.ftv.ggsx import GraphGrepSX
from repro.ftv.index_arena import FeatureIndexArena, dataset_content_hash
from repro.graphs.graph import Graph, graph_constructions
from repro.graphs.packed import PackedGraph, PackedGraphView
from repro.isomorphism import matcher_by_name
from repro.methods import method_by_name

METHOD = "ggsx"
DATASETS = ("aids", "pdbs")
WORKER_COUNTS = (1, 2, 4)
IDENTITY_SHARDS = 2

#: Serving requests per storage configuration in the QPS cell — enough to
#: amortise fork+attach (~tens of ms) against sub-100µs per-request costs.
REQUESTS = 12000


def _runtime_counters(stats) -> Dict[str, int]:
    return {
        "queries_processed": stats.queries_processed,
        "cache_hits": stats.cache_hits,
        "exact_hits": stats.exact_hits,
        "subiso_tests": stats.subiso_tests,
        "subiso_tests_alleviated": stats.subiso_tests_alleviated,
        "containment_tests": stats.containment_tests,
        "containment_memo_hits": stats.containment_memo_hits,
    }


# ---------------------------------------------------------------------- #
# Cell 4: counter identity (memory ≡ mmap ≡ multi-process).
# ---------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def _identity_rows() -> Tuple[Dict[str, object], ...]:
    """One row per scenario: memory-vs-mmap cell counters and
    sharded-vs-multiprocess runtime counters."""
    rows: List[Dict[str, object]] = []
    for dataset in DATASETS:
        for label in WORKLOAD_LABELS:
            memory_cell = experiment_cell(dataset, METHOD, label)
            mmap_cell = experiment_cell(dataset, METHOD, label, backend="mmap")
            workload = workload_by_label(dataset, label)
            sharded = ShardedGraphCache(
                get_method(dataset, METHOD), bench_config(shards=IDENTITY_SHARDS)
            )
            sharded_results = [sharded.query(query) for query in workload]
            sharded_counters = _runtime_counters(sharded.runtime_statistics)
            sharded.close()
            # The pool's workers serve zero-decode PackedGraphViews.
            with ProcessPoolCacheService(
                get_method(dataset, METHOD),
                bench_config(shards=IDENTITY_SHARDS),
                workers=IDENTITY_SHARDS,
            ) as pool:
                pool_results = pool.run(list(workload))
                pool_stats = pool.runtime_statistics()
                pool_counters = _runtime_counters(pool_stats)
                pool_decode_avoided = pool_stats.decode_avoided
            rows.append(
                {
                    "dataset": dataset,
                    "label": label,
                    "memory": work_counters(memory_cell),
                    "mmap": work_counters(mmap_cell),
                    "sharded": sharded_counters,
                    "multiprocess": pool_counters,
                    "decode_avoided": pool_decode_avoided,
                    "requests": len(workload),
                    "answers_equal": [r.answer_ids for r in pool_results]
                    == [r.answer_ids for r in sharded_results],
                }
            )
    return tuple(rows)


def test_mmap_counter_identity(benchmark):
    """memory ≡ mmap ≡ multi-process work counters on all 12 scenarios."""
    rows = benchmark.pedantic(_identity_rows, rounds=1, iterations=1)
    assert len(rows) == len(DATASETS) * len(WORKLOAD_LABELS)
    table_rows = []
    for row in rows:
        scenario = (row["dataset"], row["label"])
        assert row["memory"] == row["mmap"], scenario
        assert row["sharded"] == row["multiprocess"], scenario
        assert row["answers_equal"], scenario
        # Zero Graph constructions in pool workers: every request
        # was served as a PackedGraphView.
        assert row["decode_avoided"] == row["requests"], scenario
        table_rows.append(
            {
                "scenario": f"{row['dataset']}/{row['label']}",
                "queries": row["sharded"]["queries_processed"],
                "hits": row["sharded"]["cache_hits"],
                "subiso": row["sharded"]["subiso_tests"],
                "decode_avoided": row["decode_avoided"],
                "mem≡mmap≡procs": "ok",
            }
        )
    print()
    print(format_table(table_rows))


# ---------------------------------------------------------------------- #
# Cells 1–3: build cost, decode cost, multi-worker serving QPS.
# ---------------------------------------------------------------------- #
def _bench_entries() -> List[CacheEntry]:
    """The scenario mix served by every storage configuration: the ZZ
    workloads of both datasets, one cache entry per query graph."""
    entries: List[CacheEntry] = []
    serial = 0
    for dataset in DATASETS:
        for query in workload_by_label(dataset, "ZZ"):
            serial += 1
            entries.append(CacheEntry(serial, query, frozenset({serial})))
    return entries


def _serve_arena(path: str, serials: List[int], done: "multiprocessing.Queue") -> None:
    """Worker body for the QPS cell (forked): attach the sealed arena
    read-only and serve one ``get`` per assigned request."""
    backend = create_backend("mmap", CacheEntryCodec(), path=path)
    served = 0
    order_sum = 0
    for serial in serials:
        entry = backend.get(serial)
        served += 1
        order_sum += entry.query.order
    backend.close()
    done.put((served, order_sum))


def _best_rate(fn, count: int, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return count / best


@lru_cache(maxsize=None)
def _storage_cells(tmp_root: str) -> Dict[str, object]:
    entries = _bench_entries()
    codec = CacheEntryCodec()
    records = [codec.encode(entry) for entry in entries]
    payloads = [entry.query.to_packed().to_bytes() for entry in entries]
    serials = [entry.serial for entry in entries]
    by_serial = {entry.serial: entry for entry in entries}

    # -- Cell 1: build cost (put every record, durable publish). ------- #
    arena_path = os.path.join(tmp_root, "store.arena")
    start = time.perf_counter()
    mmap_backend = create_backend("mmap", codec, path=arena_path)
    for entry in entries:
        mmap_backend.put(entry.serial, entry)
    mmap_put_s = time.perf_counter() - start
    start = time.perf_counter()
    mmap_backend.seal()
    mmap_seal_s = time.perf_counter() - start
    assert mmap_backend.count() == len(entries)
    mmap_backend.close()

    # -- Cell 2: per-record decode (codec level and backend level). ---- #
    expected_orders = sum(entry.query.order for entry in entries)
    for payload, entry in zip(payloads, entries):
        assert PackedGraph.decode_graph(payload) == entry.query
    dict_decode = _best_rate(
        lambda: [codec.decode(record) for record in records], len(records)
    )
    zero_copy_decode = _best_rate(
        lambda: [PackedGraph.decode_graph(payload) for payload in payloads],
        len(payloads),
    )
    attached = create_backend("mmap", codec, path=arena_path)
    mmap_get = _best_rate(
        lambda: [attached.get(serial) for serial in serials], len(serials)
    )
    assert all(attached.get(serial) == by_serial[serial] for serial in serials)
    attached.close()

    # -- Cell 5: packed-match serve rate vs decode-then-match. --------- #
    # Per request: fetch the stored entry and run one sub-iso match of a
    # small pattern against its query graph.  The decode route constructs a
    # fresh Graph (text-free CSR decode + bitmask core) every time; the
    # packed route matches CSR-native on the arena's memoised views, so
    # after the first touch per record the per-request decode cost is gone.
    pattern = Graph(labels=("C", "C"), edges=((0, 1),))
    matcher = matcher_by_name("vf2plus")
    match_stream = [serials[i % len(serials)] for i in range(REQUESTS)]
    decode_route = create_backend("mmap", codec, path=arena_path)
    packed_route = create_backend(
        "mmap", codec, path=arena_path, packed_views=True
    )
    for serial in serials:  # answer identity between the two routes
        assert (
            matcher.match(pattern, decode_route.get(serial).query).matched
            == matcher.match(pattern, packed_route.get(serial).query).matched
        )
    decode_then_match = _best_rate(
        lambda: [
            matcher.match(
                pattern, decode_route.get(serial).query, want_embedding=False
            )
            for serial in match_stream
        ],
        REQUESTS,
    )
    packed_match_rate = _best_rate(
        lambda: [
            matcher.match(
                pattern, packed_route.get(serial).query, want_embedding=False
            )
            for serial in match_stream
        ],
        REQUESTS,
    )
    decode_route.close()
    packed_route.close()

    # -- Cell 3: aggregate serving QPS, workers ∈ {1, 2, 4}. ----------- #
    request_stream = [serials[i % len(serials)] for i in range(REQUESTS)]
    record_by_serial = dict(zip(serials, records))
    start = time.perf_counter()
    for serial in request_stream:
        codec.decode(record_by_serial[serial])
    single_process_qps = REQUESTS / (time.perf_counter() - start)

    context = multiprocessing.get_context("fork")
    worker_qps: Dict[int, float] = {}
    per_request_order = [by_serial[serial].query.order for serial in request_stream]
    for workers in WORKER_COUNTS:
        slices: List[List[int]] = [
            request_stream[w::workers] for w in range(workers)
        ]
        done: multiprocessing.Queue = context.Queue()
        start = time.perf_counter()
        processes = [
            context.Process(target=_serve_arena, args=(arena_path, part, done))
            for part in slices
        ]
        for process in processes:
            process.start()
        tallies = [done.get() for _ in processes]
        wall = time.perf_counter() - start
        for process in processes:
            process.join()
        assert sum(served for served, _ in tallies) == REQUESTS
        assert sum(orders for _, orders in tallies) == sum(per_request_order)
        worker_qps[workers] = REQUESTS / wall

    return {
        "build": {
            "records": len(entries),
            "mmap_put_s": mmap_put_s,
            "mmap_seal_s": mmap_seal_s,
        },
        "decode": {
            "records": len(records),
            "dict_codec_per_s": dict_decode,
            "zero_copy_per_s": zero_copy_decode,
            "mmap_get_per_s": mmap_get,
        },
        "qps": {
            "requests": REQUESTS,
            "single_process_dict_materializing": single_process_qps,
            "workers": {str(k): qps for k, qps in worker_qps.items()},
        },
        "packed_match": {
            "requests": REQUESTS,
            "decode_then_match_per_s": decode_then_match,
            "packed_match_per_s": packed_match_rate,
            "ratio_packed_vs_decode": packed_match_rate / decode_then_match,
        },
        "expected_orders": expected_orders,
    }


# ---------------------------------------------------------------------- #
# Cells 6–7: FTV index construction, sealed-index serving, identity grid.
# ---------------------------------------------------------------------- #
FTV_METHODS = ("ggsx", "grapes1", "ctindex")
FTV_PATH_LENGTH = 4


@lru_cache(maxsize=1)
def _ftv_root() -> str:
    """Shared scratch directory for the FTV cells (sealed segments)."""
    return tempfile.mkdtemp(prefix="bench_ftv_")


@lru_cache(maxsize=None)
def _ftv_packed_dataset(dataset: str) -> PackedGraphDataset:
    path = os.path.join(_ftv_root(), f"{dataset}.dataset.arena")
    if not os.path.exists(path):
        seal_dataset(get_dataset(dataset), path)
    return PackedGraphDataset.attach(path, name=get_dataset(dataset).name)


@lru_cache(maxsize=1)
def _ftv_index_cells() -> Dict[str, object]:
    """Build-rate, cold-attach-vs-rebuild, and filter-rate cells (aids)."""
    dataset = get_dataset("aids")
    payloads = [graph.to_packed().to_bytes() for graph in dataset]

    def csr_paths(payload: bytes):
        view = PackedGraphView(PackedGraph.from_bytes(payload))
        ((_, counter),) = dataset_path_features([view], FTV_PATH_LENGTH)
        return counter

    # -- Build rate: decode-then-extract vs CSR-native, same process. -- #
    for payload in payloads:  # Counter identity before any timing
        assert csr_paths(payload) == extract_label_paths(
            PackedGraph.decode_graph(payload), FTV_PATH_LENGTH
        )
    # The two routes are timed interleaved (decoded, CSR, decoded, CSR, …)
    # so host-level noise — frequency scaling, a neighbour stealing the
    # core — hits both sides alike and the ratio stays fair.
    decoded_best = csr_best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for payload in payloads:
            extract_label_paths(PackedGraph.decode_graph(payload), FTV_PATH_LENGTH)
        decoded_best = min(decoded_best, time.perf_counter() - start)
        start = time.perf_counter()
        for payload in payloads:
            csr_paths(payload)
        csr_best = min(csr_best, time.perf_counter() - start)
    decoded_rate = len(payloads) / decoded_best
    csr_rate = len(payloads) / csr_best

    # -- Cold attach + handshake vs full in-process index rebuild. ----- #
    # A forked worker inherits the parent's built method, so the cold cost
    # it pays for a serving-ready filter is exactly attach + content-hash
    # handshake; a from-scratch process without the segment pays the full
    # CSR-native build instead.
    packed_ds = _ftv_packed_dataset("aids")
    index_path = os.path.join(_ftv_root(), "aids.ftv.arena")
    if not os.path.exists(index_path):
        GraphGrepSX(dataset).seal_feature_index(index_path)
    rebuild_start = time.perf_counter()
    trie_method = GraphGrepSX(packed_ds)
    rebuild_s = time.perf_counter() - rebuild_start
    attach_s = float("inf")
    expected_hash = dataset_content_hash(packed_ds)
    for _ in range(5):
        start = time.perf_counter()
        arena = FeatureIndexArena.attach(index_path)
        assert arena.dataset_hash == expected_hash
        attach_s = min(attach_s, time.perf_counter() - start)

    # -- Per-query filter rate: in-process trie vs sealed postings. ---- #
    attached_method = GraphGrepSX(packed_ds)
    assert attached_method.attach_feature_index(index_path) is True
    workload = list(workload_by_label("aids", "ZZ"))
    for query in workload:  # candidate identity before any timing
        assert trie_method.candidates(query) == attached_method.candidates(query)
    trie_filter_rate = _best_rate(
        lambda: [trie_method.candidates(query) for query in workload],
        len(workload),
    )
    index_filter_rate = _best_rate(
        lambda: [attached_method.candidates(query) for query in workload],
        len(workload),
    )

    return {
        "build_rate": {
            "graphs": len(payloads),
            "max_path_length": FTV_PATH_LENGTH,
            "decoded_graphs_per_s": decoded_rate,
            "csr_native_graphs_per_s": csr_rate,
            "ratio_csr_vs_decoded": csr_rate / decoded_rate,
        },
        "startup": {
            "rebuild_index_s": rebuild_s,
            "cold_attach_s": attach_s,
            "ratio_rebuild_vs_attach": rebuild_s / attach_s,
        },
        "filter_rate": {
            "queries": len(workload),
            "trie_queries_per_s": trie_filter_rate,
            "sealed_index_queries_per_s": index_filter_rate,
        },
    }


@lru_cache(maxsize=1)
def _ftv_identity_rows() -> Tuple[Dict[str, object], ...]:
    """One row per (dataset, method, label): decoded-built vs
    CSR-native-built index — candidate sets and pipeline counters."""
    rows: List[Dict[str, object]] = []
    for dataset_name in DATASETS:
        dataset = get_dataset(dataset_name)
        packed_ds = _ftv_packed_dataset(dataset_name)
        for method_name in FTV_METHODS:
            decoded_method = method_by_name(method_name, dataset)
            before = graph_constructions()
            packed_method = method_by_name(method_name, packed_ds)
            packed_build_constructions = graph_constructions() - before
            for label in WORKLOAD_LABELS:
                workload = workload_by_label(dataset_name, label)
                candidates_equal = all(
                    decoded_method.candidates(query)
                    == packed_method.candidates(query)
                    for query in workload
                )
                counters = []
                for method in (decoded_method, packed_method):
                    cache = GraphCache(method, bench_config())
                    for query in workload:
                        cache.query(query)
                    counters.append(_runtime_counters(cache.runtime_statistics))
                    cache.close()
                rows.append(
                    {
                        "dataset": dataset_name,
                        "method": method_name,
                        "label": label,
                        "candidates_equal": candidates_equal,
                        "decoded": counters[0],
                        "packed": counters[1],
                        "packed_build_constructions": packed_build_constructions,
                    }
                )
    return tuple(rows)


def test_ftv_index_build_attach_and_filter(benchmark):
    """CSR-native vs decoded build, attach vs rebuild: ratios printed; the
    Counter, content-hash and candidate identities are asserted in the cell."""
    cells = benchmark.pedantic(_ftv_index_cells, rounds=1, iterations=1)
    build, startup = cells["build_rate"], cells["startup"]
    filter_rate = cells["filter_rate"]
    # Wall clock is informational (PR 1's rule): the cell itself asserted
    # feature-Counter identity per payload, the attach handshake's content
    # hash and candidate identity per query before timing anything.
    assert build["graphs"] == len(get_dataset("aids")) > 0
    assert filter_rate["queries"] > 0
    print()
    print(
        format_table(
            [
                {"ftv cell": "decode-then-extract build",
                 "rate": f"{build['decoded_graphs_per_s']:.0f} graphs/s"},
                {"ftv cell": "CSR-native build",
                 "rate": f"{build['csr_native_graphs_per_s']:.0f} graphs/s"},
                {"ftv cell": "CSR / decoded",
                 "rate": f"{build['ratio_csr_vs_decoded']:.2f}x"},
                {"ftv cell": "index rebuild startup",
                 "rate": f"{startup['rebuild_index_s'] * 1e3:.1f} ms"},
                {"ftv cell": "sealed-index cold attach",
                 "rate": f"{startup['cold_attach_s'] * 1e3:.1f} ms"},
                {"ftv cell": "trie filter",
                 "rate": f"{filter_rate['trie_queries_per_s']:.0f} queries/s"},
                {"ftv cell": "sealed-index filter",
                 "rate": f"{filter_rate['sealed_index_queries_per_s']:.0f} queries/s"},
            ]
        )
    )


def test_ftv_index_identity_grid(benchmark):
    """Decoded-built ≡ CSR-native-built on all scenarios × FTV methods."""
    rows = benchmark.pedantic(_ftv_identity_rows, rounds=1, iterations=1)
    assert len(rows) == len(DATASETS) * len(FTV_METHODS) * len(WORKLOAD_LABELS)
    table_rows = []
    for row in rows:
        scenario = (row["dataset"], row["method"], row["label"])
        assert row["candidates_equal"], scenario
        assert row["decoded"] == row["packed"], scenario
        # Decode-free startup: building over the packed dataset went through
        # the CSR-native extractors without materialising a single Graph.
        assert row["packed_build_constructions"] == 0, scenario
        table_rows.append(
            {
                "scenario": f"{row['dataset']}/{row['method']}/{row['label']}",
                "queries": row["decoded"]["queries_processed"],
                "subiso": row["decoded"]["subiso_tests"],
                "decoded≡csr": "ok",
            }
        )
    print()
    print(format_table(table_rows))


def test_mmap_build_decode_and_worker_scaling(benchmark, tmp_path, bench_json_dir):
    """Build/decode/QPS cells; writes ``BENCH_mmap_scaling.json``."""
    cells = benchmark.pedantic(
        _storage_cells, args=(str(tmp_path),), rounds=1, iterations=1
    )
    build, decode, qps = cells["build"], cells["decode"], cells["qps"]
    packed = cells["packed_match"]
    single = qps["single_process_dict_materializing"]
    ratio = qps["workers"]["4"] / single
    # Wall-clock figures are informational (printed below, recorded in the
    # JSON); the cells asserted record counts, decode round-trips, verdict
    # identity between the match routes and the served-order tallies.
    assert build["records"] == decode["records"] > 0
    assert packed["requests"] == qps["requests"] == REQUESTS

    print()
    print(
        format_table(
            [
                {"cell": "arena put", "records": build["records"],
                 "seconds": f"{build['mmap_put_s']:.3f}"},
                {"cell": "arena seal", "records": build["records"],
                 "seconds": f"{build['mmap_seal_s']:.3f}"},
            ]
        )
    )
    print(
        format_table(
            [
                {"decode route": "dict codec (text)",
                 "records/s": f"{decode['dict_codec_per_s']:.0f}"},
                {"decode route": "zero-copy packed",
                 "records/s": f"{decode['zero_copy_per_s']:.0f}"},
                {"decode route": "mmap get()",
                 "records/s": f"{decode['mmap_get_per_s']:.0f}"},
            ]
        )
    )
    print(
        format_table(
            [
                {"match route": "decode-then-match (fresh Graph)",
                 "requests/s": f"{packed['decode_then_match_per_s']:.0f}"},
                {"match route": "packed-match (CSR views)",
                 "requests/s": f"{packed['packed_match_per_s']:.0f}"},
                {"match route": "packed / decode",
                 "requests/s": f"{packed['ratio_packed_vs_decode']:.2f}x"},
            ]
        )
    )
    print(
        format_table(
            [{"serving configuration": "single-process dict codec",
              "aggregate qps": f"{single:.0f}"}]
            + [
                {"serving configuration": f"{k} worker(s), sealed arena",
                 "aggregate qps": f"{qps['workers'][str(k)]:.0f}"}
                for k in WORKER_COUNTS
            ]
            + [{"serving configuration": "4-worker / single-process",
                "aggregate qps": f"{ratio:.2f}x"}]
        )
    )

    identity = _identity_rows()
    ftv_cells = _ftv_index_cells()
    ftv_rows = _ftv_identity_rows()
    emit_bench_json(
        "mmap_scaling",
        {
            "cpu_count": os.cpu_count(),
            "method": METHOD,
            "scenario_mix": [f"{dataset}/ZZ" for dataset in DATASETS],
            "notes": (
                "single_process_dict_materializing serves the request stream "
                "through the dict-materialising entry codec in-process; "
                "worker rows fork k processes that attach the sealed arena read-only. "
                "On a single-core host the worker axis is flat and the "
                "speedup is the zero-copy decode advantage."
            ),
            "build": build,
            "decode": decode,
            "qps": {
                **qps,
                "ratio_4workers_vs_single_process": ratio,
            },
            "packed_match": packed,
            "identity": {
                "scenarios": len(identity),
                "memory_eq_mmap": all(
                    row["memory"] == row["mmap"] for row in identity
                ),
                "sharded_eq_multiprocess": all(
                    row["sharded"] == row["multiprocess"] for row in identity
                ),
                "pool_answers_eq_sharded": all(
                    row["answers_equal"] for row in identity
                ),
                "decode_avoided_pinned": all(
                    row["decode_avoided"] == row["requests"]
                    for row in identity
                ),
            },
            "ftv_index": {
                **ftv_cells,
                "notes": (
                    "build/attach/filter rates are measured back-to-back in "
                    "one process (the host is timing-noisy across "
                    "processes); on a single-core host the sealed index "
                    "still removes per-worker rebuild work but adds no "
                    "parallel speedup."
                ),
                "identity_grid": {
                    "scenarios": len(ftv_rows),
                    "methods": list(FTV_METHODS),
                    "candidates_equal": all(
                        row["candidates_equal"] for row in ftv_rows
                    ),
                    "counters_equal": all(
                        row["decoded"] == row["packed"] for row in ftv_rows
                    ),
                    "packed_build_graph_constructions": sum(
                        row["packed_build_constructions"] for row in ftv_rows
                    ),
                },
            },
        },
        bench_json_dir,
    )
