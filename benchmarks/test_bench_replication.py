"""Replication benchmark: journal-fed read replicas + replay recovery.

Three cells around the PR-10 replication/recovery machinery, following the
repo convention (assertions on deterministic identities and counters; wall
clock printed and written to ``BENCH_replication.json`` for the humans):

1. **Replica identity grid** — on all 12 aids/pdbs × workload scenarios a
   primary runs the full cached workload with two thread-mode replicas
   attached; at *every* round boundary the replicas are synced and their
   per-shard digests (entries, statistics, window, serial counter, GCindex
   publication version) must equal the primary's byte for byte.  Lag
   statistics must read zero behind after the final sync.
2. **Recovery replay rate** — a checkpoint is taken mid-run, the rest of
   the run is "lost" in a crash, and :func:`recover_cache` replays the
   journal tail; the recovered digest must equal the digest captured at the
   last round boundary of the uninterrupted run (GCindex version excluded —
   a restore rebuilds once where the live run published per round).  The
   replayed-rounds-per-second figure is informational.
3. **Replica read fan-out QPS** — the same lookup stream served through
   round-robin replica sets of 1, 2 and 4 thread-mode followers vs the
   primary serving it directly.  Pure-Python threads share the GIL, so the
   QPS axis is informational (the process mode exists for real
   parallelism); the asserted part is answer identity on a sample.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

from _shared import WORKLOAD_LABELS, emit_bench_json, workload_by_label
from repro.bench.reporting import print_table
from repro.bench.scenarios import bench_config, get_method
from repro.core import recover_cache, save_cache
from repro.core.replication import ReplicaSet, cache_state_digest
from repro.core.sharding import build_cache

METHOD = "ctindex"
DATASETS = ("aids", "pdbs")
REPLICA_COUNTS = (1, 2, 4)
#: Lookups served per fan-out configuration in the QPS cell.
READ_REQUESTS = 60


def _journaled_config(tmp: str, **overrides):
    return replace(
        bench_config(**overrides),
        journal_path=str(Path(tmp) / "journal.jsonl"),
    )


# ---------------------------------------------------------------------- #
# Cell 1: replica identity on all 12 scenarios.
# ---------------------------------------------------------------------- #
def run_identity_grid() -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for dataset in DATASETS:
        for label in WORKLOAD_LABELS:
            method = get_method(dataset, METHOD)
            workload = workload_by_label(dataset, label)
            with tempfile.TemporaryDirectory() as tmp:
                primary = build_cache(method, _journaled_config(tmp))
                boundaries_identical = 0
                rounds_seen = 0
                with ReplicaSet(primary, replicas=2) as replica_set:
                    for query in workload:
                        primary.query(query)
                        if primary.plan_journal.last_round == rounds_seen:
                            continue
                        rounds_seen = primary.plan_journal.last_round
                        replica_set.sync()
                        expected = replica_set.primary_digest()
                        if all(
                            digest == expected
                            for digest in replica_set.replica_digests()
                        ):
                            boundaries_identical += 1
                    replica_set.sync()
                    stats = replica_set.replication_statistics()
                primary.close()
            rows.append(
                {
                    "dataset": dataset,
                    "workload": label,
                    "rounds": rounds_seen,
                    "boundaries_identical": boundaries_identical,
                    "identical": boundaries_identical == rounds_seen > 0,
                    "max_rounds_behind": max(
                        entry["rounds_behind"] for entry in stats
                    ),
                    "bytes_shipped": stats[0]["bytes_shipped"],
                }
            )
    return rows


def test_replica_identity_grid(benchmark, bench_json_dir):
    rows = benchmark.pedantic(run_identity_grid, rounds=1, iterations=1)
    print_table(
        rows,
        title="Replica identity — 2 thread replicas, digest equality at "
        "every round boundary",
    )
    assert all(row["identical"] for row in rows), rows
    assert all(row["max_rounds_behind"] == 0 for row in rows), rows
    emit_bench_json(
        "replication",
        {
            "identity_grid": rows,
            "recovery": run_recovery_replay(),
            "read_fanout": run_read_fanout(),
        },
        bench_json_dir,
    )


# ---------------------------------------------------------------------- #
# Cell 2: recovery replay rate.
# ---------------------------------------------------------------------- #
def run_recovery_replay() -> Dict[str, object]:
    method = get_method("aids", METHOD)
    workload = workload_by_label("aids", "ZZ")
    with tempfile.TemporaryDirectory() as tmp:
        config = _journaled_config(tmp)
        checkpoint = Path(tmp) / "checkpoint.json"
        primary = build_cache(method, config)
        boundary_digest = None
        rounds_seen = 0
        for index, query in enumerate(workload):
            primary.query(query)
            if primary.plan_journal.last_round != rounds_seen:
                rounds_seen = primary.plan_journal.last_round
                boundary_digest = cache_state_digest(
                    primary, include_index_version=False
                )
            if index + 1 == len(workload) // 2:
                save_cache(primary, checkpoint)
        primary.close()

        started = time.perf_counter()
        recovered = recover_cache(checkpoint, method, journal=config.journal_path)
        elapsed = time.perf_counter() - started
        replayed = recovered.runtime_statistics.replay_rounds
        replayed_bytes = recovered.runtime_statistics.replay_bytes
        identical = (
            cache_state_digest(recovered, include_index_version=False)
            == boundary_digest
        )
        recovered.close()
    return {
        "rounds_total": rounds_seen,
        "rounds_replayed": replayed,
        "bytes_replayed": replayed_bytes,
        "recovered_identical": identical,
        "recover_time_s": round(elapsed, 6),
        "rounds_per_s": round(replayed / elapsed, 1) if elapsed else None,
    }


def test_recovery_replays_to_the_last_boundary(benchmark):
    row = benchmark.pedantic(run_recovery_replay, rounds=1, iterations=1)
    print_table([row], title="Crash recovery — journal replay past the checkpoint")
    assert row["recovered_identical"], row
    assert 0 < row["rounds_replayed"] <= row["rounds_total"], row
    assert row["bytes_replayed"] > 0, row


# ---------------------------------------------------------------------- #
# Cell 3: read fan-out QPS (informational).
# ---------------------------------------------------------------------- #
def run_read_fanout() -> List[Dict[str, object]]:
    method = get_method("aids", METHOD)
    workload = workload_by_label("aids", "ZZ")
    requests = list(workload)[:READ_REQUESTS]
    rows: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory() as tmp:
        primary = build_cache(method, _journaled_config(tmp))
        replica_sets = [
            ReplicaSet(primary, replicas=count) for count in REPLICA_COUNTS
        ]
        try:
            for query in workload:
                primary.query(query)
            started = time.perf_counter()
            baseline_answers = [primary.lookup(query) for query in requests]
            baseline_s = time.perf_counter() - started
            rows.append(
                {
                    "readers": "primary",
                    "requests": len(requests),
                    "wall_s": round(baseline_s, 4),
                    "qps": round(len(requests) / baseline_s, 1),
                    "answers_identical": True,
                }
            )
            for count, replica_set in zip(REPLICA_COUNTS, replica_sets):
                replica_set.sync()
                started = time.perf_counter()
                answers = [replica_set.lookup(query) for query in requests]
                elapsed = time.perf_counter() - started
                rows.append(
                    {
                        "readers": f"{count} replica(s)",
                        "requests": len(requests),
                        "wall_s": round(elapsed, 4),
                        "qps": round(len(requests) / elapsed, 1),
                        "answers_identical": answers == baseline_answers,
                    }
                )
        finally:
            for replica_set in replica_sets:
                replica_set.close()
            primary.close()
    return rows


def test_read_fanout_answers_are_identical(benchmark):
    rows = benchmark.pedantic(run_read_fanout, rounds=1, iterations=1)
    print_table(
        rows,
        title="Replica read fan-out — round-robin lookups vs the primary "
        "(QPS informational: thread mode shares the GIL)",
    )
    assert all(row["answers_identical"] for row in rows), rows
