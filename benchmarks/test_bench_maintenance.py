"""Maintenance-engine benchmark: O(window) deltas + heap-vs-oracle identity.

Two deterministic, counter-based claims about the unified maintenance
subsystem (ISSUE-4):

1. **O(window), not O(cache).**  A cache-update round performs a bounded
   number of GCindex mutations and storage-backend row operations —
   at most ``2 × window`` each (evict + admit) — and the bound does not
   move when the cache capacity grows 8×.  The seed rewrote the whole
   store (``replace_contents``) and rebuilt the whole index every round,
   so its per-round ops grew linearly with the cache.

2. **Incremental ≡ oracle.**  The utility heap's victim selection is
   identical to the full-snapshot re-scoring oracle on every maintenance
   round of all 12 aids/pdbs × workload scenarios (HD policy, which
   exercises the PIN/PINC delegates), and for all five paper policies on
   the aids/ZZ scenario.  The engine's ``cross_check`` mode runs both
   paths on every round and records any divergence.

Both claims are asserted on work counters, never wall-clock, per the repo
convention; the printed tables are informational.
"""

from __future__ import annotations

from _shared import WORKLOAD_LABELS, workload_by_label
from repro.bench.reporting import print_table
from repro.bench.scenarios import bench_config, get_method
from repro.core.sharding import build_cache

POLICIES = ("lru", "pop", "pin", "pinc", "hd")
WINDOW_SIZE = 10
SMALL_CAPACITY = 25
LARGE_CAPACITY = 200  # 8x the small configuration


def run_maintenance_rounds(dataset, label, policy="hd", cache_capacity=30,
                           backend="memory", cross_check=False):
    """Run one cached workload and return (cache, maintenance reports)."""
    method = get_method(dataset, "ctindex")
    workload = workload_by_label(dataset, label)
    config = bench_config(
        policy=policy,
        cache_capacity=cache_capacity,
        window_size=WINDOW_SIZE,
        backend=backend,
    )
    cache = build_cache(method, config)
    cache.maintenance_engine.cross_check = cross_check
    for query in workload:
        cache.query(query)
    reports = cache.window_manager.reports
    return cache, reports


def run_delta_scaling():
    """Per-round op ceilings for a small and an 8x-larger cache, per backend."""
    rows = []
    for backend in ("memory", "mmap"):
        for capacity in (SMALL_CAPACITY, LARGE_CAPACITY):
            cache, reports = run_maintenance_rounds(
                "aids", "ZZ", cache_capacity=capacity, backend=backend
            )
            rows.append(
                {
                    "backend": backend,
                    "capacity": capacity,
                    "rounds": len(reports),
                    "max_index_ops": max(r.index_ops for r in reports),
                    "max_row_ops": max(r.backend_row_ops for r in reports),
                    "evictions": sum(len(r.evicted_serials) for r in reports),
                }
            )
            cache.close()
    return rows


def test_maintenance_deltas_are_o_window(benchmark):
    rows = benchmark.pedantic(run_delta_scaling, rounds=1, iterations=1)
    print_table(
        rows,
        title="Maintenance deltas — per-round op ceilings while the cache "
        f"grows {LARGE_CAPACITY // SMALL_CAPACITY}x (window = {WINDOW_SIZE})",
    )
    by_key = {(row["backend"], row["capacity"]): row for row in rows}
    for backend in ("memory", "mmap"):
        small = by_key[(backend, SMALL_CAPACITY)]
        large = by_key[(backend, LARGE_CAPACITY)]
        for row in (small, large):
            # Each round admits <= window entries and evicts <= window
            # victims: 2*window index mutations / backend row ops, tops.
            assert row["max_index_ops"] <= 2 * WINDOW_SIZE, row
            assert row["max_row_ops"] <= 2 * WINDOW_SIZE, row
        # The ceiling is a function of the window, not the cache: growing
        # the cache 8x must not grow the per-round ops (the seed's rewrite
        # path scaled them with the capacity).
        assert large["max_index_ops"] <= small["max_index_ops"], (small, large)
        assert large["max_row_ops"] <= small["max_row_ops"], (small, large)
        # The small cache must actually have exercised eviction rounds.
        assert small["evictions"] > 0, small


def run_oracle_identity():
    """Cross-check every maintenance round of the 12 aids/pdbs scenarios."""
    rows = []
    for dataset in ("aids", "pdbs"):
        for label in WORKLOAD_LABELS:
            cache, reports = run_maintenance_rounds(
                dataset, label, policy="hd", cross_check=True
            )
            engines = (
                cache.maintenance_engines()
                if hasattr(cache, "maintenance_engines")
                else [cache.maintenance_engine]
            )
            mismatches = sum(len(e.oracle_mismatches) for e in engines)
            rows.append(
                {
                    "dataset": dataset,
                    "workload": label,
                    "policy": "hd",
                    "rounds": len(reports),
                    "eviction_rounds": sum(
                        1 for r in reports if r.evicted_serials
                    ),
                    "oracle_mismatches": mismatches,
                }
            )
            cache.close()
    for policy in POLICIES:
        cache, reports = run_maintenance_rounds(
            "aids", "ZZ", policy=policy, cross_check=True
        )
        rows.append(
            {
                "dataset": "aids",
                "workload": "ZZ",
                "policy": policy,
                "rounds": len(reports),
                "eviction_rounds": sum(1 for r in reports if r.evicted_serials),
                "oracle_mismatches": len(
                    cache.maintenance_engine.oracle_mismatches
                ),
            }
        )
        cache.close()
    return rows


def test_incremental_heap_matches_full_rescore_oracle(benchmark):
    rows = benchmark.pedantic(run_oracle_identity, rounds=1, iterations=1)
    print_table(
        rows,
        title="Incremental utility heap vs full-rescore oracle "
        "(12 aids/pdbs scenarios + all five policies on aids/ZZ)",
    )
    for row in rows:
        assert row["oracle_mismatches"] == 0, row
        # The identity claim is vacuous unless evictions actually happened.
        assert row["eviction_rounds"] > 0, row
