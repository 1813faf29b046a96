"""Shared helpers for the figure-regeneration benchmarks.

Each ``test_fig*.py`` module regenerates one table or figure of the paper by
running the corresponding experiment cells through the harness and printing
the resulting series.  Cells are memoised here so that figures sharing runs
(e.g. Figure 5 and Figure 6 report time and sub-iso speedups of the *same*
experiments) only pay for them once per pytest session.
"""

from __future__ import annotations

import json
import platform
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Tuple

from repro.bench.harness import ExperimentResult, run_baseline, run_experiment
from repro.bench.scenarios import (
    bench_config,
    get_method,
    type_a_workload,
    type_b_workload,
)
from repro.methods.executor import QueryExecution

__all__ = [
    "workload_by_label",
    "experiment_cell",
    "baseline_for",
    "work_counters",
    "emit_bench_json",
    "WORKLOAD_LABELS",
]

#: The six workload groups used across the paper's figures.
WORKLOAD_LABELS = ("ZZ", "ZU", "UU", "0%", "20%", "50%")


def workload_by_label(dataset: str, label: str, alpha: float = 1.4):
    """Type A labels are 'ZZ'/'ZU'/'UU'; Type B labels are '0%'/'20%'/'50%'."""
    if label.endswith("%"):
        probability = float(label.rstrip("%")) / 100.0
        return type_b_workload(dataset, probability, alpha=alpha)
    return type_a_workload(dataset, label, alpha=alpha)


@lru_cache(maxsize=None)
def baseline_for(dataset: str, method_name: str, label: str, alpha: float = 1.4) -> Tuple[QueryExecution, ...]:
    """Memoised baseline run (plain Method M) for one dataset/method/workload."""
    method = get_method(dataset, method_name)
    workload = workload_by_label(dataset, label, alpha=alpha)
    config = bench_config()
    warmup = config.warmup_windows * config.window_size
    return tuple(run_baseline(method, workload, warmup_queries=warmup))


@lru_cache(maxsize=None)
def experiment_cell(
    dataset: str,
    method_name: str,
    label: str,
    policy: str = "hd",
    cache_capacity: int = 30,
    window_size: int = 10,
    admission_control: bool = False,
    alpha: float = 1.4,
    shards: int = 1,
    backend: str = "memory",
) -> ExperimentResult:
    """Memoised experiment cell: baseline vs GraphCache for one configuration.

    ``shards > 1`` runs the cell over a ShardedGraphCache (serial submission
    order, so counters stay deterministic); ``backend`` selects the storage
    backend — both produce distinct memo keys and distinct config labels.
    """
    method = get_method(dataset, method_name)
    workload = workload_by_label(dataset, label, alpha=alpha)
    config = bench_config(
        policy=policy,
        cache_capacity=cache_capacity,
        window_size=window_size,
        admission_control=admission_control,
        shards=shards,
        backend=backend,
    )
    return run_experiment(
        name=f"{dataset}/{method_name}/{label}",
        method=method,
        workload=workload,
        config=config,
        baseline_executions=baseline_for(dataset, method_name, label, alpha=alpha),
    )


def work_counters(cell: ExperimentResult) -> Dict[str, float]:
    """Deterministic work counters of one experiment cell.

    Figure *shape* checks should assert on these instead of wall-clock
    speedups: the counters are exact functions of the (seeded) workload and
    the cache configuration, so they are identical on every run and on every
    machine, while sub-second wall-clock ratios drown in scheduler noise.
    The wall-clock speedup tables stay in the printed output as the
    paper-facing (informational) figures.
    """
    runtime = cell.cache.runtime_statistics
    return {
        # Ratio of baseline to cached *sub-iso test counts* per query.
        "subiso_speedup": cell.subiso_speedup,
        # Dataset-graph sub-iso tests the cache did not have to run.
        "subiso_tests_alleviated": float(runtime.subiso_tests_alleviated),
        # Average per-query candidate-set reduction achieved by pruning.
        "candidate_reduction": (
            cell.speedups.baseline.avg_candidates - cell.speedups.cached.avg_candidates
        ),
        # GC-processor effort: real query-vs-query tests vs memoised verdicts.
        "containment_tests": float(runtime.containment_tests),
        "containment_memo_hits": float(runtime.containment_memo_hits),
    }


def emit_bench_json(name: str, payload: Dict[str, Any], directory: Path) -> Path:
    """Write one ``BENCH_<name>.json`` artifact into ``directory``.

    ``directory`` is the ``bench_json_dir`` fixture: the repository root
    under ``--record-bench`` (refreshing the checked-in, machine-readable
    record of a reference run), a temporary directory otherwise — an
    ordinary test run leaves the working tree clean.  A small provenance
    block (python/platform) is added so a checked-in figure can be told
    apart from one regenerated on different hardware; measured wall-clock
    numbers inside ``payload`` are informational, while counter fields are
    exact and machine-independent.
    """
    target = directory / f"BENCH_{name}.json"
    document = {
        "benchmark": name,
        "provenance": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        **payload,
    }
    target.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return target
