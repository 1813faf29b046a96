"""Command-line interface for the GraphCache reproduction.

The CLI exposes the workflows a downstream user needs most often without
writing Python:

* ``graphcache info`` — list bundled datasets, methods, matchers and policies;
* ``graphcache dataset`` — generate a stand-in dataset, print its statistics,
  optionally save it in transaction format;
* ``graphcache workload`` — generate a Type A or Type B workload from a
  dataset and save it;
* ``graphcache run`` — run one experiment (plain Method M vs GraphCache) and
  print the speedup report (``--jobs N`` prefetches Method M filtering on N
  threads through the batched service facade);
* ``graphcache batch`` — push a workload through ``GraphCacheService.
  query_many`` and print the per-stage pipeline breakdown and work counters;
* ``graphcache policies`` — compare the five replacement policies on one
  configuration (a one-command miniature of the paper's Figure 4);
* ``graphcache maintenance`` — inspect per-round maintenance decisions: run
  an experiment and print every round's ``MaintenanceReport`` (counts, policy
  rationale, admitted/evicted serials), or decode an append-only plan-journal
  file written by ``--journal-path``.

Every command accepts ``--seed`` so results are reproducible.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from ..bench.harness import run_baseline, run_experiment
from ..bench.metrics import (
    aggregate_baseline,
    aggregate_cached,
    aggregate_stage_times,
    speedup,
)
from ..bench.reporting import format_table
from ..core.backends import AVAILABLE_BACKENDS
from ..core.config import GraphCacheConfig
from ..exceptions import CacheError
from ..core.pipeline import STAGE_NAMES
from ..core.policies import (
    SCHEDULER_MODES,
    MaintenancePlan,
    PlanJournal,
    available_admission_controllers,
    available_policies,
)
from ..core.replication import ReplicaSet
from ..core.service import GraphCacheService
from ..core.sharding import build_cache
from ..core.workers import ProcessPoolCacheService
from ..graphs.generators import DATASET_FACTORIES, dataset_by_name
from ..graphs.io import save_dataset
from ..isomorphism.registry import available_matchers
from ..methods.registry import available_methods, method_by_name
from ..workloads.io import load_workload, save_workload
from ..workloads.type_a import SMALL_DATASET_QUERY_SIZES, TypeAWorkloadGenerator
from ..workloads.type_b import QueryPools, TypeBWorkloadGenerator

__all__ = ["main", "build_parser"]


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="graphcache",
        description="GraphCache (EDBT 2017) reproduction command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # info ------------------------------------------------------------------ #
    subparsers.add_parser("info", help="list bundled datasets, methods, matchers and policies")

    # dataset --------------------------------------------------------------- #
    dataset = subparsers.add_parser("dataset", help="generate a stand-in dataset")
    dataset.add_argument("name", choices=sorted(DATASET_FACTORIES), help="dataset family")
    dataset.add_argument("--scale", type=float, default=1.0, help="size multiplier (default 1.0)")
    dataset.add_argument("--seed", type=int, default=None, help="generation seed")
    dataset.add_argument("--output", type=Path, default=None, help="save in transaction format")

    # workload --------------------------------------------------------------- #
    workload = subparsers.add_parser("workload", help="generate a query workload")
    workload.add_argument("dataset", choices=sorted(DATASET_FACTORIES), help="dataset family")
    workload.add_argument("--scale", type=float, default=1.0, help="dataset size multiplier")
    workload.add_argument("--kind", choices=["ZZ", "ZU", "UU", "B"], default="ZZ",
                          help="Type A category or 'B' for a Type B workload")
    workload.add_argument("--queries", type=int, default=200, help="number of queries")
    workload.add_argument("--sizes", type=int, nargs="+", default=list(SMALL_DATASET_QUERY_SIZES),
                          help="query sizes in edges")
    workload.add_argument("--alpha", type=float, default=1.4, help="Zipf skew parameter")
    workload.add_argument("--no-answer", type=float, default=0.2,
                          help="Type B only: probability of a no-answer query")
    workload.add_argument("--seed", type=int, default=0, help="generation seed")
    workload.add_argument("--output", type=Path, required=True, help="output file (.queries)")

    # run --------------------------------------------------------------------- #
    run = subparsers.add_parser("run", help="run one experiment (Method M vs GraphCache)")
    _add_experiment_arguments(run)
    run.add_argument("--policy", choices=available_policies(), default="hd",
                     help="cache replacement policy")
    run.add_argument("--jobs", type=int, default=1,
                     help="threads prefetching Method M filtering (answers and "
                          "work counters are identical to --jobs 1)")

    # batch -------------------------------------------------------------------- #
    batch = subparsers.add_parser(
        "batch",
        help="answer a workload through the batched GraphCacheService facade "
             "and print the per-stage pipeline breakdown",
    )
    _add_experiment_arguments(batch)
    batch.add_argument("--policy", choices=available_policies(), default="hd",
                       help="cache replacement policy")
    batch.add_argument("--jobs", type=int, default=4,
                       help="threads prefetching Method M filtering")
    batch.add_argument("--workers", type=int, default=1,
                       help="fork N worker processes serving crc32-routed "
                            "shards over a sealed mmap arena (forces "
                            "--backend mmap; counters are identical to a "
                            "single-process sharded cache)")

    # policies ----------------------------------------------------------------- #
    policies = subparsers.add_parser(
        "policies", help="compare all replacement policies on one configuration"
    )
    _add_experiment_arguments(policies)

    # maintenance --------------------------------------------------------------- #
    maintenance = subparsers.add_parser(
        "maintenance",
        help="inspect per-round maintenance reports of a run, or decode an "
             "append-only plan-journal file",
    )
    _add_experiment_arguments(maintenance, dataset_required=False)
    maintenance.add_argument("--policy", choices=available_policies(), default="hd",
                             help="cache replacement policy")
    maintenance.add_argument("--journal", type=Path, default=None,
                             help="decode this plan-journal file instead of "
                                  "running an experiment")
    maintenance.add_argument("--serials", action="store_true",
                             help="also print per-round admitted/evicted "
                                  "serials and victim utilities")
    maintenance.add_argument("--tail", type=int, default=None, metavar="N",
                             help="with --journal: show only the last N rounds")
    maintenance.add_argument("--since-round", type=int, default=None,
                             metavar="R",
                             help="with --journal: show only rounds >= R "
                                  "(e.g. past a checkpoint's watermark)")
    maintenance.add_argument("--replicas", type=int, default=0,
                             help="feed N journal-driven read replicas during "
                                  "the run and print their replication-lag "
                                  "metrics (rounds behind, bytes shipped, "
                                  "apply time)")

    # analyze -------------------------------------------------------------------- #
    analyze = subparsers.add_parser(
        "analyze",
        help="run the static lock-discipline & plan-purity analyzer "
             "(rules REPRO001-REPRO008) over the repro package",
    )
    analyze.add_argument("paths", nargs="*", type=Path,
                         help="files or directories to scan "
                              "(default: the installed repro package)")
    analyze.add_argument("--format", choices=("text", "json"), default="text",
                         help="report format (default: text)")
    analyze.add_argument("--baseline", type=Path, default=None,
                         help="baseline file of accepted finding fingerprints "
                              "(default: the checked-in baseline)")
    analyze.add_argument("--no-baseline", action="store_true",
                         help="ignore the baseline and report every finding")
    analyze.add_argument("--write-baseline", action="store_true",
                         help="accept the current findings into the baseline")

    return parser


def _add_experiment_arguments(
    parser: argparse.ArgumentParser, dataset_required: bool = True
) -> None:
    if dataset_required:
        parser.add_argument("dataset", choices=sorted(DATASET_FACTORIES),
                            help="dataset family")
    else:
        parser.add_argument("dataset", nargs="?", default=None,
                            choices=sorted(DATASET_FACTORIES),
                            help="dataset family (omit with --journal)")
    parser.add_argument("--scale", type=float, default=0.5, help="dataset size multiplier")
    parser.add_argument("--method", choices=available_methods(), default="ggsx",
                        help="Method M to expedite")
    parser.add_argument("--workload", type=Path, default=None,
                        help="workload file produced by 'graphcache workload' "
                             "(generated on the fly when omitted)")
    parser.add_argument("--kind", choices=["ZZ", "ZU", "UU"], default="ZZ",
                        help="Type A category used when no workload file is given")
    parser.add_argument("--queries", type=int, default=150, help="number of queries")
    parser.add_argument("--alpha", type=float, default=1.4, help="Zipf skew parameter")
    parser.add_argument("--cache-size", type=int, default=30, help="cache capacity")
    parser.add_argument("--window-size", type=int, default=10, help="window size")
    parser.add_argument("--admission-control", action="store_true",
                        help="enable the expensiveness-based admission filter")
    parser.add_argument("--admission", choices=available_admission_controllers(),
                        default="threshold",
                        help="admission controller kind: the quantile-"
                             "calibrated threshold filter or the adaptive "
                             "(hill-climbing) variant")
    parser.add_argument("--backend", choices=list(AVAILABLE_BACKENDS), default="memory",
                        help="storage backend of the cache/window stores "
                             "(mmap = packed arena, durable with --backend-path)")
    parser.add_argument("--backend-path", type=Path, default=None,
                        help="mmap arena base path, sealed when the "
                             "command ends so a later run warm-starts from "
                             "it (default: in-memory)")
    parser.add_argument("--shards", type=int, default=1,
                        help="split the cache into N independent shards; "
                             "with --jobs > 1 full GC pipelines run "
                             "concurrently, one per shard")
    parser.add_argument("--maintenance-mode", choices=list(SCHEDULER_MODES),
                        default="sync",
                        help="where cache-update rounds execute: inline on "
                             "the committing thread (sync), on a worker "
                             "thread off the query path (background), or on "
                             "the worker behind a completion barrier — the "
                             "deterministic test mode (barrier)")
    parser.add_argument("--journal-path", type=Path, default=None,
                        help="append every applied maintenance plan to this "
                             "file (one JSON line per round; sharded caches "
                             "write one file per shard)")
    parser.add_argument("--journal-fsync", action="store_true",
                        help="flush and fsync every journal append before the "
                             "round returns (the crash-recovery durability "
                             "mode; default: rely on the OS page cache)")
    parser.add_argument("--compaction-threshold", type=float, default=None,
                        help="automatic mmap-arena compaction: after each "
                             "delta publish, fold any backend whose "
                             "dead/live byte ratio crosses this value "
                             "(default: never compact automatically)")
    parser.add_argument("--seed", type=int, default=0, help="generation seed")


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #
def _command_info(_: argparse.Namespace) -> int:
    print("datasets  :", ", ".join(sorted(DATASET_FACTORIES)))
    print("methods   :", ", ".join(available_methods()))
    print("matchers  :", ", ".join(available_matchers()))
    print("policies  :", ", ".join(available_policies()))
    print("admission :", ", ".join(available_admission_controllers()))
    return 0


def _command_dataset(args: argparse.Namespace) -> int:
    dataset = dataset_by_name(args.name, scale=args.scale, seed=args.seed)
    stats = dataset.statistics()
    rows = [{"statistic": key, "value": round(value, 3) if isinstance(value, float) else value}
            for key, value in stats.as_dict().items()]
    print(format_table(rows))
    if args.output is not None:
        save_dataset(dataset, args.output)
        print(f"saved {len(dataset)} graphs to {args.output}")
    return 0


def _command_workload(args: argparse.Namespace) -> int:
    dataset = dataset_by_name(args.dataset, scale=args.scale, seed=args.seed)
    if args.kind == "B":
        pools = QueryPools(
            dataset,
            query_sizes=tuple(args.sizes),
            answer_pool_size=max(20, args.queries // 3),
            no_answer_pool_size=max(8, args.queries // 10),
            seed=args.seed,
        )
        generator = TypeBWorkloadGenerator(
            pools, no_answer_probability=args.no_answer, alpha=args.alpha, seed=args.seed
        )
        workload = generator.generate(args.queries, dataset_name=dataset.name)
    else:
        generator = TypeAWorkloadGenerator(
            dataset,
            category=args.kind,
            query_sizes=tuple(args.sizes),
            alpha=args.alpha,
            seed=args.seed,
        )
        workload = generator.generate(args.queries)
    save_workload(workload, args.output)
    print(f"saved workload {workload.describe()} to {args.output}")
    return 0


def _build_experiment(args: argparse.Namespace):
    dataset = dataset_by_name(args.dataset, scale=args.scale, seed=args.seed)
    method = method_by_name(args.method, dataset)
    if args.workload is not None:
        workload = load_workload(args.workload)
    else:
        generator = TypeAWorkloadGenerator(
            dataset,
            category=args.kind,
            query_sizes=SMALL_DATASET_QUERY_SIZES,
            alpha=args.alpha,
            seed=args.seed,
        )
        workload = generator.generate(args.queries)
    return method, workload


def _experiment_config(
    args: argparse.Namespace, policy: Optional[str] = None
) -> GraphCacheConfig:
    """GraphCache configuration shared by the experiment subcommands."""
    return GraphCacheConfig(
        cache_capacity=args.cache_size,
        window_size=args.window_size,
        replacement_policy=policy if policy is not None else args.policy,
        admission_control=args.admission_control,
        admission_kind=args.admission,
        backend=args.backend,
        backend_path=None if args.backend_path is None else str(args.backend_path),
        shards=args.shards,
        maintenance_mode=args.maintenance_mode,
        journal_path=None if args.journal_path is None else str(args.journal_path),
        journal_fsync=args.journal_fsync,
        compaction_threshold=args.compaction_threshold,
    )


def _seal_backend_path(cache, config) -> None:
    """With ``--backend-path``, seal the mmap arena before the cache closes.

    The mmap backend writes nothing to disk until it is sealed; sealing at
    the end of a command makes the path durable, so a later command on the
    same path warm-starts from the published segment.
    """
    if config.backend_path is not None:
        cache.drain_maintenance()
        cache.seal_storage()


def _command_run(args: argparse.Namespace) -> int:
    method, workload = _build_experiment(args)
    config = _experiment_config(args)
    result = run_experiment("cli-run", method, workload, config, jobs=args.jobs)
    print(format_table([result.summary_row()]))
    _seal_backend_path(result.cache, config)
    result.cache.close()
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    method, workload = _build_experiment(args)
    config = _experiment_config(args)
    if args.workers > 1:
        return _batch_multiprocess(args, method, workload, config)
    service = GraphCacheService.for_method(method, config)
    results = service.query_many(list(workload), jobs=args.jobs)
    service.drain_maintenance()

    count = len(results)
    runtime = service.cache.runtime_statistics
    stages = aggregate_stage_times(results)
    maintenance = service.maintenance_reports()
    row = {
        "queries": count,
        "jobs": args.jobs,
        "shards": args.shards,
        "backend": args.backend,
        "hit_rate": round(runtime.cache_hits / max(1, count), 3),
        "subiso_tests": runtime.subiso_tests,
        "subiso_alleviated": runtime.subiso_tests_alleviated,
        "containment_tests": runtime.containment_tests,
        "decode_avoided": runtime.decode_avoided,
        # Maintenance-engine evidence: rounds run and the delta work they
        # did (index add/remove + backend row ops — O(window) per round).
        "gc_rounds": len(maintenance),
        "gc_index_ops": sum(report.index_ops for report in maintenance),
        "gc_row_ops": sum(report.backend_row_ops for report in maintenance),
        "gc_evicted": sum(len(report.evicted_serials) for report in maintenance),
    }
    for stage in STAGE_NAMES:
        row[f"{stage}_ms"] = round(stages.get(stage, 0.0) * 1000.0, 3)
    print(format_table([row]))
    _seal_backend_path(service.cache, config)
    service.close()
    return 0


def _batch_multiprocess(args, method, workload, config) -> int:
    """Serve the workload through N forked workers over a sealed mmap arena."""
    service = ProcessPoolCacheService(method, config, workers=args.workers)
    try:
        queries = list(workload)
        if config.compaction_threshold is not None:
            # Interleave delta publishes with the workload so churn can
            # cross the threshold and the automatic folds have a chance
            # to run (and show up in the report) within one batch.
            half = len(queries) // 2
            results = service.run(queries[:half])
            service.reseal()
            results += service.run(queries[half:])
            service.reseal()
        else:
            results = service.run(queries)
        runtime = service.runtime_statistics()
        count = len(results)
        stages = aggregate_stage_times(results)
        row = {
            "queries": count,
            "workers": args.workers,
            "shards": service.shard_count,
            "backend": service.config.backend,
            "hit_rate": round(runtime.cache_hits / max(1, count), 3),
            "subiso_tests": runtime.subiso_tests,
            "subiso_alleviated": runtime.subiso_tests_alleviated,
            "containment_tests": runtime.containment_tests,
            "decode_avoided": runtime.decode_avoided,
        }
        for stage in STAGE_NAMES:
            row[f"{stage}_ms"] = round(stages.get(stage, 0.0) * 1000.0, 3)
        print(format_table([row]))
        stats = service.arena_statistics()
        for line in _arena_stat_lines(stats):
            print(line)
        for line in _compaction_lines(stats.get("compaction_events", [])):
            print(line)
    finally:
        service.close()
    return 0


def _arena_stat_lines(stats) -> list:
    """Render pool/cache arena occupancy as indented report lines."""
    lines = [
        "arena: live_bytes={} dead_bytes={} delta_segments={}".format(
            stats["live_bytes"], stats["dead_bytes"], stats["delta_segments"]
        )
    ]
    for shard, shard_stats in sorted(stats.get("shards", {}).items()):
        for table in shard_stats.get("tables", []):
            for segment in table.get("segments", []):
                lines.append(
                    "  shard {} {} {}: kind={} bytes={} live={} dead={}".format(
                        shard,
                        table["table"],
                        segment["segment"],
                        segment["kind"],
                        segment["bytes"],
                        segment["live_bytes"],
                        segment["dead_bytes"],
                    )
                )
    return lines


def _compaction_lines(events) -> list:
    """Render automatic-compaction events as indented report lines."""
    if not events:
        return []
    lines = [f"compaction: {len(events)} fold(s)"]
    for event in events:
        lines.append(
            "  table {}: trigger_ratio={:.3f} bytes_reclaimed={} "
            "segments_folded={}".format(
                event["table"],
                event["trigger_ratio"],
                event["bytes_reclaimed"],
                event["segments_folded"],
            )
        )
    return lines


def _command_policies(args: argparse.Namespace) -> int:
    method, workload = _build_experiment(args)
    warmup = args.window_size
    baseline = run_baseline(method, workload, warmup_queries=warmup)
    baseline_aggregate = aggregate_baseline(baseline)
    rows = []
    for policy in available_policies():
        config = _experiment_config(args, policy=policy)
        if config.backend_path is not None:
            # Each policy must start cold: every run seals its arena, so
            # a shared path would warm-start each run after the first from
            # its predecessor's leftovers and invalidate the comparison.
            config = replace(config, backend_path=f"{config.backend_path}.{policy}")
        if config.journal_path is not None:
            # One decision stream per policy, for the same reason.
            config = replace(config, journal_path=f"{config.journal_path}.{policy}")
        cache = build_cache(method, config)
        results = [cache.query(query) for query in workload]
        _seal_backend_path(cache, config)
        cache.close()
        report = speedup(baseline_aggregate, aggregate_cached(results[warmup:]))
        rows.append(
            {
                "policy": policy.upper(),
                "time speedup": round(report.time_speedup, 2),
                "subiso speedup": round(report.subiso_speedup, 2),
                "hit rate": round(report.cached.cache_hit_rate, 2),
            }
        )
    print(format_table(rows))
    return 0


def _plan_rows(plans, with_serials: bool, rounds=None):
    """Table rows (and optional serial-detail lines) for a plan stream.

    ``rounds`` supplies the journal's real round numbers (a filtered or
    compacted stream does not start at 1); omitted, rounds are enumerated.
    """
    rows = []
    details = []
    if rounds is None:
        rounds = range(1, len(plans) + 1)
    for round_no, plan in zip(rounds, plans, strict=True):
        threshold = plan.admission_threshold
        rows.append(
            {
                "round": round_no,
                "at_serial": plan.current_serial,
                "window": len(plan.window_serials),
                "admitted": len(plan.admitted_serials),
                "rejected": len(plan.rejected_serials),
                "evicted": len(plan.evicted_serials),
                "policy": plan.policy,
                "delegate": plan.policy_delegate or "-",
                "threshold": "-" if threshold is None else round(threshold, 4),
            }
        )
        if with_serials:
            victims = ", ".join(
                f"{serial} (u={utility:.4g})"
                for serial, utility in plan.victim_utilities
            )
            details.append(
                f"round {round_no}: admitted "
                f"[{', '.join(map(str, plan.admitted_serials)) or '-'}]; "
                f"rejected [{', '.join(map(str, plan.rejected_serials)) or '-'}]; "
                f"evicted [{victims or '-'}]"
            )
    return rows, details


def _command_analyze(args: argparse.Namespace) -> int:
    # Imported lazily: the analyzer is a dev-facing tool and the rest of the
    # CLI should not pay for it (or depend on it) at import time.
    from ..analysis.run import main as analysis_main

    argv = [str(path) for path in args.paths]
    argv += ["--format", args.format]
    if args.baseline is not None:
        argv += ["--baseline", str(args.baseline)]
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.write_baseline:
        argv.append("--write-baseline")
    return analysis_main(argv)


def _command_maintenance(args: argparse.Namespace) -> int:
    if args.journal is not None:
        try:
            records = PlanJournal.read_records(
                args.journal, since_round=args.since_round, tail=args.tail
            )
        except FileNotFoundError:
            print(
                f"graphcache maintenance: journal file not found: {args.journal}",
                file=sys.stderr,
            )
            return 2
        except OSError as exc:
            print(
                f"graphcache maintenance: cannot read journal "
                f"{args.journal}: {exc}",
                file=sys.stderr,
            )
            return 2
        except CacheError as exc:
            print(f"graphcache maintenance: {exc}", file=sys.stderr)
            return 2
        plans = [MaintenancePlan.from_record(record) for record in records]
        rows, details = _plan_rows(
            plans, args.serials, rounds=[record["round"] for record in records]
        )
        if not rows:
            print(f"{args.journal}: empty journal (no rounds applied)")
            return 0
        print(format_table(rows))
        for line in details:
            print(line)
        return 0

    if args.dataset is None:
        print(
            "graphcache maintenance: provide a dataset to run, "
            "or --journal FILE to decode a plan journal",
            file=sys.stderr,
        )
        return 2

    method, workload = _build_experiment(args)
    config = _experiment_config(args)
    service = GraphCacheService.for_method(method, config)
    replica_set = (
        ReplicaSet(service.cache, replicas=args.replicas)
        if args.replicas > 0
        else None
    )
    queries = list(workload)
    if config.compaction_threshold is not None:
        # Publish the arena tails mid-run: dead bytes only accrue when
        # *sealed* records are later evicted, so the second half's churn is
        # what pushes the dead/live ratio over the threshold.
        half = len(queries) // 2
        service.query_many(queries[:half], jobs=1)
        service.drain_maintenance()
        service.cache.seal_delta_storage()
        service.query_many(queries[half:], jobs=1)
    else:
        service.query_many(queries, jobs=1)
    service.drain_maintenance()
    # Filter reports and plans together so the per-round op columns can
    # never shift onto the wrong row if a plan-less report ever appears.
    reports = [r for r in service.maintenance_reports() if r.plan is not None]
    rows, details = _plan_rows([report.plan for report in reports], args.serials)
    for row, report in zip(rows, reports, strict=True):
        row["cache_size"] = report.cache_size_after
        row["index_ops"] = report.index_ops
        row["row_ops"] = report.backend_row_ops
    if not rows:
        print("no maintenance rounds ran (window never filled)")
        if replica_set is not None:
            replica_set.close()
        _seal_backend_path(service.cache, config)
        service.close()
        return 0
    print(format_table(rows))
    for line in details:
        print(line)
    runtime = service.cache.runtime_statistics
    print(f"decode_avoided: {runtime.decode_avoided}")
    if replica_set is not None:
        replica_set.sync()
        for line in _replication_lines(replica_set.replication_statistics()):
            print(line)
        replica_set.close()
    cache = service.cache
    if config.compaction_threshold is not None:
        # Publish the arena tails so churn from the run above can trigger
        # the automatic fold; the stats below then show the post-fold state.
        cache.seal_delta_storage()
        cache.drain_maintenance()
    for line in _cache_arena_lines(cache):
        print(line)
    for line in _compaction_lines(getattr(cache, "compaction_events", [])):
        print(line)
    _seal_backend_path(cache, config)
    service.close()
    return 0


def _replication_lines(stats) -> list:
    """Render per-replica replication-lag metrics as report lines."""
    if not stats:
        return []
    lines = [f"replication: {len(stats)} replica(s), mode={stats[0]['mode']}"]
    for entry in stats:
        lines.append(
            "  {}: rounds_applied={} rounds_behind={} bytes_shipped={} "
            "apply_ms={:.3f}".format(
                entry["replica"],
                entry["rounds_applied"],
                entry["rounds_behind"],
                entry["bytes_shipped"],
                entry["apply_time_s"] * 1000.0,
            )
        )
    return lines


def _cache_arena_lines(cache) -> list:
    """Per-segment arena occupancy of an in-process cache (mmap only)."""
    storage_backends = getattr(cache, "storage_backends", None)
    if storage_backends is None:
        return []
    lines = []
    for backend in storage_backends():
        arena_statistics = getattr(backend, "arena_statistics", None)
        if arena_statistics is None:
            continue
        table = arena_statistics()
        lines.append(
            "arena {}: live_bytes={} dead_bytes={} delta_segments={}".format(
                table["table"], table["live_bytes"], table["dead_bytes"],
                table["delta_segments"],
            )
        )
        for segment in table["segments"]:
            lines.append(
                "  {}: kind={} bytes={} live={} dead={}".format(
                    segment["segment"], segment["kind"], segment["bytes"],
                    segment["live_bytes"], segment["dead_bytes"],
                )
            )
    return lines


_COMMANDS = {
    "info": _command_info,
    "dataset": _command_dataset,
    "workload": _command_workload,
    "run": _command_run,
    "batch": _command_batch,
    "policies": _command_policies,
    "maintenance": _command_maintenance,
    "analyze": _command_analyze,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
