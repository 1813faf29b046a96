"""End-to-end benchmark of GraphCache: one command, every metric by name.

Two ways to call it (see ``README.md``):

``run.py --workload NAME --seed S --seconds T --trace 0|1``
    One run of one workload in this process — the ``BENCHMARK.json`` contract.
    Prints each metric with its unit, then, as the last line, one JSON object
    ``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
    metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

``run.py [--workload NAME] [--seed S] [--reps R] [--scale F] [--trace] [--out FILE]``
    The suite: every (or one) workload, ``R`` repetitions, each a fresh
    subprocess of the first form at ``--seconds 10*F``; prints the median,
    minimum and maximum of each metric and writes them to ``FILE`` for
    ``compare.py``.

Exit status is non-zero when any answer differed from the uncached Method M,
any request raised, or a restarted cache did not reach the live one's digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT}: no src/repro here — run from a checkout of the repository")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e.engine import run_workload
from benchmarks.e2e.report import (
    attempted,
    end_to_end_metrics,
    info_metrics,
    layer_metrics,
)
from benchmarks.e2e.workloads import RUN_SECONDS, SPECS, generate

#: Scratch space for journals, snapshots and arenas; inside the checkout
#: (git-ignored) and removed when the run ends.
SCRATCH = ROOT / ".bench_e2e_tmp"


def _print_metrics(title: str, metrics: Dict[str, tuple]) -> None:
    print(f"-- {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")


@contextmanager
def _scratch_dir(prefix: str) -> Iterator[Path]:
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=SCRATCH, prefix=prefix))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()


def run_once(
    workload: str, seed: int, seconds: float, trace: bool, out: Optional[Path]
) -> int:
    """One run of one workload; returns the process exit status."""
    stream = generate(SPECS[workload], seed, seconds)
    with _scratch_dir(f"{workload}.") as workdir:
        run = run_workload(stream, workdir, trace)
    if trace and out is not None:
        run.passes[-1].tracer.write(out.with_suffix(".spans.jsonl"))

    metrics = layer_metrics(run) if trace else end_to_end_metrics(run)
    info = info_metrics(run)
    counters = run.passes[0].counters
    if any(record.counters != counters for record in run.passes):
        # Passes serve one stream to one fresh cache each: different counts
        # mean the program's work is not a function of its inputs.
        print("program counters differ between passes of one stream", file=sys.stderr)
        return 3
    sent = attempted(run)
    digests_ok = all(record.digest_ok for record in run.passes)
    correct = not run.failures and digests_ok

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(
        f"requests/pass {len(stream.measured)}  passes {len(run.passes)}  "
        f"warm-up {len(stream.warmup)}  stream sha256 {stream.fingerprint}"
    )
    _print_metrics("per-layer (traced pass)" if trace else "end-to-end", metrics)
    _print_metrics("information only (no bound)", info)
    _print_metrics(
        "deterministic counters (measured requests of one pass)",
        {name: (value, "count") for name, value in counters.items()},
    )
    print(f"attempted {sent}  failed {len(run.failures)}  recovered digest ok {digests_ok}")
    if run.failures:
        print(f"FAILED (pass, kind, stream position): {run.failures[:50]}", file=sys.stderr)
    if not digests_ok:
        print("FAILED: a restarted cache did not reach the live digest", file=sys.stderr)

    document = {
        "correct": correct,
        "attempted": sent,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    if out is not None:
        detail = dict(
            document,
            workload=workload,
            seed=seed,
            seconds=seconds,
            trace=trace,
            info={n: {"value": v, "unit": u} for n, (v, u) in info.items()},
            counters=counters,
            fingerprint=stream.fingerprint,
        )
        out.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(document))
    return 0 if correct else 1


# ---------------------------------------------------------------------- #
# The suite: repetitions in fresh subprocesses, medians, one JSON document.
# ---------------------------------------------------------------------- #
def _provenance() -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
    }


def run_suite(
    workloads: List[str], seed: int, reps: int, scale: float, trace: bool, out: Optional[Path]
) -> int:
    """Run ``reps`` fresh subprocesses per workload; print and save medians."""
    status = 0
    suite: Dict[str, object] = {
        "provenance": _provenance(),
        "seed": seed,
        "reps": reps,
        "scale": scale,
        "trace": trace,
        "workloads": {},
    }
    with _scratch_dir("suite.") as scratch:
        for workload in workloads:
            runs = []
            for rep in range(reps):
                detail = scratch / f"{workload}.{rep}.json"
                command = [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", repr(scale * RUN_SECONDS),
                    "--trace", str(int(trace)),
                    "--out", str(detail),
                ]  # fmt: skip
                finished = subprocess.run(command, capture_output=True, text=True)
                if finished.returncode:
                    status = 1
                    sys.stderr.write(finished.stdout[-2000:] + finished.stderr[-4000:])
                if detail.exists():
                    runs.append(json.loads(detail.read_text(encoding="utf-8")))
                    if trace and out is not None:
                        shutil.copy(
                            detail.with_suffix(".spans.jsonl"),
                            out.with_suffix(f".{workload}.spans.jsonl"),
                        )
            if not runs:
                continue
            summary = {"fingerprint": runs[0]["fingerprint"], "counters": runs[0]["counters"]}
            summary["attempted"] = sum(run["attempted"] for run in runs)
            summary["failed"] = sum(run["failed"] for run in runs)
            summary["correct"] = all(run["correct"] for run in runs)
            summary["counters_repeat"] = all(
                run["counters"] == runs[0]["counters"] for run in runs
            )
            for block in ("metrics", "info"):
                summary[block] = {
                    name: {
                        "unit": entry["unit"],
                        "median": statistics.median(r[block][name]["value"] for r in runs),
                        "min": min(r[block][name]["value"] for r in runs),
                        "max": max(r[block][name]["value"] for r in runs),
                        "samples": len(runs),
                    }
                    for name, entry in runs[0][block].items()
                }
            suite["workloads"][workload] = summary
            print(
                f"== {workload}: {len(runs)} rep(s), attempted {summary['attempted']}, "
                f"failed {summary['failed']}, counters repeat {summary['counters_repeat']}"
            )
            for block in ("metrics", "info"):
                for name, entry in summary[block].items():
                    print(
                        f"{name:44s} {entry['median']:14.6g} {entry['unit']:10s} "
                        f"[min {entry['min']:.6g}  max {entry['max']:.6g}  n {entry['samples']}]"
                    )
            if not (summary["correct"] and summary["counters_repeat"]):
                status = 1
    if out is not None:
        out.write_text(json.dumps(suite, indent=1) + "\n", encoding="utf-8")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS), help="default: all four (suite)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        help="one run in this process, sized to measure for about this long",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: also make a traced pass and report the per-layer metrics",
    )  # fmt: skip
    parser.add_argument("--reps", type=int, default=3, help="suite: subprocesses per workload")
    parser.add_argument(
        "--scale", type=float, default=1.0, help=f"suite: run length as a share of {RUN_SECONDS} s"
    )
    parser.add_argument("--out", type=Path, help="write the full result here as JSON")
    args = parser.parse_args(argv)
    if args.seconds is not None:
        if args.workload is None:
            parser.error("--seconds needs --workload")
        return run_once(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    workloads = [args.workload] if args.workload else list(SPECS)
    return run_suite(workloads, args.seed, args.reps, args.scale, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
