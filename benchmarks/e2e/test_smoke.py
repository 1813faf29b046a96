"""Smoke test of the end-to-end benchmark (auto-marked ``bench`` by the suite's
conftest): every workload at 2 % length, one of them traced as well.

Checks the shape of what the benchmark reports, not its numbers: every metric
named in ``BENCHMARK.json`` is present with its unit, nothing failed, the span
tree adds up, and the working tree is left exactly as it was found.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TRACED_WORKLOAD = "aids_replica_readmix"


def _git_status() -> str:
    finished = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
    )
    if finished.returncode:
        pytest.skip("not a git checkout")
    return finished.stdout


def _check_metrics(block: str, reported: dict) -> None:
    expected = {metric["name"]: metric["unit"] for metric in CONTRACT[block]}
    assert {name: entry["unit"] for name, entry in reported.items()} == expected
    assert all(isinstance(entry["median"], (int, float)) for entry in reported.values())


def test_suite_reports_every_metric_and_leaves_the_tree_clean(tmp_path):
    status_before = _git_status()
    out = tmp_path / "suite.json"
    common = ["--seed", "5", "--scale", "0.02", "--reps", "1"]
    subprocess.run(RUN + common + ["--out", str(out)], check=True, cwd=tmp_path)
    suite = json.loads(out.read_text(encoding="utf-8"))
    assert list(suite["workloads"]) == [w["name"] for w in CONTRACT["workloads"]]
    for summary in suite["workloads"].values():
        _check_metrics("end_to_end", summary["metrics"])
        assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
        assert summary["info"]["failed_frac"]["median"] == 0
        assert all(entry["median"] > 0 for entry in summary["metrics"].values())
        assert len(summary["fingerprint"]) == 64 and summary["counters"]

    traced = tmp_path / "traced.json"
    subprocess.run(
        RUN + common + ["--workload", TRACED_WORKLOAD, "--trace", "--out", str(traced)],
        check=True,
        cwd=tmp_path,
    )
    summary = json.loads(traced.read_text(encoding="utf-8"))["workloads"][TRACED_WORKLOAD]
    _check_metrics("per_layer", summary["metrics"])
    assert summary["correct"]
    assert summary["metrics"]["core.replication.rounds_shipped"]["median"] > 0

    # Self times over each request's span tree add up to its root span.
    spans = [
        json.loads(line)
        for line in traced.with_suffix(f".{TRACED_WORKLOAD}.spans.jsonl").read_text().splitlines()
    ]
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert span["request"] == parent["request"]
            covered[span["parent"]] += max(
                0.0, min(span["end"], parent["end"]) - max(span["start"], parent["start"])
            )
    root_total = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
    self_total = sum(s["end"] - s["start"] - covered[i] for i, s in enumerate(spans))
    assert root_total > 0
    assert abs(self_total - root_total) <= 0.01 * root_total
    requests = [s["request"] for s in spans if s["parent"] < 0]
    assert requests == list(range(len(requests)))

    assert _git_status() == status_before


def test_the_seed_decides_the_stream():
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.e2e.workloads import SPECS, generate

    for spec in SPECS.values():
        first, again, other = (generate(spec, seed, 0.2) for seed in (5, 5, 6))
        assert first.fingerprint == again.fingerprint != other.fingerprint
        assert sorted(map(hash, first.measured)) == sorted(map(hash, other.measured))
