"""Admission priced in work: reproducible decisions, and old formats refused.

The §6.2 admission filter scores a query by its verification work (search
nodes the verifier expanded) over its filtering work (distinct label-path
features of the query), so two runs of one stream with admission control on
decide the same rounds and write the same bytes — no clock is patched here.
Records priced in seconds (snapshot v5, journal frames and window sidecars
carrying ``filter_time_s``/``verify_time_s``) are refused with a
:class:`CacheError` wherever they are read.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.cache import GraphCache
from repro.core.config import GraphCacheConfig
from repro.core.persistence import load_cache, recover_cache, save_cache
from repro.core.replication import CacheReplica
from repro.exceptions import CacheError
from repro.ftv.ggsx import GraphGrepSX
from repro.graphs.generators import aids_like
from repro.workloads import generate_type_b

DATASET = aids_like(scale=0.1, seed=3)
METHOD = GraphGrepSX(DATASET)
STREAM = list(generate_type_b(DATASET, 0.2, 150, query_sizes=(4, 8, 12), seed=5))
MIDPOINT = 84


def _admitting_run(directory: Path, config: GraphCacheConfig) -> GraphCache:
    """Serve the stream with the journal in ``directory``, a snapshot taken
    mid-window (``mid.snapshot``) and one at its end (``end.snapshot``)."""
    cache = GraphCache(METHOD, config)
    for position, query in enumerate(STREAM, start=1):
        cache.query(query)
        if position == MIDPOINT:
            save_cache(cache, directory / "mid.snapshot")
    save_cache(cache, directory / "end.snapshot")
    cache.close()
    return cache


def _config(directory: Path) -> GraphCacheConfig:
    return GraphCacheConfig(
        cache_capacity=10, window_size=5, admission_control=True,
        journal_path=str(directory / "plan.jsonl"),
    )


def test_two_admitting_runs_write_identical_journals_and_snapshots(tmp_path):
    names = ("plan.jsonl", "mid.snapshot", "end.snapshot")
    written = []
    for _ in range(2):  # one directory: the snapshot header holds the journal path
        cache = _admitting_run(tmp_path, _config(tmp_path))
        written.append([(tmp_path / name).read_bytes() for name in names])
        for name in names:
            (tmp_path / name).unlink()
    reports = cache.window_manager.reports
    assert cache.maintenance_engine.admission.calibrated
    assert sum(len(report.plan.rejected_serials) for report in reports) > 0
    for name, first, second in zip(names, *written, strict=True):
        assert first == second, name


# ---------------------------------------------------------------------- #
# Records priced in seconds fail closed.
# ---------------------------------------------------------------------- #
def _priced_in_seconds(entry: dict) -> dict:
    """A window-entry record as the format before work pricing wrote it."""
    entry = {key: value for key, value in entry.items() if key != "expensiveness"}
    return {**entry, "filter_time_s": 0.002, "verify_time_s": 0.013}


def _old_snapshot(tmp_path):
    _admitting_run(tmp_path, _config(tmp_path))
    path = tmp_path / "mid.snapshot"
    header, *states = [json.loads(line) for line in path.read_text().splitlines()]
    assert states[0]["window"] and states[0]["entries"]
    for state in states:
        state["window"] = [_priced_in_seconds(entry) for entry in state["window"]]
        for entry in state["entries"]:
            entry["statistics"].update(
                order=3, size=2, distinct_labels=2, filter_time_s=0.002, verify_time_s=0.013
            )
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in [{**header, "format_version": 5}, *states])
    )
    return lambda: load_cache(path, METHOD)


def _checkpoint_state(tmp_path) -> dict:
    """The mid-window snapshot's state record (one shard)."""
    return json.loads((tmp_path / "mid.snapshot").read_text().splitlines()[1])


def _old_journal(tmp_path):
    """A checkpoint, and a journal whose tail past it was priced in seconds."""
    _admitting_run(tmp_path, _config(tmp_path))
    journal = tmp_path / "plan.jsonl"
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    tail = records[_checkpoint_state(tmp_path)["journal_round"]:]
    assert any(record["admitted_entries"] for record in tail)
    for record in tail:
        record["admitted_entries"] = list(map(_priced_in_seconds, record["admitted_entries"]))
    journal.write_text("".join(json.dumps(record) + "\n" for record in records))
    return tail


def _old_journal_recovered(tmp_path):
    _old_journal(tmp_path)
    return lambda: recover_cache(tmp_path / "mid.snapshot", METHOD)


def _old_frame_shipped(tmp_path):
    """A follower restored from the checkpoint, then shipped the tail."""
    tail = _old_journal(tmp_path)
    replica = CacheReplica(METHOD, _config(tmp_path))
    replica.apply_frame(0, _checkpoint_state(tmp_path), None)

    def ship():
        for record in tail:
            replica.apply_frame(0, record, json.dumps(record))

    return ship


def _old_window_sidecar(tmp_path):
    config = GraphCacheConfig(
        cache_capacity=10, window_size=5, backend="mmap",
        backend_path=str(tmp_path / "store"),
    )
    cache = GraphCache(METHOD, config)
    for query in STREAM[:MIDPOINT]:
        cache.query(query)
    assert cache.window_entries()
    cache.seal_storage()
    cache.close()
    (sidecar,) = tmp_path.glob("store*window*.meta.json")
    payload = json.loads(sidecar.read_text())
    payload["version"] = 1
    payload["records"] = list(map(_priced_in_seconds, payload["records"]))
    sidecar.write_text(json.dumps(payload))
    return lambda: GraphCache(METHOD, config)


@pytest.mark.parametrize(
    "old_artefact, refusal",
    [
        (_old_snapshot, "snapshot version 5"),
        (_old_journal_recovered, "no expensiveness"),
        (_old_frame_shipped, "no expensiveness"),
        (_old_window_sidecar, "unsupported sidecar version"),
    ],
    ids=["snapshot-v5", "journal-frame-recovered", "journal-frame-shipped", "window-sidecar"],
)
def test_a_record_priced_in_seconds_is_refused(tmp_path, old_artefact, refusal):
    read = old_artefact(tmp_path)
    with pytest.raises(CacheError, match=refusal):
        read()
