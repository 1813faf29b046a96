"""Replay-based crash recovery: snapshot + journal ≡ uninterrupted run.

The oracle is a reference run that records, at every round boundary, the
digest the cache held the instant the round landed.  Crashes are simulated
by truncating copies of the journal to k complete frames (the writer died
at a plan boundary) or k frames plus half a line (the writer died mid
append); :func:`recover_cache` must reproduce the reference digest for the
corresponding boundary from the checkpoint alone.

Single-shard boundaries are global boundaries, so recovery there pins the
*full* digest (entries, stats, window, serial counter).  A sharded crash
leaves the other shards mid-window — their unjournaled window entries die
with the process — so sharded recovery pins the replicated digest
(entries + statistics) per shard at that shard's own boundary.  The
GCindex version is a publication counter (one rebuild on restore replaces
many round publishes) and is excluded from recovery digests throughout.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import (
    GraphCacheConfig,
    build_cache,
    load_cache,
    recover_cache,
    save_cache,
)
from repro.core.policies import PlanJournal
from repro.core.replication import cache_state_digest
from repro.core.sharding import ShardedGraphCache
from repro.exceptions import CacheError
from repro.graphs.generators import aids_like
from repro.methods import SIMethod
from repro.workloads import generate_type_a

DATASET = aids_like(scale=0.05, seed=3)
METHOD = SIMethod(DATASET, matcher="vf2plus")
CHECKPOINT_AFTER = 14  # mid-window for window_size=3: pending hits exist


def _workload(count: int = 30, seed: int = 7):
    return list(
        generate_type_a(DATASET, "ZZ", count, query_sizes=(3, 5, 8), seed=seed)
    )


def _shards_of(cache):
    return cache.shards if isinstance(cache, ShardedGraphCache) else (cache,)


def _journal_paths(base: Path, shard_count: int):
    if shard_count == 1:
        return [base]
    return [
        Path(ShardedGraphCache._shard_path(str(base), index))
        for index in range(shard_count)
    ]


@pytest.fixture(
    scope="module",
    params=[
        ("memory", 1),
        ("memory", 3),
        ("sqlite", 1),
        ("sqlite", 3),
    ],
    ids=["memory-1shard", "memory-3shards", "sqlite-1shard", "sqlite-3shards"],
)
def reference_run(request, tmp_path_factory):
    """One uninterrupted run per (backend, shards): journals + boundary digests."""
    backend, shard_count = request.param
    tmp = tmp_path_factory.mktemp(f"ref-{backend}-{shard_count}")
    config = GraphCacheConfig(
        cache_capacity=6,
        window_size=3,
        maintenance_mode="sync",
        backend=backend,
        backend_path=str(tmp / "store.db") if backend == "sqlite" else None,
        shards=shard_count,
        journal_path=str(tmp / "journal.jsonl"),
        journal_fsync=True,
    )
    cache = build_cache(METHOD, config)
    shards = _shards_of(cache)
    # boundaries[s][k]: shard s's digests the instant its round k landed.
    boundaries = [
        {
            0: (
                cache_state_digest(cache, include_index_version=False)[s],
                cache_state_digest(
                    cache, include_index_version=False, replicated_only=True
                )[s],
            )
        }
        for s in range(shard_count)
    ]
    crash_points = []
    checkpoint = tmp / "checkpoint.json"
    checkpoint_counts = None
    counts = tuple(0 for _ in shards)
    for i, query in enumerate(_workload()):
        cache.query(query)
        previous, counts = counts, tuple(
            shard.plan_journal.last_round for shard in shards
        )
        if counts != previous:
            full = cache_state_digest(cache, include_index_version=False)
            repl = cache_state_digest(
                cache, include_index_version=False, replicated_only=True
            )
            for s in range(shard_count):
                if counts[s] != previous[s]:
                    boundaries[s][counts[s]] = (full[s], repl[s])
            crash_points.append(counts)
        if i + 1 == CHECKPOINT_AFTER:
            save_cache(cache, checkpoint)
            checkpoint_counts = counts
            checkpoint_digests = (
                cache_state_digest(cache, include_index_version=False),
                cache_state_digest(
                    cache, include_index_version=False, replicated_only=True
                ),
            )
    cache.close()
    journal_lines = [
        path.read_text(encoding="utf-8").splitlines(keepends=True)
        for path in _journal_paths(Path(config.journal_path), shard_count)
    ]
    return {
        "backend": backend,
        "shard_count": shard_count,
        "checkpoint": checkpoint,
        "checkpoint_counts": checkpoint_counts,
        "checkpoint_digests": checkpoint_digests,
        "crash_points": crash_points,
        "boundaries": boundaries,
        "journal_lines": journal_lines,
    }


def _write_crash_journals(run, target_dir: Path, counts, torn: bool) -> Path:
    """Materialize the journal state a crash at ``counts`` leaves behind."""
    base = target_dir / "journal.jsonl"
    paths = _journal_paths(base, run["shard_count"])
    for s, path in enumerate(paths):
        lines = run["journal_lines"][s]
        text = "".join(lines[: counts[s]])
        if torn and counts[s] < len(lines):
            # The writer died mid-append: half the next frame, no newline.
            nxt = lines[counts[s]].rstrip("\n")
            text += nxt[: len(nxt) // 2]
        path.write_text(text, encoding="utf-8")
    return base


def _recovered_digest(run, journal_base: Path):
    cache = recover_cache(run["checkpoint"], METHOD, journal=journal_base)
    try:
        return (
            cache_state_digest(cache, include_index_version=False),
            cache_state_digest(
                cache, include_index_version=False, replicated_only=True
            ),
            cache.runtime_statistics,
        )
    finally:
        cache.close()


def _reachable_crash_points(run):
    """Crash points at/after the checkpoint (a durable checkpoint's rounds
    are necessarily journaled, so earlier truncations cannot occur)."""
    floor = run["checkpoint_counts"]
    return [
        counts
        for counts in run["crash_points"]
        if all(k >= f for k, f in zip(counts, floor))
    ]


class TestCrashPointRecovery:
    @pytest.mark.parametrize("torn", [False, True], ids=["boundary", "mid-line"])
    def test_every_crash_point_recovers_the_boundary_state(
        self, reference_run, tmp_path, torn
    ):
        run = reference_run
        points = _reachable_crash_points(run)
        assert points, "reference run produced no testable crash points"
        for n, counts in enumerate(points):
            crash_dir = tmp_path / f"crash-{n}"
            crash_dir.mkdir()
            base = _write_crash_journals(run, crash_dir, counts, torn=torn)
            full, repl, runtime = _recovered_digest(run, base)
            for s in range(run["shard_count"]):
                if counts[s] == run["checkpoint_counts"][s]:
                    # Nothing to replay for this shard: the checkpoint (which
                    # postdates the boundary) IS the recovered state.
                    expected_full = run["checkpoint_digests"][0][s]
                    expected_repl = run["checkpoint_digests"][1][s]
                else:
                    expected_full, expected_repl = run["boundaries"][s][counts[s]]
                if run["shard_count"] == 1:
                    assert full[s] == expected_full, f"crash at rounds {counts}"
                else:
                    assert repl[s] == expected_repl, f"crash at rounds {counts}"
            replayed = sum(counts) - sum(run["checkpoint_counts"])
            assert runtime.replay_rounds == replayed
            if replayed:
                assert runtime.replay_bytes > 0

    def test_missing_journal_recovers_the_checkpoint_alone(
        self, reference_run, tmp_path
    ):
        run = reference_run
        full, _, runtime = _recovered_digest(run, tmp_path / "nowhere.jsonl")
        assert runtime.replay_rounds == 0
        recovered = recover_cache(run["checkpoint"], METHOD, journal=None)
        recovered.close()


class TestCompaction:
    def test_compaction_does_not_change_recovered_state(
        self, reference_run, tmp_path
    ):
        run = reference_run
        final = run["crash_points"][-1]
        plain = tmp_path / "plain"
        plain.mkdir()
        expected = _recovered_digest(
            run, _write_crash_journals(run, plain, final, torn=False)
        )
        compacted = tmp_path / "compacted"
        compacted.mkdir()
        base = _write_crash_journals(run, compacted, final, torn=False)
        payload = json.loads(run["checkpoint"].read_text(encoding="utf-8"))
        dropped = 0
        for s, path in enumerate(_journal_paths(base, run["shard_count"])):
            watermark = payload["shards"][s]["journal_round"]
            dropped += PlanJournal(path).truncate_before(watermark)
        assert dropped == sum(run["checkpoint_counts"])
        got = _recovered_digest(run, base)
        assert got[0] == expected[0]
        assert got[1] == expected[1]

    def test_truncate_before_drops_only_older_rounds(self, tmp_path):
        source = tmp_path / "journal.jsonl"
        records = [
            json.dumps({"round": k, "payload": k}) + "\n" for k in range(1, 6)
        ]
        source.write_text("".join(records), encoding="utf-8")
        journal = PlanJournal(source)
        assert journal.last_round == 5
        assert journal.truncate_before(3) == 3
        remaining = PlanJournal.read_records(source)
        assert [record["round"] for record in remaining] == [4, 5]
        assert journal.truncate_before(0) == 0


class TestJournalReading:
    def _journal_file(self, tmp_path) -> Path:
        path = tmp_path / "journal.jsonl"
        path.write_text(
            "".join(
                json.dumps({"round": k, "payload": k}) + "\n"
                for k in range(1, 8)
            ),
            encoding="utf-8",
        )
        return path

    def test_since_round_is_inclusive(self, tmp_path):
        path = self._journal_file(tmp_path)
        records = PlanJournal.read_records(path, since_round=5)
        assert [record["round"] for record in records] == [5, 6, 7]

    def test_tail_keeps_the_newest(self, tmp_path):
        path = self._journal_file(tmp_path)
        records = PlanJournal.read_records(path, tail=2)
        assert [record["round"] for record in records] == [6, 7]

    def test_tail_composes_with_since_round(self, tmp_path):
        path = self._journal_file(tmp_path)
        records = PlanJournal.read_records(path, since_round=3, tail=2)
        assert [record["round"] for record in records] == [6, 7]

    def test_torn_tail_is_ignored(self, tmp_path):
        path = self._journal_file(tmp_path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"round": 8, "pay')
        records = PlanJournal.read_records(path)
        assert [record["round"] for record in records] == list(range(1, 8))


class TestGuards:
    def test_recover_rejects_pre_v4_snapshots(self, reference_run, tmp_path):
        run = reference_run
        downgraded = tmp_path / "v3.json"
        downgraded.write_text(
            run["checkpoint"]
            .read_text(encoding="utf-8")
            .replace('"format_version": 4', '"format_version": 3'),
            encoding="utf-8",
        )
        with pytest.raises(CacheError, match="v4"):
            recover_cache(downgraded, METHOD)
        # A plain load rejects it too: load_cache reads v4 only.
        with pytest.raises(CacheError, match="version 3"):
            load_cache(downgraded, METHOD)

    def test_recover_rejects_audit_only_journals(self, reference_run, tmp_path):
        run = reference_run
        stripped = []
        for lines in run["journal_lines"]:
            for line in lines:
                record = json.loads(line)
                if record.get("admitted_serials"):
                    record.pop("admitted_entries", None)
                stripped.append(json.dumps(record))
        base = tmp_path / "journal.jsonl"
        paths = _journal_paths(base, run["shard_count"])
        offset = 0
        for s, path in enumerate(paths):
            count = len(run["journal_lines"][s])
            path.write_text(
                "\n".join(stripped[offset : offset + count]) + "\n",
                encoding="utf-8",
            )
            offset += count
        with pytest.raises(CacheError, match="predates replication frames"):
            recover_cache(run["checkpoint"], METHOD, journal=base)


class TestJournalFsyncConfig:
    def test_default_is_off(self):
        assert GraphCacheConfig().journal_fsync is False

    def test_fsync_propagates_to_the_journal(self, tmp_path):
        config = GraphCacheConfig(
            cache_capacity=6,
            window_size=3,
            journal_path=str(tmp_path / "journal.jsonl"),
            journal_fsync=True,
        )
        cache = build_cache(METHOD, config)
        try:
            assert cache.plan_journal.fsync is True
        finally:
            cache.close()

    def test_shards_inherit_fsync(self, tmp_path):
        config = GraphCacheConfig(
            cache_capacity=6,
            window_size=3,
            shards=2,
            journal_path=str(tmp_path / "journal.jsonl"),
            journal_fsync=True,
        )
        cache = build_cache(METHOD, config)
        try:
            assert all(shard.plan_journal.fsync for shard in cache.shards)
        finally:
            cache.close()
