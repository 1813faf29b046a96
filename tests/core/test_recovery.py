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
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.policies.journal as journal_module
import repro.core.query_index as query_index_module
import repro.core.stores as stores_module
from repro.core import (
    GraphCacheConfig,
    build_cache,
    load_cache,
    recover_cache,
    save_cache,
)
from repro.core.cache import GraphCache
from repro.core.policies import MaintenancePlan, PlanJournal
from repro.core.replication import ReplicationFrame, cache_state_digest
from repro.core.sharding import ShardedGraphCache
from repro.core.statistics import StatisticsManager
from repro.exceptions import CacheError, GraphFormatError
from repro.ftv.ggsx import GraphGrepSX
from repro.graphs.dataset import GraphDataset
from repro.graphs.generators import aids_like
from repro.graphs.graph import Graph, graph_constructions
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


def _states(checkpoint: Path):
    """The checkpoint's state records, one per shard (line 1 is the header)."""
    return [json.loads(line) for line in checkpoint.read_text().splitlines()[1:]]


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
        ("mmap", 1),
        ("mmap", 3),
    ],
    ids=["memory-1shard", "memory-3shards", "mmap-1shard", "mmap-3shards"],
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
        backend_path=str(tmp / "store") if backend == "mmap" else None,
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
    if backend == "mmap":
        # Leave a stale end-of-run arena behind: every recovery below
        # attaches it at warm start and must still land on the boundary.
        cache.seal_storage()
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
        states = _states(run["checkpoint"])
        dropped = 0
        for s, path in enumerate(_journal_paths(base, run["shard_count"])):
            watermark = states[s]["journal_round"]
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

    def test_an_undecodable_line_before_the_tail_raises(self, tmp_path):
        path = self._journal_file(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = '{"round": 3, "pay\n'
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(CacheError, match="line 3 is not a journal record"):
            PlanJournal.read_records(path)
        with pytest.raises(CacheError, match="line 3"):
            list(PlanJournal(path).stream(0))
        with pytest.raises(CacheError, match="line 3"):
            _ = PlanJournal(path).last_round  # the first use adopts the file

    @pytest.mark.parametrize("cut", [15, 1], ids=["torn-frame", "lost-newline"])
    def test_a_reopened_journal_appends_whole_lines(self, tmp_path, cut):
        """A crash tore the last append: reopening must not glue the next
        frame onto the fragment (nor onto a record that lost its newline)."""
        path = tmp_path / "journal.jsonl"
        plan = MaintenancePlan(
            current_serial=1,
            window_serials=(),
            admitted_serials=(),
            rejected_serials=(),
            evicted_serials=(),
            policy="pinc",
        )
        journal = PlanJournal(path, fsync=True)
        journal.append(plan)
        journal.append(plan)
        journal.close()
        path.write_bytes(path.read_bytes()[:-cut])
        kept = len(PlanJournal.read_records(path))
        assert kept == (1 if cut == 15 else 2)
        reopened = PlanJournal(path, fsync=True)
        reopened.append(plan)
        reopened.append(plan)
        reopened.close()
        records = PlanJournal.read_records(path)
        assert [record["round"] for record in records] == list(range(1, kept + 3))


class TestGuards:
    def test_recover_rejects_pre_v4_snapshots(self, reference_run, tmp_path):
        run = reference_run
        downgraded = tmp_path / "v3.json"
        downgraded.write_text(
            run["checkpoint"]
            .read_text(encoding="utf-8")
            .replace('"format_version":6', '"format_version":3'),
            encoding="utf-8",
        )
        with pytest.raises(CacheError, match="v6"):
            recover_cache(downgraded, METHOD)
        # A plain load rejects it too: load_cache reads v6 only.
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


# ---------------------------------------------------------------------- #
# The folded replay: a tail's net effect, one decode per line.
# ---------------------------------------------------------------------- #
def _run(config, queries, checkpoint, checkpoint_at):
    """Serve ``queries``, checkpointing before query ``checkpoint_at``.

    Returns each shard's digest at its last round boundary (the checkpoint's
    digest for a shard with no round after it): the full digest for one
    shard, the replicated one per shard otherwise (see the module notes).
    """
    cache = build_cache(METHOD, config)
    shards = _shards_of(cache)

    def digests():
        return cache_state_digest(
            cache, include_index_version=False, replicated_only=len(shards) > 1
        )

    expected = None
    rounds = [shard.plan_journal.last_round for shard in shards]
    for i, query in enumerate(queries):
        if i == checkpoint_at:
            save_cache(cache, checkpoint)
            expected = digests()
        cache.query(query)
        now = [shard.plan_journal.last_round for shard in shards]
        if expected is not None and now != rounds:
            current = digests()
            expected = [
                current[s] if now[s] != rounds[s] else expected[s]
                for s in range(len(shards))
            ]
        rounds = now
    if expected is None:
        save_cache(cache, checkpoint)
        expected = digests()
    cache.close()
    return expected


def _recovered(checkpoint, shard_count):
    cache = recover_cache(checkpoint, METHOD)
    try:
        return cache_state_digest(
            cache, include_index_version=False, replicated_only=shard_count > 1
        )
    finally:
        cache.close()


POOL = list(dict.fromkeys(_workload(count=40, seed=11)))[:10]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    capacity=st.integers(2, 5),
    window=st.integers(1, 4),
    backend=st.sampled_from(["memory", "mmap"]),
    shard_count=st.sampled_from([1, 3]),
    picks=st.lists(st.integers(0, len(POOL) - 1), min_size=4, max_size=24),
    checkpoint_at=st.integers(0, 24),
)
def test_folded_recovery_reaches_the_last_boundary(
    capacity, window, backend, shard_count, picks, checkpoint_at
):
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "checkpoint.json"
        config = GraphCacheConfig(
            cache_capacity=capacity,
            window_size=window,
            backend=backend,
            backend_path=str(Path(tmp) / "store") if backend == "mmap" else None,
            shards=shard_count,
            journal_path=str(Path(tmp) / "journal.jsonl"),
        )
        expected = _run(config, [POOL[k] for k in picks], checkpoint, checkpoint_at)
        assert _recovered(checkpoint, shard_count) == expected


def test_background_recovery_reaches_the_live_state(tmp_path):
    """Background rounds land off the query thread, with hits interleaved
    between a window's fill and its round; the last request fills a window,
    so once drained the live cache sits on a boundary recovery must reach."""
    config = GraphCacheConfig(
        cache_capacity=3,
        window_size=2,
        maintenance_mode="background",
        journal_path=str(tmp_path / "journal.jsonl"),
    )
    checkpoint = tmp_path / "checkpoint.json"
    cache = build_cache(METHOD, config)
    for i, query in enumerate(_workload(count=24, seed=5)):
        if i == 7:
            save_cache(cache, checkpoint)
        cache.query(query)
    cache.drain_maintenance()
    live = cache_state_digest(cache, include_index_version=False)
    assert cache.plan_journal.last_round == 12
    cache.close()
    assert _recovered(checkpoint, 1) == live


@pytest.mark.parametrize("backend", ["memory", "mmap"])
def test_recovery_does_storage_work_for_survivors_only(tmp_path, monkeypatch, backend):
    """A tail that admits far more entries than the cache holds: only the
    survivors are indexed, enumerated and stored."""
    journal = tmp_path / "journal.jsonl"
    config = GraphCacheConfig(
        cache_capacity=3,
        window_size=2,
        backend=backend,
        backend_path=str(tmp_path / "store") if backend == "mmap" else None,
        journal_path=str(journal),
    )
    checkpoint = tmp_path / "checkpoint.json"
    _run(config, _workload(count=40, seed=9), checkpoint, 0)
    records = PlanJournal.read_records(journal)
    admitted = sum(len(record["admitted_serials"]) for record in records)
    assert admitted >= 5 * config.cache_capacity

    enumerated = []
    real = query_index_module.extract_label_paths

    def counting(query, max_length):
        enumerated.append(query)
        return real(query, max_length)

    monkeypatch.setattr(query_index_module, "extract_label_paths", counting)
    cache = recover_cache(checkpoint, METHOD)
    try:
        survivors = len(cache.cached_serials)
        assert 0 < survivors <= config.cache_capacity
        assert cache.query_index.op_counts.adds == survivors
        assert cache.query_index.op_counts.removes == 0
        rows = cache.storage_backends()[0].op_counts
        assert (rows.rows_inserted, rows.rows_deleted) == (survivors, 0)
        assert len(enumerated) == survivors
        runtime = cache.runtime_statistics
        assert runtime.replay_rounds == len(records)
        # The replayed bytes are the journal lines' lengths.
        assert runtime.replay_bytes == sum(
            len(line) for line in journal.read_bytes().splitlines()
        )
    finally:
        cache.close()


def test_recovery_decodes_its_own_journal_once(tmp_path, monkeypatch):
    config = GraphCacheConfig(
        cache_capacity=4, window_size=2, journal_path=str(tmp_path / "journal.jsonl")
    )
    checkpoint = tmp_path / "checkpoint.json"
    _run(config, _workload(count=20), checkpoint, 9)
    rounds = len(PlanJournal.read_records(config.journal_path))
    scans = []
    real = journal_module._scan

    def counting(path):
        scans.append(path)
        return real(path)

    monkeypatch.setattr(journal_module, "_scan", counting)
    cache = recover_cache(checkpoint, METHOD)
    try:
        # The recovery read adopted the file: appending needs no second read.
        assert cache.plan_journal.last_round == rounds
        assert scans == [Path(config.journal_path)]
    finally:
        cache.close()


def test_a_torn_journal_keeps_every_later_round(tmp_path):
    """torn journal -> recover -> two more rounds -> a second recovery reads
    every round and lands on the first recovered cache's live state."""
    journal = tmp_path / "journal.jsonl"
    config = GraphCacheConfig(
        cache_capacity=6, window_size=3, journal_path=str(journal), journal_fsync=True
    )
    checkpoint = tmp_path / "checkpoint.json"
    queries = _workload(count=30)
    _run(config, queries[:13], checkpoint, 4)
    journal.write_bytes(journal.read_bytes()[:-15])  # the last append was torn
    survived = len(PlanJournal.read_records(journal))

    cache = recover_cache(checkpoint, METHOD)
    assert cache.plan_journal.last_round == survived
    for query in queries[13:]:
        cache.query(query)
        if cache.plan_journal.last_round == survived + 2:
            break
    assert cache.plan_journal.last_round == survived + 2
    live = cache_state_digest(cache, include_index_version=False)
    cache.close()

    records = PlanJournal.read_records(journal)
    assert [record["round"] for record in records] == list(range(1, survived + 3))
    assert _recovered(checkpoint, 1) == live


@pytest.mark.parametrize("backend", ["memory", "mmap"])
@pytest.mark.parametrize("shard_count", [1, 3])
def test_recovery_builds_query_graphs_for_survivors_only(
    tmp_path, monkeypatch, backend, shard_count
):
    """Every journaled entry is checked, but the journal side of a recovery
    builds one Graph per entry the tail leaves cached, and no more."""
    base = tmp_path / "journal.jsonl"
    config = GraphCacheConfig(
        cache_capacity=2,
        window_size=2,
        backend=backend,
        backend_path=str(tmp_path / "store") if backend == "mmap" else None,
        shards=shard_count,
        journal_path=str(base),
    )
    checkpoint = tmp_path / "checkpoint.json"
    _run(config, _workload(count=80, seed=9), checkpoint, 8)
    states = _states(checkpoint)
    checkpointed = {  # serials are numbered per shard
        (index, record["serial"])
        for index, shard in enumerate(states)
        for record in shard["entries"]
    }
    admitted = sum(
        len(record["admitted_serials"])
        for path, shard in zip(_journal_paths(base, shard_count), states, strict=True)
        for record in PlanJournal.read_records(path, since_round=shard["journal_round"] + 1)
    )

    built = []
    real = GraphCache.replay_frames

    def counting(self, frames):
        before = graph_constructions()
        real(self, frames)
        built.append(graph_constructions() - before)

    monkeypatch.setattr(GraphCache, "replay_frames", counting)
    cache = recover_cache(checkpoint, METHOD)
    try:
        serials = {
            (index, serial)
            for index, shard in enumerate(_shards_of(cache))
            for serial in shard.cached_serials
        }
        survivors = len(serials - checkpointed)
        assert 0 < survivors and admitted >= 4 * survivors, (admitted, survivors)
        assert len(built) == shard_count
        assert sum(built) == survivors
    finally:
        cache.close()


def _corrupt(field, record):
    if field == "query":  # still parses line by line; the edge rules reject it
        record["query"] += "e 0 0\n"
    elif field == "query_type":  # a JSON number is no graph text
        record["query"] = 7
    elif field == "vertex":
        record["query"] = record["query"].replace("v 1 ", "v one ", 1)
    elif field == "answers":
        record["answers"] = record["answers"] + ["seven"]
    else:
        record["expensiveness"] = "slow"


def _tail_with_damage(tmp_path, evicted: bool):
    """Run to a checkpoint and on; returns the checkpoint, the journal, its
    records and an entry admitted past the checkpoint that a later round
    evicts (``evicted=True``) or that survives to the end."""
    journal = tmp_path / "journal.jsonl"
    config = GraphCacheConfig(cache_capacity=3, window_size=2, journal_path=str(journal))
    checkpoint = tmp_path / "checkpoint.json"
    _run(config, _workload(count=40, seed=9), checkpoint, 4)
    since = _states(checkpoint)[0]["journal_round"]
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    gone = {s for record in records[since:] for s in record["evicted_serials"]}
    victim = next(
        entry
        for record in records[since:]
        for entry in record["admitted_entries"]
        if (entry["serial"] in gone) == evicted and "v 1 " in entry["query"]
    )
    return checkpoint, journal, records, victim


@pytest.mark.parametrize(
    "field, error",
    [
        ("query", GraphFormatError),
        ("query_type", TypeError),
        ("vertex", ValueError),
        ("answers", ValueError),
        ("expensiveness", ValueError),
    ],
)
def test_a_damaged_entry_fails_recovery_even_when_evicted(tmp_path, field, error):
    """The damaged entry is admitted and evicted inside the tail, so it never
    becomes a Graph; its check still fails the recovery closed, naming the
    journal and the round."""
    checkpoint, journal, records, victim = _tail_with_damage(tmp_path, evicted=True)
    _corrupt(field, victim)
    journal.write_text("".join(json.dumps(record) + "\n" for record in records))
    with pytest.raises(CacheError, match="journal round") as raised:
        recover_cache(checkpoint, METHOD)
    assert str(journal) in str(raised.value)
    assert isinstance(raised.value.__cause__, error)


def test_a_state_record_window_entry_with_a_non_text_query_fails_the_load(tmp_path):
    config = GraphCacheConfig(cache_capacity=3, window_size=3)
    checkpoint = tmp_path / "checkpoint.json"
    _run(config, _workload(), checkpoint, CHECKPOINT_AFTER)
    header, state = checkpoint.read_text().splitlines()
    state = json.loads(state)
    assert state["window"], "the checkpoint must sit mid-window"
    state["window"][0]["query"] = 7
    checkpoint.write_text(header + "\n" + json.dumps(state) + "\n")
    with pytest.raises(CacheError, match="shard 0's state \\(line 2\\)") as raised:
        load_cache(checkpoint, METHOD)
    assert str(checkpoint) in str(raised.value)
    assert isinstance(raised.value.__cause__, TypeError)


def test_an_answer_outside_the_dataset_fails_recovery(tmp_path):
    """A surviving entry that answers a graph id past the dataset would be
    served as an answer; the frame decode rejects it."""
    checkpoint, journal, records, victim = _tail_with_damage(tmp_path, evicted=False)
    victim["answers"] = [len(DATASET) * 100_000]
    journal.write_text("".join(json.dumps(record) + "\n" for record in records))
    with pytest.raises(CacheError, match=f"outside the dataset's {len(DATASET)} graphs"):
        recover_cache(checkpoint, METHOD)


def test_a_label_with_whitespace_survives_the_journal(tmp_path):
    """``"N H"`` and ``"N"`` are different labels after a recovery too."""
    dataset = GraphDataset(
        [
            Graph(["N H", "C", "O"], [(0, 1), (1, 2)]),
            Graph(["N", "C", "O"], [(0, 1), (1, 2)]),
        ]
    )
    method = GraphGrepSX(dataset)
    config = GraphCacheConfig(
        cache_capacity=5, window_size=1, journal_path=str(tmp_path / "journal.jsonl")
    )
    checkpoint = tmp_path / "checkpoint.json"
    cache = GraphCache(method, config)
    save_cache(cache, checkpoint)
    assert cache.query(Graph(["N H", "C"], [(0, 1)])).answer_ids == {0}
    live = cache_state_digest(cache, include_index_version=False)
    cache.close()

    recovered = recover_cache(checkpoint, method)
    try:
        assert cache_state_digest(recovered, include_index_version=False) == live
        query = Graph(["N", "C"], [(0, 1)])
        expected = {
            graph_id
            for graph_id in method.candidates(query)
            if method.verify(query, graph_id).matched
        }
        assert expected == {1}
        assert recovered.query(query).answer_ids == expected
    finally:
        recovered.close()


# ---------------------------------------------------------------------- #
# One start per cache; one parse per distinct entry text.
# ---------------------------------------------------------------------- #
def _sealed_run(config, queries, checkpoint, checkpoint_at):
    """Serve ``queries`` with a snapshot before query ``checkpoint_at``, then
    seal the mmap arena the restored caches open and close the cache."""
    cache = build_cache(METHOD, config)
    for i, query in enumerate(queries):
        if i == checkpoint_at:
            save_cache(cache, checkpoint)
        cache.query(query)
    cache.seal_storage()
    serials = [list(shard.cached_serials) for shard in _shards_of(cache)]
    cache.close()
    return serials


@pytest.mark.parametrize("shard_count", [1, 3])
def test_a_restored_cache_starts_once(tmp_path, monkeypatch, shard_count):
    """Over a sealed arena, ``load_cache`` and ``recover_cache`` start each
    shard from its state record alone: one GCindex rebuild, one statistics
    rebuild, the record's entries plus the tail's survivors indexed.  A plain
    reopen of the same arena still warm-starts from it."""
    config = GraphCacheConfig(
        cache_capacity=3,
        window_size=2,
        backend="mmap",
        backend_path=str(tmp_path / "store"),
        shards=shard_count,
        journal_path=str(tmp_path / "journal.jsonl"),
    )
    checkpoint = tmp_path / "checkpoint.json"
    sealed = _sealed_run(config, _workload(count=40, seed=9), checkpoint, 20)
    assert all(sealed), sealed
    states = _states(checkpoint)
    rebuilt = []
    real = StatisticsManager.rebuild

    def counting(self, rows):
        rebuilt.append(self)
        real(self, rows)

    monkeypatch.setattr(StatisticsManager, "rebuild", counting)
    for load in (load_cache, recover_cache):
        rebuilt.clear()
        cache = load(checkpoint, METHOD)
        try:
            shards = _shards_of(cache)
            assert sorted(map(id, rebuilt)) == sorted(id(s.statistics_manager) for s in shards)
            for shard, state in zip(shards, states, strict=True):
                restored = {record["serial"] for record in state["entries"]}
                survivors = set(shard.cached_serials) - restored
                if load is load_cache:
                    assert not survivors
                counts = shard.query_index.op_counts
                assert counts.rebuilds == 1
                assert counts.adds == len(restored) + len(survivors)
        finally:
            cache.close()

    rebuilt.clear()
    cache = build_cache(METHOD, config)  # no snapshot: the arena's contents
    try:
        shards = _shards_of(cache)
        assert [list(shard.cached_serials) for shard in shards] == sealed
        assert len(rebuilt) == shard_count
        for shard, serials in zip(shards, sealed, strict=True):
            assert shard.query_index.op_counts.rebuilds == 1
            assert shard.query_index.op_counts.adds == len(serials)
            assert sorted(shard.statistics_manager.known_serials()) == sorted(serials)
    finally:
        cache.close()


def _repeating_tail(tmp_path):
    """A journal tail whose admitted entries repeat texts: two slots, a
    window of one (so the checkpoint holds no window) and a pool of five
    queries.  Returns the checkpoint, the journal, its records, the
    watermark and the tail's admitted texts in order."""
    journal = tmp_path / "journal.jsonl"
    config = GraphCacheConfig(cache_capacity=2, window_size=1, journal_path=str(journal))
    checkpoint = tmp_path / "checkpoint.json"
    picks = [POOL[k % 5] for k in (0, 1, 2, 3, 4, 2, 0, 3, 1, 4, 0, 2, 4, 1, 3, 0, 1, 2)]
    _run(config, picks, checkpoint, 2)
    since = _states(checkpoint)[0]["journal_round"]
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    texts = [entry["query"] for record in records[since:] for entry in record["admitted_entries"]]
    assert len(set(texts)) < len(texts), texts
    return checkpoint, journal, records, since, texts


def _occurrences(records, since, text):
    """``(round, entry)`` of every tail entry admitted with ``text``."""
    return [
        (record["round"], entry)
        for record in records[since:]
        for entry in record["admitted_entries"]
        if entry["query"] == text
    ]


def _repeated(records, since, texts):
    text = next(text for text in texts if texts.count(text) > 1)
    return _occurrences(records, since, text)


def test_a_damaged_first_occurrence_of_a_text_fails_its_round(tmp_path):
    checkpoint, journal, records, since, texts = _repeating_tail(tmp_path)
    (first_round, first), *_ = _repeated(records, since, texts)
    first["query"] += "e 0 0\n"
    journal.write_text("".join(json.dumps(record) + "\n" for record in records))
    with pytest.raises(CacheError, match=f"journal round {first_round} is damaged") as raised:
        recover_cache(checkpoint, METHOD)
    assert isinstance(raised.value.__cause__, GraphFormatError)


def test_a_repeated_text_keeps_the_answer_check_of_every_record(tmp_path):
    checkpoint, journal, records, since, texts = _repeating_tail(tmp_path)
    _, (later_round, later), *_ = _repeated(records, since, texts)
    later["answers"] = [len(DATASET)]
    journal.write_text("".join(json.dumps(record) + "\n" for record in records))
    with pytest.raises(CacheError, match=f"journal round {later_round} is damaged") as raised:
        recover_cache(checkpoint, METHOD)
    assert f"outside the dataset's {len(DATASET)} graphs" in str(raised.value)


def test_a_recovery_parses_each_distinct_entry_text_once(tmp_path, monkeypatch):
    checkpoint, _, _, _, texts = _repeating_tail(tmp_path)
    parsed = []
    real = stores_module.parse_graph_text

    def counting(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(stores_module, "parse_graph_text", counting)

    def recovered():
        cache = recover_cache(checkpoint, METHOD)
        try:
            return cache_state_digest(cache, include_index_version=False)
        finally:
            cache.close()

    digest = recovered()
    assert sorted(parsed) == sorted(set(texts))
    parsed.clear()
    assert recovered() == digest  # the memo lives for one stream: parsed afresh
    assert sorted(parsed) == sorted(set(texts))

    parsed.clear()
    from_record = ReplicationFrame.from_record

    def with_a_small_memo(record, size_bytes, size, memo):
        memo.limit = 2  # the stream's own memo instance
        return from_record(record, size_bytes, size, memo)

    monkeypatch.setattr(ReplicationFrame, "from_record", with_a_small_memo)
    assert recovered() == digest
    assert len(set(texts)) < len(parsed) <= len(texts)  # cleared, parsed again
