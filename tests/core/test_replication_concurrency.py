"""Journal-driven read replicas: identity, lag metrics, fan-out modes.

The invariant these tests pin: after :meth:`ReplicaSet.sync`, a follower
that applied a shard's rounds ``1..k`` holds *exactly* that shard's state
at round ``k``'s boundary — entries, per-query statistics, window, serial
counter and GCindex publication version all byte-identical (followers
apply from scratch, so even the publication counter matches; recovery is
the case that cannot pin it).  Between a shard's boundaries only the
primary moves (window fills, hits buffer for the next frame), so the
boundary is where the comparison happens — after every round for the
single-shard cache, per-shard as each shard's journal grows when sharded.

The module name carries ``concurrency`` so the suite runs under the CI
lock-sanitizer job alongside the scheduler/sharding concurrency tests.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.core import GraphCacheConfig, build_cache
from repro.core.replication import CacheReplica, ReplicaSet, ReplicationFrame
from repro.core.sharding import ShardedGraphCache
from repro.exceptions import CacheError
from repro.graphs.generators import aids_like
from repro.methods import SIMethod
from repro.workloads import generate_type_a

DATASET = aids_like(scale=0.05, seed=3)
METHOD = SIMethod(DATASET, matcher="vf2plus")

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="process-mode replication requires the fork start method"
)


def _workload(count: int = 30, seed: int = 7):
    return list(
        generate_type_a(DATASET, "ZZ", count, query_sizes=(3, 5, 8), seed=seed)
    )


def _config(**overrides) -> GraphCacheConfig:
    return GraphCacheConfig(
        **{"cache_capacity": 6, "window_size": 3, "maintenance_mode": "sync", **overrides}
    )


def _primary(**overrides):
    return build_cache(METHOD, _config(**overrides))


def _shards_of(cache):
    return cache.shards if isinstance(cache, ShardedGraphCache) else (cache,)


class TestBoundaryIdentity:
    def test_every_round_boundary_is_identical(self):
        primary = _primary()
        with ReplicaSet(primary, replicas=2) as replica_set:
            rounds_checked = 0
            last_round = 0
            for query in _workload():
                primary.query(query)
                if primary.plan_journal.last_round == last_round:
                    continue
                last_round = primary.plan_journal.last_round
                replica_set.sync()
                expected = replica_set.primary_digest()
                for digest in replica_set.replica_digests():
                    assert digest == expected
                rounds_checked += 1
            assert rounds_checked == 10  # 30 queries / window of 3
        primary.close()

    def test_sharded_boundaries_are_identical_per_shard(self):
        primary = _primary(shards=3)
        with ReplicaSet(primary, replicas=2) as replica_set:
            shards = _shards_of(primary)
            counts = [0] * len(shards)
            rounds_checked = 0
            for query in _workload():
                primary.query(query)
                grown = [
                    s
                    for s, shard in enumerate(shards)
                    if shard.plan_journal.last_round != counts[s]
                ]
                if not grown:
                    continue
                for s in grown:
                    counts[s] = shards[s].plan_journal.last_round
                replica_set.sync()
                expected = replica_set.primary_digest()
                for digest in replica_set.replica_digests():
                    for s in grown:
                        assert digest[s] == expected[s], f"shard {s}"
                rounds_checked += len(grown)
            assert rounds_checked == sum(counts) > 0
        primary.close()

    def test_replicated_entries_match_even_mid_window(self):
        # One extra query leaves the primary mid-window: the full digest
        # legitimately differs (window + serial), but the entries a replica
        # serves from are identical at every instant.
        primary = _primary()
        with ReplicaSet(primary, replicas=1) as replica_set:
            for query in _workload(count=31):
                primary.query(query)
            replica_set.sync()
            assert replica_set.primary_digest() != replica_set.replica_digests()[0]
            primary_entries = [
                digest["entries"]
                for digest in replica_set.primary_digest(replicated_only=True)
            ]
            replica_entries = [
                digest["entries"]
                for digest in replica_set.replica_digests(replicated_only=True)[0]
            ]
            assert primary_entries == replica_entries
        primary.close()


class TestReadPath:
    def test_replica_lookup_matches_primary_lookup(self):
        primary = _primary()
        with ReplicaSet(primary, replicas=2) as replica_set:
            workload = _workload()
            for query in workload:
                primary.query(query)
            replica_set.sync()
            for query in workload[:6]:
                assert replica_set.lookup(query) == primary.lookup(query)
        primary.close()

    def test_lookup_round_robins_over_replicas(self):
        primary = _primary()
        with ReplicaSet(primary, replicas=2) as replica_set:
            for query in _workload(count=6):
                primary.query(query)
            replica_set.sync()
            before = [f.statistics() for f in replica_set._followers]
            query = _workload(count=1, seed=11)[0]
            replica_set.lookup(query)
            replica_set.lookup(query)
            assert replica_set._cursor == 2  # one lookup per follower
            # Lookups never mutate replica state, so the digests still
            # match the primary.
            assert replica_set.replica_digests() == [
                replica_set.primary_digest()
            ] * 2
            after = [f.statistics() for f in replica_set._followers]
            assert before == after
        primary.close()


class TestLagStatistics:
    def test_synced_set_reports_zero_lag(self):
        primary = _primary()
        with ReplicaSet(primary, replicas=2) as replica_set:
            for query in _workload():
                primary.query(query)
            replica_set.sync()
            stats = replica_set.replication_statistics()
            assert [s["replica"] for s in stats] == ["replica-0", "replica-1"]
            for entry in stats:
                assert entry["mode"] == "thread"
                assert entry["rounds_shipped"] == 10
                assert entry["rounds_applied"] == 10
                assert entry["rounds_behind"] == 0
                assert entry["bytes_shipped"] == entry["bytes_applied"] > 0
                assert entry["apply_time_s"] >= 0.0
        primary.close()


@needs_fork
class TestProcessMode:
    def test_forked_followers_reach_identity(self):
        primary = _primary()
        with ReplicaSet(primary, replicas=2, mode="process") as replica_set:
            workload = _workload()
            for query in workload:
                primary.query(query)
            replica_set.sync()
            expected = replica_set.primary_digest()
            for digest in replica_set.replica_digests():
                assert digest == expected
            for query in workload[:3]:
                assert replica_set.lookup(query) == primary.lookup(query)
            stats = replica_set.replication_statistics()
            assert all(entry["rounds_behind"] == 0 for entry in stats)
            assert all(entry["mode"] == "process" for entry in stats)
        primary.close()


def _follow_boundaries(primary, replica_set, queries):
    """Serve ``queries`` on the primary; at each shard's round boundary the
    followers hold that shard's replicated state.  Returns rounds checked."""
    shards = _shards_of(primary)
    counts = [shard.plan_journal.last_round for shard in shards]
    checked = 0
    for query in queries:
        primary.query(query)
        grown = [s for s, shard in enumerate(shards) if shard.plan_journal.last_round != counts[s]]
        if not grown:
            continue
        for s in grown:
            counts[s] = shards[s].plan_journal.last_round
        replica_set.sync()
        expected = replica_set.primary_digest(replicated_only=True)
        for digest in replica_set.replica_digests(replicated_only=True):
            for s in grown:
                assert digest[s] == expected[s], f"shard {s}"
        checked += len(grown)
    return checked


class TestLateFollower:
    """A follower attached to a warm primary starts from each shard's state
    record and replicates forward from the frames past its watermark."""

    @pytest.mark.parametrize("mode", ["thread", pytest.param("process", marks=needs_fork)])
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("attach_after", [12, 13], ids=["boundary", "mid-window"])
    def test_attach_after_rounds_reaches_identity(self, mode, shards, attach_after):
        primary = _primary(shards=shards)
        workload = _workload()
        for query in workload[:attach_after]:
            primary.query(query)
        assert sum(shard.plan_journal.last_round for shard in _shards_of(primary)) >= 2
        if shards == 1 and attach_after == 13:
            assert primary.maintenance_engine.state_record()["pending_hits"]
        with ReplicaSet(primary, replicas=2, mode=mode) as replica_set:
            replica_set.sync()
            expected = replica_set.primary_digest(replicated_only=True)
            assert replica_set.replica_digests(replicated_only=True) == [expected] * 2
            assert _follow_boundaries(primary, replica_set, workload[attach_after:]) > 0
            for query in workload[:6]:
                assert replica_set.lookup(query) == primary.lookup(query)
        primary.close()

    def test_attach_while_the_primary_serves_in_the_background(self):
        primary = _primary(maintenance_mode="background")
        workload = _workload()
        started = threading.Event()

        def serve():
            for index, query in enumerate(workload):
                primary.query(query)
                if index == 8:
                    started.set()

        server = threading.Thread(target=serve)
        server.start()
        try:
            started.wait(timeout=60)
            replica_set = ReplicaSet(primary, replicas=1)
        finally:
            server.join(timeout=60)
        with replica_set:
            primary.drain_maintenance()
            replica_set.sync()
            # 30 requests fill 10 windows: the last round took every hit.
            assert primary.plan_journal.last_round == 10
            assert replica_set.replica_digests(replicated_only=True) == [
                replica_set.primary_digest(replicated_only=True)
            ]
        primary.close()


class TestGuards:
    def test_replica_count_and_mode_validated(self):
        primary = _primary()
        try:
            with pytest.raises(CacheError, match="at least one replica"):
                ReplicaSet(primary, replicas=0)
            with pytest.raises(CacheError, match="unknown replication mode"):
                ReplicaSet(primary, replicas=1, mode="carrier-pigeon")
        finally:
            primary.close()

    def test_audit_only_records_cannot_become_frames(self):
        primary = _primary()
        try:
            for query in _workload(count=3):
                primary.query(query)
            record = dict(primary.plan_journal.records()[0])
            assert record["admitted_serials"]
            record.pop("admitted_entries")
            with pytest.raises(CacheError, match="predates replication frames"):
                ReplicationFrame.from_record(record, 0, len(DATASET))
        finally:
            primary.close()

    def test_detached_set_stops_shipping(self):
        primary = _primary()
        replica_set = ReplicaSet(primary, replicas=1)
        for query in _workload(count=6):
            primary.query(query)
        replica_set.sync()
        applied = replica_set.replication_statistics()[0]["rounds_applied"]
        replica_set.close()
        for query in _workload(count=6, seed=11):
            primary.query(query)
        assert primary.plan_journal.last_round > applied
        primary.close()


class TestCacheReplica:
    def test_follower_config_never_journals_or_persists(self, tmp_path):
        config = GraphCacheConfig(
            cache_capacity=6,
            window_size=3,
            maintenance_mode="background",
            journal_path=str(tmp_path / "journal.jsonl"),
            journal_fsync=True,
        )
        replica = CacheReplica(METHOD, config)
        try:
            follower = replica.cache.config
            assert follower.journal_path is None
            assert follower.journal_fsync is False
            assert follower.backend == "memory"
            assert follower.maintenance_mode == "sync"
        finally:
            replica.close()
