"""An exact hit credits the entry it hit; the cache never holds two copies.

The Window counts *requests*: every ``window_size`` committed requests fire
one maintenance round, but only new structures wait in the window.  An exact
hit on a cached entry is credited to that entry (statistics + utility heap)
and nothing else; a repeat of a structure already waiting folds into the
waiting entry.  These tests pin both rules, the round cadence they keep (a
window of nothing but hits still journals one frame, carrying its hit
events), and the restart contract that depends on the persisted request
count.
"""

from __future__ import annotations

import threading
from itertools import combinations

import pytest

from repro.core import GraphCacheConfig, recover_cache, save_cache
from repro.core.cache import GraphCache
from repro.core.policies import PlanJournal
from repro.core.replication import ReplicationFrame, cache_state_digest
from repro.ftv.ggsx import GraphGrepSX
from repro.graphs.generators import aids_like
from repro.graphs.packed import PackedGraphView
from repro.methods import SIMethod
from repro.workloads import generate_type_a

from ..isomorphism.helpers import networkx_is_subgraph

DATASET = aids_like(scale=0.05, seed=3)
METHOD = SIMethod(DATASET, matcher="vf2plus")


def _distinct(count, seed=3):
    queries = list(
        dict.fromkeys(generate_type_a(DATASET, "UU", 4 * count, query_sizes=(3, 5), seed=seed))
    )
    return queries[:count]


def _digest(cache):
    """The full state digest: no field is a clock reading, so two runs of
    one stream agree on all of it."""
    (digest,) = cache_state_digest(cache, include_index_version=False)
    return digest


def _warm(window_size=3):
    """A cache whose first round admitted three distinct structures."""
    cache = GraphCache(
        METHOD, GraphCacheConfig(cache_capacity=6, window_size=window_size)
    )
    queries = _distinct(window_size)
    results = [cache.query(query) for query in queries]
    assert len(cache) == window_size and not cache.window_entries()
    return cache, queries, [r.serial for r in results]


def test_exact_hit_credits_the_hit_entry_and_adds_nothing():
    cache, queries, serials = _warm()
    stats = cache.statistics_manager
    before = stats.snapshot(serials[0])
    rows = sorted(stats.known_serials())

    result = cache.query(queries[0])

    assert result.shortcut == "exact"
    assert cache.window_entries() == []
    assert sorted(stats.known_serials()) == rows  # no row for the request
    after = stats.snapshot(serials[0])
    assert after.hits == before.hits + 1
    assert after.special_hits == before.special_hits + 1
    assert after.last_hit_serial == result.serial
    # It still counts toward the round.
    assert cache.window_manager.state_record()["window_requests"] == 1
    cache.close()


def test_a_window_of_exact_hits_journals_one_frame_with_its_hits():
    cache, queries, serials = _warm()
    rounds = cache.plan_journal.last_round

    results = [cache.query(query) for query in queries]

    assert [r.shortcut for r in results] == ["exact"] * len(queries)
    assert cache.plan_journal.last_round == rounds + 1
    frame = cache.plan_journal.records()[-1]
    assert frame["window_serials"] == frame["admitted_serials"] == []
    assert frame["evicted_serials"] == []
    assert frame["current_serial"] == results[-1].serial
    assert [(hit[0], hit[1]) for hit in frame["hits"]] == [
        (serial, r.serial) for serial, r in zip(serials, results, strict=True)
    ]
    # The frame is complete: a follower replaying the journal lands on the
    # primary's state, hit statistics included.
    follower = GraphCache(METHOD, cache.config)
    for record in cache.plan_journal.records():  # one frame at a time, as followers do
        # The size only feeds the replay byte counter, which is not digested.
        follower.replay_frames([ReplicationFrame.from_record(record, 0, len(METHOD.dataset))])
    assert cache_state_digest(follower, replicated_only=True) == cache_state_digest(
        cache, replicated_only=True
    )
    follower.close()
    cache.close()


def test_two_requests_with_one_structure_in_a_window_admit_once():
    cache = GraphCache(METHOD, GraphCacheConfig(cache_capacity=6, window_size=4))
    a, b = _distinct(2)
    packed_a = PackedGraphView(a.to_packed())
    results = [cache.query(q) for q in (a, a, packed_a, b)]

    assert results[1].shortcut is None  # not cached yet: executed in full
    (report,) = cache.window_manager.reports
    assert report.plan.window_serials == (results[0].serial, results[3].serial)
    assert report.admitted_serials == (results[0].serial, results[3].serial)
    assert sorted(cache.cached_serials) == [results[0].serial, results[3].serial]
    for folded in results[1:3]:
        assert folded.serial not in cache.statistics_manager.known_serials()
    cache.close()


def test_admission_still_calibrates_over_every_request():
    """Credited and folded requests are not candidates, but they stay in the
    calibration sample: the threshold is a quantile over the request stream,
    as before, not over the (fewer, costlier) new structures alone."""
    cache = GraphCache(
        METHOD,
        GraphCacheConfig(
            cache_capacity=6,
            window_size=3,
            admission_control=True,
        ),
    )
    a, b, c = _distinct(3)
    # Window 1: a, a (folds), b.  Window 2: a, b (exact hits), c.
    results = [cache.query(q) for q in (a, a, b, a, b, c)]
    assert [r.shortcut for r in results[3:5]] == ["exact", "exact"]
    controller = cache.maintenance_engine.admission
    assert controller.calibrated
    assert len(controller.state_record()["observed_scores"]) == len(results)
    assert [len(r.plan.window_serials) for r in cache.window_manager.reports] == [2, 1]
    cache.close()


def test_a_late_background_round_calibrates_on_its_own_window_only():
    """The samples of credited and folded requests travel with their round,
    so a round decided after the next window started still calibrates on
    exactly its own window's requests."""
    cache = GraphCache(
        METHOD,
        GraphCacheConfig(
            cache_capacity=6,
            window_size=3,
            maintenance_mode="background",
            admission_control=True,
        ),
    )
    engine = cache.maintenance_engine
    controller = engine.admission
    decide, release, observed = engine.decide, threading.Event(), []

    def held_decide(*args, **kwargs):
        assert release.wait(timeout=30)
        plan = decide(*args, **kwargs)
        observed.append(len(controller.state_record()["observed_scores"]))
        return plan

    engine.decide = held_decide
    a, b, c = _distinct(3)
    for query in (a, a, b):  # window 1: two entries and one folded repeat
        cache.query(query)
    for query in (c, c):  # window 2 starts (one more folded repeat) meanwhile
        cache.query(query)
    release.set()
    cache.drain_maintenance()
    assert observed == [3]
    assert cache.window_manager.state_record()["window_requests"] == 2
    assert len(cache.window_manager.state_record()["window_sampled"]) == 1
    cache.close()


@pytest.mark.parametrize("mode", ["sync", "barrier"])
@pytest.mark.parametrize("frames_after_snapshot", [False, True], ids=["none", "some"])
def test_recovered_mid_window_cache_serves_on_digest_for_digest(
    tmp_path, mode, frames_after_snapshot
):
    window = 4
    stream = list(generate_type_a(DATASET, "ZZ", 48, query_sizes=(3, 5, 8), seed=7))

    def config(directory):
        directory.mkdir()
        return GraphCacheConfig(
            cache_capacity=6,
            window_size=window,
            maintenance_mode=mode,
            journal_path=str(directory / "journal.jsonl"),
        )

    reference = GraphCache(METHOD, config(tmp_path / "reference"))
    digests, behind = [], []
    for query in stream:
        reference.query(query)
        digests.append(_digest(reference))
        requests = reference.window_manager.state_record()["window_requests"]
        behind.append(requests > len(reference.window_entries()) > 0)
    reference.close()
    # Snapshot where the window has counted more requests than it holds:
    # only a persisted request count fires the next round on time.
    snap = next(i for i in range(len(stream) // 3, len(stream)) if behind[i])
    crash = snap + (2 * window + 1 if frames_after_snapshot else 0)

    live = GraphCache(METHOD, config(tmp_path / "live"))
    for query in stream[: snap + 1]:
        live.query(query)
    save_cache(live, tmp_path / "snapshot.json")
    for query in stream[snap + 1 : crash + 1]:
        live.query(query)
    live.close()

    recovered = recover_cache(
        tmp_path / "snapshot.json", METHOD, tmp_path / "live" / "journal.jsonl"
    )
    resume = recovered.current_serial  # requests the recovered state covers
    assert (resume > snap + 1) == frames_after_snapshot
    assert _digest(recovered) == digests[resume - 1]
    for position in range(resume, len(stream)):
        recovered.query(stream[position])
        assert _digest(recovered) == digests[position], f"diverged at {position + 1}"
    recovered.close()
    # The journal the live and the recovered cache wrote together is the
    # uninterrupted one, frame for frame: same rounds, same decisions, and
    # the hits absorbed before the snapshot still ride in their frame.
    frames = [
        [
            (r["round"], r["window_serials"], r["admitted_serials"], r["hits"])
            for r in PlanJournal.read_records(path / "journal.jsonl")
        ]
        for path in (tmp_path / "reference", tmp_path / "live")
    ]
    assert frames[0] == frames[1]


def test_no_two_cached_entries_are_equivalent_after_the_pool_stream():
    from benchmarks.e2e.workloads import RUN_SECONDS, SPECS, build_dataset, generate

    spec = SPECS["aids_pool_hit"]
    stream = generate(spec, 1, RUN_SECONDS)
    cache = GraphCache(
        GraphGrepSX(build_dataset(spec.dataset)), GraphCacheConfig(**spec.config)
    )
    for query in stream.warmup + stream.measured:
        cache.query(query)
    held = [cache.cached_entry(serial).query for serial in cache.cached_serials]
    cache.close()

    assert len(held) == spec.config["cache_capacity"]
    assert len(set(held)) == len(held), "two cached entries are Graph-equal"
    isomorphic = [
        (a, b)
        for a, b in combinations(held, 2)
        if (a.order, a.size) == (b.order, b.size) and networkx_is_subgraph(a, b)
    ]
    assert isomorphic == []
