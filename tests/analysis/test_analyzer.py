"""Tests for the static analyzer: golden fixtures, suppressions, the gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis.rules import TRACKED_MUTATORS
from repro.analysis.run import analyze_paths, main
from repro.cli.main import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE = Path(repro.__file__).resolve().parent


def findings_of(*names: str):
    findings, _models = analyze_paths([FIXTURES / name for name in names])
    return findings


class TestGoldenFixtures:
    """Each fixture violates exactly one rule exactly once."""

    @pytest.mark.parametrize(
        ("fixture", "rule", "needle"),
        [
            ("repro001_rank.py", "REPRO001", "hierarchy"),
            ("repro001_raw_lock.py", "REPRO001", "raw threading"),
            ("repro002_blocking.py", "REPRO002", "GC lock"),
            ("repro003_decide.py", "REPRO003", "decide()"),
            ("repro004_view.py", "REPRO004", "IndexView"),
            ("repro006_store.py", "REPRO006", "store lock"),
            ("repro007_packed.py", "REPRO007", "PackedGraph"),
            ("repro007_view.py", "REPRO007", "PackedGraph"),
            ("repro008_replica.py", "REPRO008", "delta path"),
            ("repro008_restore.py", "REPRO008", "delta path"),
        ],
    )
    def test_exactly_one_finding(self, fixture, rule, needle):
        findings = findings_of(fixture)
        assert [f.rule for f in findings] == [rule]
        assert needle in findings[0].message

    def test_cycle_fixture_reports_order_cycle(self):
        findings = findings_of("repro001_cycle.py")
        assert [f.rule for f in findings] == ["REPRO001"]
        assert "cycle" in findings[0].message

    def test_transitive_blocking_names_the_chain(self):
        (finding,) = findings_of("repro002_blocking.py")
        assert "_checkpoint" in finding.message

    def test_decide_finding_names_the_call_path(self):
        (finding,) = findings_of("repro003_decide.py")
        assert "StatisticsManager.remove" in finding.message

    def test_replica_finding_names_the_call_path(self):
        (finding,) = findings_of("repro008_replica.py")
        assert "CacheStore.add" in finding.message
        assert "_install" in finding.message

    def test_a_side_route_beside_the_sanctioned_restore_is_reported(self):
        (finding,) = findings_of("repro008_restore.py")
        assert finding.symbol == "LateReplica.apply_frame:CacheStore.add"
        assert "_backfill" in finding.message


def _view_write_module(comment_above: str = "", comment_inline: str = "") -> str:
    """A module that writes through a pinned IndexView once (REPRO004)."""
    above = f"            {comment_above}\n" if comment_above else ""
    return (
        "class Writer:\n"
        "    def violate(self, index):\n"
        "        with index.view() as snapshot:\n"
        f"{above}"
        f"            snapshot._buffer.exact[None] = 0{comment_inline}\n"
    )


class TestSuppressions:
    def test_unsuppressed_view_write_is_reported(self, tmp_path):
        module = tmp_path / "unsuppressed.py"
        module.write_text(_view_write_module())
        findings, _ = analyze_paths([module])
        assert [f.rule for f in findings] == ["REPRO004"]

    def test_allow_comment_on_same_line(self, tmp_path):
        module = tmp_path / "suppressed.py"
        module.write_text(
            _view_write_module(comment_inline="  # repro: allow[REPRO004] test-only write")
        )
        findings, _ = analyze_paths([module])
        assert findings == []

    def test_allow_comment_on_preceding_line(self, tmp_path):
        module = tmp_path / "suppressed.py"
        module.write_text(
            _view_write_module(comment_above="# repro: allow[REPRO004] test-only write")
        )
        findings, _ = analyze_paths([module])
        assert findings == []

    def test_allow_for_other_rule_does_not_suppress(self, tmp_path):
        module = tmp_path / "unsuppressed.py"
        module.write_text(_view_write_module(comment_above="# repro: allow[REPRO001] wrong rule"))
        findings, _ = analyze_paths([module])
        assert [f.rule for f in findings] == ["REPRO004"]

    def test_lock_hint_names_a_dynamic_lock(self, tmp_path):
        module = tmp_path / "hinted.py"
        module.write_text(
            "class Hinted:\n"
            "    def run(self, lock):\n"
            "        with lock:  # repro: lock[stats]\n"
            "            with lock:  # repro: lock[gc]\n"
            "                pass\n"
        )
        findings, _ = analyze_paths([module])
        assert [f.rule for f in findings] == ["REPRO001"]
        assert "'gc'" in findings[0].message


class TestTrackedMutators:
    """The mutator table names real methods, so REPRO003/REPRO008 see them."""

    @staticmethod
    def _classes():
        from repro.core.backends import InMemoryBackend, MmapBackend
        from repro.core.query_index import QueryGraphIndex
        from repro.core.statistics import StatisticsManager
        from repro.core.stores import CacheStore, WindowStore

        return {
            cls.__name__: cls
            for cls in (
                CacheStore,
                WindowStore,
                QueryGraphIndex,
                StatisticsManager,
                InMemoryBackend,
                MmapBackend,
            )
        }

    @pytest.mark.parametrize("type_name", sorted(TRACKED_MUTATORS))
    def test_every_mutator_is_a_method_of_its_class(self, type_name):
        cls = self._classes()[type_name]
        missing = sorted(
            name
            for name in TRACKED_MUTATORS[type_name]
            if not callable(getattr(cls, name, None))
        )
        assert missing == [], f"{type_name} has no {missing}"

    def test_the_statistics_home_is_tracked(self):
        assert {"add", "remove", "rebuild", "record_hit"} <= TRACKED_MUTATORS["StatisticsManager"]
        assert set(TRACKED_MUTATORS) == set(self._classes())


class TestReplicaApplyPath:
    """REPRO008 follows the real replica's union-typed ``target``."""

    REPLICATION = PACKAGE / "core" / "replication.py"
    REPLAY = "        target.replay_frames((frame,))\n"

    def _findings(self, tmp_path, extra: str = ""):
        source = self.REPLICATION.read_text(encoding="utf-8")
        assert source.count(self.REPLAY) == 1
        module = tmp_path / "replication.py"
        module.write_text(source.replace(self.REPLAY, self.REPLAY + extra))
        others = [path for path in PACKAGE.rglob("*.py") if path != self.REPLICATION]
        findings, _ = analyze_paths([module, *others])
        return [finding for finding in findings if finding.rule == "REPRO008"]

    def test_the_real_apply_frame_only_replays(self, tmp_path):
        assert self._findings(tmp_path) == []

    def test_an_index_delta_beside_the_replay_is_reported(self, tmp_path):
        extra = "        target.query_index.apply_delta(removals=frame.plan.evicted_serials)\n"
        (finding,) = self._findings(tmp_path, extra)
        assert finding.symbol == "CacheReplica.apply_frame:QueryGraphIndex.apply_delta"

    def test_a_local_bound_in_both_branches_has_both_types(self, tmp_path):
        module = tmp_path / "union_replica.py"
        module.write_text(
            "from typing import Tuple\n\n\n"
            "class CacheStore:\n"
            "    def add(self, entry) -> None:\n"
            "        pass\n\n\n"
            "class WindowStore:\n"
            "    def add(self, entry) -> None:\n"
            "        pass\n\n\n"
            "class Shards:\n"
            "    @property\n"
            "    def stores(self) -> Tuple[CacheStore, ...]:\n"
            "        return ()\n\n\n"
            "class UnionReplica:\n"
            "    def __init__(self, shards: Shards, window: WindowStore) -> None:\n"
            "        self._shards = shards\n"
            "        self._window = window\n\n"
            "    def apply_frame(self, shard: int, frame) -> None:\n"
            "        if shard:\n"
            "            target = self._shards.stores[shard]\n"
            "        else:\n"
            "            target = self._window\n"
            "        target.add(frame)\n"
        )
        findings, _ = analyze_paths([module])
        assert sorted(finding.symbol for finding in findings) == [
            "UnionReplica.apply_frame:CacheStore.add",
            "UnionReplica.apply_frame:WindowStore.add",
        ]


class TestRepoGate:
    def test_repo_is_clean(self):
        findings, _ = analyze_paths([PACKAGE])
        assert findings == [], [f.message for f in findings]

    def test_main_exits_zero_on_repo(self, capsys):
        assert main([]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_main_exits_nonzero_on_fixture(self, capsys):
        assert main([str(FIXTURES / "repro006_store.py"), "--no-baseline"]) == 1
        assert "REPRO006" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(
            [str(FIXTURES / "repro004_view.py"), "--format", "json",
             "--no-baseline"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "REPRO004"

    def test_baseline_accepts_known_findings(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        fixture = str(FIXTURES / "repro006_store.py")
        assert main([fixture, "--baseline", str(baseline), "--write-baseline"]) == 0
        capsys.readouterr()
        assert main([fixture, "--baseline", str(baseline)]) == 0

    def test_checked_in_baseline_is_empty(self):
        baseline = PACKAGE / "analysis" / "baseline.json"
        assert json.loads(baseline.read_text()) == {"accepted": []}


class TestCliSubcommand:
    def test_graphcache_analyze_clean(self, capsys):
        assert cli_main(["analyze"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_graphcache_analyze_json_on_fixture(self, capsys):
        code = cli_main(
            ["analyze", str(FIXTURES / "repro001_raw_lock.py"),
             "--format", "json", "--no-baseline"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "REPRO001"
