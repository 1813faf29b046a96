"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli.main import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_command_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "aids"])
        assert args.method == "ggsx"
        assert args.policy == "hd"
        assert args.cache_size == 30

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset", "imdb"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "ggsx" in output and "vf2" in output and "hd" in output

    def test_dataset_stats_and_save(self, capsys, tmp_path):
        output_path = tmp_path / "aids.txt"
        code = main(["dataset", "aids", "--scale", "0.05", "--seed", "3",
                     "--output", str(output_path)])
        assert code == 0
        assert output_path.exists()
        output = capsys.readouterr().out
        assert "graph_count" in output
        assert "saved 10 graphs" in output

    def test_workload_generation(self, capsys, tmp_path):
        output_path = tmp_path / "workload.json"
        code = main([
            "workload", "aids", "--scale", "0.05", "--kind", "ZZ",
            "--queries", "8", "--sizes", "3", "5", "--seed", "2",
            "--output", str(output_path),
        ])
        assert code == 0
        assert output_path.exists()
        assert "saved workload" in capsys.readouterr().out

    def test_run_experiment(self, capsys, tmp_path):
        workload_path = tmp_path / "workload.json"
        main([
            "workload", "aids", "--scale", "0.06", "--kind", "ZZ",
            "--queries", "25", "--sizes", "3", "5", "--seed", "2",
            "--output", str(workload_path),
        ])
        capsys.readouterr()
        code = main([
            "run", "aids", "--scale", "0.06", "--method", "vf2plus",
            "--workload", str(workload_path), "--cache-size", "5",
            "--window-size", "3", "--seed", "2",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "time_speedup" in output

    def test_batch_backend_path_is_durable(self, capsys, tmp_path):
        argv = [
            "batch", "aids", "--scale", "0.06", "--method", "vf2plus",
            "--queries", "25", "--cache-size", "5", "--window-size", "3",
            "--seed", "2", "--shards", "2", "--backend", "mmap",
            "--backend-path", str(tmp_path / "gc"),
        ]

        def hit_rate() -> float:
            assert main(argv) == 0
            header, _, row = capsys.readouterr().out.splitlines()[:3]
            columns = [cell.strip() for cell in header.split("|")]
            return float(row.split("|")[columns.index("hit_rate")])

        cold = hit_rate()
        for shard in (0, 1):
            assert (tmp_path / f"gc.shard{shard}.cache_entries.arena").exists()
        # The second run on the same path warm-starts from the sealed arena.
        assert hit_rate() > cold

    def test_policies_comparison(self, capsys):
        code = main([
            "policies", "aids", "--scale", "0.06", "--method", "vf2plus",
            "--queries", "25", "--cache-size", "5", "--window-size", "3",
            "--seed", "4",
        ])
        assert code == 0
        output = capsys.readouterr().out
        for policy in ("LRU", "POP", "PIN", "PINC", "HD"):
            assert policy in output


class TestMaintenanceCommand:
    def test_maintenance_mode_flag_parses(self):
        args = build_parser().parse_args(
            ["run", "aids", "--maintenance-mode", "background"]
        )
        assert args.maintenance_mode == "background"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "aids", "--maintenance-mode", "eager"])

    def test_maintenance_run_prints_rounds(self, capsys):
        code = main([
            "maintenance", "aids", "--scale", "0.06", "--method", "vf2plus",
            "--queries", "25", "--cache-size", "5", "--window-size", "3",
            "--seed", "2", "--maintenance-mode", "background", "--serials",
        ])
        assert code == 0
        output = capsys.readouterr().out
        for column in ("round", "admitted", "evicted", "policy", "index_ops"):
            assert column in output
        assert "round 1: admitted" in output

    def test_maintenance_inspects_journal_file(self, capsys, tmp_path):
        journal_path = tmp_path / "plans.jsonl"
        code = main([
            "run", "aids", "--scale", "0.06", "--method", "vf2plus",
            "--queries", "25", "--cache-size", "5", "--window-size", "3",
            "--seed", "2", "--maintenance-mode", "barrier",
            "--journal-path", str(journal_path),
        ])
        assert code == 0
        assert journal_path.exists()
        capsys.readouterr()
        code = main(["maintenance", "--journal", str(journal_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "round" in output and "policy" in output

    def test_maintenance_without_dataset_or_journal_errors(self, capsys):
        code = main(["maintenance"])
        assert code == 2
        assert "provide a dataset" in capsys.readouterr().err


class TestMaintenanceJournalRobustness:
    """``maintenance --journal`` on missing / empty / damaged journal files."""

    @staticmethod
    def _record_line(serial: int) -> str:
        import json

        from repro.core.policies.plan import MaintenancePlan

        plan = MaintenancePlan(
            current_serial=serial,
            window_serials=(serial - 1, serial),
            admitted_serials=(serial,),
            rejected_serials=(serial - 1,),
            evicted_serials=(),
            policy="hd",
        )
        return json.dumps(plan.to_record(), sort_keys=True)

    def test_missing_journal_file_is_a_clear_error(self, capsys, tmp_path):
        code = main(["maintenance", "--journal", str(tmp_path / "absent.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "journal file not found" in err and "absent.jsonl" in err

    def test_empty_journal_file_reports_no_rounds(self, capsys, tmp_path):
        journal_path = tmp_path / "empty.jsonl"
        journal_path.write_text("")
        assert main(["maintenance", "--journal", str(journal_path)]) == 0
        assert "empty journal" in capsys.readouterr().out

    def test_truncated_last_line_is_skipped(self, capsys, tmp_path):
        journal_path = tmp_path / "torn.jsonl"
        journal_path.write_text(
            self._record_line(2) + "\n"
            + self._record_line(4) + "\n"
            + '{"current_serial": 6, "window_se'  # crash mid-append
        )
        assert main(["maintenance", "--journal", str(journal_path)]) == 0
        output = capsys.readouterr().out
        assert output.count("hd") == 2  # both complete rounds decoded

    def test_corrupt_middle_line_is_rejected_with_line_number(
        self, capsys, tmp_path
    ):
        journal_path = tmp_path / "corrupt.jsonl"
        journal_path.write_text(
            self._record_line(2) + "\n"
            + "definitely not json\n"
            + self._record_line(4) + "\n"
        )
        assert main(["maintenance", "--journal", str(journal_path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "journal record" in err


class TestCompactionOutput:
    def test_compaction_threshold_flag_parses(self):
        args = build_parser().parse_args(
            ["batch", "aids", "--compaction-threshold", "0.25"]
        )
        assert args.compaction_threshold == 0.25
        assert build_parser().parse_args(["batch", "aids"]).compaction_threshold is None

    def test_maintenance_surfaces_compaction_events(self, capsys, tmp_path):
        code = main([
            "maintenance", "aids", "--scale", "0.05", "--queries", "60",
            "--cache-size", "10", "--window-size", "5",
            "--backend", "mmap", "--backend-path", str(tmp_path / "m.db"),
            "--compaction-threshold", "0.001",
        ])
        assert code == 0
        output = capsys.readouterr().out
        # Per-segment occupancy and the fold report ride together.
        assert "arena cache_entries:" in output
        assert "compaction:" in output and "fold(s)" in output
        assert "trigger_ratio=" in output
        assert "bytes_reclaimed=" in output
        assert "segments_folded=" in output

    def test_batch_multiprocess_surfaces_compaction_events(self, capsys, tmp_path):
        code = main([
            "batch", "aids", "--scale", "0.05", "--queries", "60",
            "--cache-size", "10", "--window-size", "5", "--workers", "2",
            "--backend", "mmap", "--backend-path", str(tmp_path / "b.db"),
            "--compaction-threshold", "0.001",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "arena: live_bytes=" in output
        assert "compaction:" in output
        assert "trigger_ratio=" in output

    def test_no_threshold_prints_no_compaction_lines(self, capsys, tmp_path):
        code = main([
            "maintenance", "aids", "--scale", "0.05", "--queries", "40",
            "--cache-size", "10", "--window-size", "5",
            "--backend", "mmap", "--backend-path", str(tmp_path / "m.db"),
        ])
        assert code == 0
        assert "compaction:" not in capsys.readouterr().out
