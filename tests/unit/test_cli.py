"""Tests for the command-line interface."""

import json
import shlex

import pytest

from repro import endurance
from repro.cli import _chaos_config, _endurance_config, build_parser, main
from repro.faults import chaos


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["recover"])
        assert args.strategy == "rectable"
        assert args.mode == "vs"
        assert args.downtime == 1.0

    def test_strategy_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recover", "--strategy", "magic"])

    def test_audit_record_flag(self):
        assert build_parser().parse_args(["audit", "--record"]).record is True
        assert build_parser().parse_args(["audit"]).record is False


class TestCommands:
    def test_strategies_lists_all(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("full", "version_check", "rectable", "log_filter",
                     "lazy", "gcs_level"):
            assert name in out

    def test_demo_runs_and_checks(self, capsys):
        assert main(["demo", "--duration", "0.5", "--db-size", "30",
                     "--rate", "60"]) == 0
        out = capsys.readouterr().out
        assert "all correctness checks passed" in out

    def test_recover_reports_metrics(self, capsys):
        assert main(["recover", "--db-size", "60", "--downtime", "0.4",
                     "--rate", "80"]) == 0
        out = capsys.readouterr().out
        assert "rejoined:        True" in out
        assert "objects_sent" in out

    def test_figure1_vs(self, capsys):
        assert main(["figure1", "--seed", "17"]) == 0
        out = capsys.readouterr().out
        assert "completed:             True" in out

    def test_trace_prints_timeline(self, capsys):
        assert main(["trace", "--db-size", "40", "--downtime", "0.4",
                     "--rate", "60"]) == 0
        out = capsys.readouterr().out
        assert "transfer" in out and "recovery of S3: completed" in out


class TestReportCommand:
    def test_report_writes_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "obs"
        assert main(["report", "--db-size", "40", "--rate", "60",
                     "--downtime", "0.5", "--out-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "span durations by phase" in out
        assert "txn (submit -> done)" in out
        for name in ("run.jsonl", "trace.json", "metrics.prom"):
            assert (out_dir / name).exists(), name
        trace = json.loads((out_dir / "trace.json").read_text())
        assert trace["traceEvents"]
        prom = (out_dir / "metrics.prom").read_text()
        assert "# TYPE repro_" in prom

    def test_report_reloads_from_jsonl(self, capsys, tmp_path):
        out_dir = tmp_path / "obs"
        assert main(["report", "--db-size", "40", "--rate", "60",
                     "--downtime", "0.5", "--out-dir", str(out_dir)]) == 0
        first = capsys.readouterr().out
        assert main(["report", "--input", str(out_dir / "run.jsonl")]) == 0
        second = capsys.readouterr().out
        # The summary re-rendered from the file matches the live one.
        assert "span durations by phase" in second
        assert first.splitlines()[0] == second.splitlines()[0]


class TestChaosObservability:
    def test_chaos_flags_write_trace_and_metrics(self, capsys, tmp_path):
        trace_path = tmp_path / "storm.json"
        prom_path = tmp_path / "storm.prom"
        assert main(["chaos", "--seed", "3", "--duration", "2.0",
                     "--trace", str(trace_path),
                     "--metrics", str(prom_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        assert "repro_" in prom_path.read_text()

    def test_chaos_without_flags_writes_nothing(self, capsys, tmp_path,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["chaos", "--seed", "3", "--duration", "2.0"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestAuditDumpDirGuard:
    """The audit CLI must refuse to clobber a non-empty --dump-dir."""

    def test_check_dump_dir_refuses_non_empty(self, tmp_path):
        from repro.audit import check_dump_dir

        (tmp_path / "old_case.a.json").write_text("{}")
        with pytest.raises(ValueError, match="--force"):
            check_dump_dir(str(tmp_path))

    def test_check_dump_dir_allows_force_empty_and_missing(self, tmp_path):
        from repro.audit import check_dump_dir

        (tmp_path / "old_case.a.json").write_text("{}")
        check_dump_dir(str(tmp_path), force=True)
        empty = tmp_path / "fresh"
        empty.mkdir()
        check_dump_dir(str(empty))
        check_dump_dir(str(tmp_path / "not-there"))
        check_dump_dir(None)

    def test_audit_cli_exits_2_before_running_any_case(self, capsys, tmp_path):
        (tmp_path / "stale.b.json").write_text("{}")
        assert main(["audit", "--case", "bench:chaos",
                     "--dump-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--force" in err and "stale.b.json" in err

    def test_audit_cli_force_accepted_by_parser(self):
        args = build_parser().parse_args(["audit", "--force"])
        assert args.force is True


class TestChaosValidation:
    @pytest.mark.parametrize("flags", [["--duration", "-1"],
                                       ["--intensity", "2"],
                                       ["--sites", "1"]])
    def test_invalid_values_are_a_usage_error(self, capsys, flags):
        assert main(["chaos", "--seed", "1", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_invalid_values_are_rejected_before_a_fleet_runs(self, capsys):
        assert main(["chaos", "--seeds", "0..3", "--duration", "-1"]) == 2
        assert "error: duration must be positive" in capsys.readouterr().err


class TestReproCommands:
    """The emitted replay command must rebuild the very same config."""

    @staticmethod
    def parse(command):
        argv = shlex.split(command)
        assert argv[:4] == ["PYTHONPATH=src", "python", "-m", "repro"]
        return build_parser().parse_args(argv[4:])

    def test_chaos_command_rebuilds_the_config(self):
        config = chaos.ChaosConfig(
            seed=12, intensity=0.35, n_sites=5, db_size=33, duration=2.25,
            mode="evs", backend="logless", strategy="lazy",
            arrival_rate=75.5, clients=6, sabotage_dedup=True)
        command = chaos.repro_command(config)
        assert _chaos_config(self.parse(command)) == config

    def test_endurance_command_rebuilds_the_config(self):
        config = endurance.EnduranceConfig(
            seed=4, n_sites=5, db_size=30, duration=7.5, mode="evs",
            backend="logless", strategy="log_filter", arrival_rate=45.5,
            clients=4, segments=("storm", "churn"),
            sabotage_outcome_merge=True)
        command = endurance.repro_command(config)
        assert _endurance_config(self.parse(command)) == config

    def test_failed_chaos_run_dumps_a_replayable_command(self, capsys,
                                                         tmp_path):
        argv = ["chaos", "--seed", "12", "--mode", "evs", "--backend",
                "logless", "--sites", "5", "--clients", "6",
                "--sabotage-dedup", "--artifacts-dir", str(tmp_path)]
        assert main(argv) == 1
        repro = (tmp_path / "chaos-seed12-logless" / "repro.txt").read_text()
        command = next(line for line in repro.splitlines()
                       if line.startswith("PYTHONPATH="))
        assert _chaos_config(self.parse(command)) == \
            _chaos_config(build_parser().parse_args(argv))
