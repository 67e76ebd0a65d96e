"""Tests for the command-line interface."""

import argparse
import json
import re

import pytest

from repro.cli import _build_parser, _retry_policy, _serve_config, main
from repro.memory.replacement import available_policies
from repro.resilience.faults import FAULTS_ENV, FaultPlan, \
    set_fault_plan
from repro.workloads.registry import available_workloads


class TestCli:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "mpeg" in out and "adpcm" in out

    def test_fig4(self, capsys):
        assert main(["fig4", "--workload", "tiny", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "average energy improvement" in out

    def test_fig5(self, capsys):
        assert main(["fig5", "--workload", "tiny", "--scale", "0.2"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_sweep(self, capsys):
        code = main([
            "sweep", "--workload", "tiny", "--sizes", "64",
            "--algorithms", "casa", "steinke", "--scale", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "casa (uJ)" in out

    def test_graph_dot(self, capsys):
        assert main(["graph", "--workload", "tiny", "--scale", "0.2"]) \
            == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_overlay(self, capsys):
        assert main(["overlay", "--workload", "jpeg", "--spm-size",
                     "128", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "overlay gain" in out

    def test_pressure(self, capsys):
        assert main(["pressure", "--workload", "tiny", "--top", "3",
                     "--scale", "0.2"]) == 0
        assert "contended cache sets" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["fig4", "--workload", "doom"])


class TestExplainOutput:
    def test_explain_header_carries_solver_telemetry(self, capsys):
        assert main(["explain", "--workload", "tiny", "--spm-size",
                     "128", "--scale", "0.2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "solver: optimal after" in out
        assert "proven gap" in out

    def test_sweep_explain_flag(self, capsys):
        code = main([
            "sweep", "--workload", "tiny", "--sizes", "64", "128",
            "--algorithms", "casa", "--scale", "0.2", "--explain",
            "--no-cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "CASA at 128 B" in out
        assert "scratchpad residents" in out


class TestEventsFlag:
    def test_sweep_events_prints_stream_summary(self, capsys):
        code = main([
            "sweep", "--workload", "tiny", "--sizes", "64",
            "--algorithms", "casa", "--scale", "0.2", "--events",
            "--no-cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cache events:" in out
        assert "misses" in out


class TestAuditCommand:
    def test_audit_passes(self, capsys):
        assert main(["audit", "--workload", "tiny", "--scale", "0.5",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "conflict-graph audit of 'tiny'" in out
        assert "OK" in out


class TestBenchCommand:
    def test_record_then_compare_round_trip(self, capsys, tmp_path):
        history = tmp_path / "history.jsonl"
        assert main(["bench", "record", "--history", str(history),
                     "--workloads", "tiny", "--scale", "0.2"]) == 0
        assert "recorded snapshot" in capsys.readouterr().out
        code = main(["bench", "compare", "--history", str(history),
                     "--baseline", str(history), "--workloads",
                     "tiny", "--scale", "0.2"])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_fails_on_drift(self, capsys, tmp_path):
        history = tmp_path / "history.jsonl"
        assert main(["bench", "record", "--history", str(history),
                     "--workloads", "tiny", "--scale", "0.2"]) == 0
        payload = json.loads(history.read_text().splitlines()[-1])
        payload["metrics"]["tiny.casa.energy_nj"] += 1.0
        drifted = tmp_path / "drifted.jsonl"
        drifted.write_text(json.dumps(payload) + "\n")
        code = main(["bench", "compare", "--history", str(drifted),
                     "--baseline", str(history)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out


class TestReportCommand:
    def test_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        assert main(["report", "--scale", "0.05", "--no-charts",
                     "--output", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Table 1" in out
        assert out_file.read_text().startswith("# CASA reproduction")


class TestDseCommand:
    def test_dse(self, capsys):
        assert main(["dse", "--workload", "tiny", "--budget", "30000",
                     "--scale", "0.2", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out
        assert "area budget" in out


class TestLiveTelemetryCli:
    BASE = ["sweep", "--workload", "tiny", "--sizes", "64", "128",
            "--algorithms", "casa", "--scale", "0.2", "--no-cache"]

    def test_sweep_with_full_live_pipeline(self, capsys, tmp_path):
        profile = tmp_path / "profile.txt"
        log = tmp_path / "run.log"
        code = main(self.BASE + [
            "--jobs", "2",
            "--profile-sample", str(profile), "--log", str(log),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "casa (uJ)" in captured.out, "results still render"
        # The run id the command announces is the log's.
        run_id = re.search(r"log written to .* \(run id (\w+)\)",
                           captured.out).group(1)
        assert len(run_id) == 12
        # Collapsed-stack profile is non-empty and well-formed.
        assert f"profile written to {profile}" in captured.out
        profile_text = profile.read_text()
        assert profile_text.strip()
        for line in profile_text.splitlines():
            assert int(line.rsplit(" ", 1)[1]) > 0
        # Structured log brackets the run with the same run_id.
        events = [json.loads(line)
                  for line in log.read_text().splitlines()]
        assert events[0]["event"] == "run.start"
        assert events[-1]["event"] == "run.done"
        assert {e["run_id"] for e in events} == {run_id}
        assert any(e["event"] == "map.start" for e in events)

    def test_live_flags_leave_metrics_bit_identical(self, capsys,
                                                    tmp_path):
        """--profile-sample/--log must not change deterministic metrics."""

        def deterministic(text):
            # Drop timing histograms and live-artifact notices, and
            # blank the wall-clock column of the stage table — every
            # remaining byte must match exactly.
            lines = []
            for line in text.splitlines():
                if ".seconds" in line:
                    continue
                if line.startswith(("profile written", "log written")):
                    continue
                lines.append(re.sub(r"\d+\.\d+ s$", "<t>", line))
            return lines

        assert main(self.BASE + ["--metrics"]) == 0
        plain = capsys.readouterr().out
        assert main(self.BASE + [
            "--metrics",
            "--profile-sample", str(tmp_path / "p.txt"),
            "--log", str(tmp_path / "run.log"),
        ]) == 0
        live = capsys.readouterr().out
        assert deterministic(live) == deterministic(plain)

    @pytest.mark.parametrize("flag", ["--telemetry", "--prom",
                                      "--telemetry-interval",
                                      "--stall-timeout", "--watch"])
    def test_removed_live_flags_are_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE + [flag, "1"])
        assert excinfo.value.code == 2

    def test_serve_keeps_its_stall_timeout(self):
        from repro.serve.service import ServiceConfig

        parser = _build_parser()
        args = parser.parse_args(["serve", "--stall-timeout", "60"])
        assert _serve_config(args).stall_timeout == 60.0
        default = _serve_config(parser.parse_args(["serve"]))
        assert default.stall_timeout == ServiceConfig().stall_timeout

    def test_bare_serve_and_chaos_keep_the_config_defaults(self):
        from repro.resilience.healing import RetryPolicy
        from repro.serve.service import ServiceConfig

        parser = _build_parser()
        config = _serve_config(parser.parse_args(["serve"]))
        assert config.max_inflight == ServiceConfig().max_inflight
        assert config.retry == ServiceConfig().retry
        assert _retry_policy(parser.parse_args(["chaos"])) == \
            RetryPolicy()

    def test_serve_flags_override_the_config_defaults(self):
        config = _serve_config(_build_parser().parse_args([
            "serve", "--max-inflight", "7", "--max-attempts", "5",
            "--timeout", "2",
        ]))
        assert config.max_inflight == 7
        assert (config.retry.max_attempts, config.retry.timeout_s) == \
            (5, 2.0)


class TestParserNames:
    """The parser spells out the workload and policy names instead of
    importing the registries: each list must stay the registry's."""

    @staticmethod
    def choices(dests):
        """``(command, option, choices)`` of every option with choices
        whose destination is in *dests*."""
        commands = next(action for action in _build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        return [(command, action.option_strings, tuple(action.choices))
                for command, parser in commands.choices.items()
                for action in parser._actions
                if action.dest in dests and action.choices is not None]

    def test_workload_choices_are_the_registry(self):
        found = self.choices({"workload", "workloads"})
        assert len(found) == 14, found
        for command, option, choices in found:
            assert choices == available_workloads(), (command, option)

    def test_policy_choices_are_the_registry(self):
        found = self.choices({"policy", "policies"})
        assert {command for command, _, _ in found} == {"audit", "dse"}
        for command, option, choices in found:
            assert choices == available_policies(), (command, option)


class TestCliErrors:
    """A ReproError ends the command with one line, not a traceback."""

    SWEEP = ["sweep", "--workload", "tiny", "--scale", "0.2",
             "--no-cache"]

    def test_configuration_error_exits_2(self, capsys):
        assert main(self.SWEEP + ["--sizes", "-5"]) == 2
        err = capsys.readouterr().err
        assert "casa: error: negative spm size: -5" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--scale", "-1"], "scale must be a finite number > 0, got -1.0"),
        (["--scale", "0"], "scale must be a finite number > 0, got 0.0"),
        (["--scale", "nan"], "scale must be a finite number > 0, got nan"),
        (["--scale", "inf"], "scale must be a finite number > 0, got inf"),
        (["--jobs", "-3"], "--jobs must be >= 1, got -3"),
        (["--jobs", "0"], "--jobs must be >= 1, got 0"),
    ])
    def test_bad_scale_or_jobs_exits_2(self, capsys, flags, message):
        assert main(["sweep", "--workload", "tiny", "--no-cache"]
                    + flags) == 2
        captured = capsys.readouterr()
        assert captured.err == f"casa: error: {message}\n"
        assert captured.out == ""

    def test_serve_rejects_bad_jobs(self, capsys):
        assert main(["serve", "--port", "0", "--jobs", "0"]) == 2
        assert "casa: error: --jobs must be >= 1" in \
            capsys.readouterr().err

    def test_invalid_retry_budget_exits_2(self, capsys):
        assert main(["chaos", "--workload", "tiny", "--scale", "0.2",
                     "--max-attempts", "0"]) == 2
        err = capsys.readouterr().err
        assert "casa: error: max_attempts must be >= 1" in err
        assert "Traceback" not in err

    def test_other_repro_error_exits_1(self, capsys):
        previous = set_fault_plan(FaultPlan.from_spec(
            "worker.exec:error@nth=1,limit=3,retries"))
        try:
            code = main(self.SWEEP + ["--sizes", "64",
                                      "--algorithms", "casa"])
        finally:
            set_fault_plan(previous)
        assert code == 1
        err = capsys.readouterr().err
        assert "casa: error: injected fault at worker.exec" in err
        assert "Traceback" not in err

    def test_sweep_heals_a_first_attempt_fault(self, capsys,
                                               monkeypatch):
        assert main(self.SWEEP) == 0
        clean = capsys.readouterr().out
        monkeypatch.setenv(FAULTS_ENV, "worker.exec:error@nth=1")
        previous = set_fault_plan(FaultPlan.from_env())
        try:
            assert main(self.SWEEP) == 0
        finally:
            set_fault_plan(previous)
        healed = capsys.readouterr().out
        # Retries change the stage counts, never the result table.
        assert healed.split("engine stages")[0] \
            == clean.split("engine stages")[0]
