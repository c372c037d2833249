"""CLI surface of the observability subsystem."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.coherence.protocol import CoherentSystem
from repro.obs import read_epochs_jsonl, validate_chrome_trace

from tools.validate_trace import main as validate_main


class TestParser:
    def test_obs_defaults_are_off(self):
        args = build_parser().parse_args(["run"])
        assert args.obs_epoch == 0
        assert args.trace_events == 0
        assert args.obs_out is None
        assert args.check_invariants == 0

    def test_bare_trace_events_uses_default_capacity(self):
        args = build_parser().parse_args(["run", "--trace-events"])
        assert args.trace_events == 65_536

    def test_check_invariants_bare_and_with_interval(self):
        bare = build_parser().parse_args(["run", "--check-invariants"])
        assert bare.check_invariants == 1024
        tuned = build_parser().parse_args(
            ["run", "--check-invariants", "200"]
        )
        assert tuned.check_invariants == 200

    def test_timeline_defaults(self):
        args = build_parser().parse_args(["timeline"])
        assert args.ratio == 0.125
        assert args.out == "timeline"
        assert args.obs_epoch == 256
        assert args.trace_events == 65_536


class TestRunWithObs:
    def test_run_writes_all_exports(self, tmp_path, capsys):
        prefix = str(tmp_path / "demo")
        code = main([
            "run", "--workload", "mix", "--ops", "300", "--cores", "4",
            "--obs-epoch", "128", "--trace-events", "4096",
            "--check-invariants", "300", "--obs-out", prefix,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "traced" in out
        assert "sampled" in out
        for suffix in (".epochs.jsonl", ".epochs.csv", ".trace.json"):
            assert (tmp_path / f"demo{suffix}").exists()
        with open(tmp_path / "demo.trace.json") as handle:
            assert validate_chrome_trace(json.load(handle)) == []
        meta, epochs = read_epochs_jsonl(tmp_path / "demo.epochs.jsonl")
        assert meta["workload"] == "mix"
        assert epochs

    def test_run_without_obs_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--ops", "200", "--cores", "4"])
        assert code == 0
        assert "traced" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_replay_supports_obs(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        assert main(["gen-trace", "--workload", "mix", "--ops", "200",
                     "--cores", "4", str(trace_path)]) == 0
        prefix = str(tmp_path / "rep")
        code = main(["replay", str(trace_path), "--cores", "4",
                     "--trace-events", "1024", "--obs-out", prefix])
        assert code == 0
        assert (tmp_path / "rep.trace.json").exists()
        # No sampler was requested, so no epoch files appear.
        assert not (tmp_path / "rep.epochs.jsonl").exists()

    def test_exports_pass_the_ci_validator(self, tmp_path, capsys):
        prefix = str(tmp_path / "ci")
        assert main([
            "run", "--ops", "300", "--cores", "4", "--obs-epoch", "64",
            "--trace-events", "2048", "--obs-out", prefix,
        ]) == 0
        capsys.readouterr()
        code = validate_main(
            [f"{prefix}.trace.json", f"{prefix}.epochs.jsonl"]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_check_invariants_runs_the_suite(self, capsys, monkeypatch):
        calls = []
        original = CoherentSystem.check_invariants
        monkeypatch.setattr(
            CoherentSystem, "check_invariants",
            lambda system: calls.append(1) or original(system),
        )
        assert main([
            "run", "--ops", "300", "--cores", "4", "--check-invariants", "100",
        ]) == 0
        # Every 100 of the 1200 ops, plus the end-of-run check.
        assert len(calls) == 1200 // 100 + 1

    @pytest.mark.parametrize("argv", [
        ["run", "--ops", "50", "--check-invariants", "-5"],
        ["run", "--ops", "50", "--obs-epoch", "-1"],
        ["run", "--ops", "50", "--trace-events", "-1"],
        ["replay", "{trace}", "--cores", "4", "--check-invariants", "-2"],
    ], ids=["run-check-invariants", "run-obs-epoch", "run-trace-events",
            "replay-check-invariants"])
    def test_negative_interval_is_an_error(self, tmp_path, capsys, argv):
        trace_path = tmp_path / "t.csv"
        trace_path.write_text("0,0x40,R\n")
        assert main([arg.format(trace=trace_path) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be non-negative" in err

    def test_validator_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace.json"
        bad.write_text(json.dumps({"traceEvents": "nope"}))
        assert validate_main([str(bad)]) == 1
        assert "traceEvents" in capsys.readouterr().err


class TestTimeline:
    def test_timeline_produces_divergence_report(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main([
            "--no-cache", "timeline", "--ops", "400", "--cores", "4",
            "--obs-epoch", "128", "--trace-events", "4096",
            "--out", str(tmp_path / "tl"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dir_eviction_inval_msgs" in out
        for kind in ("sparse", "stash"):
            assert (tmp_path / f"tl.{kind}.trace.json").exists()
            assert (tmp_path / f"tl.{kind}.epochs.jsonl").exists()

    def test_timeline_without_epochs_is_refused_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main([
            "--no-cache", "timeline", "--ops", "100", "--cores", "4",
            "--obs-epoch", "0", "--out", str(tmp_path / "tl"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --obs-epoch must be >= 1")
        assert list(tmp_path.iterdir()) == []
