"""Unit tests for the command-line interface."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.io import load_result
from repro.cli import EXPERIMENTS, build_parser, main
from repro.common.config import DirectoryKind
from repro.sim.trace import PackedTrace
from repro.workloads.suite import build_workload


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "mix"
        assert args.kind == "stash"
        assert args.ratio == 0.125

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "nope"])

    def test_run_rejects_parallel_engine(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "--engine", "parallel"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'parallel'" in capsys.readouterr().err

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "F99"])

    def test_experiment_ids_cover_design_index(self):
        for expected in ["T1", "T2", "F3", "F10", "A3", "headline"]:
            assert expected in EXPERIMENTS

    def test_experiment_offers_exactly_the_registry(self):
        from repro.analysis import experiments

        subcommands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        experiment = subcommands.choices["experiment"]
        [exp_id] = [a for a in experiment._actions if a.dest == "id"]
        assert sorted(exp_id.choices) == sorted(experiments.EXPERIMENTS)
        assert EXPERIMENTS is experiments.EXPERIMENTS

    def test_building_the_parser_skips_the_verifier(self):
        # Every command builds the parser; only `repro fuzz` needs the
        # differ and the vector engine behind repro.verify.
        program = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser()\n"
            "print('repro.verify' in sys.modules)\n"
        )
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        child = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, env=env, check=True,
        )
        assert child.stdout.strip() == "False"


class TestCommands:
    def test_run_prints_summary(self, capsys):
        code = main(["run", "--workload", "swaptions-like", "--ops", "200",
                     "--cores", "4", "--check-invariants"])
        assert code == 0
        out = capsys.readouterr().out
        assert "execution_time" in out
        assert "configuration" in out

    def test_run_with_dram_and_warmup(self, capsys):
        code = main(["run", "--ops", "200", "--cores", "4", "--dram",
                     "--warmup", "100"])
        assert code == 0
        assert "results" in capsys.readouterr().out

    def test_run_rejects_warmup_longer_than_trace(self, capsys):
        code = main(["run", "--workload", "mix", "--ops", "50", "--cores", "4",
                     "--warmup", "201"])
        assert code == 1
        assert "error: warmup of 201 ops exceeds" in capsys.readouterr().err

    def test_fast_engine_run_builds_no_system(self, monkeypatch, capsys):
        """``--engine vector`` without observers never builds a system."""
        import repro.cli as cli
        import repro.sim.simulator as simulator

        calls = []
        build = cli.build_system

        def counting_build(config):
            calls.append(config)
            return build(config)

        monkeypatch.setattr(cli, "build_system", counting_build)
        monkeypatch.setattr(simulator, "build_system", counting_build)
        argv = ["run", "--workload", "swaptions-like", "--ops", "200",
                "--cores", "4"]
        assert main(argv + ["--engine", "vector"]) == 0
        vector_out = capsys.readouterr().out
        assert calls == []
        assert main(argv + ["--engine", "interp"]) == 0
        assert capsys.readouterr().out == vector_out
        assert len(calls) == 1

    def test_sweep(self, capsys):
        code = main(["sweep", "--workload", "swaptions-like", "--ops", "200",
                     "--kinds", "sparse", "stash", "--ratios", "1.0", "0.25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sparse" in out and "stash" in out

    def test_sweep_runs_one_pool_batch(self, capsys):
        from repro.analysis import runner

        runner.clear_memo()
        runner.counters.reset()
        code = main(["--workers", "2", "--no-cache", "sweep", "--workload", "mix",
                     "--cores", "4", "--ops", "100", "--kinds", "sparse", "stash",
                     "--ratios", "1.0", "0.125"])
        assert code == 0
        # The sparse@1 baseline is also a plotted point: 4 distinct points.
        assert runner.counters.parallel_batches == 1
        assert runner.counters.dispatches == 4

    def test_characterize(self, capsys):
        code = main(["characterize", "--workloads", "mix", "--ops", "200",
                     "--cores", "4"])
        assert code == 0
        assert "private" in capsys.readouterr().out

    def test_experiment_t2(self, capsys):
        code = main(["experiment", "T2"])
        assert code == 0
        assert "storage" in capsys.readouterr().out

    def test_gen_trace_and_replay(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code = main(["gen-trace", "--workload", "mix", "--ops", "100",
                     "--cores", "4", str(path)])
        assert code == 0
        assert path.exists()
        code = main(["replay", str(path), "--cores", "4", "--kind", "stash",
                     "--check-invariants"])
        assert code == 0
        assert "replay" in capsys.readouterr().out
        assert PackedTrace.from_file(path, 4) == build_workload("mix", 4, 100, seed=1)
        # Replaying the CSV gives the result of running the workload itself.
        for engine in ("interp", "vector"):
            saved = {}
            for command in (["run", "--workload", "mix", "--ops", "100"],
                            ["replay", str(path)]):
                out = tmp_path / f"{command[0]}-{engine}.json"
                code = main([*command, "--cores", "4", "--engine", engine,
                             "--save", str(out)])
                assert code == 0
                saved[command[0]] = load_result(out)
            assert saved["replay"] == saved["run"]
            assert saved["replay"].engine == engine
            assert saved["run"].engine == engine

    @pytest.mark.parametrize("argv", [
        ["replay", "{missing}/trace.csv", "--cores", "4"],
        ["compare", "{missing}/a.json", "{missing}/b.json"],
        ["gen-trace", "--workload", "mix", "--ops", "10", "{missing}/out.csv"],
        ["report", "{missing}/r.md", "--sections", "T1"],
        ["fuzz", "--replay", "{missing}/case.json"],
    ], ids=lambda argv: argv[0])
    def test_missing_file_fails_cleanly(self, tmp_path, capsys, argv):
        """A file that cannot be opened or written is an error, not a
        traceback."""
        missing = tmp_path / "missing"
        code = main(["--no-cache", *(arg.format(missing=missing) for arg in argv)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{missing}/" in err

    def test_replay_bad_trace_returns_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0,0x40\n")
        code = main(["replay", str(path), "--cores", "4"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("3,0x40,R", "core 3 outside [0, 2)"),
        ("1,0x8000000000000040,W", "address 0x8000000000000040 outside packable range"),
    ])
    def test_replay_rejected_line_names_path_and_line(
        self, tmp_path, capsys, line, message
    ):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,0x40,R\n{line}\n")
        code = main(["replay", str(path), "--cores", "2", "--engine", "vector"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:2: {message}")


class TestFuzz:
    def test_fuzz_clean_run(self, capsys):
        code = main(["fuzz", "--ops", "80", "--seeds", "2", "--kinds",
                     "stash", "sparse"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all organizations agree with ideal" in out
        assert "all invariants held" in out

    def test_fuzz_covers_all_kinds_by_default(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.kinds == [
            kind.value for kind in DirectoryKind if kind is not DirectoryKind.IDEAL
        ]

    def test_fuzz_list_faults(self, capsys):
        assert main(["fuzz", "--list-faults"]) == 0
        out = capsys.readouterr().out
        assert "drop-invalidation" in out and "stash-bit-lost" in out

    def test_fuzz_injected_fault_caught_minimized_replayed(
        self, tmp_path, capsys
    ):
        corpus = tmp_path / "failures"
        code = main([
            "fuzz", "--ops", "250", "--seeds", "2", "--kinds", "sparse",
            "--inject-fault", "drop-invalidation", "--out-dir", str(corpus),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "reproduce with:" in err
        cases = list(corpus.glob("*.json"))
        assert cases
        # The minimized case replays to the same failure.
        replay_code = main(["fuzz", "--replay", str(cases[0])])
        out = capsys.readouterr().out
        assert replay_code == 1
        assert "reproduced:" in out

    def test_fuzz_engine_clean_run(self, capsys):
        # A plain run fills every column of the matrix.
        code = main(["fuzz", "--ops", "80", "--seeds", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cells per column: interp 14, vector 10, vector-trace 10\n" in out
        assert "every engine with the interpreter bit-for-bit" in out

    def test_fuzz_engine_fault_caught_minimized_replayed(
        self, tmp_path, capsys
    ):
        corpus = tmp_path / "failures"
        code = main([
            "fuzz", "--ops", "300", "--seeds", "3",
            "--profiles", "mixed", "--inject-fault", "table-corrupt",
            "--out-dir", str(corpus),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "engine-" in err
        cases = list(corpus.glob("*.json"))
        assert cases
        replay_code = main(["fuzz", "--replay", str(cases[0])])
        out = capsys.readouterr().out
        assert replay_code == 1
        assert "reproduced:" in out
        assert "engine-" in out

    @pytest.mark.parametrize("flag", ["--inject-fault", "--profiles"])
    def test_fuzz_unknown_name_exits_2_listing_valid_names(self, flag, capsys):
        assert main(["fuzz", "--seeds", "1", flag, "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown name 'nosuch'" in err
        assert ("drop-invalidation" if flag == "--inject-fault" else "mixed") in err

    def test_fuzz_negative_check_every_is_an_error(self, capsys):
        assert main(["fuzz", "--seeds", "1", "--ops", "40", "--check-every", "-3"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: --check-every must be non-negative, got -3"
        )

    def test_fuzz_list_faults_includes_engine_faults(self, capsys):
        assert main(["fuzz", "--list-faults"]) == 0
        out = capsys.readouterr().out
        assert "table-corrupt" in out

    def test_fuzz_seed_corpus_replays_clean(self, tmp_path, capsys):
        code = main([
            "fuzz", "--seed-corpus", "--out-dir", str(tmp_path / "failures"),
            "--seeds", "1", "--ops", "60", "--kinds", "stash",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "planted seed case" in out
        assert "seed case clean" in out


class TestSaveAndCompare:
    def test_run_save_then_compare(self, tmp_path, capsys):
        a = tmp_path / "sparse.json"
        b = tmp_path / "stash.json"
        base = ["--workload", "swaptions-like", "--ops", "150", "--cores", "4"]
        assert main(["run", *base, "--kind", "sparse", "--ratio", "1.0",
                     "--save", str(a)]) == 0
        assert main(["run", *base, "--kind", "stash", "--ratio", "0.125",
                     "--save", str(b)]) == 0
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "sparse" in out and "stash" in out
        assert "norm. time" in out

    @pytest.mark.parametrize("kind, message", [
        ("in_llc", "directory kind 'in_llc' is gone; it simulated exactly as 'ideal'"),
        ("bogus", "unknown directory kind 'bogus'"),
    ])
    def test_compare_of_unbuildable_kind_is_an_error(
        self, tmp_path, capsys, kind, message
    ):
        """A saved result this code cannot rebuild is an error, not a
        traceback."""
        path = tmp_path / "old.json"
        assert main(["run", "--workload", "mix", "--ops", "50", "--cores", "4",
                     "--kind", "sparse", "--save", str(path)]) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        data["config"]["directory"]["kind"] = kind
        path.write_text(json.dumps(data))
        assert main(["compare", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_run_moesi_flag(self, capsys):
        code = main(["run", "--workload", "mix", "--ops", "150", "--cores", "4",
                     "--moesi", "--check-invariants"])
        assert code == 0


class TestReport:
    def test_report_selected_sections(self, tmp_path, capsys):
        out_path = tmp_path / "REPORT.md"
        code = main(["report", str(out_path), "--ops", "200",
                     "--sections", "T1", "T2", "headline"])
        assert code == 0
        text = out_path.read_text()
        assert "## T1" in text and "## T2" in text and "## headline" in text
        assert "Headline: normalized execution time" in text

    def test_report_names_the_workloads_a_section_ran(self, tmp_path, capsys):
        out_path = tmp_path / "REPORT.md"
        code = main(["report", str(out_path), "--ops", "100", "--sections", "A4"])
        assert code == 0
        text = out_path.read_text()
        assert "workloads: blackscholes-like, canneal-like, mix." in text
        section = text.split("## A4", 1)[1]
        assert section.split("```", 1)[0].strip().endswith(
            "Workloads: blackscholes-like, swaptions-like, ocean-like, radix-like, mix."
        )

    @pytest.mark.parametrize("sections, error", [
        (["F33"], "invalid choice: 'F33'"),
        ([], "expected at least one argument"),
    ])
    def test_report_rejects_bad_sections(self, tmp_path, capsys, sections, error):
        out_path = tmp_path / "REPORT.md"
        with pytest.raises(SystemExit) as exit_info:
            main(["report", str(out_path), "--sections", *sections])
        assert exit_info.value.code == 2
        assert error in capsys.readouterr().err
        assert not out_path.exists()

    def test_report_section_order_matches_registry(self):
        from repro.analysis.experiments import EXPERIMENTS

        ids = list(EXPERIMENTS)
        assert ids.index("T1") < ids.index("F3") < ids.index("A1")
