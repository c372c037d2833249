"""Failure corpus: serialization round trips, seeds, corruption handling."""

import shutil

import pytest

from repro.common.errors import TraceError
from repro.common.mesi import CoherenceProtocol
from repro.common.config import SharerFormat
from repro.verify import (
    FailureCase,
    RunOptions,
    case_key,
    load_case,
    repro_command,
    run_differential,
    save_case,
    seed_corpus,
)
from repro.verify.corpus import SEED_CATEGORY


def sample_case(**overrides):
    fields = dict(
        program=[(0, 0x10, True), (1, 0x10, False)],
        kind="stash",
        category="invariant",
        detail="made up for the test",
        options=RunOptions(
            num_cores=6,
            sharer_format=SharerFormat.COARSE_VECTOR,
            protocol=CoherenceProtocol.MOESI,
        ),
        profile="group_alias",
        fault="drop-invalidation",
    )
    fields.update(overrides)
    return FailureCase(**fields)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        case = sample_case()
        path = save_case(case, tmp_path)
        assert path.exists()
        loaded = load_case(path)
        assert loaded.program == case.program
        assert loaded.kind == case.kind
        assert loaded.category == case.category
        assert loaded.detail == case.detail
        assert loaded.options == case.options
        assert loaded.profile == case.profile
        assert loaded.fault == case.fault

    def test_key_is_content_addressed(self):
        a = sample_case()
        b = sample_case()
        assert case_key(a) == case_key(b)
        assert case_key(a) != case_key(sample_case(kind="sparse"))
        assert case_key(a) != case_key(
            sample_case(program=[(0, 0x10, True)])
        )

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceError):
            load_case(tmp_path / ("0" * 64 + ".trace"))

    def test_corrupt_file_raises_and_discards(self, tmp_path):
        path = save_case(sample_case(), tmp_path)
        path.write_bytes(b"garbage")
        with pytest.raises(TraceError):
            load_case(path)
        # A case cannot be regenerated: the file the user named stays.
        assert path.read_bytes() == b"garbage"

    def test_plain_trace_entry_rejected(self, tmp_path):
        from repro.sim.trace import pack_flat_program
        from repro.verify.corpus import write_trace_file

        path = tmp_path / ("a" * 64 + ".trace")
        write_trace_file(path, "a" * 64, {"workload": "mix"},
                         pack_flat_program([(0, 1, False)]))
        with pytest.raises(TraceError, match="not a fuzz case"):
            load_case(path)
        assert path.exists()

    def test_unknown_kind_rejected(self, tmp_path):
        # Cases saved while the in-LLC kind existed name a row this code
        # cannot run.
        path = save_case(sample_case(kind="in_llc"), tmp_path)
        with pytest.raises(TraceError, match="'in_llc' is not a valid"):
            load_case(path)

    @pytest.mark.parametrize("name", ["my_case.trace", "case.bin"])
    def test_renamed_copy_loads(self, tmp_path, name):
        case = sample_case()
        path = save_case(case, tmp_path)
        copy = tmp_path / name
        shutil.copyfile(path, copy)
        assert load_case(copy) == load_case(path) == case
        assert copy.exists()

    def test_repro_command_names_file(self, tmp_path):
        path = save_case(sample_case(), tmp_path)
        command = repro_command(path)
        assert "repro fuzz --replay" in command
        assert str(path) in command


class TestSeedCorpus:
    def test_seed_cases_replay_clean(self, tmp_path):
        paths = seed_corpus(tmp_path)
        assert paths
        for path in paths:
            case = load_case(path)
            assert case.category == SEED_CATEGORY
            from repro.common.config import DirectoryKind

            divergences = run_differential(
                case.program,
                kinds=[DirectoryKind(case.kind)],
                options=case.options,
            )
            assert divergences == []

    def test_seed_corpus_is_idempotent(self, tmp_path):
        first = seed_corpus(tmp_path)
        second = seed_corpus(tmp_path)
        assert first == second
        assert len(set(first)) == len(first)

    @pytest.mark.parametrize("name", ["my_case.trace", "case.bin"])
    def test_renamed_seed_case_replays(self, tmp_path, name, capsys):
        from repro.cli import main

        (path,) = seed_corpus(tmp_path / "corpus")
        copy = tmp_path / name
        shutil.copyfile(path, copy)
        assert main(["fuzz", "--replay", str(copy)]) == 0
        assert "seed case clean" in capsys.readouterr().out
        assert copy.exists()
