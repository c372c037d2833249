"""Failure corpus: serialization round trips, seeds, corruption handling."""

import json
import shutil
import struct

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
        with pytest.raises(TraceError, match="missing"):
            load_case(tmp_path / ("0" * 64 + ".json"))

    def test_corrupt_file_raises_and_discards(self, tmp_path):
        path = save_case(sample_case(), tmp_path)
        path.write_bytes(b"garbage")
        with pytest.raises(TraceError):
            load_case(path)
        # A case cannot be regenerated: the file the user named stays.
        assert path.read_bytes() == b"garbage"

    def test_plain_trace_entry_rejected(self, tmp_path):
        from repro.sim.trace import PackedTrace

        trace = PackedTrace(2)
        trace.append(1, 0x40, True)
        path = tmp_path / "plain.csv"
        trace.to_file(path)
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


class TestProgram:
    """The program is stored as the globally-ordered op list itself."""

    def test_round_trip(self, tmp_path):
        program = [(0, 0x10, True), (3, 0x0, False), (1, 0xABC, True)]
        loaded = load_case(save_case(sample_case(program=program), tmp_path))
        assert loaded.program == program
        # JSON stores is_write as 0|1; it loads back as a bool.
        assert [tuple(map(type, op)) for op in loaded.program] \
            == [(int, int, bool)] * 3

    def test_preserves_global_order(self, tmp_path):
        program = [(core, 7, False) for core in (2, 0, 1, 0, 2)]
        loaded = load_case(save_case(sample_case(program=program), tmp_path))
        assert [op[0] for op in loaded.program] == [2, 0, 1, 0, 2]

    def test_written_as_triples(self, tmp_path):
        program = [(1, 0x40, True), (0, 0x40, False)]
        path = save_case(sample_case(program=program), tmp_path)
        assert json.loads(path.read_text())["program"] == [[1, 0x40, 1], [0, 0x40, 0]]
        assert load_case(path).program == program


def rewrite(path, mutate):
    document = json.loads(path.read_text())
    mutate(document)
    path.write_text(json.dumps(document))


class TestRejection:
    """A malformed case raises TraceError and stays where it is."""

    @pytest.mark.parametrize("mutate, message", [
        (lambda case: case.update(format="repro-result"), "not a fuzz case"),
        (lambda case: case.update(version=1), "version 1, not 2"),
        (lambda case: case.update(key="0" * 64), "key does not match"),
        (lambda case: case["program"].append([0, 0x10]), "malformed op"),
        (lambda case: case["program"].append([6, 0x10, 0]), r"core outside \[0, 6\)"),
        (lambda case: case.pop("detail"), "malformed fuzz case: 'detail'"),
        (lambda case: case.update(fault="gone"), "unknown fault 'gone'"),
    ], ids=["format", "version", "key", "op", "core", "missing-field", "fault"])
    def test_malformed_case_rejected(self, tmp_path, mutate, message):
        path = save_case(sample_case(), tmp_path)
        rewrite(path, mutate)
        text = path.read_text()
        with pytest.raises(TraceError, match=message):
            load_case(path)
        assert path.read_text() == text

    @pytest.mark.parametrize("damage", [
        lambda blob: b"",
        lambda blob: blob[: len(blob) // 2],
        lambda blob: b"[1, 2, 3]",
        lambda blob: b"garbage not a trace",
        # The binary container of older versions: an absurd u32 header
        # length, and a short header that is not JSON.
        lambda blob: b"RPROTRC1\xff\xff\xff\xff",
        lambda blob: b"RPROTRC1" + struct.pack("<I", 4) + b"{broken",
    ], ids=["empty", "truncated", "not-an-object", "garbage",
            "binary-header-length", "binary-header-json"])
    def test_damaged_file_rejected(self, tmp_path, damage):
        path = save_case(sample_case(), tmp_path)
        path.write_bytes(damage(path.read_bytes()))
        blob = path.read_bytes()
        with pytest.raises(TraceError, match="not a fuzz case"):
            load_case(path)
        assert path.read_bytes() == blob

    def test_binary_case_of_older_versions_rejected(self, tmp_path, capsys):
        # The seed case as the binary container wrote it: a magic, a u32
        # header length, a JSON header and the program as u64 words
        # ((core << 48 | block) << 1 | is_write).  Its length prefix is
        # not UTF-8.
        from repro.cli import main

        header = json.dumps({
            "counts": [5],
            "fuzz": {
                "category": "seed",
                "detail": "MOESI OWNED+SHARED distinguishing trace (check_swmr audit)",
                "fault": None,
                "kind": "stash",
                "options": {
                    "check_every": 1, "clean_eviction_notification": False,
                    "coarse_group": 4, "discovery_filter_slots": 0, "entries": 8,
                    "limited_pointers": 2, "num_cores": 4, "protocol": "moesi",
                    "seed": 1, "sharer_format": "full", "tardis_lease": 16,
                },
                "profile": "seed",
            },
            "key": "9e21ec42b018077421f479be6e95cb5d9af0553ad411c9b5ec55787a59c280b7",
            "num_cores": 1,
            "version": 1,
        }, sort_keys=True, separators=(",", ":")).encode()
        words = [0x21, 0x2000000000020, 0x4000000000020, 0x21, 0x2000000000020]
        blob = (b"RPROTRC1" + struct.pack("<I", len(header)) + header
                + struct.pack("<5Q", *words))
        path = tmp_path / "9e21ec42.trace"
        path.write_bytes(blob)
        assert main(["fuzz", "--replay", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path} is not a fuzz case\n"
        assert path.read_bytes() == blob


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
