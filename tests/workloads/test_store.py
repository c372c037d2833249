"""Trace memo layering, and validation of the ``.trace`` file codec.

``TestLayering`` drives the in-process memo of :mod:`repro.workloads.store`.
The other classes drive the codec the failure corpus owns
(:mod:`repro.verify.corpus`) through :func:`load_case` on a saved case:
every corruption raises :class:`TraceError`, none crashes, and the file
stays where it is (a corpus case cannot be regenerated, so the names'
"regenerates" reads "is refused").
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.common.errors import TraceError
from repro.sim.trace import PackedTrace, pack_flat_program
from repro.verify import FailureCase, RunOptions, case_key, load_case, save_case
from repro.verify import corpus
from repro.workloads import store

ARGS = dict(workload="mix", num_cores=4, ops_per_core=120, seed=3, block_bytes=64)

PROGRAM = [(0, 0x10, True), (1, 0x10, False), (2, 0x24, False), (1, 0x10, True)]


def get(**overrides):
    kwargs = dict(ARGS)
    kwargs.update(overrides)
    return store.get_packed_trace(**kwargs)


def saved_case(tmp_path):
    """A corpus file holding one small case."""
    case = FailureCase(
        program=list(PROGRAM),
        kind="stash",
        category="invariant",
        detail="made up for the test",
        options=RunOptions(num_cores=4),
    )
    return save_case(case, tmp_path)


def rewrite_header(path, mutate):
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + header_len])
    mutate(header)
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(
        corpus.MAGIC + struct.pack("<I", len(new_header)) + new_header
        + blob[12 + header_len:]
    )


def refused(path):
    """``load_case`` raises TraceError on ``path`` and leaves the file."""
    with pytest.raises(TraceError):
        load_case(path)
    return path.exists()


@pytest.fixture(autouse=True)
def fresh_store_state():
    """Cold trace memo and zeroed counters around every test."""
    store.clear_memo()
    store.counters.reset()
    yield
    store.clear_memo()
    store.counters.reset()


class TestLayering:
    def test_generated_once_then_memo(self):
        first = get()
        second = get()
        assert second is first
        assert store.counters.generated == 1
        assert store.counters.memo_hits == 1
        assert store.counters.lookups == 2

    def test_clear_memo_regenerates(self):
        first = get()
        store.clear_memo()
        second = get()
        assert second is not first
        assert second == first
        assert store.counters.generated == 2
        assert store.counters.memo_hits == 0

    def test_other_key_generates(self):
        get()
        get(seed=9)
        assert store.counters.generated == 2

    def test_disk_disabled_never_spools(self, tmp_path, monkeypatch):
        # The benchmark harness still passes the keyword; it is ignored.
        monkeypatch.chdir(tmp_path)
        first = get(disk_enabled=False)
        assert get(disk_enabled=True) is first
        store.clear_memo()
        get(disk_enabled=False)
        assert store.counters.generated == 2
        assert not list(tmp_path.iterdir())


class TestCorruption:
    @pytest.mark.parametrize(
        "corruption",
        [
            b"",                       # empty file
            b"garbage not a trace",    # bad magic
            corpus.MAGIC + b"\xff\xff\xff\xff",  # absurd header length
            corpus.MAGIC + struct.pack("<I", 4) + b"{broken",  # bad header JSON
        ],
    )
    def test_corrupt_file_regenerated_not_crashed(self, tmp_path, corruption):
        path = saved_case(tmp_path)
        path.write_bytes(corruption)
        assert refused(path)
        assert path.read_bytes() == corruption

    def test_truncated_payload_rejected(self, tmp_path):
        path = saved_case(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        assert refused(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = saved_case(tmp_path)
        rewrite_header(
            path, lambda h: h.__setitem__("version", corpus.FORMAT_VERSION + 1)
        )
        assert refused(path)

    def test_key_mismatch_rejected(self, tmp_path):
        path = saved_case(tmp_path)
        blob = path.read_bytes()
        rewrite_header(path, lambda h: h.__setitem__("key", "0" * 64))
        assert refused(path)
        # A payload edit breaks the content address the header records.
        path.write_bytes(blob[:-8] + bytes([blob[-8] ^ 0x02]) + blob[-7:])
        with pytest.raises(TraceError, match="key"):
            load_case(path)


class TestLoadHardening:
    """Zero-length headers, truncated headers and counts/payload
    disagreement must all be refused, never raise anything else."""

    def test_zero_length_header_regenerates(self, tmp_path):
        path = saved_case(tmp_path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        path.write_bytes(corpus.MAGIC + struct.pack("<I", 0) + blob[12 + header_len:])
        assert refused(path)

    def test_header_longer_than_file_regenerates(self, tmp_path):
        path = saved_case(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(corpus.MAGIC + struct.pack("<I", len(blob) * 2) + blob[12:])
        assert refused(path)

    def test_counts_payload_disagreement_regenerates(self, tmp_path):
        path = saved_case(tmp_path)
        rewrite_header(
            path, lambda h: h.__setitem__("counts", [c + 1 for c in h["counts"]])
        )
        assert refused(path)

    def test_non_list_counts_regenerates(self, tmp_path):
        path = saved_case(tmp_path)
        rewrite_header(path, lambda h: h.__setitem__("counts", "nope"))
        assert refused(path)

    def test_negative_counts_regenerates(self, tmp_path):
        path = saved_case(tmp_path)
        rewrite_header(
            path, lambda h: h.__setitem__("counts", [-1] * len(h["counts"]))
        )
        assert refused(path)

    def test_non_dict_header_regenerates(self, tmp_path):
        path = saved_case(tmp_path)
        body = json.dumps([1, 2, 3]).encode()
        path.write_bytes(corpus.MAGIC + struct.pack("<I", len(body)) + body)
        assert refused(path)


class TestLoadEntry:
    def test_load_entry_returns_header_and_trace(self, tmp_path):
        path = saved_case(tmp_path)
        header, packed = corpus.read_trace_file(path)
        assert header["key"] == path.stem == case_key(load_case(path))
        assert header["fuzz"]["kind"] == "stash"
        assert header["counts"] == [len(PROGRAM)]
        assert packed == pack_flat_program(PROGRAM)

    def test_load_entry_missing_raises(self, tmp_path):
        path = tmp_path / ("0" * 64 + ".trace")
        with pytest.raises(TraceError, match="missing"):
            corpus.read_trace_file(path)
        assert not list(tmp_path.iterdir())

    def test_load_entry_preserves_extra_meta(self, tmp_path):
        packed = PackedTrace(1)
        packed.append(0, 7, True)
        path = tmp_path / "custom.trace"
        corpus.write_trace_file(path, "k" * 64, {"custom": {"nested": 1}}, packed)
        header, loaded = corpus.read_trace_file(path)
        assert header["custom"] == {"nested": 1}
        assert header["key"] == "k" * 64
        assert loaded == packed
