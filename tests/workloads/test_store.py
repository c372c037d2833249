"""Trace store: memo/spool layering, key stability, corruption recovery."""

from __future__ import annotations

import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads import store
from repro.workloads.suite import build_workload

ARGS = dict(workload="mix", num_cores=4, ops_per_core=120, seed=3, block_bytes=64)


def get(root, **overrides):
    kwargs = dict(ARGS)
    kwargs.update(overrides)
    return store.get_packed_trace(root=root, **kwargs)


@pytest.fixture(autouse=True)
def fresh_store_state():
    """Cold trace memo and zeroed counters around every test."""
    store.clear_memo()
    store.counters.reset()
    yield
    store.clear_memo()
    store.counters.reset()


class TestKeys:
    def test_key_is_hex_sha256_and_stable(self):
        key = store.trace_key(**ARGS)
        assert len(key) == 64
        int(key, 16)
        assert key == store.trace_key(**ARGS)

    @pytest.mark.parametrize(
        "change",
        [
            {"workload": "blackscholes-like"},
            {"num_cores": 8},
            {"ops_per_core": 121},
            {"seed": 4},
            {"block_bytes": 32},
        ],
    )
    def test_any_changed_field_changes_key(self, change):
        kwargs = dict(ARGS)
        kwargs.update(change)
        assert store.trace_key(**kwargs) != store.trace_key(**ARGS)

    def test_schema_version_changes_key(self, monkeypatch):
        before = store.trace_key(**ARGS)
        monkeypatch.setattr(
            store, "TRACE_SCHEMA_VERSION", store.TRACE_SCHEMA_VERSION + 1
        )
        assert store.trace_key(**ARGS) != before

    def test_generator_edit_changes_key(self, tmp_path):
        """Editing a generator in a copy of the package orphans its traces."""
        package = Path(store.__file__).resolve().parents[1]
        copy = tmp_path / "repro"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        program = (
            "from repro.workloads import store\n"
            f"print(store.trace_key(**{ARGS!r}))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(tmp_path))

        def key_in_copy() -> str:
            child = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, env=env, check=True,
            )
            return child.stdout.strip()

        assert key_in_copy() == store.trace_key(**ARGS)
        with open(copy / "workloads" / "patterns.py", "a") as handle:
            handle.write("\n# an edit to a generator\n")
        assert key_in_copy() != store.trace_key(**ARGS)


class TestLayering:
    def test_generated_once_then_memo(self, tmp_path):
        first = get(tmp_path)
        second = get(tmp_path)
        assert second is first
        assert store.counters.generated == 1
        assert store.counters.memo_hits == 1

    def test_spool_serves_after_memo_cleared(self, tmp_path):
        first = get(tmp_path)
        store.clear_memo()
        second = get(tmp_path)
        assert second == first
        assert store.counters.generated == 1
        assert store.counters.disk_hits == 1

    def test_spooled_trace_matches_direct_generation(self, tmp_path):
        get(tmp_path)
        store.clear_memo()
        loaded = get(tmp_path)
        direct = build_workload(
            ARGS["workload"], ARGS["num_cores"], ARGS["ops_per_core"],
            seed=ARGS["seed"], block_bytes=ARGS["block_bytes"],
        )
        assert loaded == direct

    def test_disk_disabled_never_spools(self, tmp_path):
        store.get_packed_trace(root=tmp_path, disk_enabled=False, **ARGS)
        assert not list(tmp_path.glob("*.trace"))
        store.clear_memo()
        store.get_packed_trace(root=tmp_path, disk_enabled=False, **ARGS)
        assert store.counters.generated == 2

    def test_stats_and_clear(self, tmp_path):
        get(tmp_path)
        get(tmp_path, seed=9)
        spool = store.TraceStore(tmp_path)
        stats = spool.stats()
        assert stats["files"] == 2
        assert stats["bytes"] > 0
        assert spool.clear() == 2
        assert spool.stats() == {"files": 0, "bytes": 0}


class TestCorruption:
    def spool_path(self, tmp_path):
        get(tmp_path)
        store.clear_memo()
        return store.TraceStore(tmp_path).path_for(store.trace_key(**ARGS))

    @pytest.mark.parametrize(
        "corruption",
        [
            b"",                       # empty file
            b"garbage not a trace",    # bad magic
            store.MAGIC + b"\xff\xff\xff\xff",  # absurd header length
            store.MAGIC + struct.pack("<I", 4) + b"{broken",  # bad header JSON
        ],
    )
    def test_corrupt_file_regenerated_not_crashed(self, tmp_path, corruption):
        path = self.spool_path(tmp_path)
        path.write_bytes(corruption)
        again = get(tmp_path)
        assert store.counters.corrupt_entries == 1
        assert store.counters.generated == 2
        assert not path.exists() or again == get(tmp_path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = self.spool_path(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        assert store.TraceStore(tmp_path).load(store.trace_key(**ARGS)) is None
        assert store.counters.corrupt_entries == 1
        assert not path.exists()

    def test_version_mismatch_rejected(self, tmp_path):
        path = self.spool_path(tmp_path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12:12 + header_len])
        header["version"] = store.TRACE_SCHEMA_VERSION + 1
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(
            store.MAGIC + struct.pack("<I", len(new_header)) + new_header
            + blob[12 + header_len:]
        )
        assert store.TraceStore(tmp_path).load(store.trace_key(**ARGS)) is None
        assert store.counters.corrupt_entries == 1

    def test_key_mismatch_rejected(self, tmp_path):
        path = self.spool_path(tmp_path)
        other = path.with_name(("0" * 64) + ".trace")
        path.rename(other)
        assert store.TraceStore(tmp_path).load("0" * 64) is None
        assert not other.exists()


class TestLoadHardening:
    """Satellite hardening: zero-length headers, truncated headers and
    counts/payload disagreement must all regenerate, never raise."""

    def spool_path(self, tmp_path):
        get(tmp_path)
        store.clear_memo()
        return store.TraceStore(tmp_path).path_for(store.trace_key(**ARGS))

    def rewrite_header(self, path, mutate):
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12:12 + header_len])
        mutate(header)
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(
            store.MAGIC + struct.pack("<I", len(new_header)) + new_header
            + blob[12 + header_len:]
        )

    def test_zero_length_header_regenerates(self, tmp_path):
        path = self.spool_path(tmp_path)
        payload = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", payload, 8)
        path.write_bytes(
            store.MAGIC + struct.pack("<I", 0) + payload[12 + header_len:]
        )
        again = get(tmp_path)
        assert store.counters.corrupt_entries == 1
        assert store.counters.generated == 2
        assert again.total_ops() == ARGS["num_cores"] * ARGS["ops_per_core"]

    def test_header_longer_than_file_regenerates(self, tmp_path):
        path = self.spool_path(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(store.MAGIC + struct.pack("<I", len(blob) * 2) + blob[12:])
        assert store.TraceStore(tmp_path).load(store.trace_key(**ARGS)) is None
        assert store.counters.corrupt_entries == 1
        assert not path.exists()

    def test_counts_payload_disagreement_regenerates(self, tmp_path):
        path = self.spool_path(tmp_path)

        def bump(header):
            header["counts"] = [c + 1 for c in header["counts"]]

        self.rewrite_header(path, bump)
        again = get(tmp_path)
        assert store.counters.corrupt_entries == 1
        assert store.counters.generated == 2
        assert again.total_ops() == ARGS["num_cores"] * ARGS["ops_per_core"]

    def test_non_list_counts_regenerates(self, tmp_path):
        path = self.spool_path(tmp_path)
        self.rewrite_header(path, lambda h: h.__setitem__("counts", "nope"))
        assert store.TraceStore(tmp_path).load(store.trace_key(**ARGS)) is None
        assert store.counters.corrupt_entries == 1

    def test_negative_counts_regenerates(self, tmp_path):
        path = self.spool_path(tmp_path)
        self.rewrite_header(
            path, lambda h: h.__setitem__("counts", [-1] * len(h["counts"]))
        )
        assert store.TraceStore(tmp_path).load(store.trace_key(**ARGS)) is None
        assert store.counters.corrupt_entries == 1

    def test_non_dict_header_regenerates(self, tmp_path):
        path = self.spool_path(tmp_path)
        body = json.dumps([1, 2, 3]).encode()
        path.write_bytes(store.MAGIC + struct.pack("<I", len(body)) + body)
        assert store.TraceStore(tmp_path).load(store.trace_key(**ARGS)) is None
        assert store.counters.corrupt_entries == 1


class TestLoadEntry:
    def test_load_entry_returns_header_and_trace(self, tmp_path):
        get(tmp_path)
        store.clear_memo()
        key = store.trace_key(**ARGS)
        entry = store.TraceStore(tmp_path).load_entry(key)
        assert entry is not None
        header, packed = entry
        assert header["key"] == key
        assert header["workload"] == ARGS["workload"]
        assert packed.total_ops() == ARGS["num_cores"] * ARGS["ops_per_core"]

    def test_load_entry_missing_is_none(self, tmp_path):
        assert store.TraceStore(tmp_path).load_entry("0" * 64) is None

    def test_load_entry_preserves_extra_meta(self, tmp_path):
        from repro.sim.trace import PackedTrace

        packed = PackedTrace(1)
        packed.append(0, 7, True)
        spool = store.TraceStore(tmp_path)
        spool.store("k" * 64, {"custom": {"nested": 1}}, packed)
        header, loaded = spool.load_entry("k" * 64)
        assert header["custom"] == {"nested": 1}
        assert loaded == packed
