"""Content-addressed trace store: materialize each workload exactly once.

Every sweep point over the same ``(workload, num_cores, ops_per_core,
seed, block_bytes)`` replays the *identical* trace — a kinds x ratios
sweep varies only the directory configuration.  Before this store the
runner regenerated that trace inside every worker for every point, so a
5-kind x 6-ratio sweep paid for 30 generations of one input.  The store
memoizes generated traces in packed form (:class:`repro.sim.trace.
PackedTrace`) at two layers:

* **In-process memo** — a dict keyed by the full generation
  parameterization.  One generation per key per process; with a forking
  process pool, workers inherit the parent's memo for free.
* **On-disk spool** — one binary file per key under
  ``<cache-dir>/traces/`` (default ``.repro_cache/traces/``), written
  atomically and validated on load exactly like the result cache:
  corrupt, truncated or version-mismatched files are deleted and the
  trace regenerated, never crashed on.

File format (all integers little-endian)::

    MAGIC 'RPROTRC1' (8 bytes)
    header length (u32)
    header JSON  {version, key, workload, num_cores, ops_per_core,
                  seed, block_bytes, counts: [ops per core]}
    payload      concatenated per-core u64 streams, 8*sum(counts) bytes

:data:`counters` tracks memo/disk hits, generations and spool traffic;
the sweep runner folds them into ``--cache-stats``.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..common.fingerprint import source_fingerprint
from ..sim.trace import PackedTrace
from .suite import build_workload

#: On-disk spool file-format version; bump on any format change (old
#: files are then deleted on sight and regenerated).
TRACE_SCHEMA_VERSION = 1

#: Sources that determine a generated trace: the generators, the trace
#: containers and ``common/`` (``common/rng.py`` seeds every generator).
TRACE_SOURCES = ("workloads", "sim/trace.py", "common")

#: File magic: identifies the format and its major revision.
MAGIC = b"RPROTRC1"

_HEADER_LEN = struct.Struct("<I")


def memo_key(
    workload: str,
    num_cores: int,
    ops_per_core: int,
    seed: int,
    block_bytes: int,
) -> tuple:
    """Hashable in-process memo key: the full generation parameterization."""
    return (workload, num_cores, ops_per_core, seed, block_bytes)


def trace_key(
    workload: str,
    num_cores: int,
    ops_per_core: int,
    seed: int,
    block_bytes: int,
) -> str:
    """Stable content-addressed spool key (SHA-256 hex).

    Folds in :data:`TRACE_SCHEMA_VERSION` and a fingerprint of
    :data:`TRACE_SOURCES`, so a format bump or an edit to any generator
    orphans every old entry; identical parameterizations hash identically
    across processes and machines.
    """
    payload = {
        "trace_schema": TRACE_SCHEMA_VERSION,
        "generator": source_fingerprint(*TRACE_SOURCES),
        "workload": workload,
        "num_cores": num_cores,
        "ops_per_core": ops_per_core,
        "seed": seed,
        "block_bytes": block_bytes,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class TraceStoreCounters:
    """Hit/generation counters for the trace store (process-global)."""

    memo_hits: int = 0
    disk_hits: int = 0
    generated: int = 0
    disk_writes: int = 0
    corrupt_entries: int = 0
    gen_seconds: float = 0.0

    @property
    def lookups(self) -> int:
        """Total trace requests."""
        return self.memo_hits + self.disk_hits + self.generated

    def reset(self) -> None:
        """Zero every counter (tests and benchmarks)."""
        self.__init__()


#: Process-global counters (reset with ``counters.reset()``).
counters = TraceStoreCounters()

#: In-process generation memo: memo_key -> PackedTrace.
_TRACE_MEMO: Dict[tuple, PackedTrace] = {}


def clear_memo() -> None:
    """Drop every memoized trace."""
    _TRACE_MEMO.clear()


def default_root() -> Path:
    """The spool directory under the configured cache root."""
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or ".repro_cache"
    return Path(cache_dir) / "traces"


class TraceStore:
    """The on-disk spool: one ``<sha256>.trace`` file per trace key.

    Writes are atomic (temp file + ``os.replace``); loads validate magic,
    header, version, key and payload length, deleting anything that fails
    — the same corruption discipline as the result cache.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """The file a key maps to (exists only after :meth:`store`)."""
        return self.root / f"{key}.trace"

    def load(self, key: str) -> Optional[PackedTrace]:
        """The spooled trace for ``key``, or None on miss/corruption."""
        entry = self.load_entry(key)
        return None if entry is None else entry[1]

    def load_entry(self, key: str) -> Optional[tuple]:
        """``(header, trace)`` for ``key``, or None on miss/corruption.

        Every validation failure — bad magic, a zero-length or truncated
        header, non-JSON or non-dict header, version/key mismatch, per-core
        ``counts`` that disagree with the payload size — deletes the file
        and returns None so callers regenerate; a spool entry can never
        raise out of this method.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            counters.corrupt_entries += 1
            self._discard(path)
            return None
        try:
            if blob[:8] != MAGIC:
                raise ValueError("bad magic")
            (header_len,) = _HEADER_LEN.unpack_from(blob, 8)
            if header_len == 0:
                raise ValueError("zero-length header")
            header_end = 12 + header_len
            if header_end > len(blob):
                raise ValueError("truncated header")
            header = json.loads(blob[12:header_end].decode("utf-8"))
            if not isinstance(header, dict):
                raise ValueError("header is not an object")
            if header.get("version") != TRACE_SCHEMA_VERSION:
                raise ValueError("trace schema version mismatch")
            if header.get("key") != key:
                raise ValueError("trace key mismatch")
            counts: List[int] = header["counts"]
            if not isinstance(counts, list) or not all(
                isinstance(c, int) and c >= 0 for c in counts
            ):
                raise ValueError("malformed core counts")
            if len(counts) != header["num_cores"]:
                raise ValueError("inconsistent core counts")
            payload = blob[header_end:]
            if len(payload) != 8 * sum(counts):
                raise ValueError("counts disagree with payload length")
            blobs = []
            offset = 0
            for count in counts:
                end = offset + 8 * count
                blobs.append(payload[offset:end])
                offset = end
            return header, PackedTrace.from_stream_bytes(blobs)
        except Exception:
            counters.corrupt_entries += 1
            self._discard(path)
            return None

    def store(self, key: str, meta: Dict[str, object], packed: PackedTrace) -> None:
        """Atomically spool one trace (best-effort: IO errors ignored)."""
        header = dict(meta)
        header["version"] = TRACE_SCHEMA_VERSION
        header["key"] = key
        header["num_cores"] = packed.num_cores
        header["counts"] = [len(stream) for stream in packed.streams]
        header_bytes = json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(MAGIC)
                handle.write(_HEADER_LEN.pack(len(header_bytes)))
                handle.write(header_bytes)
                for blob in packed.stream_bytes():
                    handle.write(blob)
            os.replace(tmp, path)
            counters.disk_writes += 1
        except OSError:
            self._discard(tmp)

    def stats(self) -> Dict[str, int]:
        """Spool footprint: ``{"files": N, "bytes": B}``."""
        files = 0
        total = 0
        if self.root.is_dir():
            for path in self.root.iterdir():
                if path.suffix == ".trace":
                    try:
                        total += path.stat().st_size
                        files += 1
                    except OSError:
                        pass
        return {"files": files, "bytes": total}

    def clear(self) -> int:
        """Delete every spooled trace; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.iterdir():
            if path.suffix == ".trace" or ".tmp." in path.name:
                self._discard(path)
                removed += 1
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


def get_packed_trace(
    workload: str,
    num_cores: int,
    ops_per_core: int,
    seed: int = 1,
    block_bytes: int = 64,
    root: Optional[Union[str, Path]] = None,
    disk_enabled: bool = True,
) -> PackedTrace:
    """One workload trace through memo -> spool -> generate.

    The returned :class:`PackedTrace` is shared (also kept in the memo):
    treat it as immutable.  Generation is deterministic, so every layer
    returns bit-identical streams.
    """
    key = memo_key(workload, num_cores, ops_per_core, seed, block_bytes)
    hit = _TRACE_MEMO.get(key)
    if hit is not None:
        counters.memo_hits += 1
        return hit
    store = TraceStore(root if root is not None else default_root())
    disk_key = trace_key(workload, num_cores, ops_per_core, seed, block_bytes)
    if disk_enabled:
        loaded = store.load(disk_key)
        if loaded is not None:
            counters.disk_hits += 1
            _TRACE_MEMO[key] = loaded
            return loaded
    start = time.perf_counter()
    packed = build_workload(
        workload, num_cores, ops_per_core, seed=seed, block_bytes=block_bytes
    )
    counters.gen_seconds += time.perf_counter() - start
    counters.generated += 1
    _TRACE_MEMO[key] = packed
    if disk_enabled:
        store.store(
            disk_key,
            {
                "workload": workload,
                "ops_per_core": ops_per_core,
                "seed": seed,
                "block_bytes": block_bytes,
            },
            packed,
        )
    return packed
