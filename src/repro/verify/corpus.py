"""Failure corpus: replayable repro cases in the ``.trace`` format.

Every confirmed divergence is serialized under
``<cache-dir>/failures/`` (default ``.repro_cache/failures/``) as one
``<sha256>.trace`` file.  The program itself rides as a single-stream
*flat program* (:func:`repro.sim.trace.pack_flat_program`), so the
global operation order survives the round trip; everything else —
organization, sharer format, protocol, fault name, divergence category —
rides in the header under the ``fuzz`` key.

File format (all integers little-endian)::

    MAGIC 'RPROTRC1' (8 bytes)
    header length (u32)
    header JSON  {version, key, num_cores, counts: [ops per stream],
                  fuzz: {kind, category, detail, profile, fault, options}}
    payload      concatenated per-stream u64 words, 8*sum(counts) bytes

:func:`write_trace_file` writes one file atomically and
:func:`read_trace_file` validates magic, header, version, counts and
payload length; :func:`load_case` also checks that the header's key is
the :func:`case_key` of the decoded case.  A case cannot be regenerated,
so a file that fails any check raises
:class:`~repro.common.errors.TraceError` and is left where it is.

``repro fuzz --replay <file>`` rebuilds the configuration from the
header and re-runs the differential check; a failure case must reproduce
its recorded ``(kind, category)`` signature, while *seed* cases (regress
ion programs distilled from past audits, planted by :func:`seed_corpus`)
must replay clean.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..common.errors import TraceError
from ..sim.trace import FlatOp, PackedTrace, pack_flat_program, unpack_flat_program
from .differ import RunOptions

#: Header key every fuzz case stores its metadata under.
FUZZ_META_KEY = "fuzz"

#: Category used for planted regression programs (replay must be clean).
SEED_CATEGORY = "seed"

#: File magic: identifies the format and its major revision.
MAGIC = b"RPROTRC1"

#: Header format version; bump on any format change.
FORMAT_VERSION = 1

_HEADER_LEN = struct.Struct("<I")


def default_failure_root() -> Path:
    """The failure-corpus directory under the configured cache root."""
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or ".repro_cache"
    return Path(cache_dir) / "failures"


def write_trace_file(
    path: Union[str, Path], key: str, meta: Dict[str, object], packed: PackedTrace
) -> None:
    """Atomically write one ``.trace`` file (temp file + ``os.replace``).

    The header holds ``meta`` plus the format version, ``key`` and the
    per-stream op counts.  Raises :class:`TraceError` when the file cannot
    be written; no temp file is left behind.
    """
    header = dict(meta)
    header["version"] = FORMAT_VERSION
    header["key"] = key
    header["num_cores"] = packed.num_cores
    header["counts"] = [len(stream) for stream in packed.streams]
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            handle.write(_HEADER_LEN.pack(len(header_bytes)))
            handle.write(header_bytes)
            for blob in packed.stream_bytes():
                handle.write(blob)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise TraceError(f"cannot write {path}: {exc}") from None


def read_trace_file(path: Union[str, Path]) -> Tuple[Dict[str, object], PackedTrace]:
    """``(header, trace)`` of one ``.trace`` file, validated.

    A missing or unreadable file, bad magic, a zero-length or truncated
    header, a non-JSON or non-object header, a version mismatch, a key
    that is not a string, or per-stream ``counts`` that disagree with the
    payload size raise :class:`TraceError`; nothing else escapes.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise TraceError(f"{path} is missing or unreadable: {exc}") from None
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
        if header.get("version") != FORMAT_VERSION:
            raise ValueError("format version mismatch")
        if not isinstance(header.get("key"), str):
            raise ValueError("missing key")
        counts: List[int] = header["counts"]
        if not isinstance(counts, list) or not all(
            isinstance(c, int) and c >= 0 for c in counts
        ):
            raise ValueError("malformed stream counts")
        if len(counts) != header["num_cores"]:
            raise ValueError("inconsistent stream counts")
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
    except Exception as exc:
        raise TraceError(f"{path} is corrupt: {exc}") from None


@dataclass
class FailureCase:
    """One replayable fuzz case: the program plus how to run it."""

    program: List[FlatOp]
    kind: str                      # DirectoryKind value under test
    category: str                  # divergence category, or "seed"
    detail: str                    # human-readable divergence description
    options: RunOptions = field(default_factory=RunOptions)
    profile: str = "mixed"
    fault: Optional[str] = None    # injected FAULTS name, when any

    def meta(self) -> Dict[str, object]:
        """The ``fuzz`` header block (everything but the program)."""
        return {
            "kind": self.kind,
            "category": self.category,
            "detail": self.detail,
            "profile": self.profile,
            "fault": self.fault,
            "options": self.options.to_meta(),
        }


def case_key(case: FailureCase) -> str:
    """Content-addressed corpus key: SHA-256 of metadata + program."""
    canonical = json.dumps(case.meta(), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8"))
    digest.update(pack_flat_program(case.program).stream_bytes()[0])
    return digest.hexdigest()


def save_case(case: FailureCase, root: Optional[Union[str, Path]] = None) -> Path:
    """Serialize one case into the corpus; returns its file path.

    The file is ``<root>/<case_key>.trace``; raises :class:`TraceError`
    when it cannot be written.
    """
    key = case_key(case)
    root = Path(root if root is not None else default_failure_root())
    path = root / f"{key}.trace"
    write_trace_file(
        path, key, {FUZZ_META_KEY: case.meta()}, pack_flat_program(case.program)
    )
    return path


def load_case(path: Union[str, Path]) -> FailureCase:
    """Deserialize the corpus file at ``path`` into a :class:`FailureCase`.

    Reads exactly ``path``, whatever it is named, and checks the header's
    key against the :func:`case_key` of the decoded case.  Raises
    :class:`~repro.common.errors.TraceError` when the file is missing,
    corrupt, or not a fuzz case; the file is never deleted.
    """
    header, packed = read_trace_file(path)
    meta = header.get(FUZZ_META_KEY)
    if not isinstance(meta, dict):
        raise TraceError(f"{path} is a plain trace, not a fuzz case")
    try:
        case = FailureCase(
            program=unpack_flat_program(packed),
            kind=str(meta["kind"]),
            category=str(meta["category"]),
            detail=str(meta.get("detail", "")),
            options=RunOptions.from_meta(meta["options"]),
            profile=str(meta.get("profile", "mixed")),
            fault=meta.get("fault"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"{path} has a malformed fuzz header: {exc}") from None
    if header["key"] != case_key(case):
        raise TraceError(f"{path}: header key does not match the case's content")
    return case


def repro_command(path: Union[str, Path]) -> str:
    """The one-command reproduction line printed next to a saved case."""
    return f"PYTHONPATH=src python -m repro fuzz --replay {path}"


def seed_corpus(root: Optional[Union[str, Path]] = None) -> List[Path]:
    """Plant the distilled regression programs; returns their paths.

    Currently one case: the MOESI owner/sharer distinguishing trace from
    the ``check_swmr`` audit — a write creates an M copy, a remote read
    downgrades it to OWNED (dirty, still servicing), a second reader
    joins, and the owner upgrades back to M, which must invalidate both
    SHARED copies.  A directory that mishandles the OWNED owner pointer
    (or an invariant checker that bans legal OWNED+SHARED) fails here.
    """
    from ..common.mesi import CoherenceProtocol  # local: avoid cycle at import

    program: List[FlatOp] = [
        (0, 0x10, True),    # core 0: M copy of block 0x10
        (1, 0x10, False),   # core 1 reads: owner downgrades M -> O, O+S
        (2, 0x10, False),   # core 2 joins: O+S+S must satisfy check_swmr
        (0, 0x10, True),    # owner upgrades O -> M: both S copies invalidated
        (1, 0x10, False),   # reader returns: must observe the new version
    ]
    case = FailureCase(
        program=program,
        kind="stash",
        category=SEED_CATEGORY,
        detail="MOESI OWNED+SHARED distinguishing trace (check_swmr audit)",
        options=RunOptions(
            num_cores=4,
            protocol=CoherenceProtocol.MOESI,
            check_every=1,
        ),
        profile="seed",
    )
    return [save_case(case, root)]
