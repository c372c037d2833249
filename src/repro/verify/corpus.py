"""Failure corpus: replayable repro cases, one JSON file each.

Every confirmed divergence is saved under ``<cache-dir>/failures/``
(default ``.repro_cache/failures/``) as one ``<key>.json`` file::

    {"format": "repro-fuzz-case", "version": 2, "key": <sha256>,
     "kind", "category", "detail", "profile", "fault", "options",
     "program": [[core, block, 0|1], ...]}

The program is the globally-ordered op list itself, so the order every
organization replays survives the round trip; the other fields name the
organization, the run options (sharer format, protocol, ...), the
injected fault and the divergence signature.  ``key`` is
:func:`case_key`: the SHA-256 of the canonical JSON of the metadata and
the program.  :func:`save_case` writes a file atomically and
:func:`load_case` validates it.  A case cannot be regenerated, so a file
that fails any check raises :class:`~repro.common.errors.TraceError` and
is left where it is.

``repro fuzz --replay <file>`` rebuilds the configuration from the file
and re-runs the differential check; a failure case must reproduce its
recorded ``(kind, category)`` signature, while *seed* cases (regression
programs distilled from past audits, planted by :func:`seed_corpus`)
must replay clean.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..common.config import DirectoryKind
from ..common.errors import TraceError
from .differ import FAULTS, RunOptions
from .generator import FlatOp

#: Category used for planted regression programs (replay must be clean).
SEED_CATEGORY = "seed"

#: The ``format`` field of every case file.
CASE_FORMAT = "repro-fuzz-case"

#: Case-file version; bump on any format change.  Version 1 was a binary
#: ``.trace`` container, which :func:`load_case` refuses.
FORMAT_VERSION = 2


def default_failure_root() -> Path:
    """The failure-corpus directory under the configured cache root."""
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or ".repro_cache"
    return Path(cache_dir) / "failures"


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

    def body(self) -> Dict[str, object]:
        """The case's metadata and program as JSON-ready values."""
        return {
            "kind": self.kind,
            "category": self.category,
            "detail": self.detail,
            "profile": self.profile,
            "fault": self.fault,
            "options": self.options.to_meta(),
            "program": [
                [core, block, int(is_write)] for core, block, is_write in self.program
            ],
        }


def case_key(case: FailureCase) -> str:
    """Content-addressed corpus key: SHA-256 of metadata + program."""
    canonical = json.dumps(case.body(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_case(case: FailureCase, root: Optional[Union[str, Path]] = None) -> Path:
    """Write one case into the corpus; returns its file path.

    The file is ``<root>/<case_key>.json``, written to a temp file and
    moved into place with ``os.replace``.  Raises :class:`TraceError`
    when it cannot be written; no temp file is left behind.
    """
    key = case_key(case)
    document = {"format": CASE_FORMAT, "version": FORMAT_VERSION, "key": key}
    document.update(case.body())
    root = Path(root if root is not None else default_failure_root())
    path = root / f"{key}.json"
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        root.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(document, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise TraceError(f"cannot write {path}: {exc}") from None
    return path


def _decode_op(op: object, num_cores: int) -> FlatOp:
    """One ``[core, block, 0|1]`` program entry; ValueError otherwise."""
    if not (
        isinstance(op, list)
        and len(op) == 3
        and all(type(value) is int for value in op)
        and op[1] >= 0
        and op[2] in (0, 1)
    ):
        raise ValueError(f"malformed op {op!r}")
    core, block, is_write = op
    if not 0 <= core < num_cores:
        raise ValueError(f"op {op!r}: core outside [0, {num_cores})")
    return core, block, bool(is_write)


def load_case(path: Union[str, Path]) -> FailureCase:
    """Read the case file at ``path`` into a :class:`FailureCase`.

    Reads exactly ``path``, whatever it is named.  Raises
    :class:`~repro.common.errors.TraceError`, and never deletes the file,
    when it is missing or unreadable; is not a fuzz case (not UTF-8 JSON,
    or another ``format``: a binary ``.trace`` case of older versions is
    neither); has another ``version``; lacks a field; holds a malformed op
    or a core at or above ``options.num_cores``; names a directory kind or
    fault this code does not have; or records a ``key`` that is not the
    :func:`case_key` of its content.
    """
    try:
        document = json.loads(Path(path).read_bytes().decode("utf-8"))
    except OSError as exc:
        raise TraceError(f"{path} is missing or unreadable: {exc}") from None
    except ValueError:
        raise TraceError(f"{path} is not a fuzz case") from None
    if not isinstance(document, dict) or document.get("format") != CASE_FORMAT:
        raise TraceError(f"{path} is not a fuzz case")
    if document.get("version") != FORMAT_VERSION:
        raise TraceError(
            f"{path} is fuzz-case version {document.get('version')!r}, "
            f"not {FORMAT_VERSION}"
        )
    try:
        options = RunOptions.from_meta(document["options"])
        fault = document["fault"]
        if fault is not None and fault not in FAULTS:
            raise ValueError(f"unknown fault {fault!r}")
        case = FailureCase(
            program=[_decode_op(op, options.num_cores) for op in document["program"]],
            kind=DirectoryKind(document["kind"]).value,
            category=str(document["category"]),
            detail=str(document["detail"]),
            options=options,
            profile=str(document["profile"]),
            fault=fault,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"{path} is a malformed fuzz case: {exc}") from None
    if document.get("key") != case_key(case):
        raise TraceError(f"{path}: key does not match the case's content")
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
