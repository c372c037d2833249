"""Runtime-checkable coherence invariants.

These are the correctness conditions DESIGN.md commits to.  They are pure
inspection functions over the system's state — no mutation — so the debug
mode of the simulator can run them after every N accesses, and tests (unit,
integration and hypothesis-driven) call them directly.

On failure they raise :class:`~repro.common.errors.InvariantViolation` with
a message naming the invariant and the offending block.
"""

from __future__ import annotations

from typing import Dict, List

from ..cache.l1 import L1Cache
from ..cache.llc import SharedLLC
from ..common.errors import InvariantViolation
from ..common.mesi import MesiState
from ..core.relaxed_inclusion import check_relaxed_inclusion, check_strict_inclusion
from ..directory.base import Directory


def check_swmr(l1s: List[L1Cache]) -> None:
    """Single-Writer-Multiple-Reader.

    M/E copies exclude every other copy.  Under MOESI exactly one OWNED
    copy may coexist with any number of SHARED readers — that is the
    *only* legal multi-copy configuration containing a dirty line — and
    OWNED never coexists with another OWNED or with M/E.  The OWNED rules
    are checked first so an O+E/M pile-up is reported as the OWNED-state
    violation it is, not as a generic SWMR failure.
    """
    seen: Dict[int, List[tuple]] = {}
    for l1 in l1s:
        for block in l1.iter_blocks():
            seen.setdefault(block.addr, []).append((l1.core_id, MesiState(block.state)))
    for addr, holders in seen.items():
        exclusive = [
            (core, state)
            for core, state in holders
            if state in (MesiState.MODIFIED, MesiState.EXCLUSIVE)
        ]
        owned = [
            (core, state) for core, state in holders if state is MesiState.OWNED
        ]
        if len(owned) > 1 or (owned and exclusive):
            raise InvariantViolation(
                f"OWNED-state rule violated for block {addr:#x}: holders {holders}"
            )
        if exclusive and len(holders) > 1:
            raise InvariantViolation(
                f"SWMR violated for block {addr:#x}: holders {holders}"
            )


def check_llc_inclusion(l1s: List[L1Cache], llc: SharedLLC) -> None:
    """Every privately cached block must be resident in the inclusive LLC."""
    for l1 in l1s:
        for block in l1.iter_blocks():
            if not llc.contains(block.addr):
                raise InvariantViolation(
                    f"LLC inclusion violated: block {block.addr:#x} in core "
                    f"{l1.core_id} but not in the LLC"
                )


def check_directory_inclusion(
    l1s: List[L1Cache],
    llc: SharedLLC,
    directory: Directory,
    relaxed: bool,
) -> None:
    """Strict inclusion for conventional designs, relaxed for stash."""
    if relaxed:
        report = check_relaxed_inclusion(l1s, llc, directory)
    else:
        report = check_strict_inclusion(l1s, directory)
    if not report.ok:
        raise InvariantViolation(
            "directory inclusion violated: " + "; ".join(report.violations[:5])
        )


def check_entries_llc_resident(directory: Directory, llc: SharedLLC) -> None:
    """Every directory entry must track an LLC-resident block.

    (The directory tracks the inclusive LLC's contents; an entry for an
    evicted line would be unreachable dead weight and breaks stashing.)
    """
    for entry in directory.iter_entries():
        if not llc.contains(entry.addr):
            raise InvariantViolation(
                f"directory entry for {entry.addr:#x} but block not LLC-resident"
            )


def check_data_values(
    l1s: List[L1Cache],
    llc: SharedLLC,
    latest_version: Dict[int, int],
    memory_version: Dict[int, int],
) -> None:
    """Data-value invariant over write versions.

    * Every valid L1 copy holds the latest committed version of its block
      (stale-data reads are impossible).
    * If no dirty private copy exists, the LLC line (when resident) holds
      the latest version; if the block is nowhere on chip, memory does.
    """
    dirty_blocks = set()
    for l1 in l1s:
        for block in l1.iter_blocks():
            latest = latest_version.get(block.addr, 0)
            if block.version != latest:
                raise InvariantViolation(
                    f"core {l1.core_id} holds version {block.version} of block "
                    f"{block.addr:#x}, latest is {latest}"
                )
            if block.dirty:
                dirty_blocks.add(block.addr)

    cached = {b.addr for l1 in l1s for b in l1.iter_blocks()}
    llc_resident = set()
    for block in llc.iter_blocks():
        llc_resident.add(block.addr)
        latest = latest_version.get(block.addr, 0)
        if block.addr not in dirty_blocks and block.version != latest:
            raise InvariantViolation(
                f"LLC holds version {block.version} of block {block.addr:#x} "
                f"with no dirty private copy; latest is {latest}"
            )
    for addr, latest in latest_version.items():
        if addr in cached or addr in llc_resident:
            continue
        mem = memory_version.get(addr, 0)
        if mem != latest:
            raise InvariantViolation(
                f"block {addr:#x} off-chip at version {mem}, latest is {latest}"
            )
