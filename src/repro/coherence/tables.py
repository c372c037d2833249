"""The L1 request pipeline as data, for the vectorized engine.

The vector engine (:mod:`repro.sim.vector`) dispatches every operation
through integer lookup tables instead of the interpreter's method chain.
The L1 request pipeline is a pure function of ``(current MESI state,
is_write)``, and :data:`L1_TABLES` writes it down from the MESI
predicates :func:`~repro.common.mesi.can_read` and
:func:`~repro.common.mesi.can_write`.  The table is the same under MESI
and MOESI: OWNED behaves like SHARED on the requester's side.  The
engine differential (:mod:`repro.verify`) checks it against the
interpreter's controllers on every fuzz program, and
``tests/coherence/test_l1_table.py`` drives a real system into every
``(state, op)`` cell.

Tables are immutable tuples of ints (``action[state][is_write]``), plus a
flat-list view for the scalar dispatch loop.  :func:`corrupt_l1_tables`
deliberately flips one entry — the fuzz differ's ``table-corrupt`` fault
uses it to prove that engine-vs-engine differential testing catches a
wrong table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..common.mesi import MesiState, can_read, can_write

#: Action codes of the L1 request pipeline (one per table cell).
A_MISS = 0          #: line absent: run the full miss path
A_HIT = 1           #: read hit: touch LRU, charge the L1 hit latency
A_HIT_WUP = 2       #: write hit on M/E: silent upgrade to M + version mint
A_UPGRADE = 3       #: write hit on S/O: home-serialized upgrade


def _frozen(rows: List[List[int]]) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class L1Tables:
    """The L1 request pipeline as data.

    ``action[state][w]`` — action code; ``grant_state[w]`` — state
    granted when the requester becomes sole holder (directory/LLC miss,
    false discovery).  The vector engine reads nothing else.  The tables
    are tuples, so a shared instance cannot be edited in place.
    """

    action: Tuple[Tuple[int, ...], ...]  # 5 rows x (read, write)
    grant_state: Tuple[int, ...]         # (read, write)

    def flat_action(self) -> List[int]:
        """``action`` as a flat list indexed ``state * 2 + is_write``."""
        return [v for row in self.action for v in row]


def _write_action(state: MesiState) -> int:
    if state is MesiState.INVALID:
        return A_MISS
    return A_HIT_WUP if can_write(state) else A_UPGRADE


#: The one L1 table, for both protocols: a read hits wherever
#: ``can_read``; a write misses on I, upgrades silently on E/M and through
#: the home on S/O; a sole holder is granted E for a read, M for a write.
L1_TABLES = L1Tables(
    action=_frozen(
        [
            [A_HIT if can_read(state) else A_MISS, _write_action(state)]
            for state in MesiState
        ]
    ),
    grant_state=(int(MesiState.EXCLUSIVE), int(MesiState.MODIFIED)),
)


def corrupt_l1_tables(tables: L1Tables, cell: int = 5) -> L1Tables:
    """Return a copy with one table entry deliberately wrong.

    ``cell`` indexes ``state * 2 + is_write``; the default (5 = EXCLUSIVE,
    write) downgrades the silent E->M upgrade to a plain read hit, so a
    vector run silently loses a version mint — exactly the class of table
    bug the engine differential suite must catch.
    """
    action = [list(row) for row in tables.action]
    row, col = divmod(cell, 2)
    action[row][col] = A_HIT if action[row][col] != A_HIT else A_MISS
    return replace(tables, action=_frozen(action))
