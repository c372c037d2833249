"""Transition tables for the vectorized engine, generated from the live
protocol controllers.

The vector engine (:mod:`repro.sim.vector`) dispatches every operation
through integer lookup tables instead of the interpreter's method chain.
The tables are small — the L1 request pipeline is a pure function of
``(current MESI state, is_write)`` — but their *contents* are not written
down by hand: :func:`derive_l1_tables` drives a real
:class:`~repro.coherence.protocol.CoherentSystem` into each reachable
``(state, op)`` cell, issues the access through the real
:class:`~repro.coherence.l1_controller.L1Controller`, and reads the
classification back out of the statistics tree and the home's version
clock.  The engine therefore executes, by construction, the same decision
tree the interpreter does; :func:`validate_l1_tables` cross-checks the
derived actions against the analytic MESI predicates as a second,
independent derivation.

Tables are immutable tuples of ints (``action[state][is_write]``), plus a
flat-list view for the scalar dispatch loop.  :func:`corrupt_l1_tables`
deliberately flips one entry — the fuzz differ's ``table-corrupt`` fault
uses it to prove that engine-vs-engine differential testing catches a
mis-generated table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..common.errors import ProtocolError
from ..common.mesi import CoherenceProtocol, MesiState, can_read, can_write

#: Action codes of the L1 request pipeline (one per table cell).
A_MISS = 0          #: line absent: run the full miss path
A_HIT = 1           #: read hit: touch LRU, charge the L1 hit latency
A_HIT_WUP = 2       #: write hit on M/E: silent upgrade to M + version mint
A_UPGRADE = 3       #: write hit on S/O: home-serialized upgrade

_N_STATES = 5  # I, S, E, M, O


def _frozen(rows: List[List[int]]) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class L1Tables:
    """The L1 request pipeline as data.

    ``action[state][w]`` — action code; ``grant_state[w]`` — state
    granted when the requester becomes sole holder (directory/LLC miss,
    false discovery).  The vector engine reads nothing else.  The tables
    are tuples, so the memoized ones cannot be edited in place.
    """

    protocol: CoherenceProtocol
    action: Tuple[Tuple[int, ...], ...]  # 5 rows x (read, write)
    grant_state: Tuple[int, ...]         # (read, write)

    def flat_action(self) -> List[int]:
        """``action`` as a flat list indexed ``state * 2 + is_write``."""
        return [v for row in self.action for v in row]


def _micro_system(protocol: CoherenceProtocol):
    """A 2-core system large enough that table probes never conflict."""
    from ..common.config import (
        CacheConfig,
        DirectoryConfig,
        DirectoryKind,
        NoCConfig,
        SystemConfig,
    )
    from ..sim.system import build_system

    config = SystemConfig(
        num_cores=4,
        l1=CacheConfig(sets=16, ways=4),
        llc=CacheConfig(sets=64, ways=8),
        directory=DirectoryConfig(kind=DirectoryKind.IDEAL),
        noc=NoCConfig(mesh_width=2, mesh_height=2),
        protocol=protocol,
    )
    return build_system(config)


def _prepare_state(system, addr: int, state: MesiState) -> None:
    """Drive core 0's copy of ``addr`` into ``state`` with real protocol ops."""
    if state is MesiState.INVALID:
        return
    if state is MesiState.EXCLUSIVE:
        system.access(0, addr, False)
    elif state is MesiState.MODIFIED:
        system.access(0, addr, True)
    elif state is MesiState.SHARED:
        system.access(0, addr, False)
        system.access(1, addr, False)
    elif state is MesiState.OWNED:
        system.access(0, addr, True)
        system.access(1, addr, False)  # MOESI: dirty owner downgrades M -> O
    observed = system.l1s[0].state_of(addr)
    if observed is not state:  # pragma: no cover - setup bug
        raise ProtocolError(f"table probe setup reached {observed}, wanted {state}")


def derive_l1_tables(protocol: CoherenceProtocol) -> L1Tables:
    """Generate the L1 tables by probing the live controllers.

    One fresh micro-system per ``(state, op)`` cell: the probe sets up the
    state, zeroes the statistics, issues the access from core 0 through the
    real controller stack, and classifies the cell from which counter fired
    and whether the access minted a data version.  OWNED cells are probed
    under MOESI (the only protocol that reaches them) and reused for the
    MESI table, where the interpreter's code path for a hypothetical O line
    is identical.
    """
    action = [[0, 0] for _ in range(_N_STATES)]
    addr = 0x1234

    for state in MesiState:
        probe_protocol = (
            CoherenceProtocol.MOESI if state is MesiState.OWNED else protocol
        )
        for is_write in (False, True):
            system = _micro_system(probe_protocol)
            _prepare_state(system, addr, state)
            system.stats.reset()
            before = system.home._version_clock
            system.access(0, addr, is_write)
            stats = system.flat_stats()
            hits = stats.get("system.protocol.l1_hits", 0.0)
            misses = stats.get("system.protocol.l1_misses", 0.0)
            upgrades = stats.get("system.protocol.upgrade_misses", 0.0)
            if hits + misses + upgrades != 1.0:  # pragma: no cover
                raise ProtocolError(
                    f"probe ({state.name}, w={is_write}) fired {hits}/{misses}/{upgrades}"
                )
            minted = system.home._version_clock != before
            row, col = int(state), int(is_write)
            if misses:
                action[row][col] = A_MISS
            elif upgrades:
                action[row][col] = A_UPGRADE
            elif minted:
                action[row][col] = A_HIT_WUP
            else:
                action[row][col] = A_HIT

    # Sole-holder grants: what the home hands back when nobody else holds
    # the line (directory miss / LLC miss / false discovery).
    grant = [0, 0]
    for is_write in (False, True):
        system = _micro_system(protocol)
        system.access(0, addr, is_write)
        grant[int(is_write)] = int(system.l1s[0].state_of(addr))

    return L1Tables(
        protocol=protocol,
        action=_frozen(action),
        grant_state=tuple(grant),
    )


def validate_l1_tables(tables: L1Tables) -> None:
    """Cross-check a derived table against the analytic MESI predicates.

    Independent second derivation: readable states must be read hits,
    writable states silent write hits, valid-but-unwritable states
    upgrades, INVALID a miss.  Raises :class:`ProtocolError` on any
    disagreement (e.g. a corrupted table).
    """
    for state in MesiState:
        row = int(state)
        expect_read = A_HIT if can_read(state) else A_MISS
        if tables.action[row][0] != expect_read:
            raise ProtocolError(
                f"L1 table: read action for {state.name} is "
                f"{tables.action[row][0]}, expected {expect_read}"
            )
        if state is MesiState.INVALID:
            expect_write = A_MISS
        elif can_write(state):
            expect_write = A_HIT_WUP
        else:
            expect_write = A_UPGRADE
        if tables.action[row][1] != expect_write:
            raise ProtocolError(
                f"L1 table: write action for {state.name} is "
                f"{tables.action[row][1]}, expected {expect_write}"
            )
    if tables.grant_state != (int(MesiState.EXCLUSIVE), int(MesiState.MODIFIED)):
        raise ProtocolError("L1 table: sole-holder grant states are wrong")


def corrupt_l1_tables(tables: L1Tables, cell: int = 5) -> L1Tables:
    """Return a copy with one table entry deliberately wrong.

    ``cell`` indexes ``state * 2 + is_write``; the default (5 = EXCLUSIVE,
    write) downgrades the silent E->M upgrade to a plain read hit, so a
    vector run silently loses a version mint — exactly the class of table
    generation bug the engine differential suite must catch.
    """
    action = [list(row) for row in tables.action]
    row, col = divmod(cell, 2)
    action[row][col] = A_HIT if action[row][col] != A_HIT else A_MISS
    return replace(tables, action=_frozen(action))


_TABLE_CACHE: dict = {}


def l1_tables(protocol: CoherenceProtocol) -> L1Tables:
    """Derived-and-validated tables for ``protocol`` (memoized per process)."""
    tables = _TABLE_CACHE.get(protocol)
    if tables is None:
        tables = derive_l1_tables(protocol)
        validate_l1_tables(tables)
        _TABLE_CACHE[protocol] = tables
    return tables

