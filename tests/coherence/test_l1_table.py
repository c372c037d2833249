"""The vector engine's written-down L1 table against the live controllers.

Each case drives core 0 of a small ideal-directory system into a MESI
state with real accesses, issues one more access from core 0 and reads
back which action the interpreter took: a miss or a home upgrade from the
protocol counters, a silent E/M write hit from a newly minted data
version, else a plain read hit.  :data:`~repro.coherence.tables.L1_TABLES`
must name the same action in every reachable cell, under both protocols.
"""

import pytest

from repro.coherence.tables import A_HIT, A_HIT_WUP, A_MISS, A_UPGRADE, L1_TABLES
from repro.common.config import (
    CacheConfig,
    DirectoryConfig,
    DirectoryKind,
    NoCConfig,
    SystemConfig,
)
from repro.common.mesi import CoherenceProtocol, MesiState
from repro.sim.system import build_system

ADDR = 0x1234

#: Accesses ``(core, is_write)`` that leave core 0 holding ADDR in a state.
SETUP = {
    MesiState.INVALID: (),
    MesiState.SHARED: ((0, False), (1, False)),
    MesiState.EXCLUSIVE: ((0, False),),
    MesiState.MODIFIED: ((0, True),),
    MesiState.OWNED: ((0, True), (1, False)),  # MOESI: M -> O on a read
}

#: Every reachable ``(protocol, state, is_write)`` cell: only MOESI
#: reaches OWNED.
CELLS = [
    (protocol, state, is_write)
    for protocol in CoherenceProtocol
    for state in MesiState
    if state is not MesiState.OWNED or protocol is CoherenceProtocol.MOESI
    for is_write in (False, True)
]


def small_system(protocol: CoherenceProtocol):
    return build_system(
        SystemConfig(
            num_cores=4,
            l1=CacheConfig(sets=16, ways=4),
            llc=CacheConfig(sets=64, ways=8),
            directory=DirectoryConfig(kind=DirectoryKind.IDEAL),
            noc=NoCConfig(mesh_width=2, mesh_height=2),
            protocol=protocol,
        )
    )


@pytest.mark.parametrize("protocol, state, is_write", CELLS, ids=[
    f"{p.value}-{s.name}-{'write' if w else 'read'}" for p, s, w in CELLS
])
def test_table_matches_the_interpreter(protocol, state, is_write):
    system = small_system(protocol)
    for core, write in SETUP[state]:
        system.access(core, ADDR, write)
    assert system.l1s[0].state_of(ADDR) is state
    before = system.flat_stats()
    version = system.home.latest_version.get(ADDR)

    system.access(0, ADDR, is_write)

    after = system.flat_stats()

    def fired(counter):
        key = f"system.protocol.{counter}"
        return after.get(key, 0) > before.get(key, 0)

    if fired("l1_misses"):
        action = A_MISS
    elif fired("upgrade_misses"):
        action = A_UPGRADE
    elif system.home.latest_version.get(ADDR) != version:
        action = A_HIT_WUP
    else:
        action = A_HIT
    assert L1_TABLES.action[state][is_write] == action


@pytest.mark.parametrize("protocol", list(CoherenceProtocol), ids=lambda p: p.value)
@pytest.mark.parametrize("is_write", [False, True], ids=["read", "write"])
def test_sole_holder_grant_matches_the_interpreter(protocol, is_write):
    system = small_system(protocol)
    system.access(0, ADDR, is_write)
    assert system.l1s[0].state_of(ADDR) == L1_TABLES.grant_state[is_write]
