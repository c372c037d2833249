"""Property-based coherence testing: random programs, full invariants.

Hypothesis generates arbitrary multi-core access interleavings over a small
address space (maximizing conflict and sharing density), and after *every*
access the complete invariant suite must hold — SWMR, LLC inclusion,
strict/relaxed directory inclusion, and the data-value invariant.  This is
the test that hunts protocol race/corner bugs.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import DirectoryKind, SharerFormat
from repro.sim.system import build_system
from tests.conftest import tiny_config

# Small space: 12 blocks over 4 cores with tiny caches = dense conflicts.
ACCESS = st.tuples(
    st.integers(min_value=0, max_value=3),   # core
    st.integers(min_value=0, max_value=11),  # block address
    st.booleans(),                           # is_write
)

PROGRAM = st.lists(ACCESS, min_size=1, max_size=120)

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize(
    "kind",
    [
        DirectoryKind.SPARSE,
        DirectoryKind.STASH,
        DirectoryKind.CUCKOO,
        DirectoryKind.SCD,
        DirectoryKind.IDEAL,
    ],
)
@SLOW
@given(program=PROGRAM)
def test_random_programs_preserve_all_invariants(kind, program):
    system = build_system(
        tiny_config(kind, entries_override=4, dir_ways=2, l1_sets=2, l1_ways=2)
    )
    for core, addr, is_write in program:
        system.access(core, addr, is_write)
        system.check_invariants()


@SLOW
@given(program=PROGRAM)
def test_random_programs_with_tiny_llc(program):
    """LLC eviction storms: the hardest path (back-inval + discovery-evict)."""
    system = build_system(
        tiny_config(
            DirectoryKind.STASH,
            entries_override=4,
            dir_ways=2,
            l1_sets=2,
            l1_ways=2,
            llc_sets=2,
            llc_ways=4,
        )
    )
    for core, addr, is_write in program:
        system.access(core, addr, is_write)
        system.check_invariants()


@pytest.mark.parametrize("fmt", [SharerFormat.COARSE_VECTOR, SharerFormat.LIMITED_POINTER])
@SLOW
@given(program=PROGRAM)
def test_random_programs_with_imprecise_sharers(fmt, program):
    system = build_system(
        tiny_config(
            DirectoryKind.STASH,
            entries_override=4,
            dir_ways=2,
            l1_sets=2,
            l1_ways=2,
            sharer_format=fmt,
            limited_pointers=1,
            coarse_group=2,
        )
    )
    for core, addr, is_write in program:
        system.access(core, addr, is_write)
        system.check_invariants()


@SLOW
@given(program=PROGRAM)
def test_random_programs_with_notifications(program):
    system = build_system(
        tiny_config(
            DirectoryKind.STASH,
            entries_override=4,
            dir_ways=2,
            l1_sets=2,
            l1_ways=2,
            clean_eviction_notification=True,
        )
    )
    for core, addr, is_write in program:
        system.access(core, addr, is_write)
        system.check_invariants()


@SLOW
@given(program=PROGRAM)
def test_reads_always_observe_last_write(program):
    """Explicit end-to-end data-value check, independent of the invariant
    suite's implementation: after each read, the reader's version equals
    the block's latest committed version."""
    system = build_system(
        tiny_config(DirectoryKind.STASH, entries_override=4, dir_ways=2,
                    l1_sets=2, l1_ways=2)
    )
    for core, addr, is_write in program:
        system.access(core, addr, is_write)
        if not is_write:
            observed = system.l1s[core].probe(addr, touch=False)
            latest = system.home.latest_version.get(addr, 0)
            assert observed is not None
            assert observed.version == latest


@SLOW
@given(program=PROGRAM)
def test_random_programs_with_private_l2(program):
    """Two-level private hierarchy: full invariants + internal inclusion."""
    from dataclasses import replace

    from repro.common.config import CacheConfig

    config = replace(
        tiny_config(
            DirectoryKind.STASH, entries_override=4, dir_ways=2,
            l1_sets=2, l1_ways=2,
        ),
        l2=CacheConfig(sets=2, ways=4),
    )
    system = build_system(config)
    for core, addr, is_write in program:
        system.access(core, addr, is_write)
        system.check_invariants()
        for private in system.l1s:
            private.check_internal_inclusion()


@SLOW
@given(program=PROGRAM)
def test_random_programs_with_every_extension_enabled(program):
    """The kitchen sink: MOESI + private L2 + presence filter + clean
    notifications + adaptive stash, invariants after every access."""
    from dataclasses import replace

    from repro.common.config import CacheConfig
    from repro.common.mesi import CoherenceProtocol

    config = replace(
        tiny_config(
            DirectoryKind.ADAPTIVE_STASH,
            entries_override=4,
            dir_ways=2,
            l1_sets=2,
            l1_ways=2,
            clean_eviction_notification=True,
            discovery_filter_slots=8,
        ),
        l2=CacheConfig(sets=2, ways=4),
        protocol=CoherenceProtocol.MOESI,
    )
    system = build_system(config)
    for core, addr, is_write in program:
        system.access(core, addr, is_write)
        system.check_invariants()
        for private in system.l1s:
            private.check_internal_inclusion()
