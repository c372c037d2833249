"""Adversarial flat-program generator for the differential fuzzer.

A *flat program* is a globally-ordered list of ``(core, block, is_write)``
operations (:data:`FlatOp`).  Unlike the per-core traces
of :mod:`repro.workloads`, the global order is part of the input: every
organization under test replays exactly this interleaving, so a divergence
can only come from the directory organization itself.

Each profile biases the stream toward one class of historical directory
bug:

* ``eviction_storm`` — footprint far beyond the directory's entry count,
  with tight reuse, so entries are displaced (invalidated or stashed)
  constantly.
* ``stash_race`` — per-core private blocks that go quiet (prime stash
  candidates) punctuated by cross-core touches that must *discover* the
  hidden copy, with streaming filler to keep displacing the entries.
* ``pointer_overflow`` — more readers than a limited-pointer entry can
  name, then a write that must reach every copy through the overflowed
  (broadcast) representation, then partial re-sharing.
* ``group_alias`` — read/write traffic arranged across coarse-vector
  group boundaries so spurious group-mates and the tail group (when
  ``num_cores`` is not a multiple of the group size) are exercised.
* ``set_conflict`` — every block aliases to the same cache/directory set
  (stride :data:`SET_CONFLICT_STRIDE`), piling conflicts into one set.
* ``mixed`` — interleaved slices of all of the above.

Generation is deterministic: the same ``(profile, num_cores, ops, rng
seed)`` always yields the identical program.
"""

from __future__ import annotations

from typing import List, Tuple

from ..common.errors import ConfigError
from ..common.rng import DeterministicRng

#: One globally-ordered operation: (core, block_address, is_write).
FlatOp = Tuple[int, int, bool]

#: Generator profiles, in the order the fuzz driver cycles through them.
PROFILES = (
    "eviction_storm",
    "stash_race",
    "pointer_overflow",
    "group_alias",
    "set_conflict",
    "mixed",
)

#: Stride that keeps every generated block in one set of every structure
#: the fuzz configs build (L1/LLC/directory set counts all divide it).
SET_CONFLICT_STRIDE = 1 << 10


def generate_program(
    profile: str,
    num_cores: int,
    ops: int,
    rng: DeterministicRng,
    *,
    footprint: int = 48,
) -> List[FlatOp]:
    """Generate one adversarial flat program.

    ``footprint`` bounds the distinct blocks the dense profiles touch; the
    fuzz configs keep directory capacity well below it so displacement is
    constant.  Raises :class:`~repro.common.errors.ConfigError` for an
    unknown profile.
    """
    if profile not in PROFILES:
        raise ConfigError(
            f"unknown fuzz profile {profile!r}; known: {', '.join(PROFILES)}"
        )
    if num_cores < 1:
        raise ConfigError("fuzz programs need at least one core")
    if ops < 0:
        raise ConfigError("fuzz programs need a non-negative op count")
    builder = _BUILDERS[profile]
    program = builder(num_cores, ops, rng, footprint)
    return program[:ops]


# -- profile builders -------------------------------------------------------------


def _eviction_storm(
    num_cores: int, ops: int, rng: DeterministicRng, footprint: int
) -> List[FlatOp]:
    program: List[FlatOp] = []
    hot = footprint // 4 or 1
    while len(program) < ops:
        if rng.random() < 0.25:
            # A streaming burst by one core: marches the whole footprint
            # through, displacing every tracked entry behind it.
            core = rng.randint(0, num_cores - 1)
            start = rng.randint(0, footprint - 1)
            for step in range(min(footprint, ops - len(program))):
                program.append((core, (start + step) % footprint, False))
        else:
            # Tight reuse over a hot subset keeps copies alive in L1s so
            # displacement actually has victims to invalidate or stash.
            core = rng.randint(0, num_cores - 1)
            block = rng.randint(0, hot - 1)
            program.append((core, block, rng.random() < 0.3))
    return program


def _stash_race(
    num_cores: int, ops: int, rng: DeterministicRng, footprint: int
) -> List[FlatOp]:
    program: List[FlatOp] = []
    # One private block per core, disjoint from the shared filler range.
    private = [footprint + core for core in range(num_cores)]
    filler_at = 0
    while len(program) < ops:
        draw = rng.random()
        if draw < 0.35:
            # Prime a private block (single holder, often dirty): the
            # exact entry a stash directory will drop silently.
            core = rng.randint(0, num_cores - 1)
            program.append((core, private[core], rng.random() < 0.5))
        elif draw < 0.55:
            # Cross-core touch of someone else's private block: if the
            # entry was stashed, this must run discovery and recover the
            # hidden (possibly dirty) copy.
            core = rng.randint(0, num_cores - 1)
            victim = rng.randint(0, num_cores - 1)
            program.append((core, private[victim], rng.random() < 0.4))
        else:
            # Streaming filler evicts directory entries between the prime
            # and the probe, maximizing the stash/discovery window.
            core = rng.randint(0, num_cores - 1)
            program.append((core, filler_at % footprint, False))
            filler_at += 1
    return program


def _pointer_overflow(
    num_cores: int, ops: int, rng: DeterministicRng, footprint: int
) -> List[FlatOp]:
    program: List[FlatOp] = []
    shared = [0, 1, 2, 3]
    while len(program) < ops:
        block = rng.choice(shared)
        # Reader wave: more distinct sharers than any realistic pointer
        # budget, driving the entry into its overflow encoding.
        order = list(range(num_cores))
        rng.shuffle(order)
        for core in order:
            program.append((core, block, False))
        # The write must now reach every copy via broadcast.
        program.append((rng.randint(0, num_cores - 1), block, True))
        # Partial re-share: the remove-after-overflow edge.
        for _ in range(rng.randint(1, num_cores)):
            program.append((rng.randint(0, num_cores - 1), block, False))
        if rng.random() < 0.3:
            # Displacement pressure so overflowed entries also get evicted.
            program.append((rng.randint(0, num_cores - 1),
                            8 + rng.randint(0, footprint - 1), False))
    return program


def _group_alias(
    num_cores: int, ops: int, rng: DeterministicRng, footprint: int
) -> List[FlatOp]:
    program: List[FlatOp] = []
    while len(program) < ops:
        block = rng.randint(0, 7)
        # Sharers clustered low so coarse group bits alias several cores,
        # including (for non-multiple core counts) the short tail group.
        readers = [rng.randint(0, num_cores - 1) for _ in range(3)]
        readers.append(num_cores - 1)  # always light up the tail group
        for core in readers:
            program.append((core, block, False))
        # Writer from wherever: invalidation fans out group-by-group and
        # must never name a core that does not exist.
        program.append((rng.randint(0, num_cores - 1), block, True))
        if rng.random() < 0.4:
            program.append((rng.randint(0, num_cores - 1),
                            8 + rng.randint(0, footprint - 1), False))
    return program


def _set_conflict(
    num_cores: int, ops: int, rng: DeterministicRng, footprint: int
) -> List[FlatOp]:
    program: List[FlatOp] = []
    ways = 8  # enough colliding blocks to overflow any fuzz-config set
    while len(program) < ops:
        core = rng.randint(0, num_cores - 1)
        block = rng.randint(0, ways - 1) * SET_CONFLICT_STRIDE
        program.append((core, block, rng.random() < 0.35))
    return program


def _mixed(
    num_cores: int, ops: int, rng: DeterministicRng, footprint: int
) -> List[FlatOp]:
    program: List[FlatOp] = []
    parts = [b for name, b in _BUILDERS.items() if name != "mixed"]
    while len(program) < ops:
        builder = rng.choice(parts)
        slice_ops = min(rng.randint(10, 40), ops - len(program))
        program.extend(builder(num_cores, slice_ops, rng, footprint))
    return program


_BUILDERS = {
    "eviction_storm": _eviction_storm,
    "stash_race": _stash_race,
    "pointer_overflow": _pointer_overflow,
    "group_alias": _group_alias,
    "set_conflict": _set_conflict,
    "mixed": _mixed,
}
