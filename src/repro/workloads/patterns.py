"""Sharing-pattern trace generators.

Each function builds a :class:`~repro.sim.trace.PackedTrace` exhibiting one
of the canonical many-core sharing behaviours.  The paper's workload suite
(PARSEC/SPLASH-2) is, from the directory's point of view, a mixture of
exactly these patterns; :mod:`repro.workloads.suite` composes them into the
named stand-ins.

Address-space layout: each core owns a **private region**; **shared
regions** sit above all private regions.  Regions are sized in blocks and
converted to byte addresses with the system block size.

Every generator is a per-core builder (see :func:`per_core`): core ``c``'s
stream depends only on ``rng.spawn(c)`` and its children, on ``c`` and on
``num_cores``.  Each core writes its packed words ``(addr << 1) |
is_write`` straight into one list.  Draws go to the core's
:meth:`~repro.common.rng.DeterministicRng.source`, bound once per core, by
three rules (``tests/common/test_rng.py`` pins the first two):

* a Zipf block is ``bisect_left(cdf, random())`` on the cached
  :func:`~repro.common.rng.zipf_cdf` table;
* a uniform index below ``n`` (a Zipf draw with ``alpha`` = 0, or
  ``randint``) is CPython's ``randrange(n)`` rule, inlined: ``k =
  n.bit_length()``, then ``getrandbits(k)`` until the draw is below ``n``;
* a sequential block is the op count modulo the region's length.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from bisect import bisect_left
from typing import Callable, List, Optional

from ..common.addr import log2_exact, stride_hash
from ..common.errors import ConfigError
from ..common.rng import DeterministicRng, zipf_cdf
from ..sim.trace import PackedTrace, pack_stream

#: Blocks reserved per private region slot (regions are spaced this far
#: apart so different cores' private data never share a block).
REGION_SPAN = 1 << 20

#: Window for the per-region base scatter (see below); regions stay
#: disjoint as long as a region's working set is below REGION_SPAN / 2.
_SCATTER = REGION_SPAN // 2

#: One core's packed stream, built from the core id.
CoreBuilder = Callable[[int], array]


def per_core(make_builder: Callable[..., CoreBuilder]) -> Callable[..., PackedTrace]:
    """Turn a per-core builder factory into a whole-trace generator.

    ``make_builder(num_cores, ops_per_core, rng, **params)`` validates its
    parameters once and returns ``build(core)``, one core's packed stream.
    A core's stream may depend only on ``rng.spawn(core)`` and its
    children, on ``core`` and on ``num_cores``, so it is the same whether
    the core is built alone or with every other core.  The generator maps
    ``build`` over every core; its ``core_builder`` attribute is
    ``make_builder``, so a composite workload builds only the cores it
    keeps (``mix`` in :mod:`repro.workloads.suite`).
    """

    @functools.wraps(make_builder)
    def generate(num_cores, ops_per_core, rng, **params):
        build = make_builder(num_cores, ops_per_core, rng, **params)
        return PackedTrace(num_cores, [build(core) for core in range(num_cores)])

    generate.__signature__ = inspect.signature(make_builder).replace(
        return_annotation="PackedTrace"
    )
    generate.core_builder = make_builder
    return generate


def _packed_shift(block_bytes: int) -> int:
    """Shift from a block index to its packed word, ``log2(block_bytes) + 1``.

    ``bit_length() - 1`` on a non-power-of-two would silently truncate and
    alias distinct blocks; :func:`~repro.common.addr.log2_exact` raises
    :class:`~repro.common.errors.ConfigError` instead.
    """
    return log2_exact(block_bytes) + 1


def _blocks(num_blocks: int) -> int:
    """Validated length of a region in blocks (at least one)."""
    if num_blocks < 1:
        raise ConfigError("stream needs at least one block")
    return num_blocks


def _zipf_table(num_blocks: int, alpha: float) -> Optional[List[float]]:
    """A Zipf stream's CDF table, or None when ``alpha`` = 0 (uniform)."""
    _blocks(num_blocks)
    if alpha < 0:
        raise ConfigError("zipf alpha must be non-negative")
    return zipf_cdf(num_blocks, alpha) if alpha > 0 else None


def _scatter(slot: int) -> int:
    """Deterministic per-region base offset.

    Real address spaces do not hand every core a region aligned at the same
    large power of two; aligned bases would alias all cores' offset-k blocks
    into the same cache/directory set and manufacture conflict pathologies
    the paper's workloads do not have.  A hashed offset decorrelates the
    set-index streams of different regions.
    """
    return stride_hash(slot + 1, 0xA11A) % _SCATTER


def _private_base(core: int) -> int:
    return core * REGION_SPAN + _scatter(core)


def _shared_base(num_cores: int, region: int = 0) -> int:
    slot = num_cores + region
    return slot * REGION_SPAN + _scatter(slot)


@per_core
def private_working_set(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    ws_blocks: int = 256,
    write_frac: float = 0.25,
    zipf_alpha: float = 0.6,
    block_bytes: int = 64,
) -> CoreBuilder:
    """Every core loops over its own disjoint working set (no sharing).

    The directory's worst nightmare when under-provisioned: every block is
    private, every tracked entry is stash-eligible, and conventional
    evictions destroy perfectly good locality.
    """
    if not 0 <= write_frac <= 1:
        raise ConfigError("write_frac must be in [0, 1]")
    pshift = _packed_shift(block_bytes)
    cdf = _zipf_table(ws_blocks, zipf_alpha)
    bits = ws_blocks.bit_length()

    def build(core: int) -> array:
        source = rng.spawn(core).source()
        random, getrandbits = source.random, source.getrandbits
        base = _private_base(core)
        words: List[int] = []
        append = words.append
        for _ in range(ops_per_core):
            if cdf is None:
                block = getrandbits(bits)
                while block >= ws_blocks:
                    block = getrandbits(bits)
            else:
                block = bisect_left(cdf, random())
            append((base + block) << pshift | (random() < write_frac))
        return pack_stream(core, words)

    return build


@per_core
def shared_read_only(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    shared_blocks: int = 512,
    private_blocks: int = 128,
    shared_frac: float = 0.5,
    write_frac: float = 0.1,
    zipf_alpha: float = 0.7,
    block_bytes: int = 64,
) -> CoreBuilder:
    """All cores read a common table; writes only touch private data.

    Models lookup-table / read-mostly workloads: the shared blocks end up
    widely shared (not stash-eligible), the private blocks dominate entry
    count.
    """
    pshift = _packed_shift(block_bytes)
    shared_base = _shared_base(num_cores)
    shared_cdf = _zipf_table(shared_blocks, zipf_alpha)
    private_cdf = _zipf_table(private_blocks, zipf_alpha)
    shared_bits = shared_blocks.bit_length()
    private_bits = private_blocks.bit_length()

    def build(core: int) -> array:
        crng = rng.spawn(core)
        source, private_source = crng.source(), crng.spawn(1).source()
        random, getrandbits = source.random, source.getrandbits
        private_random = private_source.random
        private_getrandbits = private_source.getrandbits
        base = _private_base(core)
        words: List[int] = []
        append = words.append
        for _ in range(ops_per_core):
            if random() < shared_frac:
                if shared_cdf is None:
                    block = getrandbits(shared_bits)
                    while block >= shared_blocks:
                        block = getrandbits(shared_bits)
                else:
                    block = bisect_left(shared_cdf, random())
                append((shared_base + block) << pshift)
            else:
                if private_cdf is None:
                    block = private_getrandbits(private_bits)
                    while block >= private_blocks:
                        block = private_getrandbits(private_bits)
                else:
                    block = bisect_left(private_cdf, private_random())
                append((base + block) << pshift | (random() < write_frac))
        return pack_stream(core, words)

    return build


@per_core
def producer_consumer(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    buffer_blocks: int = 64,
    private_blocks: int = 128,
    comm_frac: float = 0.3,
    return_frac: float = 0.5,
    block_bytes: int = 64,
) -> CoreBuilder:
    """Neighbouring core pairs exchange data through per-pair buffers.

    Core ``2k`` writes buffer ``k``; core ``2k+1`` reads it (and vice versa
    on the return buffer: core ``2k+1`` writes, core ``2k`` reads).  Each
    communication op lands on the return buffer with probability
    ``return_frac``, so traffic flows both ways.  The buffer blocks migrate
    M -> S repeatedly — tracked, two-sharer entries that stashing must
    leave alone.
    """
    if not 0 <= return_frac <= 1:
        raise ConfigError("return_frac must be in [0, 1]")
    pshift = _packed_shift(block_bytes)
    _blocks(buffer_blocks)
    cdf = zipf_cdf(_blocks(private_blocks), 0.6)

    def build(core: int) -> array:
        random = rng.spawn(core).source().random
        pair = core // 2
        is_producer = core % 2 == 0
        # Two disjoint regions per pair: forward (even core writes) and
        # return (odd core writes).
        fwd_base = _shared_base(num_cores, region=2 * pair)
        ret_base = _shared_base(num_cores, region=2 * pair + 1)
        fwd_pos = ret_pos = 0
        base = _private_base(core)
        words: List[int] = []
        append = words.append
        for _ in range(ops_per_core):
            if random() < comm_frac:
                if random() < return_frac:
                    append((ret_base + ret_pos) << pshift | (not is_producer))
                    ret_pos = (ret_pos + 1) % buffer_blocks
                else:
                    append((fwd_base + fwd_pos) << pshift | is_producer)
                    fwd_pos = (fwd_pos + 1) % buffer_blocks
            else:
                block = bisect_left(cdf, random())
                append((base + block) << pshift | (random() < 0.2))
        return pack_stream(core, words)

    return build


@per_core
def migratory(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    migratory_blocks: int = 128,
    private_blocks: int = 128,
    migratory_frac: float = 0.3,
    burst: int = 8,
    block_bytes: int = 64,
) -> CoreBuilder:
    """Migratory sharing: shared objects are read-then-written by one core
    at a time (locks, reduction variables, work-queue items).

    Each touched migratory block gets a read followed by a write, so
    ownership hops core to core — entries stay private-at-a-time, which is
    exactly the case the stash directory exploits even for "shared" data.
    """
    pshift = _packed_shift(block_bytes)
    mig_base = _shared_base(num_cores)
    mig_cdf = zipf_cdf(_blocks(migratory_blocks), 0.5)
    private_cdf = zipf_cdf(_blocks(private_blocks), 0.6)

    def build(core: int) -> array:
        crng = rng.spawn(core)
        random, private_random = crng.source().random, crng.spawn(1).source().random
        base = _private_base(core)
        words: List[int] = []
        append = words.append
        while len(words) < ops_per_core:
            if random() < migratory_frac:
                word = (mig_base + bisect_left(mig_cdf, random())) << pshift
                # Read-modify-write bursts on the migratory object: the
                # alternation is indexed *within* the burst so every burst
                # opens with the read half of its read-then-write pairs
                # (global-parity indexing made odd-offset bursts lead with
                # a blind write).
                for pos in range(min(burst, ops_per_core - len(words))):
                    append(word | pos & 1)
            else:
                block = bisect_left(private_cdf, private_random())
                append((base + block) << pshift | (random() < 0.2))
        return pack_stream(core, words)

    return build


@per_core
def streaming(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    stream_blocks: int = 4096,
    write_frac: float = 0.4,
    block_bytes: int = 64,
) -> CoreBuilder:
    """Each core streams sequentially over a large private array once-ish.

    Low reuse: blocks enter the L1, age out, never return.  Directory
    entries churn but invalidating them rarely hurts (the copy was dead
    anyway) — the pattern where stashing helps least.
    """
    pshift = _packed_shift(block_bytes)
    _blocks(stream_blocks)

    def build(core: int) -> array:
        random = rng.spawn(core).source().random
        base = _private_base(core)
        return pack_stream(core, [
            (base + op % stream_blocks) << pshift | (random() < write_frac)
            for op in range(ops_per_core)
        ])

    return build


@per_core
def false_sharing(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    hot_blocks: int = 16,
    fs_frac: float = 0.3,
    private_blocks: int = 128,
    block_bytes: int = 64,
) -> CoreBuilder:
    """False sharing: cores write *different words* of the same cache lines.

    Each core owns one word slot (core * 8 bytes, wrapped) inside a small
    set of hot blocks.  At block granularity the lines ping-pong in M state
    between writers even though no datum is actually shared — the classic
    pathology.  For the directory these lines are multi-sharer and never
    stash-eligible, so this pattern bounds how much of a workload stashing
    can help.
    """
    if not 0 <= fs_frac <= 1:
        raise ConfigError("fs_frac must be in [0, 1]")
    pshift = _packed_shift(block_bytes)
    shift = pshift - 1
    hot_base = _shared_base(num_cores)
    words_per_block = max(1, block_bytes // 8)
    hot_cdf = zipf_cdf(_blocks(hot_blocks), 0.5)
    private_cdf = zipf_cdf(_blocks(private_blocks), 0.6)

    def build(core: int) -> array:
        crng = rng.spawn(core)
        random, private_random = crng.source().random, crng.spawn(1).source().random
        base = _private_base(core)
        word_offset = (core % words_per_block) * 8
        words: List[int] = []
        append = words.append
        for _ in range(ops_per_core):
            if random() < fs_frac:
                hot = hot_base + bisect_left(hot_cdf, random())
                append(((hot << shift) + word_offset) << 1 | 1)
            else:
                block = bisect_left(private_cdf, private_random())
                append((base + block) << pshift | (random() < 0.2))
        return pack_stream(core, words)

    return build


@per_core
def lock_contention(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    num_locks: int = 4,
    guarded_blocks: int = 32,
    lock_frac: float = 0.2,
    spin_reads: int = 4,
    private_blocks: int = 128,
    block_bytes: int = 64,
) -> CoreBuilder:
    """Lock contention: spin-read a lock line, write to acquire, touch the
    guarded data, write to release.

    Lock lines migrate read->write between cores (heavily shared, never
    stash-eligible); the guarded data behaves migratory.  Exercises the mix
    of upgrade misses, forwards and invalidations around synchronization.
    """
    if not 0 <= lock_frac <= 1:
        raise ConfigError("lock_frac must be in [0, 1]")
    if spin_reads < 0:
        raise ConfigError("spin_reads must be non-negative")
    if num_locks < 1:
        raise ConfigError("num_locks must be >= 1")
    pshift = _packed_shift(block_bytes)
    lock_base = _shared_base(num_cores, region=0)
    data_base = _shared_base(num_cores, region=1)
    private_cdf = zipf_cdf(_blocks(private_blocks), 0.6)
    per_lock = guarded_blocks // num_locks
    slots = max(1, per_lock)
    lock_bits, slot_bits = num_locks.bit_length(), slots.bit_length()

    def build(core: int) -> array:
        crng = rng.spawn(core)
        source = crng.source()
        random, getrandbits = source.random, source.getrandbits
        private_random = crng.spawn(1).source().random
        base = _private_base(core)
        words: List[int] = []
        append = words.append
        while len(words) < ops_per_core:
            if random() < lock_frac:
                lock = getrandbits(lock_bits)
                while lock >= num_locks:
                    lock = getrandbits(lock_bits)
                slot = getrandbits(slot_bits)
                while slot >= slots:
                    slot = getrandbits(slot_bits)
                lock_word = (lock_base + lock) << pshift
                data_word = (data_base + lock * per_lock + slot) << pshift
                # Spin (reads), acquire (write), critical section, release.
                section = [lock_word] * spin_reads
                section += (lock_word | 1, data_word, data_word | 1, lock_word | 1)
                words += section[:ops_per_core - len(words)]
            else:
                block = bisect_left(private_cdf, private_random())
                append((base + block) << pshift | (random() < 0.2))
        return pack_stream(core, words)

    return build


@per_core
def phased(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    compute_blocks: int = 192,
    exchange_blocks: int = 64,
    compute_len: int = 64,
    exchange_len: int = 16,
    block_bytes: int = 64,
) -> CoreBuilder:
    """Bulk-synchronous phase behaviour: compute on private data, then
    exchange through a shared region, repeat.

    Each cycle draws ``compute_len`` Zipf blocks from the core's private
    region, then walks ``exchange_len`` blocks of the shared exchange
    region in order, resuming where the last cycle stopped.  During compute
    phases the directory sees pure private traffic (stash heaven); each
    exchange phase makes a burst of blocks briefly shared, churning
    entries between private and shared states — the phase boundaries are
    where eviction policy choices matter most.
    """
    if compute_len < 1 or exchange_len < 1:
        raise ConfigError("phase lengths must be >= 1")
    pshift = _packed_shift(block_bytes)
    shared_base = _shared_base(num_cores)
    cdf = zipf_cdf(_blocks(compute_blocks), 0.6)
    _blocks(exchange_blocks)
    cycle = compute_len + exchange_len

    def build(core: int) -> array:
        random = rng.spawn(core).source().random
        base = _private_base(core)
        # Exchange: half the cores write their slice, half read.
        exchange_write = core % 2 == 0
        exchange_pos = 0
        words: List[int] = []
        append = words.append
        for op in range(ops_per_core):
            if op % cycle < compute_len:
                block = bisect_left(cdf, random())
                append((base + block) << pshift | (random() < 0.3))
            else:
                append((shared_base + exchange_pos) << pshift | exchange_write)
                exchange_pos = (exchange_pos + 1) % exchange_blocks
        return pack_stream(core, words)

    return build
