"""Algorithm-derived trace generators.

Where :mod:`repro.workloads.patterns` provides canonical sharing *shapes*,
these generators model the memory behaviour of four concrete parallel
algorithms (ROADMAP item 3): louvain-style graph clustering, tiled dense
matrix multiply, a segmented prime sieve, and union-find image
segmentation.  Each emits the directory-relevant footprint of the real
algorithm — region roles, read/write mix, migration and phase structure —
while staying deterministic under ``(seed, num_cores, ops_per_core)`` like
every other generator.

Address-space layout reuses the pattern conventions: per-core private
regions from :func:`~repro.workloads.patterns._private_base`, shared
regions from :func:`~repro.workloads.patterns._shared_base`, block
addresses via the validated ``block_bytes`` shift.  Like the patterns,
each generator is a :func:`~repro.workloads.patterns.per_core` builder
that writes packed words and draws by the rules in that module's
docstring.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import List

from ..common.addr import stride_hash
from ..common.errors import ConfigError
from ..common.rng import DeterministicRng, zipf_cdf
from ..sim.trace import pack_stream
from .patterns import (
    CoreBuilder,
    _blocks,
    _packed_shift,
    _private_base,
    _shared_base,
    per_core,
)


def _check_frac(name: str, value: float) -> None:
    if not 0 <= value <= 1:
        raise ConfigError(f"{name} must be in [0, 1]")


@per_core
def graph_clustering(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    frontier_blocks: int = 512,
    label_blocks: int = 192,
    private_blocks: int = 128,
    frontier_frac: float = 0.45,
    label_frac: float = 0.2,
    block_bytes: int = 64,
) -> CoreBuilder:
    """Louvain-style graph clustering (modularity optimization).

    Three region roles:

    * **frontier** — the adjacency/frontier structure every worker scans
      while evaluating candidate moves.  Read-mostly and widely shared
      (never stash-eligible, zero invalidation traffic).
    * **community labels** — the per-community label/weight words a move
      commits to.  Each touch is a read-modify-write pair, so label blocks
      migrate core to core exactly like lock-free reduction variables.
    * **private accumulators** — each worker's own delta-modularity
      scratch, written about half the time.

    The blend of a large read-shared region with a migratory hot set is
    what distinguishes clustering from the pure patterns.
    """
    _check_frac("frontier_frac", frontier_frac)
    _check_frac("label_frac", label_frac)
    if frontier_frac + label_frac > 1:
        raise ConfigError("frontier_frac + label_frac must be <= 1")
    pshift = _packed_shift(block_bytes)
    frontier_base = _shared_base(num_cores, region=0)
    label_base = _shared_base(num_cores, region=1)
    frontier_cdf = zipf_cdf(_blocks(frontier_blocks), 0.7)
    label_cdf = zipf_cdf(_blocks(label_blocks), 0.6)
    private_cdf = zipf_cdf(_blocks(private_blocks), 0.6)
    label_cut = frontier_frac + label_frac

    def build(core: int) -> array:
        crng = rng.spawn(core)
        random = crng.source().random
        label_random = crng.spawn(1).source().random
        private_random = crng.spawn(2).source().random
        base = _private_base(core)
        words: List[int] = []
        append = words.append
        while len(words) < ops_per_core:
            draw = random()
            if draw < frontier_frac:
                # Neighbour-list scan: pure reads of the shared graph.
                append((frontier_base + bisect_left(frontier_cdf, random())) << pshift)
            elif draw < label_cut:
                # Commit a move: read the community label, write it back.
                word = (label_base + bisect_left(label_cdf, label_random())) << pshift
                append(word)
                if len(words) < ops_per_core:
                    append(word | 1)
            else:
                block = bisect_left(private_cdf, private_random())
                append((base + block) << pshift | (random() < 0.5))
        return pack_stream(core, words)

    return build


@per_core
def tiled_matmul(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    tile_blocks: int = 32,
    panel_blocks: int = 256,
    phase_len: int = 48,
    panel_frac: float = 0.35,
    block_bytes: int = 64,
) -> CoreBuilder:
    """Tiled dense matrix multiply with a systolic tile rotation.

    Each phase, core ``k`` produces its output tile (sequential writes to
    its own shared tile region) while consuming the tile core ``k-1``
    produced last phase (sequential reads) and streaming a read-shared
    input panel.  A phase barrier — one shared line every core
    read-modify-writes at the boundary — separates phases, so tile regions
    flip producer/consumer roles in lockstep: classic neighbour handoff
    with bulk-synchronous structure.
    """
    _check_frac("panel_frac", panel_frac)
    if phase_len < 2:
        raise ConfigError("phase_len must be >= 2")
    pshift = _packed_shift(block_bytes)
    panel_base = _shared_base(num_cores, region=0)
    barrier_word = _shared_base(num_cores, region=1) << pshift
    panel_cdf = zipf_cdf(_blocks(panel_blocks), 0.5)
    _blocks(tile_blocks)
    consume_cut = panel_frac + (1 - panel_frac) / 2

    def build(core: int) -> array:
        random = rng.spawn(core).source().random
        # One tile region per core, after the panel/barrier regions.
        own = _shared_base(num_cores, region=2 + core)
        neighbour = _shared_base(num_cores, region=2 + (core - 1) % num_cores)
        produce_pos = consume_pos = 0
        words: List[int] = []
        append = words.append
        while len(words) < ops_per_core:
            budget = min(phase_len, ops_per_core - len(words))
            # Compute phase: interleave panel reads, consume reads of the
            # neighbour's last tile, produce writes of our own tile.
            for _ in range(budget - 2 if budget > 2 else budget):
                draw = random()
                if draw < panel_frac:
                    append((panel_base + bisect_left(panel_cdf, random())) << pshift)
                elif draw < consume_cut:
                    append((neighbour + consume_pos) << pshift)
                    consume_pos = (consume_pos + 1) % tile_blocks
                else:
                    append((own + produce_pos) << pshift | 1)
                    produce_pos = (produce_pos + 1) % tile_blocks
            # Barrier: read the counter, then write the arrival.
            if budget > 2:
                append(barrier_word)
                append(barrier_word | 1)
        return pack_stream(core, words)

    return build


@per_core
def prime_sieve(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    bitmap_blocks: int = 2048,
    base_prime_blocks: int = 32,
    read_frac: float = 0.15,
    block_bytes: int = 64,
) -> CoreBuilder:
    """Segmented sieve of Eratosthenes over a shared bitmap.

    Core ``k`` crosses off multiples of the ``k``-th odd prime: strided
    writes that sweep the shared composite bitmap.  Between write bursts
    every core re-reads the (read-only) base-prime table.  The bitmap is
    write-dominated and striped across cores — high write fraction with
    wide, low-reuse sharing, the opposite corner of the design space from
    read-mostly frontiers.
    """
    _check_frac("read_frac", read_frac)
    if bitmap_blocks < 2:
        raise ConfigError("bitmap_blocks must be >= 2")
    pshift = _packed_shift(block_bytes)
    bitmap_base = _shared_base(num_cores, region=0)
    table_base = _shared_base(num_cores, region=1)
    _blocks(base_prime_blocks)
    primes = _odd_primes(num_cores)

    def build(core: int) -> array:
        random = rng.spawn(core).source().random
        stride = primes[core]
        # Start each core's sweep at its prime (the first composite it
        # owns), like the real segmented sieve.
        pos = stride % bitmap_blocks
        table_pos = 0
        words: List[int] = []
        append = words.append
        for _ in range(ops_per_core):
            if random() < read_frac:
                append((table_base + table_pos) << pshift)
                table_pos = (table_pos + 1) % base_prime_blocks
            else:
                append((bitmap_base + pos) << pshift | 1)
                pos = (pos + stride) % bitmap_blocks
        return pack_stream(core, words)

    return build


@per_core
def union_find(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    node_blocks: int = 1024,
    root_blocks: int = 24,
    max_depth: int = 6,
    compress_frac: float = 0.4,
    private_frac: float = 0.3,
    block_bytes: int = 64,
) -> CoreBuilder:
    """Union-find image segmentation with path compression.

    Each find operation walks a parent-pointer chain through the shared
    node array (dependent reads — pointer chasing), lands on a root drawn
    from a small hot set, and unions into it with a read-modify-write.
    With probability ``compress_frac`` the walk is compressed: every
    visited node is rewritten to point at the root.  Roots are migratory
    (each union moves ownership); interior nodes are read-shared until a
    compression rewrites them; per-core pixel scratch stays private.
    """
    _check_frac("compress_frac", compress_frac)
    _check_frac("private_frac", private_frac)
    if max_depth < 1:
        raise ConfigError("max_depth must be >= 1")
    if node_blocks < max_depth:
        raise ConfigError("node_blocks must be >= max_depth")
    pshift = _packed_shift(block_bytes)
    node_base = _shared_base(num_cores, region=0)
    root_base = _shared_base(num_cores, region=1)
    leaf_cdf = zipf_cdf(node_blocks, 0.4)
    root_cdf = zipf_cdf(_blocks(root_blocks), 0.7)
    private_cdf = zipf_cdf(128, 0.6)
    depth_bits = max_depth.bit_length()
    # The parent chain is a deterministic function of the node (hash
    # step), so distinct cores racing on the same component walk the
    # same blocks.
    parent = [stride_hash(node, 0x5EED) % node_blocks for node in range(node_blocks)]

    def build(core: int) -> array:
        crng = rng.spawn(core)
        source = crng.source()
        random, getrandbits = source.random, source.getrandbits
        root_random = crng.spawn(1).source().random
        private_random = crng.spawn(2).source().random
        base = _private_base(core)
        words: List[int] = []
        append = words.append
        while len(words) < ops_per_core:
            if random() < private_frac:
                block = bisect_left(private_cdf, private_random())
                append((base + block) << pshift | (random() < 0.3))
                continue
            # Find: chase parent pointers from a leaf.
            depth = getrandbits(depth_bits)
            while depth >= max_depth:
                depth = getrandbits(depth_bits)
            node = bisect_left(leaf_cdf, random())
            path = []
            for _ in range(min(depth + 1, ops_per_core - len(words))):
                path.append((node_base + node) << pshift)
                node = parent[node]
            words += path
            # Union at the root: read it, write the merged rank/parent.
            root_word = (root_base + bisect_left(root_cdf, root_random())) << pshift
            words += (root_word, root_word | 1)[:ops_per_core - len(words)]
            # Path compression: rewrite the walked nodes to the root.
            if random() < compress_frac:
                words += [word | 1 for word in path[:ops_per_core - len(words)]]
        return pack_stream(core, words)

    return build


def _odd_primes(count: int) -> list:
    """The first ``count`` odd primes (sieve strides, one per core)."""
    primes = []
    candidate = 3
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 2
    return primes
