"""Directory storage / area model — the T2 table.

Computes bits-per-entry and total storage for each organization at each
provisioning ratio, including the stash design's one-bit-per-LLC-line
overhead.  This is the quantitative form of the abstract's claim that the
stash directory "enables significantly smaller directory designs": the 1/8
stash directory plus its LLC stash bits is compared against the 1x
conventional sparse directory it performance-matches.

Assumptions (documented, conventional): 48-bit physical addresses, so a
64-byte-block address is 42 bits; each entry carries a valid bit, a 2-bit
state field, an owner pointer, replacement state, and its sharer encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.addr import log2_exact
from ..common.config import DirectoryConfig, DirectoryKind, SystemConfig
from ..directory.sharers import sharer_storage_bits

#: Physical address width assumed by the tag model.
PHYSICAL_ADDR_BITS = 48


@dataclass
class StorageEstimate:
    """Storage of one directory configuration."""

    entries: int
    bits_per_entry: int
    directory_bits: int
    stash_bit_overhead: int   # extra LLC bits (stash design only)

    @property
    def total_bits(self) -> int:
        """Directory array plus any LLC-side overhead."""
        return self.directory_bits + self.stash_bit_overhead

    @property
    def total_kib(self) -> float:
        """Total storage in KiB."""
        return self.total_bits / 8 / 1024


def entry_bits(config: DirectoryConfig, num_cores: int, sets: int, block_bytes: int) -> int:
    """Bits per directory entry for this organization and format."""
    block_addr_bits = PHYSICAL_ADDR_BITS - log2_exact(block_bytes)
    if config.kind in (DirectoryKind.CUCKOO, DirectoryKind.SCD):
        # Fully hashed / fully associative pools store the full block address.
        tag = block_addr_bits
    elif config.kind is DirectoryKind.TARDIS:
        # Embedded in the LLC line: the LLC tag already identifies the block.
        tag = 0
    else:
        tag = block_addr_bits - max(0, log2_exact(max(1, sets)))
    return tag + _untagged_entry_bits(config, num_cores)


def _untagged_entry_bits(config: DirectoryConfig, num_cores: int) -> int:
    """Bits per entry besides the tag: state, owner, replacement, sharers."""
    state = 2
    valid = 1
    owner_ptr = max(1, (num_cores - 1).bit_length())
    replacement = max(1, (config.ways - 1).bit_length())  # LRU rank approx
    if config.kind is DirectoryKind.TARDIS:
        # No sharer vector at all: two timestamps (wts/rts) plus an owner
        # pointer ride in the LLC tag array.  No replacement state either —
        # entries live and die with the LLC line.  This is the O(log N)
        # scaling story timestamp coherence trades its lease misses for.
        return 2 * config.tardis_ts_bits + owner_ptr + valid
    if config.kind is DirectoryKind.SCD:
        from ..directory.hierarchical import DEFAULT_LEAF_SIZE, DEFAULT_POINTERS

        # An SCD line holds either a few pointers or one leaf bit-group,
        # whichever is wider, plus a type bit.
        ptr_bits = max(1, (num_cores - 1).bit_length())
        sharers = max(DEFAULT_POINTERS * ptr_bits, DEFAULT_LEAF_SIZE) + 1
    else:
        sharers = sharer_storage_bits(config, num_cores)
    return state + valid + owner_ptr + replacement + sharers


def embedded_storage(config: SystemConfig) -> StorageEstimate:
    """Storage of a directory embedded in the LLC, in ``config``'s entry format.

    One untagged entry per LLC line (the LLC tag identifies the block)
    holding the fields of ``config``'s directory entry, and no stash bits.
    Entries exist exactly for LLC-resident blocks, so the design never
    conflicts and simulates as the ideal directory; T2 prints its storage,
    the cost sparse directories exist to avoid.
    """
    entries = config.llc.blocks
    bits = _untagged_entry_bits(config.directory, config.num_cores)
    return StorageEstimate(
        entries=entries,
        bits_per_entry=bits,
        directory_bits=entries * bits,
        stash_bit_overhead=0,
    )


def storage_of(config: SystemConfig) -> StorageEstimate:
    """Storage estimate for a full system configuration."""
    entries = config.directory_entries
    dcfg = config.directory
    if dcfg.kind is DirectoryKind.IDEAL:
        # Report the duplicate-tag equivalent: one entry per private block.
        entries = config.num_cores * config.private_blocks_per_core
    elif dcfg.kind is DirectoryKind.TARDIS:
        # One embedded entry per LLC line (no tag: the LLC tag serves).
        entries = config.llc.blocks
    sets = max(1, entries // dcfg.ways)
    bits = entry_bits(dcfg, config.num_cores, sets, config.block_bytes)
    stash_kinds = (DirectoryKind.STASH, DirectoryKind.ADAPTIVE_STASH)
    stash_overhead = config.llc.blocks if dcfg.kind in stash_kinds else 0
    if dcfg.discovery_filter_slots:
        from ..core.filter import PresenceFilter

        stash_overhead += PresenceFilter.storage_bits(
            config.num_cores, dcfg.discovery_filter_slots
        )
    return StorageEstimate(
        entries=entries,
        bits_per_entry=bits,
        directory_bits=entries * bits,
        stash_bit_overhead=stash_overhead,
    )
