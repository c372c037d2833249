"""Block-address arithmetic shared by every cache-like structure.

Throughout the library, memory is addressed at *byte* granularity in traces
and at *block* granularity everywhere else.  A ``block address`` is the byte
address with the block-offset bits stripped (i.e. ``byte_addr >>
log2(block_bytes)``), so two byte addresses in the same cache line map to the
same block address.  All caches, directories and the LLC key their state by
block address.

The helpers here are tiny, pure functions: the power-of-two checks that
validate every geometry, the static home-bank interleave, and the hash the
cuckoo directory and its flat model share.
"""

from __future__ import annotations

from .errors import ConfigError


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return log2 of ``value``, requiring it to be an exact power of two.

    Raises:
        ConfigError: if ``value`` is not a positive power of two.
    """
    if not is_power_of_two(value):
        raise ConfigError(f"expected a power of two, got {value}")
    return value.bit_length() - 1


def home_bank(block_addr: int, num_banks: int) -> int:
    """Static block-interleaved home-bank mapping used by the LLC/directory.

    Low-order block-address bits select the bank, which interleaves
    consecutive blocks across banks — the standard choice for banked shared
    LLCs.
    """
    return block_addr & (num_banks - 1)


def stride_hash(block_addr: int, salt: int) -> int:
    """Cheap deterministic integer hash used by the Cuckoo directory.

    A Fibonacci-style multiplicative hash; ``salt`` selects among independent
    hash functions.  Returns a full-width non-negative integer which callers
    reduce modulo their table size.
    """
    x = (block_addr + salt * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 33
    return x
