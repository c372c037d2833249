"""Unit tests for the address helpers: power-of-two checks, banks, hashing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.addr import home_bank, is_power_of_two, log2_exact, stride_hash
from repro.common.errors import ConfigError


class TestPowerOfTwo:
    def test_accepts_powers(self):
        for exp in range(20):
            assert is_power_of_two(1 << exp)

    def test_rejects_non_powers(self):
        for value in (0, -1, -4, 3, 6, 12, 100):
            assert not is_power_of_two(value)

    def test_log2_exact(self):
        assert log2_exact(1) == 0
        assert log2_exact(64) == 6
        assert log2_exact(1 << 17) == 17

    def test_log2_rejects_non_power(self):
        with pytest.raises(ConfigError):
            log2_exact(48)

    def test_log2_rejects_zero(self):
        with pytest.raises(ConfigError):
            log2_exact(0)


class TestHomeBank:
    def test_interleaves_consecutive_blocks(self):
        banks = [home_bank(block, 4) for block in range(8)]
        assert banks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_single_bank(self):
        assert home_bank(12345, 1) == 0


class TestStrideHash:
    def test_deterministic(self):
        assert stride_hash(123, 1) == stride_hash(123, 1)

    def test_salt_decorrelates(self):
        same = sum(
            stride_hash(addr, 1) % 64 == stride_hash(addr, 2) % 64
            for addr in range(1000)
        )
        # Two independent hashes agree on a 64-slot table ~1/64 of the time.
        assert same < 100

    def test_non_negative(self):
        for addr in range(0, 10000, 37):
            assert stride_hash(addr, 3) >= 0

    @given(st.integers(min_value=0, max_value=2**60), st.integers(min_value=0, max_value=8))
    def test_range_property(self, addr, salt):
        value = stride_hash(addr, salt)
        assert 0 <= value < 2**64
