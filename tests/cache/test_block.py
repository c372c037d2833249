"""Unit tests for the cache-line metadata record."""

from repro.cache.block import CacheBlock


class TestCacheBlock:
    def test_defaults(self):
        block = CacheBlock(addr=0x10, state=2)
        assert block.addr == 0x10
        assert block.state == 2
        assert not block.dirty
        assert not block.stash
        assert block.version == 0

    def test_slots_prevent_stray_attributes(self):
        block = CacheBlock(0, 0)
        try:
            block.bogus = 1
        except AttributeError:
            return
        raise AssertionError("__slots__ should reject unknown attributes")

    def test_repr_shows_flags(self):
        block = CacheBlock(0x40, 3, dirty=True)
        block.stash = True
        text = repr(block)
        assert "dirty" in text and "stash" in text
