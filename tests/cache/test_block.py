"""Unit tests for the cache-line metadata record."""

from repro.cache.block import CacheBlock, copy_block


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


class TestCopyBlock:
    def test_copy_none(self):
        assert copy_block(None) is None

    def test_copy_is_deep_snapshot(self):
        block = CacheBlock(0x40, 3, dirty=True)
        block.stash = True
        block.version = 7
        clone = copy_block(block)
        assert clone is not block
        assert (clone.addr, clone.state) == (0x40, 3)
        assert clone.dirty and clone.stash and clone.version == 7
        block.version = 8
        assert clone.version == 7
