"""Unit tests for CacheLine and MainMemory."""

import pytest

from repro.cache.line import CacheLine, LineError
from repro.cache.memory import MainMemory, MemoryError_


class TestCacheLine:
    def test_starts_invalid_zeroed(self):
        line = CacheLine(64)
        assert not line.valid
        assert not line.dirty
        assert bytes(line.data) == bytes(64)

    def test_install(self):
        line = CacheLine(8)
        line.install(tag=5, data=bytes(range(8)))
        assert line.valid
        assert line.tag == 5
        assert not line.dirty
        assert bytes(line.data) == bytes(range(8))

    def test_install_wrong_size(self):
        with pytest.raises(LineError):
            CacheLine(8).install(0, bytes(4))

    def test_read_write_roundtrip(self):
        line = CacheLine(16)
        line.write(4, b"\xAA\xBB")
        assert line.read(4, 2) == b"\xAA\xBB"
        assert line.read(0, 4) == bytes(4)

    def test_write_does_not_set_dirty(self):
        # Dirty is the cache's decision, not the line's.
        line = CacheLine(16)
        line.write(0, b"\x01")
        assert not line.dirty

    def test_out_of_range(self):
        line = CacheLine(8)
        with pytest.raises(LineError):
            line.read(6, 4)
        with pytest.raises(LineError):
            line.write(8, b"\x00")

    def test_invalidate_clears_state(self):
        line = CacheLine(8)
        line.install(1, bytes(8))
        line.dirty = True
        line.invalidate()
        assert not line.valid
        assert not line.dirty

    def test_rejects_zero_size_read(self):
        with pytest.raises(LineError):
            CacheLine(8).read(0, 0)


class TestMainMemory:
    def test_default_zero_fill(self):
        memory = MainMemory()
        assert memory.read_block(0x1000, 16) == bytes(16)

    def test_write_read_roundtrip(self):
        memory = MainMemory()
        memory.write_block(0x2000, b"hello world!")
        assert memory.read_block(0x2000, 12) == b"hello world!"

    def test_cross_page_access(self):
        memory = MainMemory()
        payload = bytes(range(100))
        memory.write_block(4096 - 50, payload)
        assert memory.read_block(4096 - 50, 100) == payload

    def test_traffic_counters(self):
        memory = MainMemory()
        memory.write_block(0, b"\x01")
        memory.read_block(0, 1)
        memory.read_block(0, 1)
        assert memory.writes == 1
        assert memory.reads == 2

    def test_peek_poke_untracked(self):
        memory = MainMemory()
        memory.poke(0x100, b"\xFF")
        assert memory.peek(0x100, 1) == b"\xFF"
        assert memory.reads == 0
        assert memory.writes == 0

    def test_custom_fill_byte(self):
        memory = MainMemory(fill_byte=0xAB)
        assert memory.read_block(0, 4) == b"\xAB" * 4

    def test_fill_byte_survives_partial_write(self):
        memory = MainMemory(fill_byte=0xAB)
        memory.write_block(1, b"\x00")
        assert memory.read_block(0, 3) == b"\xAB\x00\xAB"

    def test_rejects_bad_args(self):
        memory = MainMemory()
        with pytest.raises(MemoryError_):
            memory.read_block(-1, 4)
        with pytest.raises(MemoryError_):
            memory.read_block(0, 0)
        with pytest.raises(MemoryError_):
            MainMemory(fill_byte=300)

    def test_allocated_bytes(self):
        memory = MainMemory()
        assert memory.allocated_bytes == 0
        memory.write_block(0, b"\x01")
        assert memory.allocated_bytes == 4096
        memory.write_block(4096, b"\x01")
        assert memory.allocated_bytes == 8192
