"""Unit tests for address decomposition."""

import pytest

from repro.cache.address import AddressError, AddressMapper


class TestConstruction:
    def test_valid(self):
        mapper = AddressMapper(line_size=64, n_sets=128)
        assert mapper.offset_bits == 6
        assert mapper.index_bits == 7

    def test_rejects_non_pow2_line(self):
        with pytest.raises(AddressError):
            AddressMapper(line_size=48, n_sets=128)

    def test_rejects_non_pow2_sets(self):
        with pytest.raises(AddressError):
            AddressMapper(line_size=64, n_sets=100)


class TestSplit:
    def test_fields(self):
        mapper = AddressMapper(line_size=64, n_sets=128)
        addr = (0xABC << 13) | (37 << 6) | 21
        tag, set_index, offset = mapper.split(addr)
        assert tag == 0xABC
        assert set_index == 37
        assert offset == 21

    def test_rebuild_inverts_split(self):
        mapper = AddressMapper(line_size=64, n_sets=128)
        for addr in (0, 63, 64, 0x12345, 0xFFFFFFF8):
            tag, set_index, offset = mapper.split(addr)
            assert mapper.rebuild(tag, set_index, offset) == addr

    def test_rejects_negative(self):
        with pytest.raises(AddressError):
            AddressMapper(64, 16).split(-1)

    def test_rebuild_range_checks(self):
        mapper = AddressMapper(64, 16)
        with pytest.raises(AddressError):
            mapper.rebuild(0, 16, 0)
        with pytest.raises(AddressError):
            mapper.rebuild(0, 0, 64)
        with pytest.raises(AddressError):
            mapper.rebuild(-1, 0, 0)


class TestLineOps:
    def test_line_address(self):
        mapper = AddressMapper(64, 16)
        assert mapper.line_address(0) == 0
        assert mapper.line_address(63) == 0
        assert mapper.line_address(64) == 64
        assert mapper.line_address(130) == 128

    def test_spans_lines(self):
        mapper = AddressMapper(64, 16)
        assert not mapper.spans_lines(0, 64)
        assert mapper.spans_lines(1, 64)
        assert not mapper.spans_lines(60, 4)
        assert mapper.spans_lines(60, 5)

    def test_spans_rejects_zero_size(self):
        with pytest.raises(AddressError):
            AddressMapper(64, 16).spans_lines(0, 0)


class TestLineParts:
    def test_aligned_access_single_part(self):
        assert AddressMapper(64, 16).line_parts(0, 64) == [(0, 64)]

    def test_crossing_access_two_parts(self):
        assert AddressMapper(64, 16).line_parts(60, 8) == [(60, 4), (64, 4)]

    def test_long_access_many_parts(self):
        parts = AddressMapper(64, 16).line_parts(10, 200)
        assert parts == [(10, 54), (64, 64), (128, 64), (192, 18)]
        assert sum(size for _, size in parts) == 200

    def test_rejects_zero_size(self):
        with pytest.raises(AddressError):
            AddressMapper(64, 16).line_parts(0, 0)
