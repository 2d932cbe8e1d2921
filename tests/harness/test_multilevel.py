"""Tests for the L1-filtered L2 stream generator."""

import pytest

from repro.core.cntcache import CNTCache
from repro.harness.multilevel import default_l2_config, l1_filtered_stream
from repro.trace.record import Access


class TestL1FilteredStream:
    def test_line_granular(self, tiny_runs):
        run = tiny_runs["qsort"]
        stream = l1_filtered_stream(run.trace, run.preloads)
        assert stream
        for access in stream:
            assert access.size == 64
            assert access.addr % 64 == 0

    def test_hot_line_filtered_out(self):
        """A line hammered in L1 appears exactly once in the L2 stream."""
        trace = [Access.read(0x1000, bytes(8))] * 100
        stream = l1_filtered_stream(trace)
        assert len(stream) == 1
        assert not stream[0].is_write

    def test_dirty_eviction_becomes_write(self):
        # Direct-mapped-ish tiny L1: 1 KiB 2-way = 8 sets; two lines 1 KiB
        # apart with the same set index force an eviction.
        trace = [
            Access.write(0x0, b"\xAA" * 8),
            Access.read(0x1000, bytes(8)),
            Access.read(0x2000, bytes(8)),
        ]
        stream = l1_filtered_stream(trace, l1_size=1024, l1_assoc=2)
        writes = [access for access in stream if access.is_write]
        assert len(writes) == 1
        assert writes[0].addr == 0x0
        assert writes[0].data[:8] == b"\xAA" * 8

    def test_crossing_access_refills_only_the_missing_line(self):
        trace = [
            Access.read(0x0, bytes(8)),  # line 0 resident
            Access.read(0x3C, bytes(8)),  # crosses into line 0x40
        ]
        stream = l1_filtered_stream(trace)
        assert [access.addr for access in stream] == [0x0, 0x40]

    def test_refill_carries_true_contents(self):
        preloads = [(0x1000, b"\x5A" * 64)]
        trace = [Access.read(0x1008, b"\x5A" * 4)]
        stream = l1_filtered_stream(trace, preloads)
        assert stream[0].data == b"\x5A" * 64

    def test_stream_replays_through_cnt_cache(self, tiny_runs):
        run = tiny_runs["pointer_chase"]
        stream = l1_filtered_stream(run.trace, run.preloads)
        sim = CNTCache(default_l2_config("cnt"))
        sim.preload_all(run.preloads)
        sim.run(stream)
        assert sim.stats.accesses == len(stream)
        assert sim.stats.total_fj > 0

    def test_miss_heavy_workload_produces_long_stream(self, tiny_runs):
        hostile = tiny_runs["pointer_chase"]
        friendly = tiny_runs["matmul"]
        hostile_stream = l1_filtered_stream(hostile.trace, hostile.preloads)
        friendly_stream = l1_filtered_stream(
            friendly.trace, friendly.preloads
        )
        assert (
            len(hostile_stream) / len(hostile.trace)
            > len(friendly_stream) / len(friendly.trace)
        )


class TestDefaultL2Config:
    def test_geometry(self):
        config = default_l2_config()
        assert config.size == 256 * 1024
        assert config.assoc == 8
        assert config.scheme == "cnt"

    def test_scheme_override(self):
        assert default_l2_config("baseline").scheme == "baseline"
