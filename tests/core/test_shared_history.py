"""Tests for the cnt-shared scheme (per-set history counters)."""

import pytest

from repro.core.cntcache import CNTCache
from repro.core.config import CNTCacheConfig
from repro.trace.record import Access


class TestConfig:
    def test_amortised_history_bits(self):
        shared = CNTCacheConfig(scheme="cnt-shared", assoc=4, window=16)
        exact = CNTCacheConfig(scheme="cnt", assoc=4, window=16)
        assert shared.history_bits_per_line == 2  # ceil(8 / 4)
        assert exact.history_bits_per_line == 8

    def test_uses_predictor(self):
        assert CNTCacheConfig(scheme="cnt-shared").uses_predictor
        assert CNTCacheConfig(scheme="cnt-shared").shared_history
        assert not CNTCacheConfig(scheme="cnt").shared_history


class TestBehaviour:
    def test_correctness(self):
        sim = CNTCache(CNTCacheConfig(scheme="cnt-shared"))
        sim.access(Access.write(0x100, b"SHARED!!"))
        assert sim.access(Access.read(0x100, b"SHARED!!")) == b"SHARED!!"

    def test_lines_have_no_private_history(self):
        sim = CNTCache(CNTCacheConfig(scheme="cnt-shared"))
        sim.access(Access.write(0x100, bytes(8)))
        set_index, way = sim.cache.probe(0x100)
        assert sim.line_state(set_index, way).history is None

    def test_windows_aggregate_across_ways(self):
        """Two lines in one set fill the shared window together."""
        config = CNTCacheConfig(scheme="cnt-shared", window=8)
        sim = CNTCache(config)
        # Two addresses mapping to the same set (set 0): line 0 and the
        # line one full cache-way stride away.
        stride = config.n_sets * config.line_size
        for _ in range(4):
            sim.access(Access.read(0x0, bytes(8)))
            sim.access(Access.read(stride, bytes(8)))
        # 8 accesses total to set 0 -> exactly one shared window.
        assert sim.stats.windows_completed == 1

    def test_per_line_scheme_needs_more_accesses(self):
        config = CNTCacheConfig(scheme="cnt", window=8)
        sim = CNTCache(config)
        stride = config.n_sets * config.line_size
        for _ in range(4):
            sim.access(Access.read(0x0, bytes(8)))
            sim.access(Access.read(stride, bytes(8)))
        # Each line saw only 4 accesses: no window completed yet.
        assert sim.stats.windows_completed == 0

    def test_still_saves_on_zero_read_stream(self):
        trace = [Access.write(0x0, bytes(8))]
        trace += [Access.read(0x0, bytes(8))] * 100
        base = CNTCache(CNTCacheConfig(scheme="baseline"))
        base.run(trace)
        shared = CNTCache(CNTCacheConfig(scheme="cnt-shared"))
        shared.run(trace)
        assert shared.stats.savings_vs(base.stats) > 0.2

    def test_close_to_private_history_on_suite(self, tiny_runs):
        for name in ("dijkstra", "records"):
            run = tiny_runs[name]
            results = {}
            for scheme in ("baseline", "cnt", "cnt-shared"):
                sim = CNTCache(CNTCacheConfig(scheme=scheme))
                sim.preload_all(run.preloads)
                sim.run(run.trace)
                results[scheme] = sim.stats
            exact = results["cnt"].savings_vs(results["baseline"])
            shared = results["cnt-shared"].savings_vs(results["baseline"])
            # Aliasing costs something but not the store: within 8 points.
            assert abs(exact - shared) < 0.08, name
