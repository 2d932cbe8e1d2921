"""Remaining run-mode edge cases of the CNT-Cache engine."""

import pytest

from repro.core.cntcache import CNTCache, SimulationError
from repro.core.config import CNTCacheConfig
from repro.trace.record import Access


class TestRunModes:
    def test_run_without_finalize_leaves_queue(self):
        config = CNTCacheConfig(
            window=4, fill_policy="neutral", drain_per_access=0
        )
        sim = CNTCache(config)
        trace = [Access.write(0x0, bytes(8))]
        trace += [Access.read(0x0, bytes(8))] * 3
        sim.run(trace, finalize=False)
        assert sim.pending_updates == 1
        sim.finalize()
        assert sim.pending_updates == 0

    def test_empty_trace(self):
        sim = CNTCache(CNTCacheConfig())
        stats = sim.run([])
        assert stats.accesses == 0
        assert stats.total_fj == 0.0

    def test_shared_memory_between_instances(self):
        from repro.cache.memory import MainMemory

        memory = MainMemory()
        writer = CNTCache(CNTCacheConfig(), memory=memory)
        writer.access(Access.write(0x100, b"SHAREDOK"))
        writer.cache.flush()
        reader = CNTCache(CNTCacheConfig(), memory=memory)
        assert reader.access(Access.read(0x100, b"SHAREDOK")) == b"SHAREDOK"

    def test_line_filled_outside_cntcache_rejected(self):
        sim = CNTCache(CNTCacheConfig())
        sim.access(Access.write(0x0, bytes(8)))
        # The substrate holds a line the encoding layer never saw filled:
        # its state table has no entry for it.
        sim.cache.access(False, 0x40, 8, bytes(8))
        assert sim.cache.probe(0x40)[1] is not None
        with pytest.raises(SimulationError):
            sim.access(Access.read(0x40, bytes(8)))

    def test_window_observer_sees_events(self):
        events = []
        sim = CNTCache(CNTCacheConfig(window=4))
        sim.window_observer = events.append
        sim.access(Access.write(0x0, bytes(8)))
        for _ in range(7):
            sim.access(Access.read(0x0, bytes(8)))
        assert len(events) == 2
        assert events[0].index == 0
        assert events[1].index == 1
        assert events[0].window == 4
        assert 0 <= events[0].wr_num <= 4

    def test_observer_not_called_for_nonadaptive(self):
        events = []
        sim = CNTCache(CNTCacheConfig(scheme="dbi"))
        sim.window_observer = events.append
        for _ in range(40):
            sim.access(Access.read(0x0, bytes(8)))
        assert events == []

    def test_zero_drain_budget_never_drains(self):
        config = CNTCacheConfig(
            window=4, fill_policy="neutral", drain_per_access=0,
            fifo_depth=64,
        )
        sim = CNTCache(config)
        for slot in range(8):
            sim.access(Access.write(slot * 64, bytes(8)))
            for _ in range(3):
                sim.access(Access.read(slot * 64, bytes(8)))
        assert sim.pending_updates == 8
        assert sim.stats.reencode_fj == 0.0
