"""Differential suite: a log-fed replay is bit-identical to a live one.

The substrate log (:mod:`repro.cache.substrate`) is recorded once per
substrate stream and replayed under every encoding config of that
stream.  Every test here compares a log-fed :meth:`CNTCache.run` with a
live run of the same config — the whole :class:`EnergyStats`, every
counter and every femtojoule, with ``==`` — and the bytes the consumer
returns, over schemes, replacement and write policies, granularity,
leakage, FIFO depth and drain, and line-crossing accesses.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.substrate import RowFormat, SubstrateError, SubstrateLog
from repro.cnfet.leakage import LeakageModel
from repro.core.cntcache import CNTCache, SimulationError
from repro.core.config import CNTCacheConfig
from repro.trace.record import Access

SCHEMES = (
    "baseline",
    "invert",
    "static-invert",
    "fill-greedy",
    "dbi",
    "cnt",
    "cnt-quant",
    "cnt-shared",
)

#: Unaligned accesses of 1-12 bytes over a small footprint: hits,
#: evictions and (with 16-byte lines) frequent line-crossing parts.
operations = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=400),  # byte address
        st.binary(min_size=1, max_size=12),
    ),
    min_size=1,
    max_size=100,
)

configs = st.builds(
    lambda scheme, replacement, write_policy, granularity, leakage, fifo,
    drain, window, seed: CNTCacheConfig(
        scheme=scheme,
        size=128,
        assoc=2,
        line_size=16,
        partitions=4,
        replacement=replacement,
        write_policy=write_policy,
        access_granularity=granularity,
        leakage=LeakageModel.cnfet() if leakage else None,
        fifo_depth=fifo,
        drain_per_access=drain,
        window=window,
        seed=seed,
    ),
    scheme=st.sampled_from(SCHEMES),
    replacement=st.sampled_from(["lru", "fifo", "random", "plru"]),
    write_policy=st.sampled_from(["wb-wa", "wt-wa", "wt-nwa", "wb-nwa"]),
    granularity=st.sampled_from(["line", "word"]),
    leakage=st.booleans(),
    fifo=st.sampled_from([1, 2, 8]),
    drain=st.sampled_from([0, 1, 2]),
    window=st.sampled_from([2, 4, 16]),
    seed=st.integers(min_value=0, max_value=3),
)


def trace_of(ops):
    return [
        Access.write(addr, data) if is_write else Access.read(addr, data)
        for is_write, addr, data in ops
    ]


def live_run(config, trace):
    sim = CNTCache(config)
    returned = b"".join(sim.access(access) for access in trace)
    sim.finalize()
    return sim, returned


def fed_run(config, trace, log):
    """A log-fed run, capturing what the consumer returns per row."""
    sim = CNTCache(config)
    parts = []
    consume = sim._consume
    sim._consume = lambda *row: parts.append(consume(*row)) or parts[-1]
    sim.run(trace, substrate=log)
    return sim, b"".join(parts)


def recorded(config, trace):
    log = SubstrateLog()
    CNTCache(config).run(trace, substrate=log)
    return log


def assert_same_lines(live, fed):
    config = live.config
    for set_index in range(config.n_sets):
        for way in range(config.assoc):
            assert fed.logical_line(set_index, way) == live.logical_line(
                set_index, way
            )
            try:
                expected = live.directions_of(set_index, way)
            except SimulationError:
                with pytest.raises(SimulationError):
                    fed.directions_of(set_index, way)
                continue
            assert fed.directions_of(set_index, way) == expected


@settings(max_examples=150, deadline=None)
@given(config=configs, recorder_scheme=st.sampled_from(SCHEMES), ops=operations)
def test_log_fed_replay_equals_live_run(config, recorder_scheme, ops):
    trace = trace_of(ops)
    # The log is recorded under another scheme with the same substrate.
    log = recorded(config.variant(scheme=recorder_scheme), trace)
    live, live_bytes = live_run(config, trace)
    fed, fed_bytes = fed_run(config, trace, log)
    assert fed.stats.to_dict() == live.stats.to_dict()
    assert fed_bytes == live_bytes
    assert fed._stored_ones == live._stored_ones
    assert fed._tags == live._tags
    assert_same_lines(live, fed)


@settings(max_examples=60, deadline=None)
@given(config=configs, ops=operations)
def test_recording_run_equals_live_run(config, ops):
    """The replay that records the log is itself a log-fed replay."""
    trace = trace_of(ops)
    live, _ = live_run(config, trace)
    log = SubstrateLog()
    recorder = CNTCache(config)
    recorder.run(trace, substrate=log)
    assert recorder.stats.to_dict() == live.stats.to_dict()
    assert log.recorded and log.accesses == len(trace)


@settings(max_examples=60, deadline=None)
@given(config=configs, other=configs, ops=operations)
def test_no_feedback_from_the_encoding_layer(config, other, ops):
    """Logs recorded under two configs of one substrate match row for row."""
    other = other.variant(
        size=config.size,
        assoc=config.assoc,
        line_size=config.line_size,
        replacement=config.replacement,
        write_policy=config.write_policy,
        seed=config.seed,
    )
    assert other.substrate_key == config.substrate_key
    trace = trace_of(ops)
    first, second = recorded(config, trace), recorded(other, trace)
    assert first.rows == second.rows
    assert first.fills == second.fills
    assert first.fill_tags == second.fill_tags
    assert first.writes == second.writes
    assert first.counters == second.counters


class TestRowFormat:
    @pytest.mark.parametrize("way", [-1, 0, 3])
    def test_pack_round_trips(self, way):
        rows = RowFormat(line_size=64, assoc=4)
        fields = (True, False, True, True, 127, way, 63, 64)
        assert rows.unpack(rows.pack(*fields)) == fields

    def test_filled_only_on_allocating_misses(self):
        rows = RowFormat(line_size=64, assoc=4)
        assert rows.filled(rows.pack(False, False, False, False, 5, 2, 0, 8))
        assert not rows.filled(rows.pack(False, True, False, False, 5, 2, 0, 8))
        assert not rows.filled(rows.pack(True, False, False, False, 5, -1, 0, 8))


class TestLog:
    def trace(self):
        return [Access.write(0x10, b"ABCDEFGH"), Access.read(0x3C, b"wxyz1234")]

    def test_in_line_writes_reuse_the_trace_bytes(self):
        trace = self.trace()
        log = recorded(CNTCacheConfig(), trace)
        assert log.writes[0] is trace[0].data
        # The read crosses into the next 64-byte line: two rows, the
        # first a hit on the written line, the second a fill.
        assert len(log.rows) == 3
        assert len(log.fills) == 2 * 64

    def test_counters_match_a_live_substrate(self):
        from repro.obs import probe

        trace = self.trace()
        log = recorded(CNTCacheConfig(), trace)
        with probe.recording(probe.ObsScope()) as scope:
            CNTCache(CNTCacheConfig()).run(trace)
        live = {
            name: count
            for name, count in scope.counters.items()
            if name.startswith("cache.")
        }
        assert log.counters == live

    def test_recording_twice_is_refused(self):
        trace = self.trace()
        log = recorded(CNTCacheConfig(), trace)
        with pytest.raises(SubstrateError):
            log.record(CNTCache(CNTCacheConfig()).cache, trace, ())

    def test_unrecorded_log_has_no_entries(self):
        with pytest.raises(SubstrateError):
            next(SubstrateLog().entries())

    def test_other_substrate_refused(self):
        trace = self.trace()
        log = recorded(CNTCacheConfig(), trace)
        with pytest.raises(SimulationError, match="recorded for"):
            CNTCache(CNTCacheConfig(assoc=8)).run(trace, substrate=log)

    def test_other_trace_length_refused(self):
        trace = self.trace()
        log = recorded(CNTCacheConfig(), trace)
        with pytest.raises(SimulationError, match="holds 2 accesses"):
            CNTCache(CNTCacheConfig()).run(trace[:1], substrate=log)

    def test_used_simulator_refused(self):
        trace = self.trace()
        log = recorded(CNTCacheConfig(), trace)
        sim = CNTCache(CNTCacheConfig())
        sim.access(trace[0])
        with pytest.raises(SimulationError, match="fresh simulator"):
            sim.run(trace, substrate=log)

    def test_log_fed_simulator_takes_no_live_access(self):
        trace = self.trace()
        log = recorded(CNTCacheConfig(), trace)
        sim = CNTCache(CNTCacheConfig())
        sim.run(trace, substrate=log)
        assert sim.cache.accesses == 0  # the substrate was not driven
        with pytest.raises(SimulationError, match="substrate log"):
            sim.access(trace[1])
