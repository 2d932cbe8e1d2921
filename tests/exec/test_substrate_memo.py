"""The worker's substrate-log memo: one recording per stream, same results.

Scalar ``workload`` and ``l2`` jobs record the substrate of their stream
once per process and replay only the encoding layer afterwards.  Results,
``cache.*`` counters and trace ``access`` events must not depend on
whether a job recorded the stream or reused it.
"""

import pytest

from repro.core.config import CNTCacheConfig
from repro.exec import l2_job, workload_job
from repro.exec import worker
from repro.exec.worker import clear_memos, execute_job
from repro.harness.runner import replay
from repro.obs import probe, trace
from repro.obs.probe import ObsScope
from repro.obs.trace import TraceSink
from repro.workloads.program import get_workload

CONFIG = CNTCacheConfig()


@pytest.fixture(autouse=True)
def fresh_memos():
    clear_memos()
    yield
    clear_memos()


def cache_counters(result):
    return {
        name: count
        for name, count in result.obs["counters"].items()
        if name.startswith("cache.")
    }


def observed(job):
    with probe.recording(ObsScope()):
        return execute_job(job)


class TestMemo:
    def test_one_recording_serves_every_scheme(self):
        jobs = [
            workload_job(CONFIG.variant(scheme=scheme), "crc32", "tiny", 3)
            for scheme in ("cnt", "baseline", "dbi")
        ]
        results = [observed(job) for job in jobs]
        assert len(worker._SUBSTRATES) == 1
        counters = [result.obs["counters"] for result in results]
        assert counters[0]["substrate.records"] == 1
        assert "substrate.memo_hits" not in counters[0]
        assert [c["substrate.memo_hits"] for c in counters[1:]] == [1, 1]
        assert "phase.substrate_record" in results[0].obs["timers"]
        assert "phase.substrate_record" not in results[1].obs["timers"]

    def test_memo_fed_results_equal_live_replays(self):
        run = get_workload("records").build("tiny", seed=3)
        for config in (CONFIG, CONFIG.variant(scheme="invert", window=8)):
            fed = execute_job(workload_job(config, "records", "tiny", 3))
            live = replay(fed.job.config, run.trace, run.preloads)
            assert fed.stats.to_dict() == live.stats.to_dict()

    def test_substrate_knobs_get_their_own_stream(self):
        for config in (CONFIG, CONFIG.variant(assoc=8), CONFIG.variant(window=4)):
            execute_job(workload_job(config, "crc32", "tiny", 3))
        assert len(worker._SUBSTRATES) == 2

    def test_clear_memos_drops_the_log(self):
        execute_job(workload_job(CONFIG, "crc32", "tiny", 3))
        assert worker._SUBSTRATES
        clear_memos()
        assert worker._SUBSTRATES == {}

    def test_l2_streams_are_memoized_too(self):
        fed = [
            execute_job(l2_job(CONFIG.variant(scheme=scheme), "stream", "tiny", 3))
            for scheme in ("cnt", "baseline")
        ]
        assert len(worker._SUBSTRATES) == 1
        key = next(iter(worker._STREAMS))
        stream = worker._STREAMS[key]
        run = get_workload("stream").build("tiny", seed=3)
        for result in fed:
            live = replay(result.job.config, stream, run.preloads)
            assert result.stats.to_dict() == live.stats.to_dict()

    def test_array_backend_keeps_its_own_substrate(self):
        pytest.importorskip("numpy")
        execute_job(workload_job(CONFIG, "crc32", "tiny", 3, backend="array"))
        assert worker._SUBSTRATES == {}


class TestObservabilityParity:
    """Recording or reusing a stream is invisible to per-job observability."""

    def test_cache_counters_match_live_and_reused(self):
        job = workload_job(CONFIG, "records", "tiny", 3)
        recorded = observed(job)
        reused = observed(job)
        run = get_workload("records").build("tiny", seed=3)
        with probe.recording(ObsScope()) as scope:
            replay(job.config, run.trace, run.preloads)
        live = {
            name: count
            for name, count in scope.counters.items()
            if name.startswith("cache.")
        }
        assert live
        assert cache_counters(recorded) == cache_counters(reused) == live

    def test_trace_access_events_match(self):
        job = workload_job(CONFIG, "records", "tiny", 3)

        def access_events():
            with trace.tracing(TraceSink(capacity=1 << 16), every=3):
                result = execute_job(job)
            return [
                event
                for event in result.trace["events"]
                if event["kind"] == "access"
            ]

        recorded, reused = access_events(), access_events()
        assert recorded
        assert recorded == reused
