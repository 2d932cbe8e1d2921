"""Job execution: the one place a :class:`SimJob` turns into numbers.

:func:`execute_job` runs in whatever process calls it — the engine uses
it directly for serial execution and ships :func:`execute_payload` to
``ProcessPoolExecutor`` workers for parallel execution.  Workloads (and
L1-filtered streams, which are equally expensive to build) are memoized
per process, so a sweep of N configs over one workload builds its trace
once per worker, not N times.  Scalar replays go one step further: the
substrate cache's outcome (hits, ways, victims, fills) depends only on
the trace and :attr:`~repro.core.config.CNTCacheConfig.substrate_key`,
so it is recorded once per substrate stream as a
:class:`~repro.cache.substrate.SubstrateLog` and every other encoding
config of that stream replays only the encoding layer.

Everything here is deterministic: traces are rebuilt from
(name, size, seed), the simulator is seeded from the config, and results
travel as JSON-exact payloads — a worker-process result is bit-identical
to an in-process run (asserted by ``cntcache selftest``).
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Iterable

from repro import faults
from repro.cache.substrate import SubstrateLog
from repro.exec.job import SimJob
from repro.exec.result import ExecResult
from repro.obs import probe, trace
from repro.workloads.program import WorkloadRun, get_workload

#: Per-process workload memo: (name, size, seed) -> built run.
_RUNS: dict[tuple[str, str, int], WorkloadRun] = {}

#: Per-process L1-filtered stream memo (streams cost a full L1 replay).
_STREAMS: dict[tuple, list] = {}

#: Per-process substrate-log memo: (trace identity, substrate key) -> log.
#: Plans interleave streams, so every stream of a run stays resident.
_SUBSTRATES: dict[tuple, SubstrateLog] = {}


def build_run(name: str, size: str, seed: int) -> WorkloadRun:
    """Build (or reuse) the deterministic trace of one workload."""
    key = (name, size, seed)
    run = _RUNS.get(key)
    if run is None:
        with probe.timer("phase.workload_build"):
            run = get_workload(name).build(size, seed=seed)
        _RUNS[key] = run
        probe.counter("workload.builds")
    else:
        probe.counter("workload.memo_hits")
    return run


def clear_memos() -> None:
    """Drop the per-process workload/stream/substrate memos (tests, memory
    pressure)."""
    _RUNS.clear()
    _STREAMS.clear()
    _SUBSTRATES.clear()


def _replay(job: SimJob, trace: list, preloads, stream: tuple):
    """Replay ``trace`` under the job's config; returns the simulator.

    ``stream`` identifies the trace within this process.  On the scalar
    backend the substrate log of (stream, substrate key) is recorded by
    the first replay and fed to every later one.  The array backend
    keeps its own substrate and is replayed live.
    """
    from repro.api import make_cache

    assert job.config is not None
    sim = make_cache(config=job.config, backend=job.backend)
    sim.preload_all(preloads)
    if job.backend != "scalar":
        sim.run(trace)
        return sim
    key = stream + job.config.substrate_key
    substrate = _SUBSTRATES.get(key)
    if substrate is None:
        substrate = _SUBSTRATES[key] = SubstrateLog()
    sim.run(trace, substrate=substrate)
    return sim


def preload_digest(preloads: Iterable[tuple[int, bytes]]) -> str:
    """Short content hash of a preload image (job observability/integrity)."""
    digest = hashlib.sha256()
    for addr, payload in sorted(preloads):
        digest.update(addr.to_bytes(8, "little"))
        digest.update(len(payload).to_bytes(4, "little"))
        digest.update(payload)
    return digest.hexdigest()[:16]


# --------------------------------------------------------------------- #
# kind dispatch
# --------------------------------------------------------------------- #
def _execute_workload(job: SimJob) -> ExecResult:
    run = build_run(job.workload, job.size, job.seed)
    sim = _replay(job, run.trace, run.preloads, (job.workload, job.size, job.seed))
    return ExecResult(
        job=job,
        stats=sim.stats,
        values={
            "checksum": run.checksum,
            "preload_digest": preload_digest(run.preloads),
        },
    )


def _execute_oracle(job: SimJob) -> ExecResult:
    from repro.harness.oracle import oracle_bound

    run = build_run(job.workload, job.size, job.seed)
    assert job.config is not None
    bound = oracle_bound(job.config, run.trace, run.preloads)
    return ExecResult(job=job, values={"oracle_fj": bound, "accesses": run.stats.accesses})


def _execute_l2(job: SimJob) -> ExecResult:
    from repro.harness.multilevel import l1_filtered_stream

    run = build_run(job.workload, job.size, job.seed)
    assert job.config is not None
    geometry = dict(job.params)
    stream_key = (job.workload, job.size, job.seed, job.params)
    stream = _STREAMS.get(stream_key)
    if stream is None:
        # The substrate-L1 replay is memoized infrastructure, not the
        # measurement; pause probes so cache.* counters stay per-job
        # deterministic whatever the worker-process topology.
        with probe.timer("phase.l1_filter"), probe.paused():
            stream = l1_filtered_stream(
                run.trace,
                run.preloads,
                l1_size=geometry["l1_size"],
                l1_assoc=geometry["l1_assoc"],
                line_size=geometry["l1_line_size"],
            )
        _STREAMS[stream_key] = stream
    values = {
        "stream_accesses": len(stream),
        "stream_writes": sum(1 for access in stream if access.is_write),
    }
    if not stream:
        return ExecResult(job=job, stats=None, values=values)
    sim = _replay(job, stream, run.preloads, ("l2",) + stream_key)
    return ExecResult(job=job, stats=sim.stats, values=values)


def _execute_audit(job: SimJob) -> ExecResult:
    from repro.analysis.accuracy import audit_predictions
    from repro.api import make_cache

    run = build_run(job.workload, job.size, job.seed)
    assert job.config is not None
    audit = audit_predictions(
        make_cache(config=job.config, backend=job.backend),
        run.trace,
        run.preloads,
    )
    values = {
        name: value
        for name, value in audit.as_dict().items()
        if name != "accuracy"  # derived; recomputed from the counters
    }
    values["correct"] = audit.correct
    values["accesses"] = run.stats.accesses
    return ExecResult(job=job, values=values)


def _execute_trace(job: SimJob) -> ExecResult:
    run = build_run(job.workload, job.size, job.seed)
    stats = run.stats
    return ExecResult(
        job=job,
        values={
            "accesses": stats.accesses,
            "reads": stats.reads,
            "writes": stats.writes,
            "bytes_read": stats.bytes_read,
            "bytes_written": stats.bytes_written,
            "one_bits": stats.one_bits,
            "total_bits": stats.total_bits,
            "distinct_lines": stats.distinct_lines,
            "footprint_bytes": stats.footprint_bytes,
            "checksum": run.checksum,
            "preload_digest": preload_digest(run.preloads),
        },
    )


_DISPATCH = {
    "workload": _execute_workload,
    "oracle": _execute_oracle,
    "l2": _execute_l2,
    "audit": _execute_audit,
    "trace": _execute_trace,
}


def execute_job(job: SimJob, attempt: int = 0) -> ExecResult:
    """Run one job in this process; wall time is measured around the kind.

    With probes enabled, the job runs inside a nested capture scope and
    the snapshot rides home on :attr:`ExecResult.obs` — the payload-dict
    transport that makes per-job counters process-safe.  Tracing works
    the same way: a per-job :class:`~repro.obs.trace.TraceSink` captures
    the access/span events and its tagged snapshot rides home on
    :attr:`ExecResult.trace`.  ``attempt`` is the engine's retry index;
    it only feeds the fault-injection hook (:mod:`repro.faults`), never
    the measurement.
    """
    faults.on_job_start(job.fingerprint, attempt)
    started = time.perf_counter()
    with probe.capture() as scope:
        with trace.capture() as sink:
            with trace.span(f"job.{job.kind}", label=job.label):
                with probe.timer(f"phase.{job.kind}"):
                    result = _DISPATCH[job.kind](job)
        if sink is not None:
            snapshot = sink.snapshot()
            snapshot["label"] = job.label
            snapshot["job_kind"] = job.kind
            snapshot["workload"] = job.workload
            snapshot["fingerprint"] = job.fingerprint
            snapshot["scheme"] = None if job.config is None else job.config.scheme
            result.trace = snapshot
            probe.gauge("trace.events", len(snapshot["events"]))
            probe.gauge("trace.dropped", snapshot["dropped"])
    result.wall_s = time.perf_counter() - started
    if scope is not None:
        result.obs = scope.snapshot()
    return result


def init_worker_observability(
    probe_on: bool,
    trace_on: bool = False,
    every: int = 1,
    capacity: int | None = None,
) -> None:
    """Pool initializer: arm the probe/trace switchboards in a fresh worker.

    Module globals do not survive ``ProcessPoolExecutor`` spawn, so the
    engine ships the parent's switchboard state as ``initargs`` and this
    runs once per worker process before any job executes.
    """
    if probe_on:
        probe.enable_in_worker()
    if trace_on:
        trace.enable_in_worker(every=every, capacity=capacity)


def execute_payload(job: SimJob, attempt: int = 0) -> dict:
    """Pool entry point: run a job, return its serialized payload.

    Returning the payload (not the :class:`ExecResult`) forces every
    parallel result through the same lossless serialization as the disk
    cache, so parallel and serial runs cannot diverge silently.
    """
    return execute_job(job, attempt=attempt).payload()
