"""The execution engine: memoized, cached, optionally distributed runs.

:class:`ExecEngine` is the single authority experiments go through to get
simulation results (lint rule R006 enforces this for
``repro/harness/experiments.py``).  For every batch of requested jobs it:

1. plans — deduplicates the batch against itself *and* against every job
   this engine already resolved (so experiments sharing a baseline run
   simulate it once);
2. resolves — in-memory memo first, then the content-addressed on-disk
   cache (``cache_dir``, a :class:`repro.exec.store.ResultStore`), keyed
   by :attr:`SimJob.fingerprint` and versioned by the engine schema +
   code fingerprint;
3. executes the remainder through an *execution backend*
   (:mod:`repro.exec.backends`): ``local-serial`` in-process,
   ``local-pool`` across a ``ProcessPoolExecutor``, or ``broker`` — the
   distributed mode where this engine coordinates a fleet of
   ``cntcache worker`` processes through a shared filesystem broker
   (:mod:`repro.exec.broker`).  Results travel as JSON-exact payloads
   (or through the shared cache), so every backend is bit-identical to
   serial execution.

Observability: per-job wall time, accesses/second and result source flow
through the optional ``progress`` callback, and :attr:`ExecEngine.counters`
aggregates requested/unique/memo/cache/executed totals.  Attaching an
``obs`` session (:class:`repro.obs.Obs`) additionally turns the probes on
for the duration of every batch: the engine publishes ``exec.*`` counters
and queue-wait timings, instrumented simulation code publishes
``cache.*``/``codec.*``/``workload.*`` traffic (captured per job in the
workers and shipped home through the result payload), and every unique
job resolution plus a batch summary lands in the session's run manifest.

The cache layout and its atomicity/quarantine discipline are documented
in :mod:`repro.exec.store`; a mismatching schema tag or code fingerprint
is a plain miss, so editing simulator code invalidates stale entries
automatically.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable, Mapping
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from repro.backends import backend_names
from repro.exec.backends import exec_backend_names, make_exec_backend
from repro.exec.broker import BrokerConfig
from repro.exec.job import SimJob
from repro.exec.planner import plan_jobs
from repro.exec.result import ExecResult
from repro.exec.store import (  # noqa: F401  (re-exported compat names)
    STALE_TMP_TTL_S,
    EngineCounters,
    ResultStore,
)
from repro.exec.worker import clear_memos, execute_job, execute_payload
from repro.obs import probe, trace
from repro.obs.telemetry import (
    TelemetryWriter,
    default_identity,
    make_trace_id,
    span_for,
    telemetry_dir,
)
from repro.resilience import (
    FailureRecord,
    ResilienceConfig,
    classify_transient,
    failure_for,
)


class EngineError(RuntimeError):
    """Raised on invalid engine configuration or use."""


class ExecEngine:
    """Plan, deduplicate, cache and execute :class:`SimJob` batches."""

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        progress: Callable[[str], None] | None = None,
        obs=None,
        resilience: ResilienceConfig | None = None,
        backend: str | None = None,
        exec_backend: str | None = None,
        broker: BrokerConfig | str | Path | None = None,
        telemetry: str | Path | TelemetryWriter | None = None,
    ) -> None:
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise EngineError(f"jobs must be a positive int, got {jobs!r}")
        if backend is not None and backend not in backend_names():
            raise EngineError(
                f"unknown backend {backend!r}; known: {backend_names()}"
            )
        if resilience is None:
            resilience = ResilienceConfig()
        elif not isinstance(resilience, ResilienceConfig):
            raise EngineError(
                f"resilience must be a ResilienceConfig, got {resilience!r}"
            )
        if isinstance(broker, (str, Path)):
            broker = BrokerConfig(root=broker)
        elif broker is not None and not isinstance(broker, BrokerConfig):
            raise EngineError(
                f"broker must be a BrokerConfig or directory, got {broker!r}"
            )
        if broker is not None and exec_backend is None:
            exec_backend = "broker"
        if exec_backend is not None and exec_backend not in exec_backend_names():
            raise EngineError(
                f"unknown exec backend {exec_backend!r}; "
                f"known: {exec_backend_names()}"
            )
        if exec_backend == "broker":
            if broker is None:
                raise EngineError(
                    "the 'broker' exec backend needs a broker directory "
                    "(broker=BrokerConfig(...) or broker=<path>)"
                )
            # The broker's cache *is* the result transport: workers write
            # there and the coordinator adopts from there, so a divergent
            # cache_dir would split the single source of truth in two.
            shared = broker.cache_dir
            if cache_dir is None:
                cache_dir = shared
            elif Path(cache_dir).resolve() != shared.resolve():
                raise EngineError(
                    "a broker engine shares the broker's cache "
                    f"({shared}); drop cache_dir or point it there"
                )
        self.jobs = jobs
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self.progress = progress
        #: Backend override: when set, every simulating job this engine
        #: resolves runs under this backend (see
        #: :func:`repro.backends.backends`).  ``None`` respects each
        #: job's own ``backend`` field.
        self.backend = backend
        #: Execution-backend override (see :mod:`repro.exec.backends`).
        #: ``None`` selects locally by batch shape: ``local-pool`` when
        #: ``jobs > 1`` and more than one job is pending, else
        #: ``local-serial`` — exactly the pre-registry behaviour.
        self.exec_backend = exec_backend
        #: Broker configuration (``broker`` exec backend only).
        self.broker = broker
        #: Optional :class:`repro.obs.Obs` session; when set, probes are
        #: enabled around every batch and manifests are emitted into it.
        self.obs = obs
        #: Fault-tolerance policy (see :mod:`repro.resilience`).
        self.resilience = resilience
        self.counters = EngineCounters()
        #: Every :class:`FailureRecord` this engine collected (keep-going).
        self.failures: list[FailureRecord] = []
        #: The shared on-disk result store (None = memo-only engine).
        self.store = (
            None
            if self.cache_dir is None
            else ResultStore(self.cache_dir, self.counters, progress)
        )
        # Telemetry is opt-in and otherwise zero-cost: a broker engine
        # streams into the broker's telemetry/ bus automatically (that is
        # what `cntcache top` tails); any engine can point it elsewhere
        # with an explicit directory.  `None` here means no frames, no
        # trace ids, no wall-clock reads — byte-for-byte the old engine.
        if telemetry is None and broker is not None:
            telemetry = telemetry_dir(broker.root)
        if telemetry is None or isinstance(telemetry, TelemetryWriter):
            self.telemetry = telemetry
        else:
            self.telemetry = TelemetryWriter(
                telemetry,
                identity=default_identity("coordinator"),
                role="coordinator",
            )
        #: Fleet correlation id for this coordinator's published jobs
        #: (``None`` without telemetry — serial runs stay wall-clock-free).
        self.trace_id: str | None = None
        if self.telemetry is not None:
            if self.telemetry.trace_id is None:
                self.telemetry.trace_id = make_trace_id(
                    self.telemetry.identity
                )
            self.trace_id = self.telemetry.trace_id
        #: Running accesses/energy tallies for telemetry heartbeats only;
        #: per-job fJ totals stay unsummed until report time (D005/R001:
        #: order-safe math.fsum instead of bare float accumulation).
        self._tele_accesses = 0
        self._tele_energy: list[float] = []
        #: fingerprint -> resolved result (the cross-batch memo).
        self._memo: dict[str, ExecResult] = {}
        #: fingerprint -> failed placeholder, valid for the current batch
        #: only — a later batch gets a fresh shot at the job.
        self._failed: dict[str, ExecResult] = {}
        if self.store is not None:
            self.store.sweep()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @contextmanager
    def observing(self, obs):
        """Temporarily attach an obs session (``None`` = leave as-is)."""
        if obs is None:
            yield self
            return
        previous = self.obs
        self.obs = obs
        try:
            yield self
        finally:
            self.obs = previous

    def run_jobs(self, jobs: Iterable[SimJob]) -> list[ExecResult]:
        """Resolve a batch; returns results aligned with the input order.

        Transient job failures (crashed workers, broken pools, timeouts)
        are retried per :attr:`resilience`; a job that exhausts its
        attempts raises :class:`~repro.resilience.JobFailure` — or, with
        ``keep_going``, resolves to a failed placeholder
        (``result.ok is False``, ``result.failure`` carries the record)
        while the rest of the batch completes normally.
        """
        ordered = [self._with_backend(job) for job in jobs]
        with probe.recording(self.obs):
            with probe.timer("exec.batch"), trace.span(
                "exec.batch", jobs=len(ordered)
            ):
                return self._resolve(ordered)

    def _with_backend(self, job: SimJob) -> SimJob:
        """Apply the engine's backend override to one simulating job.

        ``trace`` and ``oracle`` jobs never construct a simulator, so
        their identity is left untouched — overriding them would only
        split cache keys across provably identical results.
        """
        if (
            self.backend is None
            or job.backend == self.backend
            or job.kind in ("trace", "oracle")
        ):
            return job
        from dataclasses import replace

        return replace(job, backend=self.backend)

    def _resolve(self, ordered: list[SimJob]) -> list[ExecResult]:
        plan = plan_jobs(ordered)
        self.counters.requested += len(plan.requested)
        probe.counter("exec.requested", len(plan.requested))
        self._failed.clear()

        pending: list[SimJob] = []
        for job in plan.unique:
            if job.fingerprint in self._memo:
                self.counters.memo_hits += 1
                probe.counter("exec.memo_hits")
                self._emit(job, self._memo[job.fingerprint], source="memo")
                continue
            self.counters.unique += 1
            cached = self._cache_read(job)
            if cached is not None:
                self.counters.cache_hits += 1
                probe.counter("exec.cache_hits")
                self._memo[job.fingerprint] = cached
                if self.obs is not None:
                    trace_id, span_id = self._trace_ids(job)
                    self.obs.record_job(
                        job, cached, trace_id=trace_id, span_id=span_id
                    )
                self._emit(job, cached)
            else:
                pending.append(job)

        self._execute(pending)
        return [
            self._memo.get(job.fingerprint)
            or self._failed[job.fingerprint]
            for job in ordered
        ]

    def run_map(self, jobs: Mapping) -> dict:
        """Resolve a ``{key: SimJob}`` mapping into ``{key: ExecResult}``.

        The declarative form the experiments use: declare every job of the
        experiment keyed by its table coordinates, submit once, consume.
        """
        keys = list(jobs)
        results = self.run_jobs([jobs[key] for key in keys])
        return dict(zip(keys, results))

    def run_job(self, job: SimJob) -> ExecResult:
        """Resolve a single job."""
        return self.run_jobs([job])[0]

    def stats(self, job: SimJob):
        """Shorthand: the :class:`EnergyStats` of one resolved job."""
        result = self.run_job(job)
        if result.stats is None:
            raise EngineError(f"job {job.label} produced no EnergyStats")
        return result.stats

    # ------------------------------------------------------------------ #
    # execution (dispatched through repro.exec.backends)
    # ------------------------------------------------------------------ #
    def _execute(self, pending: list[SimJob]) -> None:
        if not pending:
            return
        name = self.exec_backend
        if name is None:
            name = (
                "local-pool"
                if self.jobs > 1 and len(pending) > 1
                else "local-serial"
            )
        make_exec_backend(name).execute(self, pending)

    def _should_retry(
        self, job: SimJob, attempt: int, error: BaseException
    ) -> bool:
        """Classify ``error``; count and announce the retry if granted."""
        if (
            not classify_transient(error)
            or attempt >= self.resilience.max_retries
        ):
            return False
        self.counters.retries += 1
        probe.counter("exec.retries")
        if self.progress is not None:
            self.progress(
                f"[exec] retry {attempt + 1}/{self.resilience.max_retries} "
                f"{job.label}: {type(error).__name__}: {error}"
            )
        return True

    def _retry_or_fail(
        self,
        job: SimJob,
        attempts: dict[str, int],
        remaining: list[SimJob],
        error: BaseException,
    ) -> None:
        """Pool-path outcome of one failed attempt: re-queue or record."""
        if self._should_retry(job, attempts[job.fingerprint], error):
            attempts[job.fingerprint] += 1
            remaining.append(job)
        else:
            self._fail(job, error, attempts[job.fingerprint] + 1)

    def _fail(self, job: SimJob, error: BaseException, attempts: int) -> None:
        """A job exhausted its attempts: record it, or raise (fail-fast)."""
        record = FailureRecord.from_error(job, error, attempts)
        self.counters.failures += 1
        probe.counter("exec.failures")
        if self.obs is not None:
            self.obs.record_failure(record)
        if self.telemetry is not None:
            trace_id, span_id = self._trace_ids(job)
            self.telemetry.lifecycle(
                "fail",
                fingerprint=job.fingerprint,
                label=job.label,
                error=record.error,
                attempts=attempts,
                trace_id=trace_id,
                span_id=span_id,
            )
        if not self.resilience.keep_going:
            raise failure_for(record) from error
        self.failures.append(record)
        placeholder = ExecResult.failed(job, record)
        self._failed[job.fingerprint] = placeholder
        self._emit(job, placeholder)

    def _store(
        self,
        job: SimJob,
        result: ExecResult,
        queue_wait_s: float = 0.0,
        absorb: bool = False,
    ) -> None:
        self.counters.executed += 1
        if probe.ENABLED:
            probe.counter("exec.executed")
            if queue_wait_s:
                probe.timing("exec.queue_wait", queue_wait_s)
            # Serial results recorded their probe traffic live; worker
            # results carry it in the payload snapshot and must be merged
            # here, exactly once.
            if absorb:
                probe.absorb(result.obs)
        if absorb and trace.ACTIVE:
            # Same contract for trace events: worker sinks ship their
            # snapshot home and it merges into the parent sink once.
            trace.absorb(result.trace)
        trace_id, span_id = self._trace_ids(job)
        if self.obs is not None:
            self.obs.record_job(
                job,
                result,
                queue_wait_s=queue_wait_s,
                trace_id=trace_id,
                span_id=span_id,
            )
        if self.telemetry is not None:
            self._account_telemetry(job, result, "finish", trace_id, span_id)
        self._memo[job.fingerprint] = result
        self._cache_write(job, result)
        self._emit(job, result)

    def _adopt(self, job: SimJob, result: ExecResult) -> None:
        """Install a result another process produced (distributed path).

        The broker coordinator reads completed results back from the
        shared store; they count as executed work (someone simulated
        them for this batch) but are *not* re-written to the cache —
        the worker's write is the authoritative copy.
        """
        self.counters.executed += 1
        probe.counter("exec.executed")
        trace_id, span_id = self._trace_ids(job)
        if self.obs is not None:
            self.obs.record_job(
                job, result, trace_id=trace_id, span_id=span_id
            )
        if self.telemetry is not None:
            self._account_telemetry(job, result, "adopt", trace_id, span_id)
        self._memo[job.fingerprint] = result
        self._emit(job, result)

    # ------------------------------------------------------------------ #
    # on-disk cache (delegates to the shared ResultStore)
    # ------------------------------------------------------------------ #
    def _cache_path(self, job: SimJob) -> Path | None:
        if self.store is None:
            return None
        return self.store.path_for(job.fingerprint)

    def _cache_read(self, job: SimJob) -> ExecResult | None:
        if self.store is None:
            return None
        return self.store.read(job)

    def _cache_write(self, job: SimJob, result: ExecResult) -> None:
        if self.store is not None:
            self.store.write(job, result)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def _trace_ids(self, job: SimJob) -> tuple[str | None, str | None]:
        """The (trace_id, span_id) pair for one job, or ``(None, None)``."""
        if self.trace_id is None:
            return (None, None)
        return (self.trace_id, span_for(self.trace_id, job.fingerprint))

    def _account_telemetry(
        self,
        job: SimJob,
        result: ExecResult,
        event: str,
        trace_id: str | None,
        span_id: str | None,
    ) -> None:
        """One unique resolution landed: tally it and stream a lifecycle
        frame (``finish`` for local executions, ``adopt`` for results a
        fleet worker produced — the worker already streamed the
        ``finish``, so the collector's energy accounting stays
        exactly-once)."""
        self._tele_accesses += result.accesses
        if result.stats is not None:
            self._tele_energy.append(result.stats.total_fj)
        assert self.telemetry is not None
        self.telemetry.lifecycle(
            event,
            fingerprint=job.fingerprint,
            label=job.label,
            kind=job.kind,
            scheme=None if job.config is None else job.config.scheme,
            wall_s=result.wall_s,
            accesses=result.accesses,
            energy_fj=None if result.stats is None else result.stats.total_fj,
            trace_id=trace_id,
            span_id=span_id,
        )

    def close_telemetry(self) -> None:
        """Stream the final ``exit`` frames and close the writer (no-op
        without telemetry; called by the CLI when a run ends)."""
        if self.telemetry is None:
            return
        resolved = (
            self.counters.memo_hits
            + self.counters.cache_hits
            + self.counters.executed
        )
        self.telemetry.lifecycle(
            "exit", jobs_done=resolved, failures=self.counters.failures
        )
        self.telemetry.heartbeat(
            "exited",
            force=True,
            jobs_done=resolved,
            accesses=self._tele_accesses,
            energy_fj=math.fsum(self._tele_energy),
        )
        self.telemetry.close()

    def _emit(
        self, job: SimJob, result: ExecResult, source: str | None = None
    ) -> None:
        if self.telemetry is not None and self.telemetry.due:
            resolved = (
                self.counters.memo_hits
                + self.counters.cache_hits
                + self.counters.executed
            )
            self.telemetry.heartbeat(
                "running",
                job=job.label,
                kind=job.kind,
                jobs_done=resolved,
                executed=self.counters.executed,
                cache_hits=self.counters.cache_hits,
                memo_hits=self.counters.memo_hits,
                failures=self.counters.failures,
                accesses=self._tele_accesses,
                energy_fj=math.fsum(self._tele_energy),
            )
        if self.progress is None:
            return
        resolved = (
            self.counters.memo_hits
            + self.counters.cache_hits
            + self.counters.executed
        )
        rate = result.accesses_per_s
        rate_text = f"{rate / 1000:.1f}k acc/s" if rate else "-"
        self.progress(
            f"[exec {resolved}] {source or result.source:<5} "
            f"{result.wall_s:7.3f}s {rate_text:>12}  {job.label}"
        )

    def summary(self) -> str:
        """One-line counters summary."""
        return f"exec: {self.counters.describe()}"


# --------------------------------------------------------------------- #
# selftest: in-process == subprocess == cache read-back
# --------------------------------------------------------------------- #
def run_selftest(
    size: str = "tiny",
    seed: int = 3,
    progress: Callable[[str], None] | None = None,
) -> list[str]:
    """Assert result parity across every execution mode; returns failures.

    For a representative job of every kind, the measurement must be
    byte-identical (``ExecResult.canonical``) when executed in-process,
    in a worker subprocess, and after an on-disk cache round-trip.  This
    is the determinism contract the parallel executor and the result
    cache both rest on.

    When the array backend is importable, every simulating candidate is
    additionally re-executed under ``backend="array"`` and its canonical
    measurement must match the scalar oracle's byte for byte — the
    cross-backend leg of the same contract.  Every scalar simulating
    candidate is also re-executed after :func:`clear_memos`, so a result
    fed from a memoized substrate log (the second ``stream`` candidate
    reuses the first one's) must equal a freshly recorded one.
    """
    import tempfile

    from dataclasses import replace

    from repro.backends import array_available
    from repro.core.config import CNTCacheConfig
    from repro.exec.job import (
        audit_job,
        l2_job,
        oracle_job,
        trace_job,
        workload_job,
    )

    config = CNTCacheConfig()
    candidates = [
        workload_job(config, "stream", size, seed),
        workload_job(config.variant(scheme="baseline"), "stream", size, seed),
        oracle_job(config, "crc32", size, seed),
        l2_job(config, "stream", size, seed),
        audit_job(config, "records", size, seed),
        trace_job("crc32", size, seed),
    ]
    cross_check = array_available()
    failures: list[str] = []
    with ProcessPoolExecutor(max_workers=1) as pool:
        for job in candidates:
            started = time.perf_counter()
            inproc = execute_job(job)
            sub = ExecResult.from_payload(
                job, pool.submit(execute_payload, job).result(), "run"
            )
            with tempfile.TemporaryDirectory() as tmp:
                writer = ExecEngine(cache_dir=tmp)
                writer._memo[job.fingerprint] = inproc
                writer._cache_write(job, inproc)
                reader = ExecEngine(cache_dir=tmp)
                cached = reader.run_job(job)
            ok = (
                inproc.canonical() == sub.canonical() == cached.canonical()
                and cached.source == "cache"
            )
            if not ok:
                failures.append(
                    f"{job.label}: in-process/subprocess/cache results differ"
                )
            if job.kind in ("workload", "l2", "audit"):
                clear_memos()
                fresh = execute_job(job)
                if fresh.canonical() != inproc.canonical():
                    ok = False
                    failures.append(
                        f"{job.label}: memo-fed result differs from a "
                        "fresh recording"
                    )
            if cross_check and job.kind in ("workload", "l2", "audit"):
                mirrored = execute_job(replace(job, backend="array"))
                if mirrored.canonical() != inproc.canonical():
                    ok = False
                    failures.append(
                        f"{job.label}: array backend diverges from the "
                        "scalar oracle"
                    )
            if progress is not None:
                verdict = "ok" if ok else "FAIL"
                progress(
                    f"selftest {job.label:<40} {verdict} "
                    f"({time.perf_counter() - started:.2f}s)"
                )
    return failures
