"""The filesystem work broker: shared-cache distributed execution.

The ``broker`` exec backend turns one directory — typically on a
filesystem every participant can reach — into a crash-tolerant work
queue next to the content-addressed result cache::

    <root>/cache/                the shared ResultStore (source of truth)
    <root>/jobs/<fp>.json        claimable job records (describe() docs)
    <root>/leases/<fp>.json      lease files (exclusive link claim, heartbeat renew)
    <root>/quarantine/<fp>.json  poison jobs (outlived K straight workers)
    <root>/drain.closed          present once the coordinator's drain is over

Lifecycle
---------
A *coordinator* (an :class:`~repro.exec.engine.ExecEngine` running
:func:`drain`) publishes one job record per unresolved job, optionally
spawns a local worker fleet, and adopts results as they appear in the
shared cache's directory listings.  A *worker* (:func:`run_worker`, the
``cntcache worker`` subcommand) claims a job by linking a complete lease
file into place with ``os.link``, which refuses an existing lease — the
filesystem arbitrates the race, and no reader ever sees a half-written
lease — renews the lease's deadline from a heartbeat thread while the
job simulates, writes the result into the shared cache, and removes job
record and lease.  When the drain is over the coordinator writes the
``drain.closed`` marker, and workers with nothing left to do exit on it.

Both loops cost the work that changed, not the size of the queue: a
worker claims from a snapshot of one ``jobs/`` listing and lists again
only when the snapshot runs dry, and a coordinator round lists
``jobs/``, the cache shards of its unresolved jobs and ``leases/``, then
reads only the files those listings name.

Crash recovery is lease-based and **at-least-once**: a worker that is
SIGKILLed mid-job stops heartbeating, its lease deadline passes, and the
next claimer *steals* the expired lease (an ``os.replace`` to a private
name, so exactly one stealer wins) and re-claims the job at the next
lease *generation*.  Double execution is safe — results are
content-addressed, so the second writer publishes a byte-identical
document — lost work is not, and the generation counter is the fuse: a
job whose leases expire ``max_generations`` times is *quarantined* as a
poison job (it keeps killing or outliving its workers) and surfaces as
a permanent :class:`~repro.resilience.PoisonJobError` failure at the
coordinator, riding the existing :class:`~repro.resilience.FailureRecord`
machinery.

Deadlines are wall-clock (the one ``time.time`` sanctioned in
``repro.exec``): lease files are compared across *processes and hosts*,
where monotonic clocks don't travel.  TTL slack is expected to absorb
NTP-level skew; renewal only ever extends a deadline.  Nothing here
feeds measurement results — leases are pure coordination.

Resume is free: job records and the cache live on disk, so a restarted
coordinator republishes (idempotently) only what its own resolve
pipeline still misses, adopts what workers finished in the meantime as
cache hits, and the drain continues where it stopped.

A result can be lost after its job record was retired — a torn or failed
cache write.  The coordinator sees a job with neither a record nor a
readable result and republishes it one attempt later (the record's
``attempt`` field); a job whose result is lost ``max_generations`` times
is quarantined as poison.
"""

from __future__ import annotations

import json
import math
import os
import re
import socket
import subprocess
import sys
import threading
import time
from collections.abc import Callable, Container
from dataclasses import dataclass, field
from pathlib import Path

import repro.exec.worker as _worker
from repro import faults
from repro.exec.job import SimJob, job_from_payload
from repro.exec.store import (
    STALE_LEASE_TTL_S,
    EngineCounters,
    ResultStore,
    listed,
    sweep_stale,
    write_atomic,
)
from repro.obs import probe
from repro.obs.telemetry import TelemetryWriter, span_for, telemetry_dir
from repro.resilience import (
    PoisonJobError,
    ResilienceConfig,
    classify_transient,
)
from repro.schemas import BROKER

#: Version tag of the broker's job-record/lease/quarantine layout.
BROKER_SCHEMA = BROKER.tag


class BrokerError(RuntimeError):
    """Raised on invalid broker configuration or an unrecoverable drain."""


def _wall_now() -> float:
    """Wall-clock seconds; lease deadlines cross process/host boundaries
    where monotonic clocks are meaningless.  Coordination only — never a
    measurement input."""
    return time.time()  # lint: disable=D001


def default_worker_id() -> str:
    """A stable, filesystem-safe worker identity: ``<hostname>-<pid>``.

    Deterministic in the process (no uuid/random — lint D002): two
    workers can only collide by sharing a hostname *and* a pid, i.e. by
    being the same process.
    """
    raw = f"{socket.gethostname()}-{os.getpid()}"
    return re.sub(r"[^A-Za-z0-9._-]", "-", raw)


@dataclass(frozen=True)
class BrokerConfig:
    """One broker directory and its coordination policy.

    ``lease_ttl_s``
        How long a claim lives without renewal.  The crash-detection
        latency: a SIGKILLed worker's job becomes stealable one TTL
        after its last heartbeat.
    ``heartbeat_s``
        Renewal interval (default ``lease_ttl_s / 3`` — two missed
        beats of slack before expiry).
    ``poll_s``
        Idle poll interval for both coordinator and workers.
    ``max_generations``
        Lease generations before a job is quarantined as poison
        (default ``resilience.max_retries + 1`` — the retry budget,
        transferred).
    ``spawn`` / ``worker_respawns``
        Whether :func:`drain` runs a local fleet of ``engine.jobs``
        worker subprocesses, and how many replacement workers it may
        start after crashes before giving up.
    ``idle_timeout_s``
        How long a worker with nothing claimable waits before exiting
        cleanly.
    """

    root: str | Path
    lease_ttl_s: float = 30.0
    heartbeat_s: float | None = None
    poll_s: float = 0.2
    max_generations: int | None = None
    spawn: bool = True
    worker_respawns: int = 32
    idle_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if not str(self.root):
            raise BrokerError("root must be a non-empty directory path")
        if (
            not isinstance(self.lease_ttl_s, (int, float))
            or self.lease_ttl_s <= 0
        ):
            raise BrokerError(
                f"lease_ttl_s must be > 0, got {self.lease_ttl_s!r}"
            )
        if not isinstance(self.poll_s, (int, float)) or self.poll_s <= 0:
            raise BrokerError(f"poll_s must be > 0, got {self.poll_s!r}")
        if (
            not isinstance(self.idle_timeout_s, (int, float))
            or self.idle_timeout_s <= 0
        ):
            raise BrokerError(
                f"idle_timeout_s must be > 0, got {self.idle_timeout_s!r}"
            )
        if not isinstance(self.spawn, bool):
            raise BrokerError(f"spawn must be a bool, got {self.spawn!r}")
        if self.heartbeat_s is not None and not (
            isinstance(self.heartbeat_s, (int, float))
            and 0 < self.heartbeat_s < self.lease_ttl_s
        ):
            raise BrokerError(
                f"heartbeat_s must be in (0, lease_ttl_s), got {self.heartbeat_s!r}"
            )
        if self.max_generations is not None and (
            not isinstance(self.max_generations, int)
            or isinstance(self.max_generations, bool)
            or self.max_generations < 1
        ):
            raise BrokerError(
                f"max_generations must be an int >= 1, got {self.max_generations!r}"
            )
        if (
            not isinstance(self.worker_respawns, int)
            or isinstance(self.worker_respawns, bool)
            or self.worker_respawns < 0
        ):
            raise BrokerError(
                f"worker_respawns must be an int >= 0, got {self.worker_respawns!r}"
            )

    @property
    def cache_dir(self) -> Path:
        """The shared result store — the broker's single source of truth."""
        return Path(self.root) / "cache"

    @property
    def jobs_dir(self) -> Path:
        """Claimable job records, one ``<fingerprint>.json`` each."""
        return Path(self.root) / "jobs"

    @property
    def leases_dir(self) -> Path:
        """Live claims: one lease file per job being worked on."""
        return Path(self.root) / "leases"

    @property
    def quarantine_dir(self) -> Path:
        """Poison-job records (jobs that outlived the generation fuse)."""
        return Path(self.root) / "quarantine"

    @property
    def reclaims_dir(self) -> Path:
        """Durable reclaim evidence: one record per stolen expired lease.

        The stealing worker writes it, the coordinator consumes it — a
        reclaim is counted exactly once even when the re-executed job
        finishes between two coordinator polls (a generation bump alone
        is unobservable for sub-poll jobs).
        """
        return Path(self.root) / "reclaims"

    @property
    def closed_path(self) -> Path:
        """The drain-closed marker: idle workers exit once it exists."""
        return Path(self.root) / "drain.closed"

    @property
    def heartbeat_interval(self) -> float:
        """Lease renewal period (explicit, or a third of the TTL)."""
        return (
            self.heartbeat_s
            if self.heartbeat_s is not None
            else self.lease_ttl_s / 3.0
        )

    def generations(self, resilience: ResilienceConfig) -> int:
        """The poison fuse: lease generations before quarantine."""
        if self.max_generations is not None:
            return self.max_generations
        return resilience.max_retries + 1


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one job, for one generation."""

    fingerprint: str
    worker: str
    generation: int
    deadline: float
    renewals: int = 0

    @property
    def expired(self) -> bool:
        """True once the deadline passed: the claim is stealable."""
        return _wall_now() > self.deadline

    def to_dict(self) -> dict:
        """JSON-ready lease document; inverse of :meth:`from_dict`."""
        return {
            "schema": BROKER_SCHEMA,
            "fingerprint": self.fingerprint,
            "worker": self.worker,
            "generation": self.generation,
            "deadline": self.deadline,
            "renewals": self.renewals,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Lease":
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != BROKER_SCHEMA
        ):
            raise BrokerError(f"not a lease document: {payload!r}")
        try:
            return cls(
                fingerprint=str(payload["fingerprint"]),
                worker=str(payload["worker"]),
                generation=int(payload["generation"]),
                deadline=float(payload["deadline"]),
                renewals=int(payload["renewals"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise BrokerError(f"malformed lease: {error}") from None


@dataclass(frozen=True)
class Claim:
    """A successfully acquired job: what :meth:`BrokerStore.claim` returns.

    ``trace_id``/``span_id`` are the correlation ids the coordinator
    stamped into the job record (``None`` for records published before
    telemetry, or by a coordinator running without it); the worker
    propagates them into its telemetry frames and the result's trace
    snapshot.  Pure observability — they never enter the job identity.
    ``attempt`` is the job's retry index: the record's republish count
    plus the lease generations before this one.
    """

    job: SimJob
    lease: Lease
    trace_id: str | None = None
    span_id: str | None = None
    attempt: int = 0


@dataclass
class WorkerStats:
    """What one :func:`run_worker` loop did (its exit summary)."""

    claimed: int = 0
    executed: int = 0
    failures: int = 0
    quarantined: int = 0
    reclaims: int = 0
    renewals: int = 0

    def describe(self) -> str:
        """One human-readable exit line for the worker CLI."""
        text = f"{self.claimed} claimed, {self.executed} executed"
        extras = [
            f"{value} {name}"
            for name, value in (
                ("failed attempt(s)", self.failures),
                ("quarantined", self.quarantined),
                ("reclaimed", self.reclaims),
                ("heartbeat renewal(s)", self.renewals),
            )
            if value
        ]
        if extras:
            text += ", " + ", ".join(extras)
        return text


class BrokerStore:
    """Filesystem operations on one broker directory (both roles use it).

    Every mutation follows the cache's atomicity discipline
    (:func:`~repro.exec.store.write_atomic`): documents are published
    with tmp + ``os.replace``, claims with tmp + exclusive ``os.link``,
    steals with ``os.replace`` to a private name — each a single atomic
    filesystem arbitration, no locks.
    """

    def __init__(
        self,
        config: BrokerConfig,
        resilience: ResilienceConfig | None = None,
        counters: EngineCounters | None = None,
        progress: Callable[[str], None] | None = None,
        cache: ResultStore | None = None,
        telemetry: TelemetryWriter | None = None,
    ) -> None:
        self.config = config
        self.resilience = (
            ResilienceConfig() if resilience is None else resilience
        )
        self.counters = EngineCounters() if counters is None else counters
        self.progress = progress
        #: Optional telemetry writer: store-level lifecycle events
        #: (reclaims, quarantines) are announced through it.
        self.telemetry = telemetry
        self.cache = (
            ResultStore(config.cache_dir, self.counters, progress)
            if cache is None
            else cache
        )
        self.max_generations = config.generations(self.resilience)
        #: Fingerprints this process decided never to claim again
        #: (foreign code versions, quarantined jobs) — stops the claim
        #: scan from re-parsing them every poll.
        self._skip: set[str] = set()
        #: The claim snapshot: pending fingerprints from the last
        #: ``jobs/`` listing, in reverse so ``pop()`` walks them in order.
        self._snapshot: list[str] = []
        for directory in (
            config.cache_dir,
            config.jobs_dir,
            config.leases_dir,
            config.quarantine_dir,
            config.reclaims_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)

    # -------------------------------------------------------------- #
    # paths
    # -------------------------------------------------------------- #
    def job_path(self, fingerprint: str) -> Path:
        """Where the job record for ``fingerprint`` lives."""
        return self.config.jobs_dir / f"{fingerprint}.json"

    def lease_path(self, fingerprint: str) -> Path:
        """Where the lease for ``fingerprint`` lives."""
        return self.config.leases_dir / f"{fingerprint}.json"

    def quarantine_path(self, fingerprint: str) -> Path:
        """Where the quarantine record for ``fingerprint`` lives."""
        return self.config.quarantine_dir / f"{fingerprint}.json"

    # -------------------------------------------------------------- #
    # coordinator side: publish
    # -------------------------------------------------------------- #
    def publish(
        self,
        jobs: list[SimJob],
        trace_id: str | None = None,
        attempt: int = 0,
    ) -> int:
        """Publish claimable records for ``jobs``; returns how many are new.

        Idempotent: an existing record (same content-addressed name) is
        left untouched, so a resumed coordinator republishes nothing a
        previous drain already posted.  Jobs with a result in the cache
        are skipped — a worker may finish one between the caller's
        resolve and this call — and so are quarantined jobs, which
        already failed permanently.  ``jobs/`` is listed before the
        cache: a worker writes its result before it retires the record,
        so a job in neither listing has not finished.  With a
        ``trace_id``, every new record is stamped with it plus the job's
        derived span id (:func:`repro.obs.telemetry.span_for`) so workers
        propagate the coordinator's correlation ids; records are still
        claimable by fleets that ignore the fields.  A nonzero
        ``attempt`` (a job republished after its result was lost) is
        recorded so the next execution runs — and faults — as that
        retry.
        """
        published = 0
        skip = listed(self.config.jobs_dir)
        skip |= self.cache.present(job.fingerprint for job in jobs)
        skip |= listed(self.config.quarantine_dir)
        for job in jobs:
            fingerprint = job.fingerprint
            if fingerprint in skip:
                continue
            skip.add(fingerprint)
            record = {
                "schema": BROKER_SCHEMA,
                "fingerprint": fingerprint,
                "label": job.label,
                "job": job.describe(),
            }
            if trace_id is not None:
                record["trace_id"] = trace_id
                record["span_id"] = span_for(trace_id, fingerprint)
            if attempt:
                record["attempt"] = attempt
            write_atomic(
                self.job_path(fingerprint), json.dumps(record, sort_keys=True)
            )
            published += 1
        self.counters.published += published
        if published:
            probe.counter("exec.broker_published", published)
        return published

    # -------------------------------------------------------------- #
    # worker side: claim / renew / complete
    # -------------------------------------------------------------- #
    def pending(self) -> list[str]:
        """Fingerprints with a published job record, sorted for fairness."""
        return sorted(listed(self.config.jobs_dir) - self._skip)

    def load_job(self, fingerprint: str) -> tuple[SimJob, dict] | None:
        """The published job and its record, or ``None`` when unusable.

        A record written by a different code/schema version is skipped
        permanently for this process (another, matching fleet may own
        it); a vanished record (completed by someone else) is a plain
        ``None``.
        """
        path = self.job_path(fingerprint)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            if record.get("schema") != BROKER_SCHEMA:
                raise BrokerError(f"foreign job record schema in {path.name}")
            job = job_from_payload(record["job"])
            if job.fingerprint != fingerprint:
                raise BrokerError(f"job record {path.name} hash mismatch")
            attempt = record.get("attempt", 0)
            if not isinstance(attempt, int) or attempt < 0:
                raise BrokerError(f"job record {path.name} bad attempt")
            return job, record
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, BrokerError) as error:
            self._skip.add(fingerprint)
            if self.progress is not None:
                self.progress(
                    f"[broker] skipping unusable job record "
                    f"{fingerprint[:12]}: {error}"
                )
            return None

    def read_lease(self, fingerprint: str) -> Lease | None:
        """The current lease, or ``None`` (absent, torn, or foreign)."""
        return self._read_lease_file(self.lease_path(fingerprint))

    @staticmethod
    def _read_lease_file(path: Path) -> Lease | None:
        try:
            return Lease.from_dict(
                json.loads(path.read_text(encoding="utf-8"))
            )
        except (OSError, ValueError, BrokerError):
            # Absent, torn mid-write, or not a lease at all: every one
            # of these means "no live claim" to a reader.
            return None

    def claim(self, worker_id: str) -> Claim | None:
        """Try to acquire one pending job; ``None`` when nothing claimable.

        Pops published fingerprints off the claim snapshot, and lists
        ``jobs/`` again (:meth:`pending`) only when the snapshot runs
        dry — at most once per call.  A stale snapshot only changes
        *which* job is tried: :meth:`_try_claim` re-checks lease, record
        and cache on disk.  For each: a live lease means someone is
        working on it (the job is seen again at the next listing, which
        is how an expired lease still gets stolen); an expired/torn
        lease is *stolen* (renamed to a private name — exactly one
        stealer wins the ``os.replace`` race) and the job re-claimed at
        the next generation; a generation past the poison fuse
        quarantines the job instead.  The acquisition itself is an
        exclusive create of the lease file (:meth:`_create_lease`).
        """
        for relist in (False, True):
            if relist:
                self._snapshot = self.pending()[::-1]
            while self._snapshot:
                fingerprint = self._snapshot.pop()
                if fingerprint in self._skip:
                    continue
                claim = self._try_claim(fingerprint, worker_id)
                if claim is not None:
                    return claim
        return None

    def _try_claim(self, fingerprint: str, worker_id: str) -> Claim | None:
        lease_path = self.lease_path(fingerprint)
        generation = 1
        # One observation decides: a lease created after this check makes
        # our own create fail below, never turns into a bogus steal.
        if lease_path.exists():
            prior = self._read_lease_file(lease_path)
            if prior is not None and not prior.expired:
                return None  # live claim: someone's working on it
            stolen = self._steal(lease_path, worker_id)
            if stolen is None:
                return None  # lost the steal race
            lost_worker, stolen_generation = stolen
            generation = stolen_generation + 1
            self.counters.reclaims += 1
            probe.counter("exec.reclaims")
            self._record_reclaim(
                fingerprint, generation, lost_worker, worker_id
            )
            if self.progress is not None:
                self.progress(
                    f"[broker] reclaimed expired lease "
                    f"{fingerprint[:12]} from {lost_worker} "
                    f"(generation {generation})"
                )
        loaded = self.load_job(fingerprint)
        if loaded is None:
            return None  # completed elsewhere, or unusable (now skipped)
        job, record = loaded
        if self.cache.read(job) is not None:
            # Someone finished it but died before retiring the record.
            self.finish_job(fingerprint)
            return None
        if generation > self.max_generations:
            self.quarantine_job(
                job,
                generation - 1,
                f"{generation - 1} consecutive lease generation(s) expired "
                f"without a result (poison fuse: {self.max_generations})",
            )
            return None
        lease = Lease(
            fingerprint=fingerprint,
            worker=worker_id,
            generation=generation,
            deadline=_wall_now() + self.config.lease_ttl_s,
        )
        if not self._create_lease(lease):
            return None  # lost the claim race
        if self.cache.read(job) is not None:
            # The owner published and retired its lease between our cache
            # check and our create: the lease is ours, the job is done.
            try:
                self.lease_path(fingerprint).unlink(missing_ok=True)
            except OSError:  # lint: disable=R007
                pass  # an orphan lease expires by TTL; the record is gone
            self.finish_job(fingerprint)
            return None
        self.counters.claims += 1
        probe.counter("exec.lease_acquired")
        trace_id = record.get("trace_id")
        return Claim(
            job=job,
            lease=lease,
            trace_id=None if trace_id is None else str(trace_id),
            span_id=record.get("span_id"),
            attempt=record.get("attempt", 0) + generation - 1,
        )

    def _steal(self, lease_path: Path, worker_id: str) -> tuple[str, int] | None:
        """Atomically take an expired lease; ``(lost worker, generation)``.

        ``os.replace`` to a name private to this worker: of N concurrent
        stealers exactly one succeeds, the rest get ``FileNotFoundError``.
        A torn (unparseable) stolen lease counts as generation 1 by an
        unknown worker — the ladder restarts conservatively rather than
        never.
        """
        private = lease_path.with_name(
            f"{lease_path.name}.steal.{worker_id}"
        )
        try:
            os.replace(lease_path, private)
        except OSError:
            return None
        stolen = self._read_lease_file(private)
        try:
            private.unlink(missing_ok=True)
        except OSError:  # lint: disable=R007
            pass  # leftover steal litter; the janitor TTL-sweeps it
        if stolen is None:
            return ("unknown", 1)
        return (stolen.worker, stolen.generation)

    def _record_reclaim(
        self, fingerprint: str, generation: int, lost_worker: str, by: str
    ) -> None:
        """Persist one reclaim event for the coordinator to consume."""
        record = {
            "schema": BROKER_SCHEMA,
            "fingerprint": fingerprint,
            "generation": generation,
            "lost_worker": lost_worker,
            "by": by,
        }
        path = self.config.reclaims_dir / f"{fingerprint}.{generation}.json"
        try:
            write_atomic(path, json.dumps(record, sort_keys=True))
        except OSError:  # lint: disable=R007
            pass  # counting evidence only; the reclaim itself happened
        if self.telemetry is not None:
            self.telemetry.lifecycle(
                "reclaim",
                fingerprint=fingerprint,
                generation=generation,
                lost_worker=lost_worker,
                by=by,
            )

    def consume_reclaims(self) -> list[dict]:
        """Take (and delete) every readable reclaim record, exactly once.

        The unlink is the claim on the record: whoever removes it counts
        it, so two coordinators on one broker directory never double
        count an event.
        """
        records = []
        for path in sorted(self.config.reclaims_dir.glob("*.json")):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):  # lint: disable=R007
                continue  # torn mid-write; picked up next poll
            if record.get("schema") != BROKER_SCHEMA:
                continue
            try:
                path.unlink()
            except OSError:  # lint: disable=R007
                continue  # consumed by someone else, or counted next poll
            records.append(record)
        return records

    def _create_lease(self, lease: Lease) -> bool:
        """Exclusive acquisition; False when someone beat us.

        The lease appears whole or not at all, so a concurrent claimer
        can never mistake a lease being written for a torn one.
        """
        data = faults.mangle_lease_write(
            lease.fingerprint, json.dumps(lease.to_dict(), sort_keys=True)
        )
        return write_atomic(
            self.lease_path(lease.fingerprint), data, exclusive=True
        )

    def renew(self, claim: Claim) -> bool:
        """Heartbeat: extend the claim's deadline; False when it was lost.

        Read-check-then-replace: if the on-disk lease no longer names
        this worker at this generation, a stealer decided we were dead
        and owns the job now — the renewal is refused and the caller
        should treat its own execution as a benign duplicate (results
        are content-addressed, so finishing anyway is safe).
        """
        current = self.read_lease(claim.lease.fingerprint)
        if current is None or (
            current.worker != claim.lease.worker
            or current.generation != claim.lease.generation
        ):
            return False
        renewed = Lease(
            fingerprint=claim.lease.fingerprint,
            worker=claim.lease.worker,
            generation=claim.lease.generation,
            deadline=_wall_now() + self.config.lease_ttl_s,
            renewals=current.renewals + 1,
        )
        path = self.lease_path(claim.lease.fingerprint)
        data = faults.mangle_lease_write(
            renewed.fingerprint, json.dumps(renewed.to_dict(), sort_keys=True)
        )
        try:
            write_atomic(path, data)
        except OSError:
            return False
        self.counters.lease_renewals += 1
        probe.counter("exec.lease_renewals")
        return True

    def fail_attempt(self, claim: Claim) -> None:
        """Give up this attempt (transient error): expire our own lease.

        The generation is *kept* — rewriting the lease with an
        already-past deadline makes the job immediately stealable while
        preserving the poison-fuse ladder, exactly as if this worker
        had crashed.
        """
        path = self.lease_path(claim.lease.fingerprint)
        expired = Lease(
            fingerprint=claim.lease.fingerprint,
            worker=claim.lease.worker,
            generation=claim.lease.generation,
            deadline=_wall_now() - 1.0,
            renewals=claim.lease.renewals,
        )
        try:
            write_atomic(path, json.dumps(expired.to_dict(), sort_keys=True))
        except OSError:  # lint: disable=R007
            pass  # worst case the lease expires by TTL instead

    def complete(self, claim: Claim) -> None:
        """Retire a finished job: remove its record, then our lease."""
        self.finish_job(claim.lease.fingerprint)
        try:
            self.lease_path(claim.lease.fingerprint).unlink(missing_ok=True)
        except OSError:  # lint: disable=R007
            pass  # lease already stolen/removed; harmless
        probe.counter("exec.lease_released")

    def finish_job(self, fingerprint: str) -> None:
        """Remove a job record (its result is in the shared cache)."""
        try:
            self.job_path(fingerprint).unlink(missing_ok=True)
        except OSError:  # lint: disable=R007
            pass  # raced with another finisher: the job is gone either way

    # -------------------------------------------------------------- #
    # quarantine (poison jobs)
    # -------------------------------------------------------------- #
    def quarantine_job(self, job: SimJob, generation: int, reason: str) -> None:
        """Mark ``job`` poison: persist the evidence, retire the record.

        Pure storage — callers do their own counting, so a record is
        never double-counted when both a worker and the coordinator
        watchdog reach the same verdict.
        """
        record = {
            "schema": BROKER_SCHEMA,
            "fingerprint": job.fingerprint,
            "label": job.label,
            "generation": generation,
            "reason": reason,
            "job": job.describe(),
        }
        path = self.quarantine_path(job.fingerprint)
        try:
            write_atomic(path, json.dumps(record, sort_keys=True))
        except OSError:  # lint: disable=R007
            pass  # the coordinator watchdog will re-reach the verdict
        self.finish_job(job.fingerprint)
        try:
            self.lease_path(job.fingerprint).unlink(missing_ok=True)
        except OSError:  # lint: disable=R007
            pass  # racing stealer holds it; it will hit the quarantine too
        self._skip.add(job.fingerprint)
        if self.telemetry is not None:
            self.telemetry.lifecycle(
                "quarantine",
                fingerprint=job.fingerprint,
                label=job.label,
                generation=generation,
                reason=reason,
            )
        if self.progress is not None:
            self.progress(
                f"[broker] quarantined poison job {job.label}: {reason}"
            )

    def quarantined(self, among: Container[str] | None = None) -> list[dict]:
        """Every readable quarantine record, or those of ``among`` only.

        The coordinator passes its unresolved fingerprints, so a round
        reads only the records that concern it, not every poison job a
        long-lived broker directory has collected.
        """
        records = []
        for fingerprint in sorted(listed(self.config.quarantine_dir)):
            if among is not None and fingerprint not in among:
                continue
            path = self.quarantine_path(fingerprint)
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):  # lint: disable=R007
                continue  # torn mid-write; the writer retries or TTL reaps
            if record.get("schema") == BROKER_SCHEMA:
                records.append(record)
        return records

    # -------------------------------------------------------------- #
    # the drain-closed marker
    # -------------------------------------------------------------- #
    def reopen(self) -> None:
        """Remove the drain-closed marker before publishing new work."""
        self.config.closed_path.unlink(missing_ok=True)

    def close(self) -> None:
        """Write the drain-closed marker: idle workers exit on it."""
        try:
            write_atomic(
                self.config.closed_path,
                json.dumps({"schema": BROKER_SCHEMA, "closed": _wall_now()}),
            )
        except OSError:  # lint: disable=R007
            pass  # workers then leave by idle timeout or SIGTERM

    def drained(self) -> bool:
        """True when the drain is closed and no live lease remains.

        A worker leaves only then: while a lease is live its job may
        still be lost and need a claimer (a second coordinator sharing
        the directory can also have work in flight).
        """
        if not self.config.closed_path.exists():
            return False
        return not any(
            lease is not None and not lease.expired
            for lease in map(self.read_lease, listed(self.config.leases_dir))
        )

    # -------------------------------------------------------------- #
    # hygiene
    # -------------------------------------------------------------- #
    def sweep(self) -> None:
        """Janitor pass over coordination litter (steal/tmp/stale residue).

        Stale reclaim records (a coordinator that died long before this
        one resumed) are swept too — they are counting evidence, and
        evidence an hour old describes a different run.
        """
        swept = sweep_stale(
            self.config.leases_dir, "*.steal.*", STALE_LEASE_TTL_S
        )
        swept += sweep_stale(
            self.config.leases_dir, "*.tmp.*", STALE_LEASE_TTL_S
        )
        swept += sweep_stale(
            self.config.reclaims_dir, "*.tmp.*", STALE_LEASE_TTL_S
        )
        swept += sweep_stale(
            self.config.reclaims_dir, "*.json", STALE_LEASE_TTL_S
        )
        self.counters.lease_swept += swept


class _Heartbeat(threading.Thread):
    """Renews one claim's lease every ``interval`` while the job runs.

    Stops renewing when the lease is stolen (we were presumed dead) or
    once a ``budget_s`` wall budget is exhausted — the hang protection:
    a worker stuck inside a job stops refreshing its claim, the lease
    expires, and the fleet reclaims the job even though this process
    never returns.
    """

    def __init__(
        self,
        store: BrokerStore,
        claim: Claim,
        interval: float,
        budget_s: float | None = None,
        telemetry: TelemetryWriter | None = None,
    ) -> None:
        super().__init__(
            daemon=True,
            name=f"lease-heartbeat-{claim.lease.fingerprint[:8]}",
        )
        self.store = store
        self.claim = claim
        self.interval = interval
        self.budget_s = budget_s
        self.telemetry = telemetry
        self._done = threading.Event()

    def run(self) -> None:
        started = time.monotonic()
        while not self._done.wait(self.interval):
            if (
                self.budget_s is not None
                and time.monotonic() - started >= self.budget_s
            ):
                return  # over budget: let the lease lapse (hang guard)
            if not self.store.renew(self.claim):
                return  # stolen: the job belongs to someone else now
            if self.telemetry is not None:
                # The telemetry heartbeat rides the lease renewal: this
                # thread is the only thing running while a long job
                # simulates, so it is what keeps the dashboard live.
                self.telemetry.heartbeat(
                    "running",
                    job=self.claim.job.label,
                    kind=self.claim.job.kind,
                    generation=self.claim.lease.generation,
                )

    def stop(self) -> None:
        self._done.set()
        self.join(timeout=5.0)


def run_worker(
    broker: BrokerConfig | str | Path,
    worker_id: str | None = None,
    resilience: ResilienceConfig | None = None,
    idle_timeout_s: float | None = None,
    max_jobs: int | None = None,
    progress: Callable[[str], None] | None = None,
    hard_faults: bool = False,
    stop: threading.Event | None = None,
) -> WorkerStats:
    """One worker loop: claim, heartbeat, execute, publish, repeat.

    Exits cleanly once nothing is claimable and the coordinator closed
    the drain (:meth:`BrokerStore.drained`), after ``idle_timeout_s``
    with nothing claimable, after ``max_jobs`` claims, or when ``stop``
    is set (the CLI wires SIGTERM to it for graceful drain); the
    telemetry ``exit`` frame names which.  ``hard_faults=True`` marks
    the process a fault-injection *worker* (see
    :func:`repro.faults.mark_worker_process`) so injected crashes really
    ``os._exit`` — reversible, for in-process tests.

    Error handling transfers the engine's taxonomy: a transient error
    expires this worker's own lease in place (same fingerprint ladder a
    crash would climb), a permanent error quarantines the job
    immediately — no other worker should die discovering the same bug.
    """
    config = broker if isinstance(broker, BrokerConfig) else BrokerConfig(root=broker)
    resilience = ResilienceConfig() if resilience is None else resilience
    identity = worker_id or default_worker_id()
    # Workers announce themselves on the broker's telemetry bus.  The
    # declared interval is the lease heartbeat period — during a long
    # job the renewal thread is what keeps frames flowing, so that is
    # the largest gap a live worker should ever show.
    telemetry = TelemetryWriter(
        telemetry_dir(config.root),
        identity=identity,
        role="worker",
        declared_interval_s=max(1.0, config.heartbeat_interval),
    )
    store = BrokerStore(
        config, resilience=resilience, progress=progress, telemetry=telemetry
    )
    idle_budget = (
        config.idle_timeout_s if idle_timeout_s is None else idle_timeout_s
    )
    stats = WorkerStats()
    accesses_total = 0
    #: Per-job fJ totals, order-safely summed at report time (D005).
    energy_parts: list[float] = []
    busy_s = 0.0

    def gauges() -> dict:
        rate = accesses_total / busy_s if busy_s > 0 else 0.0
        return {
            "jobs_done": stats.executed,
            "claimed": stats.claimed,
            "failures": stats.failures,
            "accesses": accesses_total,
            "accesses_per_s": round(rate, 1),
            "energy_fj": math.fsum(energy_parts),
        }

    if hard_faults:
        faults.mark_worker_process(True)
    reason = "error"
    try:
        reclaims_before = store.counters.reclaims
        idle_since = time.monotonic()
        telemetry.heartbeat("idle", force=True, **gauges())
        while stop is None or not stop.is_set():
            claim = store.claim(identity)
            if claim is None:
                if store.drained():
                    reason = "drained"
                    break
                if time.monotonic() - idle_since >= idle_budget:
                    reason = "idle"
                    break
                telemetry.heartbeat("idle", **gauges())
                time.sleep(config.poll_s)
                continue
            idle_since = time.monotonic()
            stats.claimed += 1
            telemetry.lifecycle(
                "claim",
                fingerprint=claim.lease.fingerprint,
                label=claim.job.label,
                kind=claim.job.kind,
                generation=claim.lease.generation,
                trace_id=claim.trace_id,
                span_id=claim.span_id,
            )
            telemetry.heartbeat(
                "running",
                force=True,
                job=claim.job.label,
                kind=claim.job.kind,
                generation=claim.lease.generation,
                **gauges(),
            )
            if progress is not None:
                progress(
                    f"[worker {identity}] claimed {claim.job.label} "
                    f"(generation {claim.lease.generation})"
                )
            heartbeat = _Heartbeat(
                store,
                claim,
                config.heartbeat_interval,
                budget_s=resilience.job_timeout_s,
                telemetry=telemetry,
            )
            heartbeat.start()
            try:
                result = _worker.execute_job(claim.job, attempt=claim.attempt)
            # Sanctioned broad catch: classified below into the same
            # transient/permanent taxonomy the local backends use.
            except Exception as error:  # lint: disable=R007
                heartbeat.stop()
                stats.failures += 1
                telemetry.lifecycle(
                    "fail",
                    fingerprint=claim.lease.fingerprint,
                    label=claim.job.label,
                    generation=claim.lease.generation,
                    error=type(error).__name__,
                    transient=classify_transient(error),
                    trace_id=claim.trace_id,
                    span_id=claim.span_id,
                )
                if classify_transient(error):
                    store.fail_attempt(claim)
                    if progress is not None:
                        progress(
                            f"[worker {identity}] transient "
                            f"{type(error).__name__} on {claim.job.label}; "
                            "lease released for retry"
                        )
                else:
                    stats.quarantined += 1
                    store.quarantine_job(
                        claim.job,
                        claim.lease.generation,
                        f"permanent {type(error).__name__}: {error}",
                    )
            else:
                heartbeat.stop()
                if claim.trace_id is not None and result.trace:
                    # Correlation ids ride the trace snapshot (transport
                    # observability, excluded from the canonical
                    # measurement) so a fleet's traces stitch into one
                    # timeline.
                    result.trace.setdefault("trace_id", claim.trace_id)
                    result.trace.setdefault("span_id", claim.span_id)
                store.cache.write(claim.job, result, attempt=claim.attempt)
                store.complete(claim)
                stats.executed += 1
                accesses_total += result.accesses
                busy_s += result.wall_s
                if result.stats is not None:
                    energy_parts.append(result.stats.total_fj)
                telemetry.lifecycle(
                    "finish",
                    fingerprint=claim.lease.fingerprint,
                    label=claim.job.label,
                    kind=claim.job.kind,
                    scheme=(
                        None
                        if claim.job.config is None
                        else claim.job.config.scheme
                    ),
                    generation=claim.lease.generation,
                    wall_s=result.wall_s,
                    accesses=result.accesses,
                    energy_fj=(
                        None
                        if result.stats is None
                        else result.stats.total_fj
                    ),
                    trace_id=claim.trace_id,
                    span_id=claim.span_id,
                )
                if probe.ENABLED:
                    probe.gauge("worker.jobs_done", stats.executed)
                    probe.gauge("worker.claimed", stats.claimed)
                    probe.gauge("worker.failures", stats.failures)
            if max_jobs is not None and stats.claimed >= max_jobs:
                reason = "max_jobs"
                break
        else:
            reason = "stopped"
    finally:
        if hard_faults:
            faults.mark_worker_process(False)
        telemetry.lifecycle(
            "exit",
            claimed=stats.claimed,
            executed=stats.executed,
            reason=reason,
        )
        telemetry.heartbeat("exited", force=True, **gauges())
        telemetry.close()
    stats.reclaims = store.counters.reclaims - reclaims_before
    stats.renewals = store.counters.lease_renewals
    return stats


@dataclass
class _Fleet:
    """The coordinator's local worker subprocesses (``spawn=True``)."""

    config: BrokerConfig
    resilience: ResilienceConfig
    count: int
    progress: Callable[[str], None] | None = None
    respawns_left: int = 0
    procs: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.respawns_left = self.config.worker_respawns
        for _ in range(max(1, self.count)):
            self.procs.append(self._spawn())

    def _spawn(self):
        # Spawned workers must outlast any single lease expiry, or an
        # idle fleet could exit while a crashed peer's lease runs down.
        idle = max(
            self.config.idle_timeout_s, 3.0 * self.config.lease_ttl_s + 5.0
        )
        command = [
            sys.executable,
            "-m",
            "repro.harness.cli",
            "worker",
            "--broker",
            str(self.config.root),
            "--lease-ttl",
            str(self.config.lease_ttl_s),
            "--poll",
            str(self.config.poll_s),
            "--idle-timeout",
            str(idle),
            "--max-generations",
            str(self.config.generations(self.resilience)),
        ]
        if self.resilience.job_timeout_s is not None:
            command += ["--job-timeout", str(self.resilience.job_timeout_s)]
        # Workers inherit the parent environment untouched (REPRO_FAULTS
        # and PYTHONPATH included); stdout is discarded so worker chatter
        # can never interleave with the coordinator's rendered output.
        return subprocess.Popen(command, stdout=subprocess.DEVNULL)

    def alive(self) -> int:
        return sum(1 for proc in self.procs if proc.poll() is None)

    def maintain(self, active_jobs: int) -> None:
        """Respawn dead workers while work remains (within budget).

        A worker that died with a nonzero status (injected crash,
        SIGKILL) *and* a clean idle exit both get replaced while jobs
        are unresolved — each replacement spends one respawn.  When the
        whole fleet is dead and the budget is gone, the drain cannot
        finish: raise rather than poll forever.
        """
        if active_jobs <= 0:
            return
        for index, proc in enumerate(self.procs):
            if proc.poll() is None:
                continue
            if self.respawns_left > 0:
                self.respawns_left -= 1
                if self.progress is not None and proc.returncode != 0:
                    self.progress(
                        f"[broker] worker exited with status "
                        f"{proc.returncode}; respawning "
                        f"({self.respawns_left} respawn(s) left)"
                    )
                self.procs[index] = self._spawn()
        if self.alive() == 0 and self.respawns_left <= 0:
            raise BrokerError(
                f"every spawned worker died and the respawn budget is "
                f"exhausted with {active_jobs} job(s) unresolved"
            )

    def shutdown(self) -> None:
        """Wait for the workers to leave on the drain-closed marker.

        A worker notices the marker within one poll; whoever is still
        running after the grace period (busy with a job, or still
        starting up) gets SIGTERM, then SIGKILL.
        """
        deadline = time.monotonic() + max(5.0, 3.0 * self.config.poll_s)
        for proc in self.procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:  # lint: disable=R007
                pass  # the SIGTERM fallback below handles it
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()  # SIGTERM: workers drain gracefully
        for proc in self.procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)


def drain(engine, pending: list[SimJob]) -> None:
    """Coordinator loop: publish ``pending``, watch the fleet converge.

    The engine's resolve pipeline already consumed memo and cache hits,
    so ``pending`` is exactly the unfinished remainder — which makes
    coordinator restart a resume for free.  Each round costs the work
    that changed: it lists ``jobs/`` and the cache shards of the
    unresolved jobs, adopts the results those listings name, and
    republishes a job whose result was lost; it converts quarantine
    records into permanent failures; it reads the leases that exist as
    the liveness watchdog; and it keeps the local fleet staffed.  When
    the drain is over — finished or given up — it writes the
    drain-closed marker, and the fleet leaves on it.
    """
    config = engine.broker
    if config is None:
        raise BrokerError("broker backend selected without a BrokerConfig")
    if engine.store is None:
        raise BrokerError("broker engine has no result store")
    telemetry = getattr(engine, "telemetry", None)
    trace_id = getattr(engine, "trace_id", None)
    store = BrokerStore(
        config,
        resilience=engine.resilience,
        counters=engine.counters,
        progress=engine.progress,
        cache=engine.store,
        telemetry=telemetry,
    )
    store.sweep()
    store.reopen()
    unresolved: dict[str, SimJob] = {job.fingerprint: job for job in pending}
    lost_workers: set[str] = set()
    #: fingerprint -> how many times its result was lost (the attempt
    #: its republished record runs at).
    lost_results: dict[str, int] = {}

    def account_reclaims() -> None:
        """Fold every durable reclaim record into the engine, once each."""
        for record in store.consume_reclaims():
            engine.counters.reclaims += 1
            probe.counter("exec.reclaims")
            lost = record.get("lost_worker") or "unknown"
            if lost not in lost_workers:
                lost_workers.add(lost)
                engine.counters.workers_lost += 1
                probe.counter("exec.workers_lost")
            if engine.obs is not None:
                engine.obs.record_broker(
                    "reclaim",
                    fingerprint=record.get("fingerprint"),
                    generation=record.get("generation"),
                    lost_worker=lost,
                    by=record.get("by"),
                )

    def republish(job: SimJob) -> None:
        """Run a job whose result was lost again, one attempt later.

        Its record is retired and its result unreadable (a torn write
        quarantined aside, or a write that failed), so nobody would
        ever run it again.  At the poison fuse it is quarantined.
        """
        fingerprint = job.fingerprint
        if store.quarantine_path(fingerprint).exists():
            return  # a poison verdict: step 2 turns it into a failure
        attempt = lost_results[fingerprint] = (
            lost_results.get(fingerprint, 0) + 1
        )
        if attempt >= store.max_generations:
            store.quarantine_job(
                job,
                attempt,
                f"result lost {attempt} time(s) "
                f"(poison fuse: {store.max_generations})",
            )
            return
        store.publish([job], trace_id=trace_id, attempt=attempt)
        if engine.obs is not None:
            engine.obs.record_broker(
                "republish", fingerprint=fingerprint, attempt=attempt
            )
        if engine.progress is not None:
            engine.progress(
                f"[broker] result of {job.label} lost; republished "
                f"(attempt {attempt})"
            )

    # The fleet starts before the records land, so worker start-up
    # (interpreter and imports) overlaps publishing; a worker claims
    # whatever its first listing shows.
    fleet = (
        _Fleet(
            config,
            engine.resilience,
            count=min(engine.jobs, len(pending)),
            progress=engine.progress,
        )
        if config.spawn
        else None
    )
    try:
        published = store.publish(pending, trace_id=trace_id)
        if engine.obs is not None:
            engine.obs.record_broker(
                "publish", jobs=len(pending), published=published
            )
        if telemetry is not None:
            telemetry.lifecycle(
                "publish", jobs=len(pending), published=published
            )
        while unresolved:
            # 1. Adopt what the fleet finished.  jobs/ is listed before
            #    the cache: a worker writes its result before it retires
            #    the record, so a job in neither listing lost its result.
            records = listed(config.jobs_dir)
            cached = store.cache.present(unresolved)
            for fingerprint, job in list(unresolved.items()):
                result = (
                    store.cache.read(job) if fingerprint in cached else None
                )
                if result is not None:
                    result.source = "broker"
                    engine._adopt(job, result)
                    if fingerprint in records:
                        store.finish_job(fingerprint)
                    del unresolved[fingerprint]
                elif fingerprint not in records:
                    republish(job)
            if not unresolved:
                break
            # 2. Quarantine records become permanent structured failures.
            for record in store.quarantined(among=unresolved):
                fingerprint = record.get("fingerprint")
                job = unresolved.pop(fingerprint, None)  # type: ignore[arg-type]
                if job is None:
                    continue
                engine.counters.quarantined += 1
                probe.counter("exec.quarantined")
                if engine.obs is not None:
                    engine.obs.record_broker(
                        "quarantine",
                        fingerprint=fingerprint,
                        label=record.get("label"),
                        generation=record.get("generation"),
                        reason=record.get("reason"),
                    )
                attempts = int(
                    record.get("generation") or store.max_generations
                )
                engine._fail(
                    job,
                    PoisonJobError(
                        record.get("reason") or "poison job quarantined"
                    ),
                    attempts,
                )
            # 3. Liveness accounting: every stolen expired lease left a
            #    durable reclaim record — consume each exactly once.
            account_reclaims()
            # 4. Watchdog: a lease expired at the poison fuse is
            #    quarantined here in case every worker is dead and
            #    nobody else will reach the verdict (step 2 consumes it
            #    next round).  Only leases that exist are read.
            for fingerprint in sorted(
                listed(config.leases_dir) & unresolved.keys()
            ):
                lease = store.read_lease(fingerprint)
                if lease is None:
                    continue
                if (
                    lease.expired
                    and lease.generation >= store.max_generations
                ):
                    store.quarantine_job(
                        unresolved[fingerprint],
                        lease.generation,
                        f"{lease.generation} consecutive lease "
                        f"generation(s) expired without a result "
                        f"(poison fuse: {store.max_generations})",
                    )
            if fleet is not None:
                fleet.maintain(active_jobs=len(unresolved))
            if telemetry is not None and telemetry.due:
                depth = len(store.pending())
                probe.gauge("broker.queue_depth", depth)
                telemetry.heartbeat(
                    "draining",
                    queue_depth=depth,
                    unresolved=len(unresolved),
                    reclaims=engine.counters.reclaims,
                    quarantined=engine.counters.quarantined,
                )
            time.sleep(config.poll_s)
        # Final accounting pass: the loop exits the moment the last job
        # is adopted, which can leave that job's reclaim record unread.
        account_reclaims()
        if engine.obs is not None:
            engine.obs.record_broker(
                "drain",
                jobs=len(pending),
                reclaims=engine.counters.reclaims,
                workers_lost=engine.counters.workers_lost,
                quarantined=engine.counters.quarantined,
            )
        if telemetry is not None:
            telemetry.lifecycle(
                "drain",
                jobs=len(pending),
                reclaims=engine.counters.reclaims,
                workers_lost=engine.counters.workers_lost,
                quarantined=engine.counters.quarantined,
            )
            telemetry.heartbeat(
                "draining", force=True, queue_depth=0, unresolved=0
            )
    finally:
        store.close()
        if fleet is not None:
            fleet.shutdown()


__all__ = [
    "BROKER_SCHEMA",
    "BrokerConfig",
    "BrokerError",
    "BrokerStore",
    "Claim",
    "Lease",
    "WorkerStats",
    "default_worker_id",
    "drain",
    "run_worker",
]
