"""The content-addressed result store: one shared cache, many writers.

:class:`ResultStore` owns the on-disk result cache that used to live
inline in :class:`~repro.exec.engine.ExecEngine`.  Factoring it out
matters because the cache is no longer private to one engine: with the
distributed backend (:mod:`repro.exec.broker`) an arbitrary number of
worker processes — possibly on other machines — read and write the same
directory, and the store is their only rendezvous point.

Layout (unchanged from the engine's original cache)::

    <directory>/<fp[:2]>/<fp>.json    one JSON document per result:
        {"schema": ..., "fingerprint": ..., "job": {...}, "payload": {...}}

Atomicity discipline: every write goes through :func:`write_atomic`,
which lands the document in a tmp file private to the writing thread
(``<name>.tmp.<pid>.<thread>``) and publishes it with ``os.replace`` —
concurrent writers of the same fingerprint race benignly (last writer
wins with an identical document, because results are
content-addressed).  A file that fails to parse is
quarantined aside as ``<name>.corrupt``, never deleted in the hot path:
the evidence (torn write? disk fault? foreign writer?) survives until
the startup janitor's TTL reaps it.

The janitor (:meth:`ResultStore.sweep`) generalizes the old
``_sweep_stale_tmps``: orphaned ``*.tmp.*`` files (crashed mid
write), aged ``*.corrupt`` quarantine files (observed, diagnosed or
not, either way stale) and — via :func:`sweep_stale`, which the broker
reuses for lease litter — any other crash residue, each with its own
TTL and counter class.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

from repro import faults
from repro.exec.job import ENGINE_SCHEMA, SimJob
from repro.exec.result import ExecResult
from repro.obs import probe

#: Orphaned ``*.tmp.*`` cache files older than this are swept on
#: engine startup (crashed writers leave them behind); younger ones may
#: belong to a live concurrent run sharing the cache directory.
STALE_TMP_TTL_S = 3600.0

#: Quarantined ``*.corrupt`` files older than this are swept on engine
#: startup.  A day is long enough to inspect the evidence of a torn
#: write; without a TTL they accumulate forever on a long-lived cache.
STALE_CORRUPT_TTL_S = 86400.0

#: Stale broker-lease litter (``*.steal.*`` rename residue, lease tmp
#: files) older than this is swept when a coordinator starts a drain.
STALE_LEASE_TTL_S = 3600.0


@dataclass
class EngineCounters:
    """Running totals of everything the engine resolved."""

    requested: int = 0
    unique: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    serial_fallbacks: int = 0
    failures: int = 0
    cache_corrupt: int = 0
    cache_read_errors: int = 0
    cache_write_errors: int = 0
    tmp_swept: int = 0
    corrupt_swept: int = 0
    lease_swept: int = 0
    # broker backend (coordinator side unless noted)
    published: int = 0
    claims: int = 0  # worker side: leases acquired
    lease_renewals: int = 0  # worker side: heartbeat renewals
    reclaims: int = 0
    workers_lost: int = 0
    quarantined: int = 0

    @property
    def resolved(self) -> int:
        """Total resolutions, however they were served."""
        return self.memo_hits + self.cache_hits + self.executed

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of resolutions served without simulating (0 if none)."""
        resolved = self.resolved
        if not resolved:
            return 0.0
        return (self.memo_hits + self.cache_hits) / resolved

    def to_dict(self) -> dict:
        """JSON-ready totals (manifest summaries, ``profile --json``)."""
        return {
            "requested": self.requested,
            "unique": self.unique,
            "memo_hits": self.memo_hits,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "resolved": self.resolved,
            "cache_hit_rate": self.cache_hit_rate,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "serial_fallbacks": self.serial_fallbacks,
            "failures": self.failures,
            "cache_corrupt": self.cache_corrupt,
            "cache_read_errors": self.cache_read_errors,
            "cache_write_errors": self.cache_write_errors,
            "tmp_swept": self.tmp_swept,
            "corrupt_swept": self.corrupt_swept,
            "lease_swept": self.lease_swept,
            "published": self.published,
            "claims": self.claims,
            "lease_renewals": self.lease_renewals,
            "reclaims": self.reclaims,
            "workers_lost": self.workers_lost,
            "quarantined": self.quarantined,
        }

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        text = (
            f"{self.requested} requested, {self.unique} unique, "
            f"{self.memo_hits} memo hit(s), {self.cache_hits} cache "
            f"hit(s), {self.executed} simulated"
        )
        extras = [
            f"{value} {name}"
            for name, value in (
                ("retried", self.retries),
                ("timed out", self.timeouts),
                ("pool rebuild(s)", self.pool_rebuilds),
                ("serial fallback(s)", self.serial_fallbacks),
                ("failed", self.failures),
                ("corrupt cache entr(ies)", self.cache_corrupt),
                ("cache read error(s)", self.cache_read_errors),
                ("reclaimed", self.reclaims),
                ("worker(s) lost", self.workers_lost),
                ("quarantined", self.quarantined),
            )
            if value
        ]
        if extras:
            text += ", " + ", ".join(extras)
        return text


def sweep_stale(directory: Path, pattern: str, ttl_s: float) -> int:
    """Unlink files matching ``pattern`` under ``directory`` older than
    ``ttl_s`` seconds; returns how many were removed.

    The shared janitor primitive: the result store uses it for tmp and
    corrupt-file hygiene, the broker for lease litter.  Younger matches
    are kept — they may belong to a live concurrent run.
    """
    if not directory.is_dir():
        return 0
    # Wall clock by necessity: staleness is judged against file mtimes,
    # which are wall-clock stamps.  Never feeds results.
    cutoff = time.time() - ttl_s  # lint: disable=D001
    swept = 0
    for path in directory.glob(pattern):
        try:
            if path.stat().st_mtime < cutoff:
                path.unlink()
                swept += 1
        except OSError:  # lint: disable=R007
            pass  # vanished mid-sweep (concurrent janitor): fine
    return swept


def write_atomic(path: Path, data: str, *, exclusive: bool = False) -> bool:
    """Publish ``data`` at ``path`` whole: readers see all of it or none.

    The shared atomic-file primitive (result store, broker records and
    leases, telemetry collector state).  ``data`` lands first in a tmp
    file private to this thread, ``<name>.tmp.<pid>.<thread id>`` — the
    ``*.tmp.*`` janitor globs match it, and two threads of one process
    never share it — and is then moved into place: by ``os.replace``
    (last writer wins), or with ``exclusive`` by ``os.link``, which
    refuses an existing ``path`` and returns False.  Any other failure
    raises ``OSError``; the tmp file never outlives the call.
    """
    tmp = path.with_name(
        f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
    )
    try:
        tmp.write_text(data, encoding="utf-8")
        if exclusive:
            os.link(tmp, path)
        else:
            os.replace(tmp, path)
    except FileExistsError:
        return False
    finally:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:  # lint: disable=R007
            pass  # best-effort cleanup; the janitor TTL-sweeps leftovers
    return True


def listed(directory: Path) -> set[str]:
    """Names of the ``<name>.json`` documents in ``directory``, sans suffix.

    One ``os.listdir``, names only: no per-entry ``stat`` or ``Path``.
    Siblings such as ``<name>.json.tmp.*`` or ``<name>.corrupt`` never
    match; a missing directory lists nothing.  The cache, the broker's
    job/lease/quarantine directories and their pollers share it.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return set()
    return {name[:-5] for name in names if name.endswith(".json")}


def _load_text(path: Path) -> str:
    """Read one cache file (module-level so tests can fake I/O faults)."""
    return path.read_text(encoding="utf-8")


class ResultStore:
    """The content-addressed on-disk result cache (shared, multi-writer)."""

    def __init__(
        self,
        directory: str | Path,
        counters: EngineCounters | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.counters = EngineCounters() if counters is None else counters
        self.progress = progress

    def path_for(self, fingerprint: str) -> Path:
        """Where a result with ``fingerprint`` lives (or would live)."""
        return self.directory / fingerprint[:2] / f"{fingerprint}.json"

    def present(self, fingerprints: Iterable[str]) -> set[str]:
        """The ``fingerprints`` that have a result file, from listings.

        Lists each shard directory once (names only) instead of probing
        one path per fingerprint, so a caller polling many jobs pays
        for at most 256 ``listdir`` calls.  Presence is not validity:
        :meth:`read` still decides whether the file parses.
        """
        listings: dict[str, set[str]] = {}
        found: set[str] = set()
        for fingerprint in fingerprints:
            shard = fingerprint[:2]
            if shard not in listings:
                listings[shard] = listed(self.directory / shard)
            if fingerprint in listings[shard]:
                found.add(fingerprint)
        return found

    def read(self, job: SimJob) -> ExecResult | None:
        """The cached result of ``job``, or ``None`` on any kind of miss.

        Three miss flavours, all non-fatal: the file does not exist
        (plain miss), it is unreadable (``OSError`` — counted in
        ``exec.cache_read_errors`` and announced, because a permissions
        or disk problem on a shared cache deserves telemetry, then
        treated as a miss), or it does not parse (quarantined aside as
        ``<name>.corrupt``).
        """
        path = self.path_for(job.fingerprint)
        if not path.is_file():
            return None
        try:
            text = _load_text(path)
        except OSError as error:
            self.counters.cache_read_errors += 1
            probe.counter("exec.cache_read_errors")
            if self.progress is not None:
                self.progress(
                    f"[exec] cache read failed for {job.label}: {error}"
                )
            return None
        try:
            document = json.loads(text)
            if (
                document.get("schema") != ENGINE_SCHEMA
                or document.get("fingerprint") != job.fingerprint
            ):
                # A valid document from another schema/code version: a
                # plain miss, overwritten by the fresh result.
                return None
            return ExecResult.from_payload(job, document["payload"], "cache")
        except (ValueError, KeyError, TypeError):
            self.quarantine(path)
            return None

    def quarantine(self, path: Path) -> None:
        """Move an unparseable cache file aside as ``<name>.corrupt``.

        Quarantining instead of silently overwriting keeps the evidence
        (torn write? disk fault? foreign writer?) while still treating
        the entry as a miss.  The startup janitor reaps quarantine files
        after :data:`STALE_CORRUPT_TTL_S`.
        """
        self.counters.cache_corrupt += 1
        probe.counter("exec.cache_corrupt")
        if self.progress is not None:
            self.progress(f"[exec] quarantined corrupt cache entry {path.name}")
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:  # lint: disable=R007
            pass  # racing reader already moved or removed it

    def write(
        self, job: SimJob, result: ExecResult, *, attempt: int = 0
    ) -> None:
        """Persist ``result`` atomically (see :func:`write_atomic`).

        Write failures are tolerated and counted — the cache is an
        accelerator, not a correctness dependency.  ``attempt`` is the
        job's retry index, which keys the injected write faults.
        """
        path = self.path_for(job.fingerprint)
        document = {
            "schema": ENGINE_SCHEMA,
            "fingerprint": job.fingerprint,
            "job": job.describe(),
            "payload": result.payload(),
        }
        data = faults.mangle_cache_write(
            job.fingerprint, json.dumps(document, sort_keys=True), attempt
        )
        try:
            faults.maybe_cache_write_error(job.fingerprint, attempt)
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(path, data)  # concurrent runs share a cache
        except OSError as error:
            self.counters.cache_write_errors += 1
            probe.counter("exec.cache_write_errors")
            if self.progress is not None:
                self.progress(
                    f"[exec] cache write failed for {job.label}: {error}"
                )

    def sweep(self) -> None:
        """The startup janitor: reap aged crash residue, per class.

        * ``*.tmp.*`` older than :data:`STALE_TMP_TTL_S` — a writer
          crashed between ``write_text`` and ``os.replace``;
        * ``*.corrupt`` older than :data:`STALE_CORRUPT_TTL_S` —
          quarantined evidence nobody came back for.

        Counted per class (``tmp_swept`` / ``corrupt_swept``) so a cache
        that keeps accumulating residue is visible in summaries.
        """
        self.counters.tmp_swept += sweep_stale(
            self.directory, "*/*.tmp.*", STALE_TMP_TTL_S
        )
        self.counters.corrupt_swept += sweep_stale(
            self.directory, "*/*.corrupt", STALE_CORRUPT_TTL_S
        )


__all__ = [
    "STALE_CORRUPT_TTL_S",
    "STALE_LEASE_TTL_S",
    "STALE_TMP_TTL_S",
    "EngineCounters",
    "ResultStore",
    "listed",
    "sweep_stale",
    "write_atomic",
]
