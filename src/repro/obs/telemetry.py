"""Live fleet telemetry: a streaming NDJSON event bus over a directory.

The broker (:mod:`repro.exec.broker`) made runs multi-process, but every
observability surface it shipped is post-hoc: manifests and probe
counters are only readable after the batch completes.  This module is
the live layer — each participant (coordinator and workers) appends
bounded-rate telemetry *frames* to its own file under a shared
directory (``<broker>/telemetry/`` by default)::

    <dir>/<identity>.ndjson     one append-only frame stream per process

Three frame types, all JSON objects tagged ``obs-telemetry-v1``:

* ``hello`` — the process introduces itself (pid, host, role, declared
  heartbeat interval, coordinator trace id);
* ``heartbeat`` — rate-bounded gauges: state, current job, jobs done,
  accesses/s, energy so far, resource snapshot (RSS, CPU seconds);
* ``lifecycle`` — one event per state transition: ``publish``,
  ``claim``, ``reclaim``, ``finish``, ``fail``, ``quarantine``,
  ``adopt``, ``drain``, ``exit``.

Frames are wall-clock stamped (sanctioned: this module is coordination
and display only — nothing here may feed a fingerprint, a cache key or
a measurement, so byte-identity of brokered runs is untouched) and the
writer is deliberately loss-tolerant: a failed write disables the
writer rather than ever failing the run.

The read side tails those files *live*: :func:`read_frames` consumes
complete lines only (a torn, mid-write final line is skipped and
counted under ``obs.torn_lines``), and :class:`TelemetryCollector`
incrementally merges every stream into a :class:`FleetSnapshot` —
persisting per-file offsets so a restarted collector resumes without
re-counting a single frame.  ``cntcache top`` / ``status`` /
``metrics`` render that snapshot as an ANSI dashboard, a one-shot
report, or Prometheus text exposition.

Cross-process trace correlation rides the same rails:
:func:`make_trace_id` mints the coordinator's run-level trace id (a
sha256 of identity + wall-clock nanoseconds — deterministic machinery,
no ``uuid``/``random``, lint D002) and :func:`span_for` derives one
span id per job fingerprint, so the coordinator, every worker, manifest
entries and trace snapshots all agree on ids without a handshake.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO

from repro.obs import probe
from repro.schemas import TELEMETRY

#: Version tag of the telemetry frame layout.
TELEMETRY_SCHEMA = TELEMETRY.tag

#: Frame stream filename suffix (one file per process identity).
SUFFIX = ".ndjson"

#: Default minimum spacing between heartbeat frames, seconds.
DEFAULT_INTERVAL_S = 1.0

#: A process is presumed gone this many declared intervals (plus slack)
#: after its last frame.
STALE_INTERVALS = 3.0
STALE_SLACK_S = 2.0

#: The sanctioned lifecycle event vocabulary (typo guard).
LIFECYCLE_EVENTS = frozenset(
    {
        "publish",
        "claim",
        "reclaim",
        "finish",
        "fail",
        "quarantine",
        "adopt",
        "drain",
        "exit",
    }
)

#: Collector state file (offsets + merged views); the leading dot keeps
#: it out of the ``*.ndjson`` stream glob.
STATE_NAME = ".collector-state.json"


class TelemetryError(ValueError):
    """Raised on invalid telemetry configuration or use."""


def _wall_now() -> float:
    """Wall-clock seconds.  Display/coordination only — frames never
    feed fingerprints, cache keys or measurements (and this module is
    outside lint D001's fingerprinted scope for exactly that reason)."""
    return time.time()


def telemetry_dir(root: str | Path) -> Path:
    """The telemetry directory under a broker root."""
    return Path(root) / "telemetry"


def default_identity(role: str) -> str:
    """A stable, filesystem-safe process identity: ``<role>-<host>-<pid>``."""
    raw = f"{role}-{socket.gethostname()}-{os.getpid()}"
    return re.sub(r"[^A-Za-z0-9._-]", "-", raw)


def make_trace_id(identity: str) -> str:
    """Mint a run-level trace id for ``identity``.

    sha256 of identity + wall-clock nanoseconds: unique per process per
    run without ``uuid``/``random`` (lint D002), and strictly a
    correlation label — it never enters a fingerprint or a result.
    """
    blob = f"{identity}:{time.time_ns()}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def span_for(trace_id: str, fingerprint: str) -> str:
    """The span id of one job under ``trace_id`` (derivable by anyone
    who knows both, so workers and coordinator agree without a
    handshake)."""
    blob = f"{trace_id}/{fingerprint}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _resource_snapshot() -> dict[str, float]:
    """Best-effort RSS/CPU of this process (empty where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return {}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "rss_kb": float(usage.ru_maxrss),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
    }


# --------------------------------------------------------------------- #
# writer
# --------------------------------------------------------------------- #
class TelemetryWriter:
    """Appends rate-bounded telemetry frames to one per-process file.

    The write path must never hurt the run it observes: the file is
    opened lazily (constructing a writer creates nothing on disk), every
    frame is one flushed ``write`` of one line, heartbeats are bounded
    to at most one per ``interval_s``, and the first ``OSError``
    permanently disables the writer (counted under
    ``telemetry.write_errors``) instead of propagating.

    ``declared_interval_s`` is the *promise* recorded in frames — the
    largest heartbeat gap a live process should ever show (readers
    derive liveness from it).  It defaults to ``interval_s`` but e.g.
    workers raise it to their lease heartbeat period, whose thread is
    what keeps frames flowing during a long job.
    """

    def __init__(
        self,
        directory: str | Path,
        identity: str | None = None,
        role: str = "worker",
        interval_s: float = DEFAULT_INTERVAL_S,
        declared_interval_s: float | None = None,
        trace_id: str | None = None,
    ) -> None:
        if interval_s < 0:
            raise TelemetryError(f"interval_s must be >= 0, got {interval_s!r}")
        self.directory = Path(directory)
        self.role = role
        self.identity = identity or default_identity(role)
        self.interval_s = float(interval_s)
        self.declared_interval_s = float(
            max(
                interval_s
                if declared_interval_s is None
                else declared_interval_s,
                interval_s,
            )
        )
        #: Run-level trace id stamped into frames (the engine mints one
        #: for coordinators; workers leave it ``None`` — their lifecycle
        #: frames carry per-job ids from the claimed record instead).
        self.trace_id = trace_id
        self.path = self.directory / f"{self.identity}{SUFFIX}"
        self.frames_written = 0
        self.heartbeats_suppressed = 0
        self._file: TextIO | None = None
        self._broken = False
        self._hello_sent = False
        self._last_heartbeat: float | None = None
        self._lock = threading.Lock()

    # -------------------------------------------------------------- #
    # frame emission
    # -------------------------------------------------------------- #
    @property
    def due(self) -> bool:
        """True when a non-forced heartbeat would be emitted now.

        Callers with expensive gauges (queue-depth globs) check this
        first so the cost is only paid when a frame will actually land.
        """
        if self._broken:
            return False
        if self._last_heartbeat is None:
            return True
        return time.monotonic() - self._last_heartbeat >= self.interval_s

    def hello(self, **fields: object) -> None:
        """Introduce this process (emitted once, before any other frame)."""
        with self._lock:
            self._hello_locked(fields)

    def heartbeat(
        self, state: str, force: bool = False, **gauges: object
    ) -> bool:
        """Emit one gauge frame; returns whether it was written.

        Rate-bounded: at most one per ``interval_s`` unless ``force``
        (used for first/last frames, where staleness math needs the
        sample).  ``gauges`` are JSON-ready point-in-time values
        (current job label, jobs done, accesses/s, energy so far...).
        """
        with self._lock:
            if self._broken:
                return False
            now = time.monotonic()
            if (
                not force
                and self._last_heartbeat is not None
                and now - self._last_heartbeat < self.interval_s
            ):
                self.heartbeats_suppressed += 1
                probe.counter("telemetry.suppressed")
                return False
            self._hello_locked({})
            frame: dict[str, Any] = {
                "type": "heartbeat",
                "state": str(state),
                "interval": self.declared_interval_s,
            }
            frame.update(_resource_snapshot())
            if gauges:
                frame["gauges"] = dict(gauges)
            self._emit(frame)
            self._last_heartbeat = now
            return not self._broken

    def lifecycle(self, event: str, **fields: object) -> None:
        """Emit one lifecycle frame (``claim``/``finish``/``reclaim``...)."""
        if event not in LIFECYCLE_EVENTS:
            raise TelemetryError(
                f"unknown lifecycle event {event!r}; "
                f"known: {sorted(LIFECYCLE_EVENTS)}"
            )
        with self._lock:
            if self._broken:
                return
            self._hello_locked({})
            frame: dict[str, Any] = {"type": "lifecycle", "event": event}
            frame.update(fields)
            self._emit(frame)

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #
    def _hello_locked(self, fields: dict[str, object]) -> None:
        if self._hello_sent or self._broken:
            return
        self._hello_sent = True  # before _emit: a broken pipe stays quiet
        frame: dict[str, Any] = {
            "type": "hello",
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "interval": self.declared_interval_s,
        }
        if self.trace_id is not None:
            frame["trace_id"] = self.trace_id
        frame.update(fields)
        self._emit(frame)

    def _emit(self, frame: dict[str, Any]) -> None:
        frame.setdefault("schema", TELEMETRY_SCHEMA)
        frame.setdefault("ts", _wall_now())
        frame.setdefault("proc", self.identity)
        frame.setdefault("role", self.role)
        try:
            if self._file is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._file = self.path.open("a", encoding="utf-8")
            self._file.write(json.dumps(frame, sort_keys=True) + "\n")
            self._file.flush()
        except OSError:
            # Telemetry must never fail the run it observes: first write
            # error retires the writer for good (and is itself counted).
            self._broken = True
            probe.counter("telemetry.write_errors")
            return
        self.frames_written += 1
        probe.counter("telemetry.frames")

    def close(self) -> None:
        """Flush and close the stream (idempotent; the writer stays usable
        and will transparently reopen in append mode if emitted to again)."""
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:  # lint: disable=R007
                    pass  # nothing left to do with a dying handle
                self._file = None

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# --------------------------------------------------------------------- #
# reader
# --------------------------------------------------------------------- #
def read_frames(
    path: str | Path, offset: int = 0
) -> tuple[list[dict[str, Any]], int, int]:
    """Parse frames from ``path`` starting at byte ``offset``.

    Returns ``(frames, new_offset, skipped)``.  Only *complete* lines
    (terminated by a newline) are consumed — ``new_offset`` never splits
    a record, so a live writer's torn final line is simply left for the
    next poll.  A complete line that fails to parse (poisoned, foreign
    schema) is skipped and counted, both in the returned ``skipped`` and
    under the ``obs.torn_lines`` probe counter.
    """
    path = Path(path)
    try:
        with path.open("rb") as stream:
            stream.seek(offset)
            blob = stream.read()
    except OSError:
        return [], offset, 0
    end = blob.rfind(b"\n")
    if end < 0:
        return [], offset, 0  # nothing complete yet (mid-write tail)
    complete, new_offset = blob[: end + 1], offset + end + 1
    frames: list[dict[str, Any]] = []
    skipped = 0
    for line in complete.split(b"\n"):
        if not line.strip():
            continue
        try:
            frame = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            skipped += 1
            probe.counter("obs.torn_lines")
            continue
        if (
            not isinstance(frame, dict)
            or frame.get("schema") != TELEMETRY_SCHEMA
        ):
            skipped += 1
            probe.counter("obs.torn_lines")
            continue
        frames.append(frame)
    return frames, new_offset, skipped


def read_all_frames(directory: str | Path) -> list[dict[str, Any]]:
    """Every complete frame under ``directory``, merged and time-ordered
    (the batch entry point the fleet Chrome-trace exporter uses)."""
    frames: list[dict[str, Any]] = []
    for path in sorted(Path(directory).glob(f"*{SUFFIX}")):
        found, _, _ = read_frames(path)
        frames.extend(found)
    frames.sort(key=lambda frame: float(frame.get("ts", 0.0)))
    return frames


# --------------------------------------------------------------------- #
# merged views
# --------------------------------------------------------------------- #
@dataclass
class ProcessView:
    """The collector's rolling view of one fleet process."""

    identity: str
    role: str = "worker"
    pid: int | None = None
    host: str | None = None
    state: str = "unknown"
    first_ts: float = 0.0
    last_ts: float = 0.0
    interval: float = DEFAULT_INTERVAL_S
    trace_id: str | None = None
    #: Last heartbeat's gauge payload (job label, jobs done, acc/s...).
    gauges: dict[str, Any] = field(default_factory=dict)
    #: lifecycle event -> count.
    events: dict[str, int] = field(default_factory=dict)
    frames: int = 0

    def alive(self, now: float) -> bool:
        """Liveness by staleness against the *declared* heartbeat gap."""
        if self.state == "exited":
            return False
        horizon = STALE_INTERVALS * max(self.interval, 0.1) + STALE_SLACK_S
        return now - self.last_ts <= horizon

    def absorb(self, frame: dict[str, Any]) -> None:
        """Fold one frame into this view."""
        ts = float(frame.get("ts", 0.0))
        if not self.first_ts:
            self.first_ts = ts
        self.last_ts = max(self.last_ts, ts)
        self.frames += 1
        kind = frame.get("type")
        if kind == "hello":
            pid = frame.get("pid")
            self.pid = int(pid) if isinstance(pid, (int, float)) else self.pid
            host = frame.get("host")
            self.host = str(host) if host is not None else self.host
            trace_id = frame.get("trace_id")
            if trace_id is not None:
                self.trace_id = str(trace_id)
            self.interval = float(frame.get("interval", self.interval))
        elif kind == "heartbeat":
            self.state = str(frame.get("state", self.state))
            self.interval = float(frame.get("interval", self.interval))
            gauges = frame.get("gauges")
            if isinstance(gauges, dict):
                self.gauges.update(gauges)
            for name in ("rss_kb", "cpu_s"):
                if name in frame:
                    self.gauges[name] = frame[name]
        elif kind == "lifecycle":
            event = str(frame.get("event", "?"))
            self.events[event] = self.events.get(event, 0) + 1
            if event == "exit":
                self.state = "exited"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dump; inverse of :meth:`from_dict`."""
        return {
            "identity": self.identity,
            "role": self.role,
            "pid": self.pid,
            "host": self.host,
            "state": self.state,
            "first_ts": self.first_ts,
            "last_ts": self.last_ts,
            "interval": self.interval,
            "trace_id": self.trace_id,
            "gauges": dict(self.gauges),
            "events": dict(self.events),
            "frames": self.frames,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ProcessView":
        view = cls(identity=str(payload.get("identity", "?")))
        view.role = str(payload.get("role", "worker"))
        pid = payload.get("pid")
        view.pid = int(pid) if isinstance(pid, (int, float)) else None
        host = payload.get("host")
        view.host = None if host is None else str(host)
        view.state = str(payload.get("state", "unknown"))
        view.first_ts = float(payload.get("first_ts", 0.0))
        view.last_ts = float(payload.get("last_ts", 0.0))
        view.interval = float(payload.get("interval", DEFAULT_INTERVAL_S))
        trace_id = payload.get("trace_id")
        view.trace_id = None if trace_id is None else str(trace_id)
        gauges = payload.get("gauges")
        view.gauges = dict(gauges) if isinstance(gauges, dict) else {}
        events = payload.get("events")
        view.events = (
            {str(k): int(v) for k, v in events.items()}
            if isinstance(events, dict)
            else {}
        )
        view.frames = int(payload.get("frames", 0))
        return view


@dataclass
class FleetSnapshot:
    """One merged point-in-time view of the whole fleet."""

    ts: float
    procs: list[ProcessView] = field(default_factory=list)
    #: Broker work-queue depth (published, unclaimed-or-leased records);
    #: ``None`` when no broker directory is visible.
    queue_depth: int | None = None
    active_leases: int | None = None
    quarantined: int | None = None
    frames: int = 0
    torn_lines: int = 0
    #: scheme -> fJ total, deduplicated across at-least-once finishes.
    energy_by_scheme: dict[str, float] = field(default_factory=dict)

    @property
    def workers(self) -> list[ProcessView]:
        """Worker views, stable identity order."""
        return [proc for proc in self.procs if proc.role == "worker"]

    @property
    def coordinators(self) -> list[ProcessView]:
        """Coordinator views, stable identity order."""
        return [proc for proc in self.procs if proc.role == "coordinator"]

    @property
    def live_workers(self) -> int:
        """Workers currently heartbeating within their declared gap."""
        return sum(1 for proc in self.workers if proc.alive(self.ts))

    @property
    def trace_id(self) -> str | None:
        """The most recently announced coordinator trace id."""
        latest: ProcessView | None = None
        for proc in self.coordinators:
            if proc.trace_id is None:
                continue
            if latest is None or proc.first_ts > latest.first_ts:
                latest = proc
        return None if latest is None else latest.trace_id

    @property
    def jobs_done(self) -> int:
        """Fleet-wide finished-job total (lifecycle ``finish`` events)."""
        return sum(proc.events.get("finish", 0) for proc in self.procs)

    def _worker_rate(self, proc: ProcessView) -> float:
        elapsed = proc.last_ts - proc.first_ts
        done = proc.events.get("finish", 0)
        return done / elapsed if elapsed > 0 and done else 0.0

    @property
    def eta_s(self) -> float | None:
        """Seconds to drain the visible queue at the live finish rate."""
        if self.queue_depth is None:
            return None
        remaining = self.queue_depth
        rate = sum(
            self._worker_rate(proc)
            for proc in self.workers
            if proc.alive(self.ts)
        )
        if rate <= 0:
            return None
        return remaining / rate

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dump (the ``cntcache status --json`` payload)."""
        return {
            "schema": TELEMETRY_SCHEMA,
            "ts": self.ts,
            "queue_depth": self.queue_depth,
            "active_leases": self.active_leases,
            "quarantined": self.quarantined,
            "frames": self.frames,
            "torn_lines": self.torn_lines,
            "live_workers": self.live_workers,
            "jobs_done": self.jobs_done,
            "eta_s": self.eta_s,
            "trace_id": self.trace_id,
            "energy_by_scheme": dict(self.energy_by_scheme),
            "procs": [proc.to_dict() for proc in self.procs],
        }

    def render(self) -> str:
        """The ``cntcache top`` screen: fleet table + queue counters."""
        lines: list[str] = []
        trace = f"  trace {self.trace_id[:12]}" if self.trace_id else ""
        stamp = time.strftime("%H:%M:%S", time.localtime(self.ts))
        lines.append(f"cntcache fleet @ {stamp}{trace}")
        queue = "-" if self.queue_depth is None else str(self.queue_depth)
        leases = "-" if self.active_leases is None else str(self.active_leases)
        quarantined = (
            "-" if self.quarantined is None else str(self.quarantined)
        )
        eta = "-" if self.eta_s is None else f"~{self.eta_s:.0f}s"
        lines.append(
            f"queue {queue} pending, {leases} leased, "
            f"{quarantined} quarantined, eta {eta}"
        )
        lines.append(
            f"fleet {self.live_workers} live / {len(self.workers)} worker(s), "
            f"{self.jobs_done} job(s) done, {self.frames} frame(s), "
            f"{self.torn_lines} torn line(s)"
        )
        lines.append("")
        lines.append(
            f"{'PROCESS':<28} {'ROLE':<12} {'STATE':<9} "
            f"{'DONE':>5} {'ACC/S':>10} {'FJ':>12}  JOB"
        )
        for proc in self.procs:
            # A clean "exited" is not stale — only a silent-but-unexited
            # process earns the flag.
            live = (
                " (stale)"
                if proc.state != "exited" and not proc.alive(self.ts)
                else ""
            )
            rate = float(proc.gauges.get("accesses_per_s", 0.0) or 0.0)
            rate_text = f"{rate / 1000.0:.1f}k" if rate else "-"
            energy = float(proc.gauges.get("energy_fj", 0.0) or 0.0)
            energy_text = f"{energy:.3g}" if energy else "-"
            job = str(proc.gauges.get("job") or "-")
            lines.append(
                f"{proc.identity[:28]:<28} {proc.role:<12} "
                f"{(proc.state + live)[:16]:<9} "
                f"{proc.events.get('finish', 0):>5} {rate_text:>10} "
                f"{energy_text:>12}  {job}"
            )
        if self.energy_by_scheme:
            parts = ", ".join(
                f"{scheme} {fj:.4g} fJ"
                for scheme, fj in sorted(self.energy_by_scheme.items())
            )
            lines.append("")
            lines.append(f"energy per scheme: {parts}")
        reclaims = sum(proc.events.get("reclaim", 0) for proc in self.procs)
        fails = sum(proc.events.get("fail", 0) for proc in self.procs)
        quarantines = sum(
            proc.events.get("quarantine", 0) for proc in self.procs
        )
        lines.append(
            f"lifecycle: {reclaims} reclaim(s), {fails} failed attempt(s), "
            f"{quarantines} quarantine event(s)"
        )
        return "\n".join(lines)


def prometheus_lines(snapshot: FleetSnapshot) -> list[str]:
    """Prometheus text-exposition lines for one fleet snapshot."""

    def esc(value: str) -> str:
        return value.replace("\\", "\\\\").replace('"', '\\"')

    lines = [
        "# HELP cntcache_worker_up 1 while the worker heartbeats "
        "within its declared interval",
        "# TYPE cntcache_worker_up gauge",
    ]
    for proc in snapshot.workers:
        lines.append(
            f'cntcache_worker_up{{worker="{esc(proc.identity)}"}} '
            f"{1 if proc.alive(snapshot.ts) else 0}"
        )
    lines += [
        "# HELP cntcache_worker_jobs_done_total finished jobs per worker",
        "# TYPE cntcache_worker_jobs_done_total counter",
    ]
    for proc in snapshot.workers:
        lines.append(
            f'cntcache_worker_jobs_done_total{{worker="{esc(proc.identity)}"}} '
            f"{proc.events.get('finish', 0)}"
        )
    lines += [
        "# HELP cntcache_worker_accesses_per_s last reported "
        "simulation throughput",
        "# TYPE cntcache_worker_accesses_per_s gauge",
    ]
    for proc in snapshot.workers:
        rate = float(proc.gauges.get("accesses_per_s", 0.0) or 0.0)
        lines.append(
            f'cntcache_worker_accesses_per_s{{worker="{esc(proc.identity)}"}} '
            f"{rate:g}"
        )
    lines += [
        "# HELP cntcache_energy_fj_total metered energy per scheme, fJ",
        "# TYPE cntcache_energy_fj_total counter",
    ]
    for scheme, fj in sorted(snapshot.energy_by_scheme.items()):
        lines.append(
            f'cntcache_energy_fj_total{{scheme="{esc(scheme)}"}} {fj:g}'
        )
    scalars: list[tuple[str, str, float | int | None]] = [
        ("cntcache_broker_queue_depth", "gauge", snapshot.queue_depth),
        ("cntcache_broker_active_leases", "gauge", snapshot.active_leases),
        ("cntcache_broker_quarantined", "gauge", snapshot.quarantined),
        ("cntcache_fleet_live_workers", "gauge", snapshot.live_workers),
        ("cntcache_fleet_jobs_done_total", "counter", snapshot.jobs_done),
        ("cntcache_telemetry_frames_total", "counter", snapshot.frames),
        (
            "cntcache_telemetry_torn_lines_total",
            "counter",
            snapshot.torn_lines,
        ),
    ]
    for name, kind, value in scalars:
        if value is None:
            continue
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name} {value:g}")
    return lines


# --------------------------------------------------------------------- #
# collector
# --------------------------------------------------------------------- #
def locate(path: str | Path) -> tuple[Path, Path | None]:
    """Resolve a user-supplied directory to ``(telemetry_dir, broker_root)``.

    Accepts either a broker root (has or will have a ``telemetry/``
    subdirectory next to ``jobs/``) or a bare telemetry directory; the
    broker root is ``None`` for the latter unless its parent looks like
    a broker (has a ``jobs/`` directory).
    """
    path = Path(path)
    if (path / "jobs").is_dir() or (path / "telemetry").is_dir():
        return telemetry_dir(path), path
    if (path.parent / "jobs").is_dir():
        return path, path.parent
    return path, None


class TelemetryCollector:
    """Incrementally tails every frame stream into a fleet view.

    Per-file byte offsets (and the merged per-process views they
    produced) persist to ``.collector-state.json`` inside the telemetry
    directory after every :meth:`poll`, so a restarted collector — a new
    ``cntcache status`` invocation, a resumed dashboard — continues
    exactly where the last one stopped and never re-counts a frame.
    Only complete lines are consumed (see :func:`read_frames`), so an
    offset can never land mid-record.
    """

    def __init__(
        self,
        directory: str | Path,
        broker_root: str | Path | None = None,
        state_path: str | Path | None = None,
        persist: bool = True,
    ) -> None:
        located_dir, located_root = locate(directory)
        self.directory = located_dir
        self.broker_root = (
            Path(broker_root) if broker_root is not None else located_root
        )
        self.persist = persist
        self.state_path = (
            Path(state_path)
            if state_path is not None
            else self.directory / STATE_NAME
        )
        self.offsets: dict[str, int] = {}
        self.views: dict[str, ProcessView] = {}
        self.frames = 0
        self.torn_lines = 0
        self.energy_by_scheme: dict[str, float] = {}
        #: Fingerprints whose energy is already counted (dedupe across
        #: at-least-once re-executions).
        self._energy_seen: set[str] = set()
        self._load_state()

    # -------------------------------------------------------------- #
    # persisted state
    # -------------------------------------------------------------- #
    def _load_state(self) -> None:
        try:
            payload = json.loads(self.state_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # lint: disable=R007
            return  # fresh collector: no prior state to resume
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != TELEMETRY_SCHEMA
        ):
            return
        offsets = payload.get("offsets")
        if isinstance(offsets, dict):
            self.offsets = {
                str(name): int(value) for name, value in offsets.items()
            }
        self.frames = int(payload.get("frames", 0))
        self.torn_lines = int(payload.get("torn_lines", 0))
        energy = payload.get("energy_by_scheme")
        if isinstance(energy, dict):
            self.energy_by_scheme = {
                str(name): float(value) for name, value in energy.items()
            }
        seen = payload.get("energy_seen")
        if isinstance(seen, list):
            self._energy_seen = {str(item) for item in seen}
        views = payload.get("procs")
        if isinstance(views, dict):
            self.views = {
                str(name): ProcessView.from_dict(view)
                for name, view in views.items()
                if isinstance(view, dict)
            }

    def _save_state(self) -> None:
        if not self.persist:
            return
        payload = {
            "schema": TELEMETRY_SCHEMA,
            "offsets": dict(self.offsets),
            "frames": self.frames,
            "torn_lines": self.torn_lines,
            "energy_by_scheme": dict(self.energy_by_scheme),
            "energy_seen": sorted(self._energy_seen),
            "procs": {
                name: view.to_dict() for name, view in self.views.items()
            },
        }
        # Imported here: repro.exec imports this module at load time.
        from repro.exec.store import write_atomic

        try:
            write_atomic(self.state_path, json.dumps(payload, sort_keys=True))
        except OSError:  # lint: disable=R007
            pass  # observation-side persistence is best-effort

    # -------------------------------------------------------------- #
    # tailing
    # -------------------------------------------------------------- #
    def poll(self) -> list[dict[str, Any]]:
        """Tail every stream once; returns the newly-read frames."""
        fresh: list[dict[str, Any]] = []
        try:
            paths = sorted(self.directory.glob(f"*{SUFFIX}"))
        except OSError:
            return fresh
        for path in paths:
            key = path.name
            offset = self.offsets.get(key, 0)
            try:
                size = path.stat().st_size
            except OSError:
                continue
            if size < offset:
                offset = 0  # truncated/rotated underneath us: restart
            frames, new_offset, skipped = read_frames(path, offset)
            self.offsets[key] = new_offset
            self.torn_lines += skipped
            for frame in frames:
                self._absorb(frame)
            fresh.extend(frames)
        if fresh:
            fresh.sort(key=lambda frame: float(frame.get("ts", 0.0)))
        self._save_state()
        return fresh

    def _absorb(self, frame: dict[str, Any]) -> None:
        self.frames += 1
        identity = str(frame.get("proc", "?"))
        view = self.views.get(identity)
        if view is None:
            view = ProcessView(
                identity=identity, role=str(frame.get("role", "worker"))
            )
            self.views[identity] = view
        view.absorb(frame)
        # Energy-per-scheme from finish events, exactly once per job
        # fingerprint (re-executions after a steal re-announce it).
        if (
            frame.get("type") == "lifecycle"
            and frame.get("event") == "finish"
        ):
            fingerprint = frame.get("fingerprint")
            scheme = frame.get("scheme")
            energy = frame.get("energy_fj")
            if (
                isinstance(fingerprint, str)
                and fingerprint not in self._energy_seen
                and scheme is not None
                and isinstance(energy, (int, float))
            ):
                self._energy_seen.add(fingerprint)
                key = str(scheme)
                self.energy_by_scheme[key] = (
                    self.energy_by_scheme.get(key, 0.0) + float(energy)
                )

    # -------------------------------------------------------------- #
    # snapshots
    # -------------------------------------------------------------- #
    def _count_files(self, name: str) -> int | None:
        if self.broker_root is None:
            return None
        directory = Path(self.broker_root) / name
        try:
            return sum(1 for _ in directory.glob("*.json"))
        except OSError:
            return 0

    def snapshot(self) -> FleetSnapshot:
        """The current merged fleet view (does not poll; pair with
        :meth:`poll` for a live reading)."""
        procs = [
            self.views[name]
            for name in sorted(
                self.views,
                key=lambda name: (self.views[name].role != "coordinator", name),
            )
        ]
        return FleetSnapshot(
            ts=_wall_now(),
            procs=procs,
            queue_depth=self._count_files("jobs"),
            active_leases=self._count_files("leases"),
            quarantined=self._count_files("quarantine"),
            frames=self.frames,
            torn_lines=self.torn_lines,
            energy_by_scheme=dict(self.energy_by_scheme),
        )


__all__ = [
    "DEFAULT_INTERVAL_S",
    "LIFECYCLE_EVENTS",
    "TELEMETRY_SCHEMA",
    "FleetSnapshot",
    "ProcessView",
    "TelemetryCollector",
    "TelemetryError",
    "TelemetryWriter",
    "default_identity",
    "locate",
    "make_trace_id",
    "prometheus_lines",
    "read_all_frames",
    "read_frames",
    "span_for",
    "telemetry_dir",
]
