"""Seeded, deterministic fault injection for chaos-testing the engine.

``repro.faults`` lets tests (and the CI chaos job) inject the failure
modes a long sweep actually meets — a crashed worker, a hung worker, a
truncated cache file, an ``OSError`` on cache write, a poisoned manifest
line — *deterministically*: every decision is a pure function of the
plan seed, the fault site and the subject key, so an injected-fault run
is reproducible bit-for-bit and can be asserted against a fault-free
reference.

Installation
------------
* **In-process** — :func:`install` / :func:`uninstall`, or the
  :func:`injected` context manager (what the chaos tests use).
* **Across worker processes** — the :data:`ENV_VAR` environment
  variable (``REPRO_FAULTS="seed=7,crash=0.2,corrupt=0.1"``); every
  process parses it lazily on its first fault check, so
  ``ProcessPoolExecutor`` workers inherit the plan with no initializer
  plumbing.

Fault model
-----------
A fault at ``(site, key)`` fires iff ``hash(seed|site|key)`` maps below
the site's rate **and** the attempt index is below ``fires`` (default
1) — i.e. faults are *transient* by default: they hit the first attempt
and vanish on retry, exactly the model the engine's retry ladder is
built for.  Set ``fires`` high to make faults sticky (testing retry
exhaustion and keep-going semantics).

*Hard* faults (a real ``os._exit`` crash, a real sleep-hang) only
trigger inside worker processes (``multiprocessing.parent_process()``
is not ``None``); in the main process the same plan raises
:class:`FaultInjected` instead, so an injected "crash" can never take
down the driver that is supposed to recover from it.

Every check is one module-global load and a branch when no plan is
installed, so the hooks live permanently in the engine paths.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator

#: Environment variable workers (and CI) install fault plans through.
ENV_VAR = "REPRO_FAULTS"

#: Exit status of an injected hard worker crash (observability only).
CRASH_EXIT_STATUS = 13

#: Fault sites with a configurable rate, in plan-spec order.
RATE_FIELDS = ("crash", "hang", "corrupt", "write_os", "poison", "lease")


class FaultError(ValueError):
    """Raised on malformed fault-plan specs."""


class FaultInjected(RuntimeError):
    """The in-process form of an injected fault (classified transient)."""


@dataclass(frozen=True)
class FaultPlan:
    """One immutable, seeded fault schedule.

    ``crash`` / ``hang``
        Per-(job, attempt) probability of a worker crash (hard
        ``os._exit`` in workers, :class:`FaultInjected` in-process) or a
        worker hang of ``hang_s`` seconds (workers only).
    ``corrupt`` / ``write_os``
        Per-entry probability that a cache write is truncated on disk,
        or fails with an injected ``OSError``.
    ``poison``
        Per-entry probability that a garbage line is spliced into the
        JSONL manifest ahead of a real entry.
    ``lease``
        Per-job probability that a broker lease write is torn (the
        file truncated mid-document), modelling a worker dying inside
        the claim/heartbeat write itself.
    ``fires``
        How many attempts a (site, key) fault persists for; 1 (the
        default) models transient faults that a single retry heals.
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    write_os: float = 0.0
    poison: float = 0.0
    lease: float = 0.0
    hang_s: float = 2.0
    fires: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise FaultError(f"seed must be an int, got {self.seed!r}")
        for name in RATE_FIELDS:
            rate = getattr(self, name)
            if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
                raise FaultError(
                    f"{name} must be a probability in [0, 1], got {rate!r}"
                )
        if not isinstance(self.hang_s, (int, float)) or self.hang_s < 0:
            raise FaultError(f"hang_s must be >= 0, got {self.hang_s!r}")
        if (
            not isinstance(self.fires, int)
            or isinstance(self.fires, bool)
            or self.fires < 1
        ):
            raise FaultError(f"fires must be an int >= 1, got {self.fires!r}")

    # -------------------------------------------------------------- #
    # spec round-trip
    # -------------------------------------------------------------- #
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``key=value,key=value`` spec (the :data:`ENV_VAR` form)."""
        known = {field.name: field.type for field in fields(cls)}
        values: dict[str, int | float] = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            name, separator, raw = token.partition("=")
            name = name.strip()
            if not separator or name not in known:
                raise FaultError(
                    f"bad fault spec token {token!r}; known keys: "
                    f"{', '.join(sorted(known))}"
                )
            try:
                values[name] = (
                    int(raw) if name in ("seed", "fires") else float(raw)
                )
            except ValueError:
                raise FaultError(
                    f"bad fault spec value {raw!r} for {name!r}"
                ) from None
        return cls(**values)

    def describe(self) -> str:
        """The canonical spec string (``parse(describe())`` round-trips)."""
        parts = [f"seed={self.seed}"]
        parts.extend(
            f"{name}={getattr(self, name):g}"
            for name in RATE_FIELDS
            if getattr(self, name)
        )
        if self.hang:
            parts.append(f"hang_s={self.hang_s:g}")
        if self.fires != 1:
            parts.append(f"fires={self.fires}")
        return ",".join(parts)

    # -------------------------------------------------------------- #
    # decisions
    # -------------------------------------------------------------- #
    def fires_at(self, site: str, key: str, attempt: int = 0) -> bool:
        """Deterministic verdict: does ``site`` fault ``key`` at ``attempt``?

        Pure in (seed, site, key, attempt) — tests use it to predict an
        injected run's exact fault schedule.
        """
        if site not in RATE_FIELDS:
            raise FaultError(f"unknown fault site {site!r}; known: {RATE_FIELDS}")
        rate = getattr(self, site)
        if rate <= 0.0 or attempt >= self.fires:
            return False
        digest = hashlib.sha256(
            f"{self.seed}|{site}|{key}".encode("utf-8")
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0**64
        return draw < rate


#: Sentinel: the plan has not been resolved from the environment yet.
_UNRESOLVED = object()

#: Installed plan: a FaultPlan, None (explicitly off), or _UNRESOLVED.
_PLAN: object = _UNRESOLVED


def active() -> FaultPlan | None:
    """The currently installed plan (lazily parsed from :data:`ENV_VAR`)."""
    global _PLAN
    if _PLAN is _UNRESOLVED:
        spec = os.environ.get(ENV_VAR)
        _PLAN = FaultPlan.parse(spec) if spec else None
    return _PLAN  # type: ignore[return-value]


def install(plan: FaultPlan | str) -> FaultPlan:
    """Install a plan in this process (overrides the environment)."""
    global _PLAN
    resolved = FaultPlan.parse(plan) if isinstance(plan, str) else plan
    if not isinstance(resolved, FaultPlan):
        raise FaultError(f"expected a FaultPlan or spec string, got {plan!r}")
    _PLAN = resolved
    return resolved


def uninstall() -> None:
    """Remove any installed plan; :data:`ENV_VAR` is re-read on next use."""
    global _PLAN
    _PLAN = _UNRESOLVED


@contextmanager
def injected(plan: FaultPlan | str) -> Iterator[FaultPlan]:
    """Install ``plan`` for a ``with`` block (the chaos-test idiom)."""
    global _PLAN
    previous = _PLAN
    resolved = install(plan)
    try:
        yield resolved
    finally:
        _PLAN = previous


#: True while this process has declared itself a worker (see
#: :func:`mark_worker_process`) even without a multiprocessing parent.
_FORCED_WORKER = False


def _in_worker_process() -> bool:
    return _FORCED_WORKER or multiprocessing.parent_process() is not None


def mark_worker_process(flag: bool = True) -> None:
    """Declare this process a worker for hard-fault purposes (or undo it).

    Broker workers are plain subprocesses, not ``multiprocessing``
    children, so :func:`_in_worker_process` cannot see their parentage;
    ``cntcache worker`` calls this so injected crashes/hangs are *hard*
    (a real ``os._exit``) there too.  The flag is reversible — in-process
    tests that drive ``run_worker`` directly restore it in a ``finally``
    so the hosting test process never starts genuinely exiting on
    injected crashes.
    """
    global _FORCED_WORKER
    _FORCED_WORKER = bool(flag)


# ------------------------------------------------------------------ #
# hooks (called from the engine / worker / cache / manifest paths)
# ------------------------------------------------------------------ #
def on_job_start(key: str, attempt: int = 0) -> None:
    """Worker-side hook: maybe hang, maybe crash, before a job runs.

    Hard behaviours (a real sleep, a real ``os._exit``) fire only in
    worker processes; in the main process a scheduled crash raises
    :class:`FaultInjected` (transient) and a scheduled hang is skipped —
    an in-process hang could never be preempted, only suffered.
    """
    plan = active()
    if plan is None:
        return
    if plan.fires_at("hang", key, attempt) and _in_worker_process():
        time.sleep(plan.hang_s)
    if plan.fires_at("crash", key, attempt):
        if _in_worker_process():
            os._exit(CRASH_EXIT_STATUS)
        raise FaultInjected(
            f"injected worker crash for {key} (attempt {attempt})"
        )


def mangle_cache_write(key: str, data: str, attempt: int = 0) -> str:
    """Cache-write hook: return ``data``, possibly truncated mid-document.

    A truncated prefix of a JSON object is never valid JSON, so the
    damage is guaranteed detectable (and quarantinable) on read.
    ``attempt`` is the writing job's retry index: a job re-run because
    its stored result was lost writes again one attempt later.
    """
    plan = active()
    if plan is None or not plan.fires_at("corrupt", key, attempt):
        return data
    return data[: max(1, len(data) // 3)]


def maybe_cache_write_error(key: str, attempt: int = 0) -> None:
    """Cache-write hook: maybe raise an injected ``OSError``."""
    plan = active()
    if plan is not None and plan.fires_at("write_os", key, attempt):
        raise OSError(f"injected cache-write failure for {key}")


def mangle_lease_write(key: str, data: str) -> str:
    """Lease-write hook: return ``data``, possibly truncated mid-document.

    A torn lease is indistinguishable from one left by a worker that
    died mid-write; readers must treat it as expired (claimable), which
    is exactly what the broker's steal path does.
    """
    plan = active()
    if plan is None or not plan.fires_at("lease", key):
        return data
    return data[: max(1, len(data) // 3)]


def poison_manifest_line(key: str) -> str | None:
    """Manifest hook: a garbage JSONL line to splice in, or ``None``."""
    plan = active()
    if plan is None or not plan.fires_at("poison", key):
        return None
    return '{"type": <injected manifest poison>'


__all__ = [
    "CRASH_EXIT_STATUS",
    "ENV_VAR",
    "RATE_FIELDS",
    "FaultError",
    "FaultInjected",
    "FaultPlan",
    "active",
    "injected",
    "install",
    "mangle_cache_write",
    "mangle_lease_write",
    "mark_worker_process",
    "maybe_cache_write_error",
    "on_job_start",
    "poison_manifest_line",
    "uninstall",
]
