"""Simulation backends and the facade's backend registry.

A *backend* is an engine that replays a trace under one
:class:`~repro.core.config.CNTCacheConfig` and produces an
:class:`~repro.core.stats.EnergyStats`.  Two implementations exist:

``scalar``
    :class:`repro.core.cntcache.CNTCache` — the bit-exact reference
    interpreter.  Pure Python, event-by-event, the oracle every other
    backend is differential-tested against.
``array``
    :class:`repro.backends.array.ArrayCNTCache` — packs cache lines,
    direction words and the backing store into integers, precomputes the
    Algorithm 1 ``Th_bit1num`` rows and the Table I per-bit energies into
    popcount-indexed lookup tables (built with numpy), and batches trace
    preprocessing through numpy ``uint64`` arrays.  Produces bit-identical
    ``EnergyStats`` at an order of magnitude higher replay throughput.

This module is the selection surface: :func:`make_backend` is what
:func:`repro.api.make_cache` delegates to, and it is the only sanctioned
constructor of simulator instances (lint rule R006).  It must import
cleanly *without numpy* — the scalar path never touches it; numpy imports
are confined to :mod:`repro.backends.array` (lint rule R009).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cache.memory import MainMemory
    from repro.core.config import CNTCacheConfig
    from repro.core.stats import EnergyStats
    from repro.trace.record import Access

#: The default backend of every construction surface.
DEFAULT_BACKEND = "scalar"


class BackendError(ValueError):
    """Raised on unknown or unavailable backend selections."""


@runtime_checkable
class CacheBackend(Protocol):
    """What a simulation backend must provide.

    The exec worker, the harness replay helpers and the analysis hooks
    program against exactly this surface; anything beyond it (inspection
    helpers, substrate internals) is backend-specific.
    """

    config: "CNTCacheConfig"
    stats: "EnergyStats"

    def access(self, access: "Access") -> bytes:
        """Apply one valued access; returns the logical data read/written."""
        ...  # pragma: no cover - protocol

    def run(
        self, trace: Iterable["Access"], finalize: bool = True
    ) -> "EnergyStats":
        """Replay a whole trace; optionally drain pending updates at the end."""
        ...  # pragma: no cover - protocol

    def preload(self, addr: int, payload: bytes) -> None:
        """Install initial memory contents before a run."""
        ...  # pragma: no cover - protocol

    def preload_all(self, preloads: Iterable[tuple[int, bytes]]) -> None:
        """Install a whole initial memory image."""
        ...  # pragma: no cover - protocol

    def finalize(self) -> None:
        """Drain every pending re-encode, charging its write energy."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class BackendInfo:
    """One registry row: what a backend is and what it needs."""

    name: str
    summary: str
    #: Extra distributions the backend imports (empty = stdlib only).
    requires: tuple[str, ...] = ()


_BACKENDS: dict[str, BackendInfo] = {
    "scalar": BackendInfo(
        name="scalar",
        summary=(
            "bit-exact reference interpreter (pure Python, per-event "
            "energy metering; the differential oracle)"
        ),
    ),
    "array": BackendInfo(
        name="array",
        summary=(
            "integer-packed replay engine with numpy-precomputed "
            "popcount/threshold/energy tables (bit-identical stats, "
            ">=10x throughput)"
        ),
        requires=("numpy",),
    ),
}


def backends() -> dict[str, BackendInfo]:
    """The backend registry (name -> :class:`BackendInfo`), copy."""
    return dict(_BACKENDS)


def backend_names() -> tuple[str, ...]:
    """Selectable backend names, declaration order (default first)."""
    return tuple(_BACKENDS)


def _load_array_cls():
    """Import the array engine, translating a missing numpy to BackendError."""
    try:
        from repro.backends.array import ArrayCNTCache
    except ImportError as exc:
        raise BackendError(
            "the 'array' backend requires numpy (install the optional "
            f"extra: pip install repro[array]); import failed: {exc}"
        ) from exc
    return ArrayCNTCache


def array_available() -> bool:
    """True when the array backend can be imported (numpy present)."""
    try:
        _load_array_cls()
    except BackendError:
        return False
    return True


def make_backend(
    name: str,
    config: "CNTCacheConfig",
    memory: "MainMemory | None" = None,
) -> CacheBackend:
    """Construct the backend ``name`` for ``config``.

    This is the single sanctioned simulator constructor —
    :func:`repro.api.make_cache` delegates here, and lint rule R006
    flags direct ``CNTCache(...)`` construction elsewhere in the package.
    """
    if name not in _BACKENDS:
        raise BackendError(
            f"unknown backend {name!r}; known: {backend_names()}"
        )
    if name == "scalar":
        from repro.core.cntcache import CNTCache

        return CNTCache(config, memory)
    if memory is not None:
        raise BackendError(
            "the 'array' backend keeps its own integer-packed backing "
            "store and cannot share a MainMemory; use backend='scalar' "
            "for shared-memory hierarchies"
        )
    return _load_array_cls()(config)


__all__ = [
    "DEFAULT_BACKEND",
    "BackendError",
    "BackendInfo",
    "CacheBackend",
    "array_available",
    "backend_names",
    "backends",
    "make_backend",
]
