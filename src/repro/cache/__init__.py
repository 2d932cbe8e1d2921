"""Trace-driven, data-carrying cache simulator substrate.

The CNT-Cache energy model depends on the *values* moved through the data
array, so unlike classic hit/miss simulators this substrate stores real
line contents and reports, for every architectural event, exactly which
stored bytes were read or written.

Layout:

* :mod:`~repro.cache.address` — address <-> (tag, set, offset) mapping.
* :mod:`~repro.cache.replacement` — LRU / FIFO / random / tree-PLRU.
* :mod:`~repro.cache.line` — the line state (tag, dirty, data, sidecar).
* :mod:`~repro.cache.cache` — set-associative write-back/write-allocate
  cache emitting :class:`~repro.cache.cache.ArrayEvent` streams.
* :mod:`~repro.cache.memory` — sparse backing store.

Accesses that cross a line boundary are split by
:meth:`~repro.cache.address.AddressMapper.line_parts` before they reach
the cache, which serves one line per access.
"""

from repro.cache.address import AddressMapper
from repro.cache.cache import (
    AccessResult,
    ArrayEvent,
    EventKind,
    SetAssociativeCache,
)
from repro.cache.line import CacheLine
from repro.cache.memory import MainMemory
from repro.cache.replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    TreePLRUPolicy,
    make_replacement_policy,
)

__all__ = [
    "AddressMapper",
    "CacheLine",
    "MainMemory",
    "SetAssociativeCache",
    "AccessResult",
    "ArrayEvent",
    "EventKind",
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "TreePLRUPolicy",
    "make_replacement_policy",
]
