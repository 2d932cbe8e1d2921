"""The substrate's side of a replay, recorded once per stream.

CNT-Cache's encoding layer (direction and history bits, the predictor,
the update FIFOs, the Table I energy) only *consumes* the data-array
events of the cache underneath it.  Hits, ways, victims and fills are
therefore fixed by the trace and the substrate — geometry, replacement,
write policy and seed — and are the same for every scheme, ``W``, ``K``
and ``ΔT``.  A :class:`SubstrateLog` keeps that outcome as value rows
(no :class:`~repro.cache.line.CacheLine` references), so any number of
encoding configurations can replay one recorded stream without running
lookup, replacement and memory again.

Every line-part of an access becomes one row:

* ``rows`` — one packed unsigned int per part (:class:`RowFormat`):
  write, hit, evicted, victim-dirty, offset, size, way (``-1`` for a
  bypassed no-write-allocate store) and set;
* ``fills`` / ``fill_tags`` — the installed line contents, concatenated,
  and the tag of each fill, in row order;
* ``writes`` — the bytes of each write part; a write that stays within
  one line keeps a reference to the trace's own ``bytes`` object.

The live simulator builds the same rows from its own cache
(:meth:`RowFormat.describe`), so the encoding layer has one consumer for
both.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator

from repro.cache.address import AddressMapper
from repro.cache.cache import AccessResult, EventKind, SetAssociativeCache
from repro.obs import probe
from repro.trace.record import Access


class SubstrateError(ValueError):
    """Raised when a substrate log is misused."""


class RowFormat:
    """Bit layout of a packed row for one cache geometry.

    From the least significant bit: write, hit, evicted, victim-dirty
    (one bit each), offset, ``size - 1``, ``way + 1`` (0 = bypass), set.
    """

    __slots__ = ("line_size", "_offset_bits", "_way_bits")

    def __init__(self, line_size: int, assoc: int) -> None:
        self.line_size = line_size
        self._offset_bits = (line_size - 1).bit_length()
        self._way_bits = assoc.bit_length()

    def pack(
        self,
        is_write: bool,
        hit: bool,
        evicted: bool,
        victim_dirty: bool,
        set_index: int,
        way: int,
        offset: int,
        size: int,
    ) -> int:
        """One row from its fields."""
        ob = self._offset_bits
        return (
            is_write
            | hit << 1
            | evicted << 2
            | victim_dirty << 3
            | offset << 4
            | (size - 1) << (4 + ob)
            | (way + 1) << (4 + 2 * ob)
            | set_index << (4 + 2 * ob + self._way_bits)
        )

    def unpack(self, row: int) -> tuple[bool, bool, bool, bool, int, int, int, int]:
        """``(write, hit, evicted, victim_dirty, set, way, offset, size)``."""
        ob = self._offset_bits
        offset_mask = (1 << ob) - 1
        way_shift = 4 + 2 * ob
        return (
            bool(row & 1),
            bool(row & 2),
            bool(row & 4),
            bool(row & 8),
            row >> (way_shift + self._way_bits),
            ((row >> way_shift) & ((1 << self._way_bits) - 1)) - 1,
            (row >> 4) & offset_mask,
            ((row >> (4 + ob)) & offset_mask) + 1,
        )

    def filled(self, row: int) -> bool:
        """True when the row's part installed a line (allocating miss)."""
        return not row & 2 and (row >> (4 + 2 * self._offset_bits)) & (
            (1 << self._way_bits) - 1
        ) != 0

    def describe(self, result: AccessResult) -> tuple[int, int, bytes | None]:
        """``(row, fill tag, fill payload)`` of one substrate access."""
        tag = 0
        fill = None
        offset = result.addr & (self.line_size - 1)
        for event in result.events:
            if event.kind is EventKind.FILL:
                assert event.line is not None
                tag = event.line.tag
                fill = event.payload
        victim = result.victim
        row = self.pack(
            result.is_write,
            result.hit,
            victim is not None,
            victim is not None and victim.dirty,
            result.set_index,
            result.way,
            offset,
            len(result.data),
        )
        return row, tag, fill


def line_payloads(
    mapper: AddressMapper, access: Access
) -> Iterator[tuple[int, bytes]]:
    """Split one valued access into ``(address, bytes)`` line-parts.

    An access within one line yields the trace's own ``data`` object.
    """
    consumed = 0
    for part_addr, part_size in mapper.line_parts(access.addr, access.size):
        yield part_addr, access.data[consumed : consumed + part_size]
        consumed += part_size


class SubstrateLog:
    """One substrate stream: recorded once, replayed by every encoding config.

    A log starts empty; :meth:`record` drives a real cache over a trace
    once, after which :meth:`entries` replays the rows any number of
    times.  ``key`` names the substrate the rows belong to (the
    simulator's :attr:`~repro.core.config.CNTCacheConfig.substrate_key`),
    so a consumer can refuse a log recorded for another substrate.
    """

    def __init__(self) -> None:
        self.key: tuple | None = None
        self.format: RowFormat | None = None
        self.rows = array("Q")
        self.fills = bytearray()
        self.fill_tags = array("Q")
        self.writes: list[bytes] = []
        #: Trace records the log was recorded from.
        self.accesses = 0
        #: ``cache.*`` probe totals the recording would have emitted.
        self.counters: dict[str, int] = {}

    @property
    def recorded(self) -> bool:
        """True once :meth:`record` has completed."""
        return self.format is not None

    def record(
        self, cache: SetAssociativeCache, trace: Iterable[Access], key: tuple
    ) -> None:
        """Drive ``cache`` over ``trace`` once and keep its rows.

        Probes are paused: the substrate's ``cache.*`` counters are kept
        as totals in :attr:`counters`, which every replay of the log
        emits, so a job's counters do not depend on whether it recorded
        the stream or reused it.
        """
        if self.recorded:
            raise SubstrateError("substrate log is already recorded")
        fmt = RowFormat(cache.line_size, cache.assoc)
        rows = array("Q")
        fills = bytearray()
        fill_tags = array("Q")
        writes: list[bytes] = []
        accesses = 0
        with probe.timer("phase.substrate_record"), probe.paused():
            for access in trace:
                accesses += 1
                is_write = access.is_write
                for addr, payload in line_payloads(cache.mapper, access):
                    result = cache.access(is_write, addr, len(payload), payload)
                    row, tag, fill = fmt.describe(result)
                    rows.append(row)
                    if fill is not None:
                        fill_tags.append(tag)
                        fills += fill
                    if is_write:
                        writes.append(payload)
        probe.counter("substrate.records")
        self.rows, self.fills, self.fill_tags, self.writes = (
            rows, fills, fill_tags, writes,
        )
        self.accesses = accesses
        self.counters = _counters(fmt, rows)
        self.key = key
        self.format = fmt

    def entries(self) -> Iterator[tuple[int, int, bytes | None, bytes | None]]:
        """Replay the rows as ``(row, fill tag, fill payload, write bytes)``."""
        fmt = self.format
        if fmt is None:
            raise SubstrateError("substrate log has not been recorded")
        line_size = fmt.line_size
        fills = self.fills
        tags = iter(self.fill_tags)
        writes = iter(self.writes)
        start = 0
        for row in self.rows:
            fill = None
            tag = 0
            if fmt.filled(row):
                fill = bytes(fills[start : start + line_size])
                start += line_size
                tag = next(tags)
            yield row, tag, fill, next(writes) if row & 1 else None


def _counters(fmt: RowFormat, rows: array) -> dict[str, int]:
    """The ``cache.*`` totals a live replay of ``rows`` emits."""
    totals = dict.fromkeys(
        (
            "cache.accesses",
            "cache.hits",
            "cache.misses",
            "cache.demand_reads",
            "cache.demand_writes",
            "cache.fills",
            "cache.writebacks",
            "cache.bypass_writes",
        ),
        0,
    )
    for row in rows:
        is_write, hit, _, victim_dirty, _, way, _, _ = fmt.unpack(row)
        totals["cache.accesses"] += 1
        totals["cache.hits" if hit else "cache.misses"] += 1
        if way < 0:
            totals["cache.bypass_writes"] += 1
            continue
        totals["cache.demand_writes" if is_write else "cache.demand_reads"] += 1
        if not hit:
            totals["cache.fills"] += 1
        if victim_dirty:
            totals["cache.writebacks"] += 1
    return {name: count for name, count in totals.items() if count}


__all__ = [
    "RowFormat",
    "SubstrateError",
    "SubstrateLog",
    "line_payloads",
]
