"""Set-associative, write-back/write-allocate cache with event emission.

The cache stores **logical** (program-visible) bytes; encoded-domain views
are derived by the energy layer from each line's sidecar (direction word).
Storing logical data keeps a single source of truth for correctness — the
simulated program always reads exactly what it wrote, regardless of the
encoding scheme under evaluation.

Every demand access returns the ordered list of :class:`ArrayEvent` s it
caused (demand read/write, victim writeback, line fill); the CNT-Cache core
turns those events into per-bit energies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.cache.address import AddressError, AddressMapper
from repro.cache.line import CacheLine
from repro.cache.memory import MainMemory
from repro.cache.replacement import ReplacementPolicy, make_replacement_policy
from repro.obs import probe, trace


class CacheError(ValueError):
    """Raised on invalid cache construction or access."""


class EventKind(enum.Enum):
    """What happened in the data array."""

    DATA_READ = "data_read"  # demand read of a stored slice
    DATA_WRITE = "data_write"  # demand write of a stored slice
    FILL = "fill"  # whole-line install after a miss
    WRITEBACK = "writeback"  # whole-line readout of an evicted dirty line


@dataclass(frozen=True)
class ArrayEvent:
    """One data-array operation, in logical-domain terms.

    ``payload`` carries the logical bytes involved: the slice read or
    written for demand events, the whole line for fills and writebacks.
    ``line`` references the live line for events on resident lines and is
    ``None`` for writebacks (the line has already been replaced); evicted
    state travels in ``sidecar``.
    """

    kind: EventKind
    set_index: int
    way: int
    offset: int
    payload: bytes
    line: CacheLine | None = None
    sidecar: Any = None
    #: For DATA_WRITE: the logical bytes the write overwrote (needed by
    #: content-tracking consumers such as the leakage accountant).
    payload_before: bytes | None = None

    @property
    def size(self) -> int:
        """Number of logical bytes involved."""
        return len(self.payload)


@dataclass(frozen=True)
class EvictionInfo:
    """Summary of a victim line that was replaced."""

    tag: int
    set_index: int
    way: int
    dirty: bool
    data: bytes
    sidecar: Any


@dataclass
class AccessResult:
    """Outcome of one demand access."""

    hit: bool
    is_write: bool
    addr: int
    data: bytes  # logical bytes read (reads) or written (writes)
    set_index: int
    way: int
    events: list[ArrayEvent] = field(default_factory=list)
    victim: EvictionInfo | None = None


class SetAssociativeCache:
    """The substrate cache: geometry, lookup, replacement, write-back.

    Parameters
    ----------
    size:
        Total data capacity in bytes.
    assoc:
        Ways per set.
    line_size:
        Line width in bytes (power of two).
    memory:
        Backing store (shared by all levels in a hierarchy).
    replacement:
        Policy name (``lru``/``fifo``/``random``/``plru``) or instance.
    """

    def __init__(
        self,
        size: int,
        assoc: int,
        line_size: int,
        memory: MainMemory,
        replacement: str | ReplacementPolicy = "lru",
        seed: int = 0,
        write_through: bool = False,
        write_allocate: bool = True,
    ) -> None:
        if size < 1 or assoc < 1 or line_size < 1:
            raise CacheError(
                f"size/assoc/line_size must be positive, got "
                f"{size}/{assoc}/{line_size}"
            )
        if size % (assoc * line_size) != 0:
            raise CacheError(
                f"size {size} is not divisible by assoc*line_size "
                f"({assoc}*{line_size})"
            )
        n_sets = size // (assoc * line_size)
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.write_through = write_through
        self.write_allocate = write_allocate
        self.mapper = AddressMapper(line_size=line_size, n_sets=n_sets)
        self.memory = memory
        if isinstance(replacement, ReplacementPolicy):
            self.replacement = replacement
        else:
            self.replacement = make_replacement_policy(
                replacement, n_sets, assoc, seed=seed
            )
        self._sets = [
            [CacheLine(line_size) for _ in range(assoc)] for _ in range(n_sets)
        ]
        # hit/miss statistics
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.evictions = 0
        self.writebacks = 0

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.mapper.n_sets

    @property
    def accesses(self) -> int:
        """Total demand accesses observed."""
        return (
            self.read_hits + self.read_misses + self.write_hits + self.write_misses
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of demand accesses that hit (0 when idle)."""
        total = self.accesses
        if total == 0:
            return 0.0
        return (self.read_hits + self.write_hits) / total

    def probe(self, addr: int) -> tuple[int, int | None]:
        """Non-destructive lookup: (set_index, hit way or None)."""
        tag, set_index, _ = self.mapper.split(addr)
        for way, line in enumerate(self._sets[set_index]):
            if line.valid and line.tag == tag:
                return set_index, way
        return set_index, None

    def line_at(self, set_index: int, way: int) -> CacheLine:
        """Direct access to a line (used by the energy layer and tests)."""
        return self._sets[set_index][way]

    def iter_valid_lines(self):
        """Yield ``(set_index, way, line)`` for every valid line."""
        for set_index, ways in enumerate(self._sets):
            for way, line in enumerate(ways):
                if line.valid:
                    yield set_index, way, line

    # ------------------------------------------------------------------ #
    # the demand path
    # ------------------------------------------------------------------ #
    def access(
        self, is_write: bool, addr: int, size: int, data: bytes | None = None
    ) -> AccessResult:
        """One demand access that must not cross a line boundary.

        For writes ``data`` must hold exactly ``size`` bytes.  For reads the
        returned :attr:`AccessResult.data` is the logical data read.
        """
        if size < 1 or size > self.line_size:
            raise CacheError(
                f"access size must be in [1, {self.line_size}], got {size}"
            )
        if self.mapper.spans_lines(addr, size):
            raise AddressError(
                f"access [{addr:#x}, +{size}) crosses a line boundary; "
                "split it with AddressMapper.line_parts"
            )
        if is_write:
            if data is None or len(data) != size:
                raise CacheError(
                    f"write needs exactly {size} bytes of data, got "
                    f"{'None' if data is None else len(data)}"
                )
        elif data is not None and len(data) != size:
            raise CacheError(
                f"read seed data must be {size} bytes, got {len(data)}"
            )

        tag, set_index, offset = self.mapper.split(addr)
        events: list[ArrayEvent] = []
        victim: EvictionInfo | None = None

        way = self._find_way(set_index, tag)
        hit = way is not None
        if hit:
            self.replacement.touch(set_index, way)
            if is_write:
                self.write_hits += 1
            else:
                self.read_hits += 1
        else:
            if is_write:
                self.write_misses += 1
            else:
                self.read_misses += 1
            if is_write and not self.write_allocate:
                # No-write-allocate: the store bypasses the data array.
                assert data is not None
                self.memory.write_block(addr, data)
                if probe.ENABLED:
                    probe.counter("cache.accesses")
                    probe.counter("cache.misses")
                    probe.counter("cache.bypass_writes")
                return AccessResult(
                    hit=False,
                    is_write=True,
                    addr=addr,
                    data=bytes(data),
                    set_index=set_index,
                    way=-1,
                    events=[],
                    victim=None,
                )
            # Valued traces are self-contained: seed never-written read
            # locations with the trace-recorded value so all schemes see
            # identical bit streams.
            if not is_write and data is not None:
                self.memory.poke(addr, data)
            way, victim, fill_event = self._fill(tag, set_index)
            if victim is not None and victim.dirty:
                events.append(
                    ArrayEvent(
                        kind=EventKind.WRITEBACK,
                        set_index=set_index,
                        way=way,
                        offset=0,
                        payload=victim.data,
                        line=None,
                        sidecar=victim.sidecar,
                    )
                )
            events.append(fill_event)

        line = self._sets[set_index][way]
        if is_write:
            assert data is not None
            overwritten = line.read(offset, size)
            line.write(offset, data)
            if self.write_through:
                # The store is mirrored to memory; the line stays clean.
                self.memory.write_block(addr, data)
            else:
                line.dirty = True
            payload = bytes(data)
            events.append(
                ArrayEvent(
                    kind=EventKind.DATA_WRITE,
                    set_index=set_index,
                    way=way,
                    offset=offset,
                    payload=payload,
                    line=line,
                    payload_before=overwritten,
                )
            )
            result_data = payload
        else:
            result_data = line.read(offset, size)
            events.append(
                ArrayEvent(
                    kind=EventKind.DATA_READ,
                    set_index=set_index,
                    way=way,
                    offset=offset,
                    payload=result_data,
                    line=line,
                )
            )

        if probe.ENABLED:
            probe.counter("cache.accesses")
            probe.counter("cache.hits" if hit else "cache.misses")
            probe.counter(
                "cache.demand_writes" if is_write else "cache.demand_reads"
            )
            if not hit:
                probe.counter("cache.fills")
            if victim is not None and victim.dirty:
                probe.counter("cache.writebacks")

        return AccessResult(
            hit=hit,
            is_write=is_write,
            addr=addr,
            data=result_data,
            set_index=set_index,
            way=way,
            events=events,
            victim=victim,
        )

    def flush(self) -> list[ArrayEvent]:
        """Write back every dirty line and invalidate the cache."""
        events: list[ArrayEvent] = []
        for set_index, ways in enumerate(self._sets):
            for way, line in enumerate(ways):
                if not line.valid:
                    continue
                if line.dirty:
                    self.writebacks += 1
                    addr = self.mapper.rebuild(line.tag, set_index)
                    self.memory.write_block(addr, bytes(line.data))
                    events.append(
                        ArrayEvent(
                            kind=EventKind.WRITEBACK,
                            set_index=set_index,
                            way=way,
                            offset=0,
                            payload=bytes(line.data),
                            line=None,
                            sidecar=line.sidecar,
                        )
                    )
                line.invalidate()
        if probe.ENABLED:
            probe.counter("cache.flushes")
            probe.counter("cache.flush_writebacks", len(events))
        if trace.ACTIVE:
            trace.emit("flush", writebacks=len(events))
        return events

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _find_way(self, set_index: int, tag: int) -> int | None:
        for way, line in enumerate(self._sets[set_index]):
            if line.valid and line.tag == tag:
                return way
        return None

    def _fill(
        self, tag: int, set_index: int
    ) -> tuple[int, EvictionInfo | None, ArrayEvent]:
        ways = self._sets[set_index]
        victim_info: EvictionInfo | None = None
        way = next((w for w, line in enumerate(ways) if not line.valid), None)
        if way is None:
            way = self.replacement.victim(set_index)
            line = ways[way]
            self.evictions += 1
            victim_info = EvictionInfo(
                tag=line.tag,
                set_index=set_index,
                way=way,
                dirty=line.dirty,
                data=bytes(line.data),
                sidecar=line.sidecar,
            )
            if line.dirty:
                self.writebacks += 1
                victim_addr = self.mapper.rebuild(line.tag, set_index)
                self.memory.write_block(victim_addr, bytes(line.data))

        fill_addr = self.mapper.rebuild(tag, set_index)
        fill_data = self.memory.read_block(fill_addr, self.line_size)
        ways[way].install(tag, fill_data, sidecar=None)
        self.replacement.fill(set_index, way)
        fill_event = ArrayEvent(
            kind=EventKind.FILL,
            set_index=set_index,
            way=way,
            offset=0,
            payload=fill_data,
            line=ways[way],
        )
        return way, victim_info, fill_event
