"""The CNT-Cache simulator: cache + codec + predictor + FIFOs + energy.

This class realises the architecture of Fig. 1 on top of the substrate
cache.  The substrate decides hits, ways, victims and fills; the encoding
layer consumes each access as one substrate row
(:mod:`repro.cache.substrate`) and keeps its own per-line tables — logical
contents, tag, direction word and window history — indexed by
``lid = set * assoc + way``.  Every array operation is metered through the
CNFET per-bit energy model in the *encoded* domain, so the reported
femtojoules depend on exactly the bits the array would physically toggle,
including the H&D metadata columns.

Rows come live from :attr:`CNTCache.cache` (:meth:`CNTCache.access`) or
from a :class:`~repro.cache.substrate.SubstrateLog` recorded once per
substrate stream (:meth:`CNTCache.run` with ``substrate=``); both land in
the same consumer, so the two paths cannot diverge.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sized
from dataclasses import dataclass

from repro.cache.cache import SetAssociativeCache
from repro.cache.memory import MainMemory
from repro.cache.substrate import RowFormat, SubstrateLog, line_payloads
from repro.cnfet.energy import BitEnergyModel
from repro.core.config import CNTCacheConfig
from repro.core.policy import EncodingPolicy, make_policy
from repro.core.stats import ENERGY_COMPONENTS, EnergyStats
from repro.core.update_queue import PendingUpdate, UpdateQueue
from repro.encoding import bits
from repro.encoding.base import DirectionWord
from repro.obs import probe, trace
from repro.predictor.history import LineHistory
from repro.trace.record import Access


class SimulationError(RuntimeError):
    """Raised when the simulator reaches an inconsistent state."""


@dataclass
class LineState:
    """Per-line encoding state: the 'H&D' extension of the cache line."""

    directions: DirectionWord
    history: LineHistory | None


@dataclass(frozen=True)
class WindowEvent:
    """One completed prediction window, as observed by analysis hooks.

    Emitted (when :attr:`CNTCache.window_observer` is set) right after
    Algorithm 1 ran on a line whose window just completed.  ``ones`` holds
    the per-partition '1' populations of the *stored* data the bit counter
    saw; ``flips`` is the predictor's decision.
    """

    index: int  # running event number
    set_index: int
    way: int
    tag: int
    wr_num: int
    window: int
    ones: tuple[int, ...]
    directions_before: DirectionWord
    flips: tuple[bool, ...]


class CNTCache:
    """A simulated CNFET L1 D-Cache under one encoding scheme.

    Parameters
    ----------
    config:
        Geometry + scheme + energy model.
    memory:
        Optional shared backing store (one is created if omitted).

    Use :meth:`access` per trace record, or :meth:`run` for a whole trace;
    read the results from :attr:`stats`.
    """

    def __init__(
        self, config: CNTCacheConfig, memory: MainMemory | None = None
    ) -> None:
        self.config = config
        self.memory = memory if memory is not None else MainMemory()
        self.policy: EncodingPolicy = make_policy(config)
        self.codec = self.policy.codec
        self.cache = SetAssociativeCache(
            size=config.size,
            assoc=config.assoc,
            line_size=config.line_size,
            memory=self.memory,
            replacement=config.replacement,
            seed=config.seed,
            write_through=config.write_through,
            write_allocate=config.write_allocate,
        )
        self._row_format = RowFormat(config.line_size, config.assoc)
        # The encoding layer's own per-line tables, indexed by
        # lid = set * assoc + way; a tag of None marks an empty line.
        self._tags: list[int | None] = [None] * config.n_lines
        self._data: list[bytearray | None] = [None] * config.n_lines
        self._states: list[LineState | None] = [None] * config.n_lines
        #: True once a substrate log fed this simulator (see :meth:`run`).
        self._log_fed = False
        self.queue = UpdateQueue(config.fifo_depth)
        self.stats = EnergyStats()
        self.model: BitEnergyModel = config.energy
        # Physical width of each history counter (energy accounting); for
        # cnt-shared the *storage* per line is amortised (see config) but
        # the counters themselves keep full width.
        if config.uses_predictor:
            from repro.predictor.history import history_bits

            self._history_bits_each = history_bits(config.window) // 2
        else:
            self._history_bits_each = 0
        # Per-set history counters for the cnt-shared extension.
        self._shared_histories = (
            [LineHistory(config.window) for _ in range(config.n_sets)]
            if config.shared_history
            else None
        )
        #: Optional analysis hook: called with a WindowEvent whenever a
        #: line's prediction window completes (see repro.analysis).
        self.window_observer: Callable[[WindowEvent], None] | None = None
        self._window_events = 0
        # Leakage accounting (extension A9): live stored-one population of
        # the whole data array, updated incrementally; invalid lines count
        # as all-zero cells.
        self._track_content = config.leakage is not None
        self._stored_ones = 0
        self._total_bits = config.size * 8
        # Telescoping trace attribution: stat totals at the last emitted
        # trace event.  Starting from zeros guarantees the per-event
        # energy deltas sum to stats.total_fj at any sampling stride
        # (see repro.obs.trace).
        self._trace_mark: dict[str, float] = dict.fromkeys(
            ("direction_switches", "partition_flips", "windows_completed")
            + ENERGY_COMPONENTS,
            0.0,
        )

    # ------------------------------------------------------------------ #
    # demand path
    # ------------------------------------------------------------------ #
    def access(self, access: Access) -> bytes:
        """Apply one valued access; returns the logical data read/written."""
        if self._log_fed:
            raise SimulationError(
                "this simulator replayed a substrate log; its cache was not "
                "driven, so it cannot take live accesses"
            )
        is_write = access.is_write
        chunks: list[bytes] = []
        for addr, payload in line_payloads(self.cache.mapper, access):
            result = self.cache.access(is_write, addr, len(payload), payload)
            row, tag, fill = self._row_format.describe(result)
            chunks.append(
                self._consume(row, tag, fill, payload if is_write else None)
            )
        return b"".join(chunks)

    def run(
        self,
        trace: Iterable[Access],
        finalize: bool = True,
        substrate: SubstrateLog | None = None,
    ) -> EnergyStats:
        """Replay a whole trace; optionally drain pending updates at the end.

        ``substrate`` feeds the encoding layer from a
        :class:`~repro.cache.substrate.SubstrateLog` of this trace
        instead of live accesses, on a fresh simulator.  An empty log is
        recorded first, by driving :attr:`cache` over ``trace`` once; a
        recorded one (same :attr:`~CNTCacheConfig.substrate_key`, same
        trace) is replayed without touching :attr:`cache` at all, and the
        simulator takes no live :meth:`access` afterwards.  Either way the
        stats are bit-identical to a live run.
        """
        if substrate is None:
            for access in trace:
                self.access(access)
        else:
            self._replay_log(substrate, trace)
        if finalize:
            self.finalize()
        return self.stats

    def finalize(self) -> None:
        """Drain every pending re-encode, charging its write energy."""
        for update in self.queue.drain_all():
            self._apply_update(update)
        if trace.ACTIVE:
            # The residual event: energy accumulated since the last
            # sampled access (skipped accesses + the drain above), so
            # per-event energies telescope to stats.total_fj exactly.
            trace.emit(
                "finalize",
                index=self.stats.accesses,
                scheme=self.config.scheme,
                pending_dropped=self.stats.pending_dropped,
                **self._trace_deltas(),
            )

    def preload(self, addr: int, payload: bytes) -> None:
        """Install initial memory contents (program image) before a run.

        Fills triggered during the run then fetch true line contents
        instead of zero-filled pages.  Must be called before :meth:`run`.
        """
        self.memory.poke(addr, payload)

    def preload_all(self, preloads: Iterable[tuple[int, bytes]]) -> None:
        """Install a whole initial memory image (see :meth:`preload`)."""
        for addr, payload in preloads:
            self.memory.poke(addr, payload)

    # ------------------------------------------------------------------ #
    # inspection helpers (tests, verification, reports)
    # ------------------------------------------------------------------ #
    def line_state(self, set_index: int, way: int) -> LineState:
        """The H&D state of a resident line."""
        return self._state(set_index * self.config.assoc + way)

    def logical_line(self, set_index: int, way: int) -> bytes:
        """Program-visible contents of a line (zeros if never filled)."""
        data = self._data[set_index * self.config.assoc + way]
        return bytes(self.config.line_size) if data is None else bytes(data)

    def stored_line(self, set_index: int, way: int) -> bytes:
        """Array contents of a resident line (encoded domain)."""
        lid = set_index * self.config.assoc + way
        directions = self._state(lid).directions
        return self.codec.encode(bytes(self._data[lid]), directions)

    def directions_of(self, set_index: int, way: int) -> DirectionWord:
        """Current direction word of a resident line."""
        return self.line_state(set_index, way).directions

    @property
    def pending_updates(self) -> int:
        """Re-encodes currently waiting in the FIFOs."""
        return len(self.queue)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _replay_log(self, log: SubstrateLog, accesses: Iterable[Access]) -> None:
        """Feed the encoding layer from a substrate log (recording it first)."""
        if self._log_fed or self.stats.accesses or self.cache.accesses:
            raise SimulationError(
                "a substrate log replays into a fresh simulator only"
            )
        key = self.config.substrate_key
        if not log.recorded:
            log.record(self.cache, accesses, key)
        elif log.key != key:
            raise SimulationError(
                f"substrate log recorded for {log.key}, not {key}"
            )
        else:
            probe.counter("substrate.memo_hits")
        if isinstance(accesses, Sized) and len(accesses) != log.accesses:
            raise SimulationError(
                f"substrate log holds {log.accesses} accesses, the trace "
                f"{len(accesses)}"
            )
        self._log_fed = True
        consume = self._consume
        for row, tag, fill, data in log.entries():
            consume(row, tag, fill, data)
        for name, count in log.counters.items():
            probe.counter(name, count)

    def _consume(
        self, row: int, tag: int, fill: bytes | None, data: bytes | None
    ) -> bytes:
        """Apply one substrate row to the encoding layer.

        The single consumer of substrate rows, live or logged: ``tag`` and
        ``fill`` describe the line a miss installed, ``data`` the bytes a
        write stored.  Returns the logical bytes read or written.
        """
        is_write, hit, evicted, victim_dirty, set_index, way, offset, size = (
            self._row_format.unpack(row)
        )
        stats = self.stats
        stats.accesses += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        if hit:
            stats.hits += 1
        else:
            stats.misses += 1
        lid = set_index * self.config.assoc + way
        if evicted:
            self._evict(lid, set_index, victim_dirty)
        if fill is not None:
            self._on_fill(lid, set_index, way, tag, fill)

        if way < 0:
            # No-write-allocate miss: the store bypassed the array.
            assert data is not None
            result = data
        elif is_write:
            assert data is not None
            self._on_data_write(lid, set_index, offset, data)
            result = data
        else:
            result = self._on_data_read(lid, set_index, offset, size)

        # Value-independent peripheral energy of the demand activation.
        self.stats.add("peripheral_fj", self.config.peripheral_fj_per_access)

        # Per-access encoder datapath energy (absent in the plain baseline).
        if self.config.scheme != "baseline":
            self.stats.add("logic_fj", self.config.encoder_logic_fj)

        # Window bookkeeping for adaptive schemes.  Bypassed writes
        # never touched the array.
        if way >= 0:
            state = self._state(lid)
            history = self._history_for(set_index, state)
            if history is not None:
                self._record_history(
                    lid, state, is_write, set_index, way, history
                )

        # Idle-slot drains of the deferred-update FIFOs.
        self._drain(self.config.drain_per_access)

        # Static energy of this cycle (extension A9).
        if self.config.leakage is not None:
            self.stats.add(
                "leakage_fj",
                self.config.leakage.cycle_energy(
                    self._stored_ones, self._total_bits - self._stored_ones
                ),
            )

        if trace.ACTIVE:
            self._trace_access(lid, set_index, way, hit, is_write)

        return result

    def _trace_deltas(self) -> dict:
        """Energy/decision deltas since the last emitted trace event.

        Advances the telescoping mark, so consecutive emitted events
        partition the run's totals exactly (floating-point subtraction
        of nearby running sums is exact here to well below the 1e-6 fJ
        acceptance bound).
        """
        mark = self._trace_mark
        stats = self.stats
        energy: dict[str, float] = {}
        for name in ENERGY_COMPONENTS:
            value = getattr(stats, name)
            delta = value - mark[name]
            if delta:
                energy[name] = delta
            mark[name] = value
        decisions: dict[str, int] = {}
        for name in (
            "direction_switches", "partition_flips", "windows_completed"
        ):
            value = getattr(stats, name)
            delta = int(value - mark[name])
            if delta:
                decisions[name] = delta
            mark[name] = value
        return {"energy": energy, **decisions}

    def _trace_access(
        self, lid: int, set_index: int, way: int, hit: bool, is_write: bool
    ) -> None:
        """Emit one sampled demand-access trace event (index-based)."""
        index = self.stats.accesses - 1
        if index % trace.EVERY:
            return
        fields = self._trace_deltas()
        directions = None
        if way >= 0:
            value = 0
            for position, flag in enumerate(self._state(lid).directions):
                value |= int(flag) << position
            directions = value
        trace.emit(
            "access",
            index=index,
            set=set_index,
            way=way,
            hit=hit,
            write=is_write,
            scheme=self.config.scheme,
            directions=directions,
            every=trace.EVERY,
            **fields,
        )

    def _evict(self, lid: int, set_index: int, victim_dirty: bool) -> None:
        """Account the line a fill replaces (and its writeback)."""
        state = self._state(lid)
        logical = bytes(self._data[lid])
        self.stats.evictions += 1
        if victim_dirty:
            self.stats.writebacks += 1
        if self._track_content:
            self._stored_ones -= bits.popcount(
                self.codec.encode(logical, state.directions)
            )
        if victim_dirty:
            self._on_writeback(set_index, state, logical)

    def _on_fill(
        self, lid: int, set_index: int, way: int, tag: int, payload: bytes
    ) -> None:
        # Any pending update for the way this line replaced is now stale.
        self.stats.pending_dropped += self.queue.discard_line(set_index, way)
        directions = self.policy.initial_directions(payload)
        history = (
            LineHistory(self.config.window)
            if self.policy.uses_history and not self.config.shared_history
            else None
        )
        state = LineState(directions=directions, history=history)
        self._states[lid] = state
        self._tags[lid] = tag
        self._data[lid] = bytearray(payload)
        stored = self.codec.encode(payload, directions)
        ones = bits.popcount(stored)
        self.stats.add(
            "fill_fj", self.model.write_energy(ones, len(stored) * 8 - ones)
        )
        if self._track_content:
            self._stored_ones += ones
        self.stats.add("peripheral_fj", self.config.peripheral_fj_per_access)
        self._charge_metadata_write(state, full=True)

    def _on_writeback(
        self, set_index: int, state: LineState, logical: bytes
    ) -> None:
        stored = self.codec.encode(logical, state.directions)
        ones = bits.popcount(stored)
        self.stats.add(
            "writeback_fj",
            self.model.read_energy(ones, len(stored) * 8 - ones),
        )
        self.stats.add("peripheral_fj", self.config.peripheral_fj_per_access)
        self._charge_metadata_read(state, self._history_for(set_index, state))

    def _on_data_read(
        self, lid: int, set_index: int, offset: int, size: int
    ) -> bytes:
        state = self._state(lid)
        logical = bytes(self._data[lid])
        if self.config.access_granularity == "line":
            # Full-row activation: every column of the line swings its
            # bitline — the granularity the paper's Eq. 4/5 charge.
            stored = self.codec.encode(logical, state.directions)
        else:
            stored = bits.encoded_slice(
                logical, state.directions, offset, size
            )
        ones = bits.popcount(stored)
        self.stats.add(
            "data_read_fj",
            self.model.read_energy(ones, len(stored) * 8 - ones),
        )
        self._charge_metadata_read(
            state, self._history_for(set_index, state)
        )
        return logical[offset : offset + size]

    def _on_data_write(
        self, lid: int, set_index: int, offset: int, payload: bytes
    ) -> None:
        state = self._state(lid)
        line = self._data[lid]
        size = len(payload)
        logical_before = bytes(line) if self._track_content else b""
        line[offset : offset + size] = payload
        logical_after = bytes(line)
        old_directions = state.directions
        new_directions = self.policy.write_directions(
            logical_after, state.directions, offset, size
        )
        directions_changed = new_directions != state.directions
        if directions_changed:
            state.directions = new_directions
        if self._track_content:
            self._stored_ones += bits.popcount(
                self.codec.encode(logical_after, new_directions)
            ) - bits.popcount(
                self.codec.encode(logical_before, old_directions)
            )
        if self.config.access_granularity == "line":
            # Full-row write: the whole updated line is driven back into
            # the row (Eq. 4/5's write term covers all L bits).
            stored = self.codec.encode(logical_after, state.directions)
        else:
            stored = bits.encoded_slice(
                logical_after, state.directions, offset, size
            )
        ones = bits.popcount(stored)
        self.stats.add(
            "data_write_fj",
            self.model.write_energy(ones, len(stored) * 8 - ones),
        )
        self._charge_metadata_read(
            state, self._history_for(set_index, state)
        )
        if directions_changed:
            self._charge_metadata_write(state, full=False)

    # ------------------------------------------------------------------ #
    # history window + prediction
    # ------------------------------------------------------------------ #
    def _history_for(
        self, set_index: int, state: LineState
    ) -> LineHistory | None:
        """The history counters governing a line (per line or per set)."""
        if self._shared_histories is not None:
            return self._shared_histories[set_index]
        return state.history

    def _record_history(
        self,
        lid: int,
        state: LineState,
        is_write: bool,
        set_index: int,
        way: int,
        history: LineHistory,
    ) -> None:
        window_done = history.record(is_write)
        # The incremented counters are written back to the H bits.
        self._charge_history_write(history)
        if not window_done:
            return
        self.stats.windows_completed += 1
        self.stats.add("logic_fj", self.config.predictor_logic_fj)
        stored = self.codec.encode(bytes(self._data[lid]), state.directions)
        outcome = self.policy.window_outcome(
            stored, state.directions, history.wr_num
        )
        if self.window_observer is not None and outcome is not None:
            self.window_observer(
                WindowEvent(
                    index=self._window_events,
                    set_index=set_index,
                    way=way,
                    tag=self._tags[lid],
                    wr_num=history.wr_num,
                    window=self.config.window,
                    ones=tuple(self.codec.ones_per_partition(stored)),
                    directions_before=state.directions,
                    flips=outcome.flips,
                )
            )
            self._window_events += 1
        history.reset()
        self._charge_history_write(history)
        if outcome is None or not outcome.any_flip:
            return
        self.stats.direction_switches += 1
        self.stats.partition_flips += sum(outcome.flips)
        forced = self.queue.push(
            PendingUpdate(
                set_index=set_index,
                way=way,
                tag=self._tags[lid],
                new_directions=outcome.new_directions,
            )
        )
        if forced is not None:
            self.stats.forced_drains += 1
            self._apply_update(forced)

    # ------------------------------------------------------------------ #
    # deferred updates
    # ------------------------------------------------------------------ #
    def _drain(self, budget: int) -> None:
        applied = 0
        while applied < budget:
            update = self.queue.pop()
            if update is None:
                return
            if self._apply_update(update):
                applied += 1

    def _apply_update(self, update: PendingUpdate) -> bool:
        """Re-encode a line per a queued update; False if it went stale."""
        lid = update.set_index * self.config.assoc + update.way
        if self._tags[lid] != update.tag:
            self.stats.pending_dropped += 1
            return False
        state = self._state(lid)
        flips = tuple(
            old != new
            for old, new in zip(state.directions, update.new_directions)
        )
        if not any(flips):
            return True  # nothing to rewrite, but the slot was used
        logical = bytes(self._data[lid])
        width = self.codec.partition_bytes
        energy = 0.0
        for index, flipped in enumerate(flips):
            if not flipped:
                continue
            stored = bits.encoded_slice(
                logical,
                update.new_directions,
                index * width,
                width,
            )
            ones = bits.popcount(stored)
            energy += self.model.write_energy(ones, width * 8 - ones)
            if self._track_content:
                # The partition inverted: new ones replace old ones.
                self._stored_ones += 2 * ones - width * 8
        state.directions = update.new_directions
        self.stats.add("reencode_fj", energy)
        self.stats.add("peripheral_fj", self.config.peripheral_fj_per_access)
        self._charge_metadata_write(state, full=False)
        return True

    # ------------------------------------------------------------------ #
    # metadata energy
    # ------------------------------------------------------------------ #
    def _metadata_words(
        self, state: LineState, history: LineHistory | None
    ) -> tuple[int, int]:
        """(ones, total_bits) of the metadata columns an access touches."""
        value = 0
        width = len(state.directions) if state.directions else 0
        total = self.config.direction_bits_per_line
        for position, flag in enumerate(state.directions):
            value |= int(flag) << position
        if history is not None:
            counter_bits = self._history_bits_each
            mask = (1 << counter_bits) - 1
            value |= (history.a_num & mask) << width
            width += counter_bits
            value |= (history.wr_num & mask) << width
            total += 2 * counter_bits
        return value.bit_count(), total

    def _charge_metadata_read(
        self, state: LineState, history: LineHistory | None
    ) -> None:
        if not self.config.account_metadata:
            return
        ones, total = self._metadata_words(state, history)
        if total == 0:
            return
        self.stats.add(
            "metadata_read_fj", self.model.read_energy(ones, total - ones)
        )

    def _charge_metadata_write(self, state: LineState, full: bool) -> None:
        """Charge writing the D bits (and H bits when ``full``)."""
        if not self.config.account_metadata:
            return
        direction_bits = self.config.direction_bits_per_line
        if direction_bits == 0 and not full:
            return
        value = 0
        for position, flag in enumerate(state.directions):
            value |= int(flag) << position
        ones = value.bit_count()
        total = direction_bits
        if full and state.history is not None:
            counter_bits = self._history_bits_each
            mask = (1 << counter_bits) - 1
            history_value = (state.history.a_num & mask) | (
                (state.history.wr_num & mask) << counter_bits
            )
            ones += history_value.bit_count()
            total += 2 * counter_bits
        if total == 0:
            return
        self.stats.add(
            "metadata_write_fj", self.model.write_energy(ones, total - ones)
        )

    def _charge_history_write(self, history: LineHistory) -> None:
        if not self.config.account_metadata:
            return
        counter_bits = self._history_bits_each
        if counter_bits == 0:
            return
        mask = (1 << counter_bits) - 1
        value = (history.a_num & mask) | ((history.wr_num & mask) << counter_bits)
        ones = value.bit_count()
        self.stats.add(
            "metadata_write_fj",
            self.model.write_energy(ones, 2 * counter_bits - ones),
        )

    def _state(self, lid: int) -> LineState:
        state = self._states[lid]
        if state is None:
            raise SimulationError(
                "cache line has no CNT state - was it filled outside CNTCache?"
            )
        return state
