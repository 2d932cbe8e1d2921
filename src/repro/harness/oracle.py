"""Oracle-bound runner (experiment F8).

Replays a trace through the substrate cache and accumulates, for every
array event, the posteriori-minimal data energy (per-partition free choice
of direction, no history, no switch cost, no metadata).  The result lower-
bounds every realisable encoding policy with the same codec geometry.

Experiments don't call :func:`oracle_bound` directly: they declare an
``oracle`` :class:`repro.exec.SimJob` (see :func:`repro.exec.oracle_job`)
and read ``values["oracle_fj"]`` off the :class:`repro.exec.ExecResult`,
so bounds dedupe and cache like any other measurement.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cache.cache import EventKind, SetAssociativeCache
from repro.cache.memory import MainMemory
from repro.core.config import CNTCacheConfig
from repro.encoding.partitioned import PartitionedInvertCodec
from repro.predictor.oracle import oracle_access_energy
from repro.trace.record import Access


def oracle_bound(
    config: CNTCacheConfig,
    trace: Iterable[Access],
    preloads: Iterable[tuple[int, bytes]] = (),
) -> float:
    """Minimum achievable dynamic energy (fJ) with free per-access encoding.

    Uses the same cache geometry and the same peripheral constant as the
    real schemes, so the gap to CNT-Cache isolates the *encoding policy*
    headroom (experiment F8).
    """
    memory = MainMemory()
    for addr, payload in preloads:
        memory.poke(addr, payload)
    cache = SetAssociativeCache(
        size=config.size,
        assoc=config.assoc,
        line_size=config.line_size,
        memory=memory,
        replacement=config.replacement,
        seed=config.seed,
    )
    codec = PartitionedInvertCodec(config.line_size, config.partitions)
    model = config.energy
    peripheral = config.peripheral_fj_per_access

    total = 0.0
    for access in trace:
        consumed = 0
        for position, chunk in cache.mapper.line_parts(access.addr, access.size):
            payload = access.data[consumed : consumed + chunk]
            result = cache.access(access.is_write, position, chunk, payload)
            total += peripheral
            for event in result.events:
                if event.kind in (EventKind.DATA_READ, EventKind.DATA_WRITE):
                    line = event.line
                    assert line is not None
                    logical = bytes(line.data)
                    is_write = event.kind is EventKind.DATA_WRITE
                elif event.kind is EventKind.FILL:
                    logical = event.payload
                    is_write = True
                    total += peripheral
                else:  # WRITEBACK
                    logical = event.payload
                    is_write = False
                    total += peripheral
                total += oracle_access_energy(codec, logical, is_write, model)
            consumed += chunk
    return total
