"""Multi-level extension: CNT-Cache as an L2 behind a conventional L1.

The paper evaluates the L1 D-Cache; a natural extension question is
whether adaptive encoding still pays one level down, where the access
stream is the L1's *miss* stream — line-granular, colder, and with a very
different read/write mix (refills vs dirty writebacks).

:func:`l1_filtered_stream` produces exactly that stream by replaying a
workload trace through a substrate L1: every L1 refill becomes a
line-granular read and every dirty writeback a line-granular write, in
program order.  The stream then drives any :class:`~repro.core.CNTCache`
configuration as the L2.

Experiments declare this as an ``l2`` :class:`repro.exec.SimJob` (see
:func:`repro.exec.l2_job`, which carries the L1 geometry in the job
params); the exec worker memoizes the filtered stream per process, so a
scheme comparison replays each workload's L1 once, not per scheme.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cache.cache import SetAssociativeCache
from repro.cache.memory import MainMemory
from repro.core.config import CNTCacheConfig
from repro.trace.record import Access


def l1_filtered_stream(
    trace: Iterable[Access],
    preloads: Iterable[tuple[int, bytes]] = (),
    l1_size: int = 8 * 1024,
    l1_assoc: int = 2,
    line_size: int = 64,
) -> list[Access]:
    """The L2-visible access stream of a workload behind a small L1.

    Returns line-granular accesses: a read per L1 refill (carrying the
    true line contents at that moment) and a write per dirty writeback
    (carrying the written-back line).
    """
    memory = MainMemory()
    for addr, payload in preloads:
        memory.poke(addr, payload)
    l1 = SetAssociativeCache(
        size=l1_size, assoc=l1_assoc, line_size=line_size, memory=memory
    )
    stream: list[Access] = []
    for access in trace:
        consumed = 0
        for position, chunk in l1.mapper.line_parts(access.addr, access.size):
            payload = access.data[consumed : consumed + chunk]
            result = l1.access(access.is_write, position, chunk, payload)
            if result.victim is not None and result.victim.dirty:
                victim = result.victim
                victim_addr = l1.mapper.rebuild(victim.tag, victim.set_index)
                stream.append(Access.write(victim_addr, victim.data))
            if not result.hit:
                line_addr = l1.mapper.line_address(position)
                line_data = memory.peek(line_addr, line_size)
                stream.append(Access.read(line_addr, line_data))
            consumed += chunk
    return stream


def default_l2_config(scheme: str = "cnt") -> CNTCacheConfig:
    """A 256 KiB, 8-way L2 sharing the paper's algorithm parameters."""
    return CNTCacheConfig(
        size=256 * 1024,
        assoc=8,
        line_size=64,
        scheme=scheme,
    )
