"""Workload abstraction and result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.obs import probe
from repro.trace.record import Access
from repro.trace.stats import TraceStats, analyze_trace
from repro.workloads.mem import TracedMemory

#: Supported problem sizes.  ``tiny`` keeps unit tests fast, ``small`` suits
#: pytest-benchmark, ``default`` is what the experiment harness runs.
SIZES = ("tiny", "small", "default")

#: Other spellings accepted wherever a size is (CLI and :mod:`repro.api`):
#: ``smoke`` is the CI name for the smallest problem size.
SIZE_ALIASES = {"smoke": "tiny"}


def resolve_size(size: str) -> str:
    """The size in :data:`SIZES` that ``size`` names (aliases resolved).

    Unknown names pass through unchanged, so the caller that validates
    sizes still reports them.
    """
    return SIZE_ALIASES.get(size, size)


class WorkloadError(ValueError):
    """Raised on invalid workload construction or use."""


@dataclass
class WorkloadRun:
    """The output of one workload execution."""

    name: str
    size: str
    seed: int
    trace: list[Access]
    #: Kernel-specific integer checksum for functional verification.
    checksum: int
    #: Initial memory image (program inputs / loader tables): poke these
    #: into the simulated main memory before replaying the trace so cache
    #: fills fetch true line contents.
    preloads: list[tuple[int, bytes]] = field(default_factory=list)
    _stats: TraceStats | None = field(default=None, repr=False)

    @property
    def stats(self) -> TraceStats:
        """Lazy trace characterisation."""
        if self._stats is None:
            self._stats = analyze_trace(self.trace)
        return self._stats


@dataclass(frozen=True)
class Workload:
    """A named, sized, seeded trace-producing kernel.

    ``kernel(mem, size, seed) -> checksum`` runs the program against a
    :class:`TracedMemory` and returns a checksum of its output.
    """

    name: str
    description: str
    kernel: Callable[[TracedMemory, str, int], int]

    def build(self, size: str = "small", seed: int = 0) -> WorkloadRun:
        """Execute the kernel and capture its valued trace."""
        if size not in SIZES:
            raise WorkloadError(
                f"unknown size {size!r}; known sizes: {SIZES}"
            )
        mem = TracedMemory()
        with probe.timer(f"workload.{self.name}.build"):
            checksum = self.kernel(mem, size, seed)
        if probe.ENABLED:
            probe.event(
                "workload.build",
                workload=self.name,
                size=size,
                seed=seed,
                accesses=len(mem.trace),
            )
        return WorkloadRun(
            name=self.name,
            size=size,
            seed=seed,
            trace=mem.trace,
            checksum=checksum,
            preloads=mem.preloads,
        )


def get_workload(name: str) -> Workload:
    """Look a workload up by name."""
    from repro.workloads.registry import WORKLOADS

    try:
        return WORKLOADS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        ) from None


def workload_names() -> list[str]:
    """All registered workload names, sorted."""
    from repro.workloads.registry import WORKLOADS

    return sorted(WORKLOADS)
