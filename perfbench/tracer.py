"""Outside-in layer tracing: spans recorded around calls into ``repro``.

:class:`Tracer` wraps public functions of each layer (module functions
and class methods) for the duration of one traced pass.  Nothing under
``src/`` is edited: the wrappers are installed by replacing attributes
on the imported modules and classes, and every wrapped call records one
span — name, start, end, parent, run id and a few attributes — kept in
memory and written out when the pass ends.

Per-access calls (the scalar substrate's ``SetAssociativeCache.access``)
are far too many to keep as spans.  They are *aggregated*: a call
count and busy time per enclosing span, which the self-time derivation
subtracts like a child span.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

class Tracer:
    """In-memory span recorder for one pass (single-threaded use)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Closed spans: ``[id, name, start, end, parent, run, attrs]``.
        self.spans: list[list] = []
        #: Open spans, innermost last: ``(id, name, attrs)``.
        self._stack: list[tuple[int, str, dict]] = []
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def open(self, name: str) -> int:
        """Open a span now; returns its id (close with :meth:`close`)."""
        return self.open_at(name, time.monotonic())

    def open_at(self, name: str, start: float) -> int:
        """Open a span that started at ``start`` (``time.monotonic()``)."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        record = [span_id, name, start, None, parent, self.run_id, {}]
        self.spans.append(record)
        self._stack.append((span_id, name, record[6]))
        return span_id

    def close(self, span_id: int) -> None:
        end = time.monotonic()
        open_id, _, _ = self._stack.pop()
        if open_id != span_id:
            raise RuntimeError(f"span {span_id} closed out of order")
        self.spans[span_id - 1][3] = end

    @property
    def innermost(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1][1] if self._stack else None

    def aggregate(self, key: str, seconds: float) -> None:
        """Charge one aggregated call to the innermost open span."""
        attrs = self._stack[-1][2]
        attrs[f"{key}.calls"] = attrs.get(f"{key}.calls", 0) + 1
        attrs[f"{key}.s"] = attrs.get(f"{key}.s", 0.0) + seconds

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def wrap(
        self, owner, attr: str, name: str, annotate=None, aggregate_in=None
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``annotate(attrs, args, kwargs, result)`` may add attributes to
        the span after the call returns.  Calls made directly inside a
        span named ``aggregate_in`` are aggregated instead (polling loops).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        tracer = self
        clock = time.monotonic

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if aggregate_in is not None and tracer.innermost == aggregate_in:
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.aggregate(name, clock() - start)
            span_id = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span_id)
            if annotate is not None:
                annotate(tracer.spans[span_id - 1][6], args, kwargs, result)
            return result

        self._install(owner, attr, original, wrapper)

    def wrap_aggregate(self, owner, attr: str, key: str, within: str) -> None:
        """Count/time calls of ``owner.attr`` made directly inside ``within``."""
        original = owner.__dict__[attr]
        tracer = self
        clock = time.monotonic

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.innermost != within:
                return original(*args, **kwargs)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.aggregate(key, clock() - start)

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped attribute back (reverse install order)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def write(self, path: str | Path) -> None:
        """Write every closed span as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                if record[3] is not None:
                    handle.write(json.dumps(record) + "\n")


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time of every span: its duration minus child-span time.

    Aggregated calls charged to a span (``<key>.s`` attributes) count as
    child time too.
    """
    child: dict[int, float] = {}
    for span_id, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    result = {}
    for span_id, _, start, end, _, _, attrs in spans:
        aggregated = sum(
            value for key, value in attrs.items() if key.endswith(".s")
        )
        result[span_id] = (end - start) - child.get(span_id, 0.0) - aggregated
    return result


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the ledger measures."""
    import repro.analysis.accuracy as accuracy
    import repro.exec.broker as broker
    import repro.exec.engine as engine
    import repro.exec.planner as planner
    import repro.exec.worker as worker
    import repro.harness.experiments as experiments
    import repro.harness.multilevel as multilevel
    import repro.harness.oracle as oracle
    from repro.backends.array import ArrayCNTCache
    from repro.cache.cache import SetAssociativeCache
    from repro.core.cntcache import CNTCache
    from repro.exec.job import SimJob
    from repro.exec.store import ResultStore
    from repro.workloads.program import Workload

    def built(attrs, args, kwargs, run):
        attrs["accesses"] = len(run.trace)
        attrs["key"] = [run.name, run.size, run.seed]

    def fed(backend):
        def annotate(attrs, args, kwargs, stats):
            trace = args[1] if len(args) > 1 else kwargs.get("trace")
            attrs["backend"] = backend
            attrs["accesses"] = stats.accesses
            if hasattr(trace, "__len__"):
                attrs["records"] = len(trace)

        return annotate

    def filtered(attrs, args, kwargs, stream):
        trace = args[0] if args else kwargs["trace"]
        attrs["records_in"] = len(trace)
        attrs["records_out"] = len(stream)

    def read(attrs, args, kwargs, result):
        attrs["hit"] = result is not None

    def wrote(attrs, args, kwargs, result):
        store, job = args[0], args[1]
        try:
            attrs["bytes"] = store.path_for(job.fingerprint).stat().st_size
        except OSError:
            attrs["bytes"] = 0

    tracer.wrap(Workload, "build", "workloads.build", built)
    tracer.wrap(worker, "build_run", "workloads.build_run")
    tracer.wrap(CNTCache, "run", "backends.replay", fed("scalar"))
    tracer.wrap(ArrayCNTCache, "run", "backends.replay", fed("array"))
    tracer.wrap(CNTCache, "preload_all", "backends.preload")
    tracer.wrap(ArrayCNTCache, "preload_all", "backends.preload")
    tracer.wrap_aggregate(
        SetAssociativeCache, "access", "cache.access", within="backends.replay"
    )
    tracer.wrap(oracle, "oracle_bound", "oracle")
    tracer.wrap(multilevel, "l1_filtered_stream", "l1_filter", filtered)
    tracer.wrap(accuracy, "audit_predictions", "audit")
    # The broker coordinator polls the store for every unresolved job.
    tracer.wrap(ResultStore, "read", "store.read", read, aggregate_in="broker.drain")
    tracer.wrap(ResultStore, "write", "store.write", wrote)
    tracer.wrap(SimJob, "describe", "job.describe")
    # The engine binds plan_jobs at import time: wrap both names.
    tracer.wrap(planner, "plan_jobs", "planner.plan")
    tracer.wrap(engine, "plan_jobs", "planner.plan")
    tracer.wrap(engine.ExecEngine, "run_jobs", "engine.run_jobs")
    tracer.wrap(broker, "drain", "broker.drain")
    tracer.wrap(experiments, "run_experiment", "render")
    tracer.wrap(experiments.ExperimentResult, "render", "render.format")
