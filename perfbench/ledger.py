"""Per-layer metrics derived from one traced pass.

Inputs are the spans :mod:`tracer` recorded, the pass's plan and
results, the engine counters and — on ``fleet-drain`` — the broker
directory's telemetry frames.  Layers that run inside broker worker
processes (workload builds, replays) are not traced on ``fleet-drain``:
the workers are separate interpreters started by the broker, so those
layer counts read 0 there and the broker is measured from outside.
"""

from __future__ import annotations

import math
from pathlib import Path

from plans import plan_counts
from tracer import self_times


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def _total(spans: list[list]) -> float:
    return math.fsum(end - start for _, _, start, end, _, _, _ in spans)


def layer_metrics(
    spans: list[list],
    plan,
    results: list,
    counters,
    broker_dir: Path | None = None,
    workers: int = 1,
    wall_offset: float = 0.0,
) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``wall_offset`` converts this process's monotonic span times to wall
    clock (``time.time() - time.monotonic()``), for comparison with the
    wall-clock stamps of telemetry frames.
    """
    named: dict[str, list[list]] = {}
    for span in spans:
        named.setdefault(span[1], []).append(span)

    def spans_of(name: str) -> list[list]:
        return named.get(name, [])

    selfs = self_times(spans)
    root_ids = {span[0] for span in spans_of("pass")}
    metrics: dict[str, float] = {}

    # workloads
    builds = spans_of("workloads.build")
    build_calls = len(spans_of("workloads.build_run"))
    metrics["workloads.builds"] = len(builds)
    metrics["workloads.build_s"] = _total(builds)
    metrics["workloads.memo_hit_ratio"] = (
        (build_calls - len(builds)) / build_calls if build_calls else 0.0
    )

    # backends / core
    replays = spans_of("backends.replay")
    replay_s = _total(replays)
    fed = sum(span[6].get("accesses", 0) for span in replays)
    metrics["backends.replays"] = len(replays)
    metrics["backends.replay_s"] = replay_s
    metrics["backends.preload_s"] = _total(spans_of("backends.preload"))
    metrics["backends.accesses_per_s"] = fed / replay_s if replay_s else 0.0

    # trace: decoded records built vs fed into replays
    lengths = {tuple(span[6]["key"]): span[6]["accesses"] for span in builds}
    built = sum(lengths.values())
    metrics["trace.accesses_built"] = built
    metrics["trace.accesses_fed"] = sum(
        span[6].get("records", 0) for span in replays
    )
    planned_fed = sum(
        lengths.get((job.workload, job.size, job.seed), 0)
        for job in plan.unique
        if job.kind == "workload"
    )
    metrics["trace.redecode_ratio"] = planned_fed / built if built else 0.0

    # cache substrate (scalar only: the array backend inlines it)
    scalar = [span for span in replays if span[6].get("backend") == "scalar"]
    access_s = math.fsum(span[6].get("cache.access.s", 0.0) for span in scalar)
    metrics["cache.access_calls"] = sum(
        span[6].get("cache.access.calls", 0) for span in scalar
    )
    metrics["cache.access_s"] = access_s
    metrics["encoding.self_s"] = math.fsum(selfs[span[0]] for span in scalar)
    for name in ("hits", "misses", "writebacks"):
        metrics[f"cache.{name}"] = sum(
            getattr(result.stats, name)
            for result in results
            if result.stats is not None
        )
    metrics.update(plan_counts(plan.requested, plan.unique))

    # side paths
    for layer in ("oracle", "l1_filter", "audit"):
        metrics[f"{layer}.calls"] = len(spans_of(layer))
        metrics[f"{layer}.busy_s"] = _total(spans_of(layer))
    records_in = sum(span[6]["records_in"] for span in spans_of("l1_filter"))
    records_out = sum(span[6]["records_out"] for span in spans_of("l1_filter"))
    metrics["l1_filter.pass_ratio"] = records_out / records_in if records_in else 0.0

    # result store
    reads = spans_of("store.read")
    writes = spans_of("store.write")
    drains = spans_of("broker.drain")
    polls = sum(span[6].get("store.read.calls", 0) for span in drains)
    hits = sum(1 for span in reads if span[6]["hit"]) + sum(
        1 for result in results if result.source == "broker"
    )
    metrics["store.reads"] = len(reads) + polls
    metrics["store.read_s"] = _total(reads) + math.fsum(
        span[6].get("store.read.s", 0.0) for span in drains
    )
    metrics["store.hit_ratio"] = hits / (len(reads) + polls) if reads or polls else 0.0
    metrics["store.writes"] = len(writes)
    metrics["store.write_s"] = _total(writes)
    metrics["store.bytes"] = sum(span[6]["bytes"] for span in writes)

    # job identity and planning
    metrics["job.fingerprint_s"] = _total(spans_of("job.describe"))
    metrics["planner.plan_s"] = _total(spans_of("planner.plan"))

    # engine: the pass's own batch (renders re-request it as memo hits)
    batches = [span for span in spans_of("engine.run_jobs") if span[4] in root_ids]
    batch_ids = {span[0] for span in batches}
    metrics["engine.run_jobs_s"] = _total(batches)
    metrics["engine.self_s"] = math.fsum(selfs[span[0]] for span in batches)
    samples = [
        result.wall_s for result in results if result.source in ("run", "broker")
    ] + [
        end - start
        for _, _, start, end, parent, _, attrs in reads
        if parent in batch_ids and attrs["hit"]
    ]
    metrics["engine.job_samples"] = len(samples)
    metrics["engine.job_p50_ms"] = 1000.0 * percentile(samples, 0.50)
    metrics["engine.job_p99_ms"] = 1000.0 * percentile(samples, 0.99)

    # render
    metrics["render.calls"] = len(spans_of("render"))
    metrics["render.busy_s"] = _total(spans_of("render")) + _total(
        spans_of("render.format")
    )

    metrics.update(
        broker_metrics(
            broker_dir,
            drains,
            results,
            counters,
            workers,
            wall_offset,
        )
    )
    return metrics


def broker_metrics(
    broker_dir: Path | None,
    drains: list[list],
    results: list,
    counters,
    workers: int,
    wall_offset: float,
) -> dict[str, float]:
    """Broker metrics, read from outside: telemetry frames and counters."""
    names = (
        "broker.claims",
        "broker.reclaims",
        "broker.workers_lost",
        "broker.executions_per_job",
        "broker.claim_wait_p50_ms",
        "broker.claim_wait_p99_ms",
        "broker.shutdown_s",
        "broker.overhead_s",
    )
    if broker_dir is None or not drains:
        return dict.fromkeys(names, 0)
    from repro.obs.telemetry import read_all_frames

    frames = read_all_frames(broker_dir / "telemetry")
    lifecycle = [frame for frame in frames if frame.get("type") == "lifecycle"]

    def events(name: str, role: str) -> list[dict]:
        return [
            frame
            for frame in lifecycle
            if frame.get("event") == name and frame.get("role") == role
        ]

    publish = events("publish", "coordinator")
    drain_done = events("drain", "coordinator")
    claims = events("claim", "worker")
    finishes = events("finish", "worker")
    published = sum(int(frame.get("jobs", 0)) for frame in publish)
    waits = (
        [float(frame["ts"]) - float(publish[0]["ts"]) for frame in claims]
        if publish
        else []
    )
    drain_end = drains[-1][3] + wall_offset
    executed = [result.wall_s for result in results if result.source == "broker"]
    return {
        "broker.claims": len(claims),
        "broker.reclaims": counters.reclaims,
        "broker.workers_lost": counters.workers_lost,
        "broker.executions_per_job": len(finishes) / published if published else 0.0,
        "broker.claim_wait_p50_ms": 1000.0 * percentile(waits, 0.50),
        "broker.claim_wait_p99_ms": 1000.0 * percentile(waits, 0.99),
        "broker.shutdown_s": (
            drain_end - float(drain_done[-1]["ts"]) if drain_done else 0.0
        ),
        "broker.overhead_s": _total(drains) - math.fsum(executed) / workers,
    }
