"""Workload definitions, plan construction and output digests.

Shared by the benchmark command (``run.py``), the per-pass child (``passrun.py``)
and the reference generator (``make_reference.py``), so that every side
digests outputs in exactly the same way.  Nothing here imports ``repro``
at module level: ``run.py`` must be able to fail cleanly in a directory
that holds only the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

#: Every workload runs at the CLI's ``smoke`` size.
SIZE = "tiny"

#: The default CLI seed and the held-out seed the committed reference
#: digests were produced for (see ``make_reference.py``).
REFERENCE_SEEDS = (7, 2020)

#: The paper's headline average saving, quoted beside ``cnt_saving``.
PAPER_SAVING = 0.222

#: Experiments of the scalar sweep workload (W, K and dT sweeps).
SWEEP_IDS = ("f4", "f5", "f6")


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: what a pass runs and how."""

    name: str
    #: ``"all"`` (every experiment) or ``"sweep"`` (:data:`SWEEP_IDS`).
    plan: str
    backend: str
    #: ``"fresh"`` (empty result cache per pass), ``"prefilled"`` (a
    #: cache filled once during set-up) or ``"broker"`` (a fresh broker
    #: directory drained by spawned local workers).
    cache: str
    workers: int = 1


#: The benchmark's workloads; why each one exists is in NOTES.md and
#: BENCHMARK.json.
WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("all-cold", plan="all", backend="array", cache="fresh"),
        WorkloadSpec("all-warm", plan="all", backend="array", cache="prefilled"),
        WorkloadSpec("sweep-scalar", plan="sweep", backend="scalar", cache="fresh"),
        WorkloadSpec(
            "fleet-drain", plan="all", backend="array", cache="broker", workers=2
        ),
    )
}


def experiment_ids(plan: str) -> list[str]:
    """The experiments a plan renders, in ``cntcache all`` order."""
    if plan == "sweep":
        return list(SWEEP_IDS)
    from repro.harness.experiments import EXPERIMENTS

    return sorted(EXPERIMENTS)


def union_jobs(ids: list[str], seed: int) -> list:
    """Every job the experiments declare, duplicates included (as the CLI)."""
    from repro.harness.experiments import EXPERIMENT_PLANS

    union = []
    for experiment_id in ids:
        plan = EXPERIMENT_PLANS.get(experiment_id)
        if plan is not None:
            union.extend(plan(SIZE, seed).values())
    return union


def job_key(job) -> str:
    """Backend- and code-independent identity of a job.

    The engine fingerprint covers the backend and the simulation sources,
    so it changes whenever ``src/`` does; results must not.  This key
    covers only what the job simulates.
    """
    description = job.describe()
    identity = {
        name: description[name]
        for name in ("kind", "workload", "size", "seed", "config", "params")
    }
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def result_digest(result) -> str:
    """Short digest of one result's canonical measurement."""
    return hashlib.sha256(result.canonical().encode()).hexdigest()[:16]


def renders_digest(renders: list[str]) -> str:
    """SHA-256 of the rendered experiments, in order."""
    digest = hashlib.sha256()
    for text in renders:
        digest.update(text.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def default_saving(by_key: dict, seed: int) -> float:
    """Mean adaptive (``cnt``) saving of the default config over the suite.

    This is F3's ``cnt`` average; the sweep plans contain the same jobs
    (their default sweep point), so every workload reports it.
    """
    from repro.core.config import CNTCacheConfig
    from repro.exec import workload_job
    from repro.workloads.program import workload_names

    names = workload_names()
    total = 0.0
    for name in names:
        measured = by_key[job_key(workload_job(CNTCacheConfig(), name, SIZE, seed))]
        reference = by_key[
            job_key(
                workload_job(CNTCacheConfig(scheme="baseline"), name, SIZE, seed)
            )
        ]
        total += measured.stats.savings_vs(reference.stats)
    return total / len(names)


def outputs(results: list, renders: list[str], seed: int) -> dict:
    """The checked outputs of one resolved plan.

    ``results`` are the engine's results for the plan's unique jobs.
    """
    by_key = {job_key(result.job): result for result in results}
    return {
        "renders_sha256": renders_digest(renders),
        "jobs": {key: result_digest(result) for key, result in by_key.items()},
        "sim_energy_fj": math.fsum(
            result.stats.total_fj for result in results if result.stats is not None
        ),
        "cnt_saving": default_saving(by_key, seed),
    }


def substrate_key(job) -> tuple:
    """The substrate stream a workload replay walks.

    (workload, size, seed, cache size, assoc, line, replacement, write
    policy, access granularity, config seed): the fields the substrate
    reads; the scheme and its knobs only consume the substrate's events.
    """
    config = job.config
    return (
        job.workload,
        job.size,
        job.seed,
        config.size,
        config.assoc,
        config.line_size,
        config.replacement,
        config.write_policy,
        config.access_granularity,
        config.seed,
    )


def geometry_key(job) -> tuple:
    """A coarser stream key: (workload, cache size, assoc, line) only."""
    config = job.config
    return (job.workload, config.size, config.assoc, config.line_size)


def plan_counts(requested: list, unique: list) -> dict[str, float]:
    """Counts the plan fixes ahead of any run (exact, machine-independent)."""
    replays = [job for job in unique if job.kind == "workload"]
    streams = len({substrate_key(job) for job in replays})
    return {
        "planner.requested": len(requested),
        "planner.unique": len(unique),
        "planner.dedup_ratio": (len(requested) - len(unique)) / len(requested),
        "cache.substrate_streams": streams,
        "cache.geometry_streams": len({geometry_key(job) for job in replays}),
        "cache.replays_per_stream": len(replays) / streams if streams else 0.0,
    }
