"""Regenerate ``reference.json``: output digests under the scalar spec.

Run from the root of a checkout (about 40 s per seed)::

    PYTHONPATH=src python3 perfbench/make_reference.py

For each seed in :data:`plans.REFERENCE_SEEDS` it resolves the union of
every experiment's jobs with the scalar backend (the executable spec),
renders all experiments, and records for the ``all`` plan and the
``sweep`` plan: the SHA-256 of the renders, a digest of every job's
canonical result (``EnergyStats`` included), ``sim_energy_fj`` and
``cnt_saving``.  The benchmark compares every run against these.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from plans import (  # noqa: E402
    REFERENCE_SEEDS,
    SIZE,
    experiment_ids,
    outputs,
    union_jobs,
)


def reference_for(seed: int) -> dict:
    """Both plans' outputs for one seed, resolved by one scalar engine."""
    from repro.exec import ExecEngine
    from repro.harness.experiments import run_experiment

    engine = ExecEngine(backend="scalar")
    found = {}
    for plan in ("all", "sweep"):
        ids = experiment_ids(plan)
        results = engine.run_jobs(union_jobs(ids, seed))
        unique = list({result.job.fingerprint: result for result in results}.values())
        renders = [
            run_experiment(experiment_id, size=SIZE, seed=seed, engine=engine).render()
            for experiment_id in ids
        ]
        found[plan] = outputs(unique, renders, seed)
    return found


def main() -> int:
    reference = {str(seed): reference_for(seed) for seed in REFERENCE_SEEDS}
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} for seeds {', '.join(reference)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
