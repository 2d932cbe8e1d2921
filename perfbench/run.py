"""The layer-ledger benchmark: one command, four workloads, closed loop.

Run from the root of a checkout::

    python3 perfbench/run.py --workload all-cold --seed 7 --seconds 20 --trace 0

One client (this process) submits a plan and waits for every result;
each pass runs in a fresh interpreter (see ``passrun.py``).  Passes are
started until ``--seconds`` have elapsed (at least one).  With
``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones, which report the per-layer metrics and the
tracing overhead.

Outputs are checked on every run: against the committed reference
digests (``reference.json``, produced with the scalar spec) when the
seed has them, against a seed-drawn sample of jobs re-executed here with
the scalar spec, and across every pass of the run.  Each mismatch counts
as a failure.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1
when any check failed, 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from plans import (  # noqa: E402
    PAPER_SAVING,
    WORKLOADS,
    experiment_ids,
    job_key,
    result_digest,
    union_jobs,
)

#: Wall-clock budget of a whole run; a pass still running when only
#: :data:`CHECK_RESERVE_S` of it is left is killed and counted failed.
RUN_BUDGET_S = 170.0
CHECK_RESERVE_S = 20.0

#: Set-up-only passes per run (imports, fingerprint, plan, then exit):
#: extra ``setup_s`` samples, so its median does not rest on the few
#: full passes of the longer workloads.
SETUP_SAMPLES = 4

#: Jobs re-executed with the scalar spec per run (plus one of every
#: other job kind the plan holds).
SAMPLE_JOBS = 12


class PassFailed(RuntimeError):
    """A pass exited non-zero or timed out."""


class Run:
    """One benchmark run: set-up, passes, and what they reported."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool) -> None:
        self.root = root
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.run_id = f"{workload}-s{seed}-{os.getpid()}"
        self.work = root / ".perfbench" / "work" / self.run_id
        self.spans_path = root / ".perfbench" / "spans" / f"{self.run_id}.jsonl"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["TMPDIR"] = str(self.work / "tmp")
        self.deadline = time.monotonic() + RUN_BUDGET_S - CHECK_RESERVE_S
        self.passes_run = 0
        #: The all-warm cache pre-fill (a full pass, not measured).
        self.prefill: dict | None = None
        self.setups: list[dict] = []
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.errors: list[str] = []

    def spawn(self, traced: bool = False, setup_only: bool = False) -> dict:
        """Run one pass in a fresh interpreter; returns its report."""
        self.passes_run += 1
        pass_dir = self.work / f"pass-{self.passes_run}"
        pass_dir.mkdir(parents=True)
        store = (
            self.work / "warm-store"
            if self.spec.cache == "prefilled"
            else pass_dir / "store"
        )
        config = {
            "workload": self.spec.name,
            "seed": self.seed,
            "store": str(store),
            "trace": traced,
            "setup_only": setup_only,
            "run_id": f"{self.run_id}-p{self.passes_run}",
            "out": str(pass_dir / "report.json"),
            "spans_out": str(pass_dir / "spans.jsonl"),
        }
        config_path = pass_dir / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        command = [sys.executable, str(BENCH_DIR / "passrun.py"), str(config_path)]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            command + [repr(t_spawn)],
            env=self.env,
            cwd=self.root,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=max(1.0, self.deadline - t_spawn))
        except BaseException as error:
            # Timed out, or this run is being stopped: the pass and any
            # broker workers it spawned share a session; end them all.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(error, subprocess.TimeoutExpired):
                raise PassFailed("pass killed at the run's time budget") from None
            raise
        if proc.returncode != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
            raise PassFailed(
                f"pass exited with status {proc.returncode}: " + " | ".join(tail)
            )
        report = json.loads(Path(config["out"]).read_text(encoding="utf-8"))
        if traced:
            with open(self.spans_path, "a", encoding="utf-8") as spans:
                spans.write(Path(config["spans_out"]).read_text(encoding="utf-8"))
        shutil.rmtree(pass_dir)
        return report

    def execute(self, seconds: float) -> None:
        """Set up, then run passes until ``seconds`` have elapsed.

        With tracing, untraced passes fill the first half of the time and
        traced passes the second; each kind runs at least once.
        """
        (self.work / "tmp").mkdir(parents=True)
        self.spans_path.parent.mkdir(parents=True, exist_ok=True)
        try:
            if self.spec.cache == "prefilled":
                self.prefill = self.spawn()
            self.setups = [self.spawn(setup_only=True) for _ in range(SETUP_SAMPLES)]
            start = time.monotonic()
            untraced_budget = seconds / 2 if self.trace else seconds
            while not self.plain or time.monotonic() - start < untraced_budget:
                self.plain.append(self.spawn())
            while self.trace and (
                not self.traced or time.monotonic() - start < seconds
            ):
                self.traced.append(self.spawn(traced=True))
        except PassFailed as error:
            self.errors.append(str(error))


# --------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------- #
def compare(expected: dict, actual: dict) -> list[str]:
    """Mismatches between two outputs digests (one entry per failure)."""
    problems = []
    for key, digest in expected["jobs"].items():
        if actual["jobs"].get(key) != digest:
            problems.append(f"job {key} result differs")
    for name in ("renders_sha256", "sim_energy_fj", "cnt_saving"):
        if actual[name] != expected[name]:
            problems.append(f"{name} differs: {actual[name]!r} != {expected[name]!r}")
    return problems


def sample_check(spec, seed: int, digests: dict) -> tuple[int, list[str]]:
    """Re-execute a seed-drawn sample of jobs with the scalar spec here.

    Returns (jobs checked, mismatches).
    """
    from repro.exec.planner import plan_jobs
    from repro.exec.worker import execute_job

    unique = plan_jobs(union_jobs(experiment_ids(spec.plan), seed)).unique
    rng = random.Random(seed)
    sample = rng.sample(unique, min(SAMPLE_JOBS, len(unique)))
    for kind in sorted({job.kind for job in unique} - {job.kind for job in sample}):
        sample.append(rng.choice([job for job in unique if job.kind == kind]))
    problems = []
    for job in sample:
        result = execute_job(replace(job, backend="scalar"))
        if digests.get(job_key(job)) != result_digest(result):
            problems.append(f"sample job {job.label} differs from the scalar spec")
    return len(sample), problems


def check(run: Run) -> tuple[int, list[str]]:
    """Every output check of a run: (checks attempted, failures)."""
    passes = run.plain + run.traced
    problems: list[str] = []
    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    expected = reference.get(str(run.seed), {}).get(run.spec.plan)
    if expected is None:
        # No committed digests for this seed: every pass must agree with
        # the first result this run produced (the pre-fill on all-warm).
        expected = (run.prefill or passes[0])["outputs"]
    elif run.prefill is not None:
        problems += compare(expected, run.prefill["outputs"])
    for report in passes:
        problems += compare(expected, report["outputs"])
        if report["failed_jobs"]:
            problems.append(f"{report['failed_jobs']} job(s) failed in a pass")
    checked, sampled = sample_check(run.spec, run.seed, passes[0]["outputs"]["jobs"])
    return checked, problems + sampled


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
def end_to_end(setups: list[dict], passes: list[dict]) -> dict[str, float]:
    """End-to-end metrics over untraced passes (medians; peak for memory)."""
    first = passes[0]["outputs"]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "sim_accesses_per_s": statistics.median(
            p["sim_accesses"] / p["wall_s"] for p in passes
        ),
        "jobs_per_s": statistics.median(p["unique"] / p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in setups + passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "sim_energy_fj": first["sim_energy_fj"],
        "cnt_saving": first["cnt_saving"],
    }


def per_layer(plain: list[dict], traced: list[dict], failed_ratio: float) -> dict:
    """Per-layer metrics: medians over traced passes, plus run-level ones."""
    names = traced[0]["layers"]
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced) for name in names
    }
    metrics["obs.tracing_overhead_ratio"] = statistics.median(
        p["wall_s"] for p in traced
    ) / statistics.median(p["wall_s"] for p in plain)
    metrics["run.passes"] = len(plain)
    metrics["failed_ratio"] = failed_ratio
    return metrics


def units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    declared = json.loads(
        (BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    return {
        entry["name"]: entry["unit"]
        for entry in declared["end_to_end"] + declared["per_layer"]
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = BENCH_DIR.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {root / 'src'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    # A stopped run must stop its pass too (see Run.spawn).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(root, args.workload, args.seed, bool(args.trace))
    try:
        run.execute(args.seconds)
        if not run.plain or (run.trace and not run.traced):
            for error in run.errors:
                print(f"perfbench: {error}", file=sys.stderr)
            return 1
        checked, problems = check(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    plain, traced = run.plain, run.traced
    attempted = sum(p["unique"] for p in plain + traced) + checked
    failed = len(problems) + len(run.errors)
    unit_of = units()
    e2e = end_to_end(run.setups, plain)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} untraced"
          f" + {len(traced)} traced")
    print("  pass wall_s: " + " ".join(f"{p['wall_s']:.3f}" for p in plain))
    for name, value in e2e.items():
        print(f"  {name:<24} {value:>16.6g} {unit_of[name]}")
    print(f"  {'paper saving':<24} {PAPER_SAVING:>16.6g} ratio (quoted, not compared)")
    print(f"  {'failed_ratio':<24} {failed / attempted:>16.6g} ratio")
    for problem in (run.errors + problems)[:20]:
        print(f"  MISMATCH {problem}")
    if run.trace:
        metrics = per_layer(plain, traced, failed / attempted)
        for name, value in metrics.items():
            print(f"  {name:<28} {value:>16.6g} {unit_of[name]}")
        print(f"  spans written to {run.spans_path.relative_to(root)}")
    else:
        metrics = e2e
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
