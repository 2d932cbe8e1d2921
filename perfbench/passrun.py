"""One benchmark pass, run in a fresh interpreter.

Usage (``run.py`` spawns this; it is not meant to be run by hand)::

    python3 perfbench/passrun.py SPEC.json SPAWN_TIME

``SPAWN_TIME`` is ``run.py``'s ``time.monotonic()`` just before it
started this process (CLOCK_MONOTONIC is system-wide on Linux, so the
two clocks agree).  The pass does what ``cntcache all`` does — imports,
plans the union of the experiments' jobs, resolves them through an
:class:`~repro.exec.ExecEngine` and renders every experiment — and then,
outside the timed region, digests its outputs and writes a JSON report
to ``spec["out"]``.

A fresh interpreter per pass is deliberate: ``exec.worker``'s workload
and stream memos, the array backend's threshold/energy tables and the
``code_fingerprint`` cache all live for the life of a process, so a
second pass in a reused interpreter would skip work a user's
``cntcache all`` pays for.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from plans import SIZE, WORKLOADS, experiment_ids, outputs, union_jobs  # noqa: E402


class ChildPeaks(threading.Thread):
    """Samples the peak RSS (``VmHWM``) of this process's children.

    The broker spawns its workers with ``subprocess``; their peak memory
    is read from ``/proc`` while they live.  ``VmHWM`` only grows, so the
    last sample of each worker is at most one interval short of its peak.
    """

    def __init__(self, interval_s: float = 0.1) -> None:
        super().__init__(daemon=True)
        self.interval_s = interval_s
        self.peaks_kb: dict[int, int] = {}
        self._stop_event = threading.Event()

    def run(self) -> None:
        me = os.getpid()
        while not self._stop_event.wait(self.interval_s):
            for entry in os.listdir("/proc"):
                if not entry.isdigit():
                    continue
                try:
                    with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                        fields = handle.read().rsplit(")", 1)[1].split()
                    if int(fields[1]) != me:
                        continue
                    with open(f"/proc/{entry}/status", encoding="ascii") as handle:
                        for line in handle:
                            if line.startswith("VmHWM:"):
                                peak = int(line.split()[1])
                                pid = int(entry)
                                self.peaks_kb[pid] = max(
                                    self.peaks_kb.get(pid, 0), peak
                                )
                except (OSError, IndexError, ValueError):
                    continue  # the process exited between listing and reading

    def stop(self) -> int:
        """Stop sampling; returns the summed peaks of every child, in KiB."""
        self._stop_event.set()
        self.join(timeout=5.0)
        return sum(self.peaks_kb.values())


def make_engine(spec, store: Path):
    """The engine a pass resolves its plan with.

    ``store`` is the result cache directory, or the broker directory on
    ``fleet-drain`` (whose cache lives inside it).
    """
    from repro.exec import ExecEngine
    from repro.exec.broker import BrokerConfig

    if spec.cache == "broker":
        return ExecEngine(
            jobs=spec.workers, backend=spec.backend, broker=BrokerConfig(root=store)
        )
    return ExecEngine(backend=spec.backend, cache_dir=store)


def run_pass(config: dict, t_spawn: float) -> dict:
    """Run one pass; returns its report (timings, outputs, layers)."""
    spec = WORKLOADS[config["workload"]]
    seed = config["seed"]
    store = Path(config["store"])
    tracer = None
    if config["trace"]:
        from tracer import Tracer, install_layers

        tracer = Tracer(config["run_id"])
        root_span = tracer.open_at("pass", t_spawn)
        install_layers(tracer)

    from repro.exec.planner import plan_jobs
    from repro.harness.experiments import run_experiment

    ids = experiment_ids(spec.plan)
    union = union_jobs(ids, seed)
    plan = plan_jobs(union)
    engine = make_engine(spec, store)
    if config["setup_only"]:
        return {"setup_s": time.monotonic() - t_spawn}
    peaks = ChildPeaks() if spec.cache == "broker" else None
    if peaks is not None:
        peaks.start()
    t_ready = time.monotonic()
    results = engine.run_jobs(union)
    renders = [
        run_experiment(experiment_id, size=SIZE, seed=seed, engine=engine).render()
        for experiment_id in ids
    ]
    engine.close_telemetry()
    t_end = time.monotonic()
    children_kb = peaks.stop() if peaks is not None else 0
    if tracer is not None:
        tracer.close(root_span)
        tracer.uninstall()

    unique = list({result.job.fingerprint: result for result in results}.values())
    report = {
        "wall_s": t_end - t_spawn,
        "setup_s": t_ready - t_spawn,
        "requested": len(plan.requested),
        "unique": len(plan.unique),
        "failed_jobs": sum(1 for result in unique if not result.ok),
        "sim_accesses": sum(
            result.accesses for result in unique if result.job.kind != "trace"
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kb
        )
        / 1024.0,
        "outputs": outputs(unique, renders, seed),
    }
    if tracer is not None:
        from ledger import layer_metrics

        tracer.write(config["spans_out"])
        report["layers"] = layer_metrics(
            tracer.spans,
            plan=plan,
            results=unique,
            counters=engine.counters,
            broker_dir=store if spec.cache == "broker" else None,
            workers=spec.workers,
            wall_offset=time.time() - time.monotonic(),
        )
    return report


def main(argv: list[str]) -> int:
    config = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    report = run_pass(config, float(argv[2]))
    Path(config["out"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
