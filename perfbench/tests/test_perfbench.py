"""Tests of the benchmark itself: manifest, inputs, spans, checks."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from ledger import layer_metrics, percentile
from plans import (
    REFERENCE_SEEDS,
    SIZE,
    WORKLOADS,
    experiment_ids,
    job_key,
    plan_counts,
    union_jobs,
)
from tracer import Tracer, install_layers, self_times

BENCH_DIR = Path(__file__).resolve().parents[1]
MANIFEST = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Per-layer metrics run.py adds to the ledger's (run-level ones).
RUN_LEVEL = {"obs.tracing_overhead_ratio", "run.passes", "failed_ratio"}


def _plan(ids, seed=7):
    from repro.exec.planner import plan_jobs

    return plan_jobs(union_jobs(ids, seed))


# --------------------------------------------------------------------- #
# manifest
# --------------------------------------------------------------------- #
def test_manifest_shape():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= MANIFEST["run_seconds"] <= 60
    for path in MANIFEST["paths"]:
        assert (BENCH_DIR.parent / path).is_dir()


def test_metric_names_and_units_valid():
    entries = MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    for entry in entries:
        assert NAME.match(entry["name"]), entry
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    for entry in MANIFEST["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in MANIFEST["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in MANIFEST["end_to_end"])


def test_run_reports_exactly_the_declared_end_to_end_metrics():
    outputs = {"sim_energy_fj": 1.0, "cnt_saving": 0.2}
    report = {
        "wall_s": 2.0,
        "setup_s": 0.5,
        "sim_accesses": 10,
        "unique": 4,
        "peak_rss_mb": 30.0,
        "outputs": outputs,
    }
    metrics = run.end_to_end([{"setup_s": 0.25}], [report])
    assert set(metrics) == {e["name"] for e in MANIFEST["end_to_end"]}
    assert metrics["setup_s"] == 0.375
    assert metrics["jobs_per_s"] == 2.0


def test_ledger_reports_exactly_the_declared_per_layer_metrics():
    from repro.exec import EngineCounters

    plan = _plan(["f3"])
    metrics = layer_metrics(
        [[1, "pass", 0.0, 1.0, None, "r", {}]], plan, [], EngineCounters()
    )
    declared = {e["name"] for e in MANIFEST["per_layer"]}
    assert set(metrics) | RUN_LEVEL == declared
    assert not set(metrics) & RUN_LEVEL


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
def test_same_seed_gives_same_inputs():
    keys = [job_key(job) for job in union_jobs(["f3", "t5"], 7)]
    assert keys == [job_key(job) for job in union_jobs(["f3", "t5"], 7)]


def test_seed_changes_inputs():
    from repro.workloads.program import get_workload, workload_names

    first = {job_key(job) for job in union_jobs(["f3", "t5"], 7)}
    second = {job_key(job) for job in union_jobs(["f3", "t5"], 8)}
    assert not first & second
    workload = get_workload(workload_names()[0])
    assert workload.build(SIZE, seed=7).trace != workload.build(SIZE, seed=8).trace


def test_counts_named_ahead_of_time():
    everything = _plan(experiment_ids("all"))
    counts = plan_counts(everything.requested, everything.unique)
    assert counts["planner.requested"] == 1911
    assert counts["planner.unique"] == 1054
    assert counts["cache.substrate_streams"] == 195
    assert counts["cache.geometry_streams"] == 75
    assert counts["cache.replays_per_stream"] == pytest.approx(979 / 195)
    sweep = _plan(experiment_ids("sweep"))
    counts = plan_counts(sweep.requested, sweep.unique)
    assert (counts["planner.unique"], counts["cache.substrate_streams"]) == (255, 15)
    assert counts["cache.replays_per_stream"] == 17


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
def test_self_times_subtract_children_and_aggregates():
    spans = [
        [1, "pass", 0.0, 10.0, None, "r", {}],
        [2, "a", 1.0, 5.0, 1, "r", {"x.calls": 3, "x.s": 1.5}],
        [3, "b", 2.0, 3.0, 2, "r", {}],
        [4, "c", 6.0, 9.0, 1, "r", {}],
    ]
    selfs = self_times(spans)
    assert selfs == {1: 3.0, 2: 1.5, 3: 1.0, 4: 3.0}


def test_traced_run_self_times_within_wall():
    from repro.core.cntcache import CNTCache
    from repro.exec import EngineCounters, ExecEngine

    original_run = CNTCache.__dict__["run"]
    jobs = union_jobs(["f3"], 7)[:4]
    tracer = Tracer("test")
    root = tracer.open("pass")
    install_layers(tracer)
    try:
        results = ExecEngine(backend="scalar").run_jobs(jobs)
    finally:
        tracer.close(root)
        tracer.uninstall()
    assert CNTCache.__dict__["run"] is original_run
    wall = tracer.spans[0][3] - tracer.spans[0][2]
    selfs = self_times(tracer.spans)
    assert all(-1e-9 <= value <= wall for value in selfs.values())
    aggregated = sum(
        value
        for span in tracer.spans
        for key, value in span[6].items()
        if key.endswith(".s")
    )
    assert sum(selfs.values()) + aggregated == pytest.approx(wall, rel=1e-6)
    from repro.exec.planner import plan_jobs

    metrics = layer_metrics(tracer.spans, plan_jobs(jobs), results, EngineCounters())
    assert metrics["backends.replays"] == 4
    assert metrics["cache.access_calls"] > 0
    for name in ("engine.self_s", "encoding.self_s", "cache.access_s"):
        assert 0 <= metrics[name] <= wall
    assert metrics["encoding.self_s"] + metrics["cache.access_s"] <= wall


def test_tracer_write_round_trips(tmp_path):
    tracer = Tracer("rid")
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    time.sleep(0.001)
    tracer.close(inner)
    tracer.close(outer)
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line[1] for line in lines] == ["outer", "inner"]
    assert lines[1][4] == lines[0][0] and lines[1][5] == "rid"


def test_percentile_nearest_rank():
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile(list(range(1, 101)), 0.99) == 99


# --------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------- #
def test_reference_covers_both_plans_of_both_seeds():
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    assert set(reference) == {str(seed) for seed in REFERENCE_SEEDS}
    for plans in reference.values():
        assert len(plans["all"]["jobs"]) == 1054
        assert len(plans["sweep"]["jobs"]) == 255


def test_compare_counts_each_mismatch():
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    expected = reference["7"]["sweep"]
    assert run.compare(expected, expected) == []
    actual = json.loads(json.dumps(expected))
    actual["jobs"][next(iter(actual["jobs"]))] = "0" * 16
    actual["sim_energy_fj"] += 1.0
    assert len(run.compare(expected, actual)) == 2


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
