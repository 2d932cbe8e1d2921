"""ExecEngine behaviour: planning, dedup, memo, disk cache, parallelism."""

import json

import pytest

from repro.core.config import CNTCacheConfig
from repro.exec import (
    EngineError,
    ExecEngine,
    plan_jobs,
    run_selftest,
    trace_job,
    workload_job,
)

CONFIG = CNTCacheConfig()


def jobset():
    """Four requests, two unique (the duplicate pair dedupes)."""
    return [
        workload_job(CONFIG, "records", "tiny", 3),
        workload_job(CONFIG.variant(scheme="baseline"), "records", "tiny", 3),
        workload_job(CONFIG, "records", "tiny", 3),
        workload_job(
            CNTCacheConfig(scheme="baseline", window=4), "records", "tiny", 3
        ),  # normalizes to the same job as the baseline above
    ]


class TestPlanner:
    def test_dedup_preserves_first_seen_order(self):
        plan = plan_jobs(jobset())
        assert len(plan.requested) == 4
        assert len(plan.unique) == 2
        assert plan.deduplicated == 2
        assert plan.unique[0].config.scheme == "cnt"
        assert "2 unique" in plan.describe()


class TestEngine:
    def test_results_align_with_request_order(self):
        engine = ExecEngine()
        jobs = jobset()
        results = engine.run_jobs(jobs)
        assert [r.job.fingerprint for r in results] == [
            j.fingerprint for j in jobs
        ]
        assert results[0].canonical() == results[2].canonical()
        assert results[1].canonical() == results[3].canonical()

    def test_counters_track_dedup_and_memo(self):
        engine = ExecEngine()
        engine.run_jobs(jobset())
        assert engine.counters.requested == 4
        assert engine.counters.unique == 2
        assert engine.counters.executed == 2
        # A second batch of the same work is pure memo.
        engine.run_jobs(jobset())
        assert engine.counters.executed == 2
        assert engine.counters.memo_hits == 2

    def test_run_map_keys_results(self):
        engine = ExecEngine()
        results = engine.run_map(
            {"t": trace_job("records", "tiny", 3)}
        )
        assert results["t"].values["accesses"] > 0

    def test_stats_shorthand_and_missing_stats_error(self):
        engine = ExecEngine()
        assert engine.stats(
            workload_job(CONFIG, "records", "tiny", 3)
        ).accesses > 0
        with pytest.raises(EngineError, match="no EnergyStats"):
            engine.stats(trace_job("records", "tiny", 3))

    def test_invalid_jobs_count_rejected(self):
        with pytest.raises(EngineError):
            ExecEngine(jobs=0)
        with pytest.raises(EngineError):
            ExecEngine(jobs=True)


class TestDiskCache:
    def test_second_engine_replays_from_cache(self, tmp_path):
        job = workload_job(CONFIG, "records", "tiny", 3)
        first = ExecEngine(cache_dir=tmp_path)
        warm = first.run_job(job)
        assert warm.source == "run"
        assert first.counters.executed == 1

        second = ExecEngine(cache_dir=tmp_path)
        cached = second.run_job(job)
        assert cached.source == "cache"
        assert second.counters.executed == 0
        assert second.counters.cache_hits == 1
        assert cached.canonical() == warm.canonical()

    def test_cache_layout_is_content_addressed(self, tmp_path):
        job = workload_job(CONFIG, "records", "tiny", 3)
        ExecEngine(cache_dir=tmp_path).run_job(job)
        fp = job.fingerprint
        path = tmp_path / fp[:2] / f"{fp}.json"
        assert path.is_file()
        document = json.loads(path.read_text())
        assert document["fingerprint"] == fp
        assert document["job"]["workload"] == "records"

    def test_corrupt_cache_entry_is_a_miss_not_an_error(self, tmp_path):
        job = workload_job(CONFIG, "records", "tiny", 3)
        ExecEngine(cache_dir=tmp_path).run_job(job)
        fp = job.fingerprint
        path = tmp_path / fp[:2] / f"{fp}.json"
        path.write_text("{not json")
        engine = ExecEngine(cache_dir=tmp_path)
        result = engine.run_job(job)
        assert result.source == "run"
        assert engine.counters.cache_hits == 0
        # ... the bad file was quarantined as evidence ...
        assert engine.counters.cache_corrupt == 1
        assert path.with_suffix(".corrupt").is_file()
        # ... and the entry was repaired in passing.
        assert json.loads(path.read_text())["fingerprint"] == fp

    def test_foreign_schema_entry_is_a_miss(self, tmp_path):
        job = workload_job(CONFIG, "records", "tiny", 3)
        ExecEngine(cache_dir=tmp_path).run_job(job)
        fp = job.fingerprint
        path = tmp_path / fp[:2] / f"{fp}.json"
        document = json.loads(path.read_text())
        document["schema"] = "exec-v0"
        path.write_text(json.dumps(document))
        engine = ExecEngine(cache_dir=tmp_path)
        assert engine.run_job(job).source == "run"


class TestParallel:
    def test_parallel_results_identical_to_serial(self):
        jobs = [
            workload_job(CONFIG.variant(scheme=scheme), "records", "tiny", 3)
            for scheme in ("baseline", "invert", "cnt", "dbi")
        ]
        serial = ExecEngine(jobs=1).run_jobs(jobs)
        parallel = ExecEngine(jobs=2).run_jobs(jobs)
        assert [r.canonical() for r in serial] == [
            r.canonical() for r in parallel
        ]


class TestProgress:
    def test_progress_lines_carry_source_and_label(self, tmp_path):
        lines: list[str] = []
        engine = ExecEngine(cache_dir=tmp_path, progress=lines.append)
        job = workload_job(CONFIG, "records", "tiny", 3)
        engine.run_jobs([job, job])  # in-batch twin dedupes silently
        engine.run_job(job)  # cross-batch repeat surfaces as a memo hit
        assert len(lines) == 2
        assert "run" in lines[0]
        assert "memo" in lines[1]
        assert "workload:records/tiny/s3/cnt" in lines[0]
        assert "acc/s" in lines[0]

        cached_lines: list[str] = []
        ExecEngine(cache_dir=tmp_path, progress=cached_lines.append).run_job(
            job
        )
        assert "cache" in cached_lines[0]

    def test_summary_counts(self):
        engine = ExecEngine()
        engine.run_jobs(jobset())
        assert "2 simulated" in engine.summary()


class TestSelftest:
    def test_selftest_passes(self):
        lines: list[str] = []
        assert run_selftest(size="tiny", seed=3, progress=lines.append) == []
        assert len(lines) == 6
        assert all(" ok " in line for line in lines)

    def test_selftest_compares_memo_fed_with_fresh_results(self, monkeypatch):
        import repro.exec.engine as engine_module

        real_clear, real_execute = (
            engine_module.clear_memos,
            engine_module.execute_job,
        )
        after_clear = []

        def clear():
            real_clear()
            after_clear.append(True)

        def execute(job, attempt=0):
            result = real_execute(job, attempt)
            if after_clear and result.stats is not None:
                # Make the freshly recorded result disagree.
                result.stats.add("leakage_fj", 1.0)
            after_clear.clear()
            return result

        monkeypatch.setattr(engine_module, "clear_memos", clear)
        monkeypatch.setattr(engine_module, "execute_job", execute)
        failures = run_selftest(size="tiny", seed=3)
        assert failures
        assert all("differs from a fresh recording" in f for f in failures)
        assert len(failures) == 3  # the two stream replays and the l2 job
