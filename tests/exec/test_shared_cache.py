"""Concurrent shared-cache writers: many engines, one cache directory.

The broker leans on the content-addressed cache as its single source of
truth, which only works if concurrent writers — threads in one process,
or entirely separate processes — can race on the same cache directory
without corrupting it and while staying bit-identical to a serial run.
The tmp + ``os.replace`` write discipline is what makes this hold; each
writing thread gets its own tmp file (:func:`repro.exec.store.write_atomic`).
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import faults
from repro.exec import ExecEngine, trace_job
from repro.exec.store import ResultStore, write_atomic


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """No plan installed and no REPRO_FAULTS inherited, before and after."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.uninstall()
    yield
    faults.uninstall()


def cheap_jobs(count=4):
    """Distinct, fast jobs (trace characterisation of tiny workloads)."""
    names = ("records", "crc32", "bitcount", "stream", "histogram")
    return [trace_job(names[i % len(names)], "tiny", 3 + i) for i in range(count)]


def serial_canonicals(jobs):
    """The reference: one pristine serial engine, no cache."""
    return [r.canonical() for r in ExecEngine().run_jobs(jobs)]


def assert_cache_clean(cache_dir: Path) -> None:
    """No quarantine or tmp litter anywhere under the cache."""
    assert list(cache_dir.glob("*/*.corrupt")) == []
    assert list(cache_dir.glob("*/*.tmp.*")) == []


class TestPresence:
    def test_present_lists_result_files_only(self, tmp_path):
        done, torn, pending = cheap_jobs(3)
        store = ResultStore(tmp_path / "cache")
        for job in (done, torn):
            store.write(job, ExecEngine().run_job(job))
        store.quarantine(store.path_for(torn.fingerprint))
        shard = store.path_for(pending.fingerprint).parent
        shard.mkdir(parents=True, exist_ok=True)
        (shard / f"{pending.fingerprint}.json.tmp.1.2").write_text("{")
        fingerprints = [job.fingerprint for job in (done, torn, pending)]
        assert store.present(fingerprints) == {done.fingerprint}
        assert ResultStore(tmp_path / "absent").present(fingerprints) == set()


class TestThreadedWriters:
    def test_racing_engines_stay_bit_identical(self, tmp_path):
        jobs = cheap_jobs(4)
        reference = serial_canonicals(jobs)
        cache_dir = tmp_path / "cache"
        outcomes: list = [None] * 4

        def race(slot: int) -> None:
            engine = ExecEngine(cache_dir=cache_dir)
            try:
                results = engine.run_jobs(jobs)
                outcomes[slot] = [r.canonical() for r in results]
            except Exception as error:  # noqa: BLE001 - surfaced below
                outcomes[slot] = error

        threads = [
            threading.Thread(target=race, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        for outcome in outcomes:
            assert outcome == reference
        assert_cache_clean(cache_dir)

    def test_threads_writing_one_entry_never_share_a_tmp_file(
        self, tmp_path, monkeypatch
    ):
        # Both threads finish writing their tmp file before either one
        # publishes: with a shared tmp name one document would clobber
        # the other and the second publish would find no tmp file.
        path = tmp_path / "entry.json"
        both_written = threading.Barrier(2, timeout=30.0)
        real_replace = os.replace

        def replace_after_both_wrote(src, dst):
            if Path(dst) == path:
                both_written.wait()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_after_both_wrote)
        documents = [json.dumps({"writer": n, "pad": "x" * 4096}) for n in (0, 1)]
        errors: list = []

        def write(document: str) -> None:
            try:
                write_atomic(path, document)
            except (OSError, threading.BrokenBarrierError) as error:
                errors.append(error)

        threads = [threading.Thread(target=write, args=(d,)) for d in documents]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert path.read_text(encoding="utf-8") in documents
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_warm_replay_after_the_race_is_all_cache_hits(self, tmp_path):
        jobs = cheap_jobs(3)
        cache_dir = tmp_path / "cache"
        threads = [
            threading.Thread(
                target=lambda: ExecEngine(cache_dir=cache_dir).run_jobs(jobs)
            )
            for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        warm = ExecEngine(cache_dir=cache_dir)
        warm.run_jobs(jobs)
        assert warm.counters.cache_hits == len(jobs)
        assert warm.counters.executed == 0


_SUBPROCESS_RACER = """
import json, sys
from repro.exec import ExecEngine, trace_job

cache_dir = sys.argv[1]
names = ("records", "crc32", "bitcount", "stream", "histogram")
jobs = [trace_job(names[i % len(names)], "tiny", 3 + i) for i in range(4)]
results = ExecEngine(cache_dir=cache_dir).run_jobs(jobs)
print(json.dumps([r.canonical() for r in results]))
"""


class TestSubprocessWriters:
    def test_separate_processes_race_one_cache_directory(self, tmp_path):
        jobs = cheap_jobs(4)
        reference = serial_canonicals(jobs)
        cache_dir = tmp_path / "cache"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _SUBPROCESS_RACER, str(cache_dir)],
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(3)
        ]
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            assert json.loads(out.strip().splitlines()[-1]) == reference
        assert_cache_clean(cache_dir)
        # And the cache they left behind replays without simulating.
        warm = ExecEngine(cache_dir=cache_dir)
        assert [r.canonical() for r in warm.run_jobs(jobs)] == reference
        assert warm.counters.executed == 0
