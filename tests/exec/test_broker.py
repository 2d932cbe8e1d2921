"""Distributed broker suite: leases, crash reclaim, quarantine, resume.

The contract mirrors the resilience suite's: however many workers die
mid-job (SIGKILL via injected hard faults), a broker drain must converge
to results *byte-identical* to a plain local run, retire every job
record and lease, and account each reclaim exactly once.
"""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro import faults
from repro.exec import (
    BrokerConfig,
    BrokerError,
    ExecEngine,
    JobError,
    PermanentJobFailure,
    ResilienceConfig,
    job_from_payload,
    run_worker,
    trace_job,
)
from repro.exec.broker import BROKER_SCHEMA, BrokerStore, Lease, _wall_now
from repro.obs import Obs
from repro.obs.manifest import summarize
from repro.resilience import PoisonJobError

#: Fast policy for tests: no real sleeping between attempts.
FAST = ResilienceConfig(backoff_base_s=0.0, backoff_jitter=0.0)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """No plan installed and no REPRO_FAULTS inherited, before and after."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.uninstall()
    yield
    faults.uninstall()


def cheap_jobs(count=3):
    """Distinct, fast jobs (trace characterisation of tiny workloads)."""
    names = ("records", "crc32", "bitcount", "stream", "histogram")
    return [trace_job(names[i % len(names)], "tiny", 3 + i) for i in range(count)]


def reference_canonicals(jobs):
    """Fault-free canonical strings, resolved by a pristine engine."""
    return [r.canonical() for r in ExecEngine().run_jobs(jobs)]


def fast_config(tmp_path, **overrides):
    """A snappy broker for tests: tight poll, short leases, no fleet."""
    settings = dict(
        root=tmp_path / "broker",
        lease_ttl_s=1.0,
        poll_s=0.02,
        idle_timeout_s=5.0,
        spawn=False,
    )
    settings.update(overrides)
    return BrokerConfig(**settings)


def expire_lease(store, fingerprint):
    """Backdate a lease on disk, as if its worker stopped heartbeating."""
    lease = store.read_lease(fingerprint)
    assert lease is not None
    expired = Lease(
        fingerprint=lease.fingerprint,
        worker=lease.worker,
        generation=lease.generation,
        deadline=_wall_now() - 10.0,
        renewals=lease.renewals,
    )
    store.lease_path(fingerprint).write_text(
        json.dumps(expired.to_dict()), encoding="utf-8"
    )


# ------------------------------------------------------------------ #
# configuration
# ------------------------------------------------------------------ #
class TestBrokerConfig:
    def test_layout_hangs_off_root(self, tmp_path):
        config = BrokerConfig(root=tmp_path)
        assert config.cache_dir == tmp_path / "cache"
        assert config.jobs_dir == tmp_path / "jobs"
        assert config.leases_dir == tmp_path / "leases"
        assert config.quarantine_dir == tmp_path / "quarantine"
        assert config.reclaims_dir == tmp_path / "reclaims"

    def test_heartbeat_defaults_to_a_third_of_the_ttl(self, tmp_path):
        config = BrokerConfig(root=tmp_path, lease_ttl_s=9.0)
        assert config.heartbeat_interval == pytest.approx(3.0)
        explicit = BrokerConfig(root=tmp_path, lease_ttl_s=9.0, heartbeat_s=2.0)
        assert explicit.heartbeat_interval == 2.0

    def test_generations_transfer_the_retry_budget(self, tmp_path):
        config = BrokerConfig(root=tmp_path)
        assert config.generations(ResilienceConfig(max_retries=2)) == 3
        capped = BrokerConfig(root=tmp_path, max_generations=7)
        assert capped.generations(ResilienceConfig(max_retries=2)) == 7

    @pytest.mark.parametrize(
        "overrides",
        [
            {"lease_ttl_s": 0.0},
            {"lease_ttl_s": -1.0},
            {"poll_s": 0.0},
            {"idle_timeout_s": 0.0},
            {"heartbeat_s": 0.0},
            {"heartbeat_s": 99.0},  # >= lease_ttl_s
            {"max_generations": 0},
            {"max_generations": True},
            {"worker_respawns": -1},
            {"spawn": "yes"},
        ],
    )
    def test_invalid_settings_rejected(self, tmp_path, overrides):
        settings = dict(root=tmp_path, lease_ttl_s=30.0)
        settings.update(overrides)
        with pytest.raises(BrokerError):
            BrokerConfig(**settings)


# ------------------------------------------------------------------ #
# job payload round trip
# ------------------------------------------------------------------ #
class TestJobPayload:
    def test_describe_round_trips_through_job_from_payload(self):
        job = cheap_jobs(1)[0]
        rebuilt = job_from_payload(job.describe())
        assert rebuilt == job
        assert rebuilt.fingerprint == job.fingerprint

    def test_foreign_schema_rejected(self):
        payload = cheap_jobs(1)[0].describe()
        payload["schema"] = "exec-v999"
        with pytest.raises(JobError):
            job_from_payload(payload)

    def test_foreign_code_fingerprint_rejected(self):
        payload = cheap_jobs(1)[0].describe()
        payload["code"] = "0" * 16
        with pytest.raises(JobError):
            job_from_payload(payload)

    def test_garbage_rejected(self):
        with pytest.raises(JobError):
            job_from_payload("not a dict")
        with pytest.raises(JobError):
            job_from_payload({"schema": None})


# ------------------------------------------------------------------ #
# publish
# ------------------------------------------------------------------ #
class TestPublish:
    def test_publish_is_idempotent(self, tmp_path):
        store = BrokerStore(fast_config(tmp_path))
        jobs = cheap_jobs(3)
        assert store.publish(jobs) == 3
        assert store.counters.published == 3
        assert store.publish(jobs) == 0  # records already on disk
        assert sorted(store.pending()) == sorted(
            job.fingerprint for job in jobs
        )

    def test_quarantined_jobs_are_not_republished(self, tmp_path):
        store = BrokerStore(fast_config(tmp_path))
        job = cheap_jobs(1)[0]
        store.quarantine_job(job, 3, "poison")
        assert store.publish([job]) == 0
        assert store.pending() == []


# ------------------------------------------------------------------ #
# claim / steal / renew
# ------------------------------------------------------------------ #
class TestClaim:
    def test_claim_acquires_generation_one(self, tmp_path):
        store = BrokerStore(fast_config(tmp_path))
        job = cheap_jobs(1)[0]
        store.publish([job])
        claim = store.claim("w1")
        assert claim is not None
        assert claim.job == job
        assert claim.lease.generation == 1
        assert claim.lease.worker == "w1"
        assert store.counters.claims == 1
        assert not claim.lease.expired

    def test_live_lease_blocks_other_claimers(self, tmp_path):
        config = fast_config(tmp_path, lease_ttl_s=30.0)
        store = BrokerStore(config)
        store.publish(cheap_jobs(1))
        assert store.claim("w1") is not None
        rival = BrokerStore(config)
        assert rival.claim("w2") is None

    def test_expired_lease_is_stolen_at_the_next_generation(self, tmp_path):
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        job = cheap_jobs(1)[0]
        store.publish([job])
        claim = store.claim("w1")
        expire_lease(store, job.fingerprint)
        rival = BrokerStore(config)
        stolen = rival.claim("w2")
        assert stolen is not None
        assert stolen.lease.generation == claim.lease.generation + 1
        assert stolen.lease.worker == "w2"
        assert rival.counters.reclaims == 1
        # The reclaim left durable evidence naming the lost worker.
        records = rival.consume_reclaims()
        assert len(records) == 1
        assert records[0]["lost_worker"] == "w1"
        assert records[0]["generation"] == 2
        assert rival.consume_reclaims() == []  # consumed exactly once

    def test_torn_lease_counts_as_generation_one(self, tmp_path):
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        job = cheap_jobs(1)[0]
        store.publish([job])
        store.lease_path(job.fingerprint).write_text(
            "{torn garbage", encoding="utf-8"
        )
        claim = store.claim("w1")
        assert claim is not None
        assert claim.lease.generation == 2  # unknown prior -> gen 1 + 1
        assert store.consume_reclaims()[0]["lost_worker"] == "unknown"

    def test_generation_past_the_fuse_quarantines(self, tmp_path):
        config = fast_config(tmp_path, max_generations=2)
        store = BrokerStore(config)
        job = cheap_jobs(1)[0]
        store.publish([job])
        for _ in range(2):
            claim = store.claim("w1")
            assert claim is not None
            expire_lease(store, job.fingerprint)
        assert store.claim("w1") is None  # would be generation 3 > fuse
        records = store.quarantined()
        assert len(records) == 1
        assert records[0]["fingerprint"] == job.fingerprint
        assert records[0]["generation"] == 2
        assert store.pending() == []  # record retired with the job

    def test_cached_result_finishes_the_job_without_claiming(self, tmp_path):
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        job = cheap_jobs(1)[0]
        store.publish([job])
        result = ExecEngine().run_job(job)
        store.cache.write(job, result)
        assert store.claim("w1") is None
        assert store.pending() == []  # finished elsewhere, record retired

    def test_renew_extends_and_steal_refuses_renewal(self, tmp_path):
        config = fast_config(tmp_path, lease_ttl_s=5.0)
        store = BrokerStore(config)
        job = cheap_jobs(1)[0]
        store.publish([job])
        claim = store.claim("w1")
        before = store.read_lease(job.fingerprint)
        assert store.renew(claim)
        after = store.read_lease(job.fingerprint)
        assert after.renewals == before.renewals + 1
        assert after.deadline >= before.deadline
        assert store.counters.lease_renewals == 1
        # A stealer takes over; the original claim can no longer renew.
        expire_lease(store, job.fingerprint)
        rival = BrokerStore(config)
        assert rival.claim("w2") is not None
        assert not store.renew(claim)

    def test_fail_attempt_keeps_the_generation_ladder(self, tmp_path):
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        job = cheap_jobs(1)[0]
        store.publish([job])
        claim = store.claim("w1")
        store.fail_attempt(claim)
        lease = store.read_lease(job.fingerprint)
        assert lease.generation == 1
        assert lease.expired  # immediately stealable
        retry = store.claim("w1")
        assert retry is not None
        assert retry.lease.generation == 2


class TestClaimRaces:
    """A rival claimer landing inside another claim never steals it."""

    @pytest.mark.parametrize("rival_first", [True, False])
    def test_lease_appears_whole_or_not_at_all(
        self, tmp_path, monkeypatch, rival_first
    ):
        config = fast_config(tmp_path, lease_ttl_s=30.0)
        owner, rival = BrokerStore(config), BrokerStore(config)
        job = cheap_jobs(1)[0]
        owner.publish([job])
        lease_path = owner.lease_path(job.fingerprint)
        real_link = os.link
        fired, rival_claims = [], []

        def rival_claims_now():
            # Another worker thread, so it writes its own tmp file.
            thread = threading.Thread(
                target=lambda: rival_claims.append(rival.claim("w2"))
            )
            thread.start()
            thread.join(timeout=30.0)

        def link_with_rival_mid_create(src, dst):
            if Path(dst) != lease_path or fired:
                return real_link(src, dst)
            fired.append(True)
            # The owner's lease is fully written but not yet in place:
            # the rival sees no lease at all, never a partial one.
            record = json.loads(Path(src).read_text(encoding="utf-8"))
            assert record["worker"] == "w1"
            assert not lease_path.exists()
            if rival_first:
                rival_claims_now()
                return real_link(src, dst)
            real_link(src, dst)
            rival_claims_now()

        monkeypatch.setattr(os, "link", link_with_rival_mid_create)
        claim = owner.claim("w1")
        assert len(rival_claims) == 1
        winner = "w2" if rival_first else "w1"
        holders = [c.lease.worker for c in (claim, rival_claims[0]) if c]
        assert holders == [winner]
        assert owner.read_lease(job.fingerprint).worker == winner
        assert owner.counters.reclaims == rival.counters.reclaims == 0
        assert rival.consume_reclaims() == []
        assert list(config.leases_dir.glob("*.tmp.*")) == []

    def test_lease_created_after_the_first_look_is_not_stolen(
        self, tmp_path, monkeypatch
    ):
        config = fast_config(tmp_path, lease_ttl_s=30.0)
        owner, rival = BrokerStore(config), BrokerStore(config)
        job = cheap_jobs(1)[0]
        owner.publish([job])
        lease_path = owner.lease_path(job.fingerprint)
        fired, claims = [], []

        def owner_claims_once():
            if not fired:
                fired.append(True)
                claims.append(owner.claim("w1"))

        # Run the owner's claim right after the rival's first look at the
        # lease path, whether that look is an existence check or a read.
        real_exists = Path.exists
        real_read = rival._read_lease_file

        def exists(self, *args, **kwargs):
            present = real_exists(self, *args, **kwargs)
            if self == lease_path:
                owner_claims_once()
            return present

        def read(path):
            lease = real_read(path)
            if path == lease_path:
                owner_claims_once()
            return lease

        monkeypatch.setattr(Path, "exists", exists)
        monkeypatch.setattr(rival, "_read_lease_file", read)
        assert rival.claim("w2") is None
        assert claims and claims[0] is not None
        assert rival.counters.reclaims == 0
        assert rival.consume_reclaims() == []
        assert owner.read_lease(job.fingerprint).worker == "w1"

    def test_result_published_before_the_lease_create_is_not_rerun(
        self, tmp_path, monkeypatch
    ):
        from repro.exec.worker import execute_job

        config = fast_config(tmp_path, lease_ttl_s=30.0)
        owner, rival = BrokerStore(config), BrokerStore(config)
        job = cheap_jobs(1)[0]
        owner.publish([job])
        real_create = rival._create_lease

        def owner_finishes_first(lease):
            # The rival has checked the result cache and found nothing;
            # the owner claims, executes, publishes and retires now.
            claim = owner.claim("w1")
            assert claim is not None
            owner.cache.write(claim.job, execute_job(claim.job))
            owner.complete(claim)
            return real_create(lease)

        monkeypatch.setattr(rival, "_create_lease", owner_finishes_first)
        assert rival.claim("w2") is None
        assert rival.counters.claims == 0
        assert owner.counters.claims == 1
        assert not owner.lease_path(job.fingerprint).exists()
        assert not owner.job_path(job.fingerprint).exists()


# ------------------------------------------------------------------ #
# the worker loop (in-process)
# ------------------------------------------------------------------ #
class TestRunWorker:
    def test_executes_published_jobs_into_the_shared_cache(self, tmp_path):
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        jobs = cheap_jobs(3)
        store.publish(jobs)
        stats = run_worker(config, idle_timeout_s=0.2, resilience=FAST)
        assert stats.claimed == 3
        assert stats.executed == 3
        assert stats.failures == 0
        fresh = BrokerStore(config)
        for job in jobs:
            assert fresh.cache.read(job) is not None
        assert fresh.pending() == []
        assert list(config.leases_dir.glob("*.json")) == []

    def test_transient_faults_heal_on_the_next_generation(self, tmp_path):
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        jobs = cheap_jobs(2)
        store.publish(jobs)
        with faults.injected("seed=5,crash=1.0,fires=1"):
            stats = run_worker(config, idle_timeout_s=0.2, resilience=FAST)
        # Every job faults once (generation 1 = attempt 0), the reclaim
        # runs it at attempt 1 where the fires=1 fault has healed.
        assert stats.executed == 2
        assert stats.failures == 2
        assert stats.reclaims == 2
        assert stats.claimed == 4
        fresh = BrokerStore(config)
        assert fresh.pending() == []
        reference = reference_canonicals(jobs)
        for job, want in zip(jobs, reference):
            assert fresh.cache.read(job).canonical() == want

    def test_permanent_errors_quarantine_immediately(self, tmp_path, monkeypatch):
        import repro.exec.worker as worker_module

        def explode(job, attempt=0):
            raise ValueError("simulator invariant broken")

        monkeypatch.setattr(worker_module, "execute_job", explode)
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        store.publish(cheap_jobs(1))
        stats = run_worker(config, idle_timeout_s=0.2, resilience=FAST)
        assert stats.executed == 0
        assert stats.quarantined == 1
        records = BrokerStore(config).quarantined()
        assert len(records) == 1
        assert "ValueError" in records[0]["reason"]

    def test_heartbeat_renews_long_jobs(self, tmp_path, monkeypatch):
        import repro.exec.worker as worker_module

        real = worker_module.execute_job

        def slow(job, attempt=0):
            time.sleep(0.5)
            return real(job, attempt=attempt)

        monkeypatch.setattr(worker_module, "execute_job", slow)
        config = fast_config(tmp_path, lease_ttl_s=0.6, heartbeat_s=0.1)
        store = BrokerStore(config)
        store.publish(cheap_jobs(1))
        stats = run_worker(config, idle_timeout_s=0.2, resilience=FAST)
        # The job ran almost a full TTL: without heartbeats the lease
        # would have expired mid-run; renewals prove it stayed live.
        assert stats.executed == 1
        assert stats.renewals >= 2
        assert stats.reclaims == 0

    def test_stop_event_drains_gracefully(self, tmp_path):
        config = fast_config(tmp_path)
        stop = threading.Event()
        stop.set()
        stats = run_worker(config, stop=stop, resilience=FAST)
        assert stats.claimed == 0

    def test_max_jobs_bounds_the_loop(self, tmp_path):
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        store.publish(cheap_jobs(3))
        stats = run_worker(config, max_jobs=1, resilience=FAST)
        assert stats.claimed == 1
        assert len(BrokerStore(config).pending()) == 2


# ------------------------------------------------------------------ #
# the coordinator drain (engine side)
# ------------------------------------------------------------------ #
class TestDrain:
    def run_with_background_worker(self, engine, jobs, config):
        """Drain with one in-process worker thread playing the fleet."""
        worker = threading.Thread(
            target=run_worker,
            args=(config,),
            kwargs={"idle_timeout_s": 10.0, "resilience": FAST},
            daemon=True,
        )
        worker.start()
        try:
            return engine.run_jobs(jobs)
        finally:
            worker.join(timeout=30.0)

    def test_drain_adopts_worker_results_byte_identically(self, tmp_path):
        config = fast_config(tmp_path)
        jobs = cheap_jobs(4)
        reference = reference_canonicals(jobs)
        engine = ExecEngine(exec_backend="broker", broker=config, resilience=FAST)
        results = self.run_with_background_worker(engine, jobs, config)
        assert [r.canonical() for r in results] == reference
        assert all(r.source == "broker" for r in results)
        assert engine.counters.published == 4
        assert engine.counters.executed == 4

    def test_poison_jobs_surface_as_structured_failures(
        self, tmp_path, monkeypatch
    ):
        import repro.exec.worker as worker_module

        def explode(job, attempt=0):
            raise ValueError("simulator invariant broken")

        monkeypatch.setattr(worker_module, "execute_job", explode)
        config = fast_config(tmp_path)
        jobs = cheap_jobs(2)
        keep_going = ResilienceConfig(
            backoff_base_s=0.0, backoff_jitter=0.0, keep_going=True
        )
        engine = ExecEngine(
            exec_backend="broker", broker=config, resilience=keep_going
        )
        results = self.run_with_background_worker(engine, jobs, config)
        assert len(results) == 2
        assert all(not r.ok for r in results)
        assert engine.counters.quarantined == 2
        for record in engine.failures:
            assert record.error == "PoisonJobError"
            assert not record.transient

    def test_poison_jobs_raise_under_fail_fast(self, tmp_path, monkeypatch):
        import repro.exec.worker as worker_module

        def explode(job, attempt=0):
            raise ValueError("simulator invariant broken")

        monkeypatch.setattr(worker_module, "execute_job", explode)
        config = fast_config(tmp_path)
        engine = ExecEngine(
            exec_backend="broker", broker=config, resilience=FAST
        )
        with pytest.raises(PermanentJobFailure):
            self.run_with_background_worker(engine, cheap_jobs(1), config)

    def test_coordinator_watchdog_quarantines_when_all_workers_die(
        self, tmp_path
    ):
        # No worker at all: the coordinator must reach the poison
        # verdict alone once a lease sits expired at the fuse.
        config = fast_config(tmp_path, max_generations=1)
        job = cheap_jobs(1)[0]
        store = BrokerStore(config)
        store.publish([job])
        claim = store.claim("doomed-worker")
        assert claim is not None
        expire_lease(store, job.fingerprint)
        keep_going = ResilienceConfig(
            backoff_base_s=0.0, backoff_jitter=0.0, keep_going=True
        )
        engine = ExecEngine(
            exec_backend="broker", broker=config, resilience=keep_going
        )
        results = engine.run_jobs([job])
        assert not results[0].ok
        assert engine.counters.quarantined == 1

    def test_manifest_carries_broker_events(self, tmp_path):
        config = fast_config(tmp_path)
        jobs = cheap_jobs(2)
        obs = Obs()
        engine = ExecEngine(
            exec_backend="broker", broker=config, resilience=FAST, obs=obs
        )
        self.run_with_background_worker(engine, jobs, config)
        events = [
            entry["event"]
            for entry in obs.entries
            if entry.get("type") == "broker"
        ]
        assert "publish" in events
        assert "drain" in events
        # Unknown entry types must not break aggregation.
        summary = summarize(obs.entries)
        assert summary.jobs == 2

    def test_resume_executes_only_the_unfinished_remainder(self, tmp_path):
        config = fast_config(tmp_path)
        jobs = cheap_jobs(3)
        reference = reference_canonicals(jobs)
        # A first coordinator published everything, one worker finished
        # exactly one job, then both "died" (nothing left running).
        first = BrokerStore(config)
        first.publish(jobs)
        run_worker(config, max_jobs=1, resilience=FAST)
        # A fresh coordinator resumes the same broker directory: the
        # finished job is adopted from the shared cache, the remainder
        # is NOT republished (records already exist) and executes.
        engine = ExecEngine(exec_backend="broker", broker=config, resilience=FAST)
        results = self.run_with_background_worker(engine, jobs, config)
        assert [r.canonical() for r in results] == reference
        assert engine.counters.cache_hits == 1
        assert engine.counters.published == 0  # republish was idempotent
        assert engine.counters.executed == 2
        assert BrokerStore(config).pending() == []


# ------------------------------------------------------------------ #
# full chaos: spawned fleet, SIGKILLed workers
# ------------------------------------------------------------------ #
class TestFleetChaos:
    def test_killed_workers_are_reclaimed_and_results_match(
        self, tmp_path, monkeypatch
    ):
        jobs = cheap_jobs(2)
        reference = reference_canonicals(jobs)
        # Every spawned worker inherits the plan and genuinely dies
        # (os._exit) on its first claim; respawned workers run the jobs
        # at generation 2 where the fires=1 fault has healed.  The
        # coordinator itself must stay fault-free.
        monkeypatch.setenv(faults.ENV_VAR, "seed=11,crash=1.0,fires=1")
        faults.uninstall()
        config = BrokerConfig(
            root=tmp_path / "broker",
            lease_ttl_s=1.0,
            poll_s=0.05,
            idle_timeout_s=20.0,
            spawn=True,
        )
        engine = ExecEngine(jobs=2, broker=config, resilience=FAST)
        results = engine.run_jobs(jobs)
        assert [r.canonical() for r in results] == reference
        assert engine.counters.reclaims >= 1
        assert engine.counters.workers_lost >= 1
        # Nothing left behind: no job records, leases, or tmp litter.
        assert list(config.jobs_dir.glob("*")) == []
        assert list(config.leases_dir.glob("*")) == []
        assert list(config.reclaims_dir.glob("*")) == []
