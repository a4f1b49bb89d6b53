"""Fleet tests: N runners on one job, takeover, hung-retry, compaction.

The in-process tests drive two :class:`JobRunner`\\ s over *separate*
store instances on one root — the same coupling as two daemon processes
sharing a filesystem — with a fast injected hunt task so the scheduling
logic (not the simulator) dominates the runtime.  The slow-marked e2e
drives two real daemons through the CLI and SIGKILLs one mid-shard.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import pytest

from repro.analysis.campaign import BugHunt
from repro.cli import main
from repro.service.lease import LeaseManager
from repro.service.manifest import CampaignManifest
from repro.service.queue import JobRunner
from repro.service.store import ResultStore


def manifest(**kwargs):
    defaults = dict(name="fleet", seeds=(1, 2, 3, 4), cpus=("CPU1",),
                    tests_per_bug=2)
    defaults.update(kwargs)
    return CampaignManifest(**defaults)


def fake_hunt_bug(spec, cpu, config, bug_index=0, scratch=None):
    """Deterministic, fast stand-in for a real hunt (always detects)."""
    time.sleep(0.01)  # long enough for runners to interleave
    return BugHunt(
        spec=spec, cpu=cpu, detected=True, tests_run=1,
        detected_on_seed=config.seed, via="TSO violation",
    )


@pytest.fixture
def fast_hunts(monkeypatch):
    monkeypatch.setattr("repro.analysis.campaign.hunt_bug", fake_hunt_bug)


def hunt_lines(root):
    out = []
    for path in glob.glob(os.path.join(root, "shards", "*.jsonl")):
        for line in open(path):
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if doc.get("kind") == "hunt":
                out.append((doc["shard"], doc["bug_index"]))
    return out


def quiet_store(root, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return ResultStore(root, **kwargs)


class TestConcurrentRunners:
    def test_two_runners_drain_one_job_without_duplicates(
        self, tmp_path, fast_hunts
    ):
        m = manifest()
        root = str(tmp_path / "job")
        runners = [
            JobRunner(
                m, quiet_store(root), owner=f"host-{i}",
                lease_seconds=5.0, poll_seconds=0.02,
            )
            for i in range(2)
        ]
        results = [None, None]
        errors = []

        def drain(i):
            try:
                results[i] = runners[i].run()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=drain, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors

        # Zero duplicated hunt records across the whole store.
        lines = hunt_lines(root)
        assert len(lines) == len(set(lines)) == m.hunt_count()

        # Both runners converge on the same merged result, and it is
        # bit-identical to a single-runner run of the same manifest.
        scratch = ResultStore(str(tmp_path / "scratch"))
        single = JobRunner(m, scratch, owner="solo").run()
        for result in results:
            assert result is not None
            assert result.hunts == single.hunts
            assert result.exit_code() == single.exit_code()
        assert quiet_store(root).hunt_digests() == scratch.hunt_digests()

    def test_runner_takes_over_a_dead_peers_lease(
        self, tmp_path, fast_hunts
    ):
        m = manifest(seeds=(1,))
        [shard] = m.shards()
        root = str(tmp_path / "job")

        # A "daemon" claims the only shard and dies without releasing:
        # no renewals, the lease just sits there until expiry.
        dead_store = quiet_store(root)
        dead = LeaseManager(dead_store, "dead-peer", lease_seconds=0.6)
        assert dead.claim(shard.shard_id)
        dead_store.close()

        start = time.monotonic()
        runner = JobRunner(
            m, quiet_store(root), owner="live",
            lease_seconds=0.6, poll_seconds=0.02,
        )
        result = runner.run()
        elapsed = time.monotonic() - start

        assert result.exit_code() == 0
        assert len(result.hunts) == m.hunt_count()
        # The takeover had to wait out the dead peer's lease window.
        assert elapsed >= 0.3
        # The store's lease history shows the live owner's claim landing
        # after the dead peer's.
        path = os.path.join(root, "shards", f"{shard.shard_id}.jsonl")
        claims = [
            json.loads(x)["owner"] for x in open(path)
            if json.loads(x).get("kind") == "lease"
            and json.loads(x)["op"] == "claim"
        ]
        assert claims == ["dead-peer", "live"]

    def test_completion_marker_requires_ownership(self, tmp_path, fast_hunts):
        """A runner whose lease was taken over must not append the
        done marker over the new holder's in-flight work."""
        m = manifest(seeds=(1,))
        [shard] = m.shards()
        root = str(tmp_path / "job")
        runner = JobRunner(
            m, quiet_store(root), owner="stalled", lease_seconds=5.0
        )
        assert runner.lease.claim(shard.shard_id)
        # A peer takes the shard over (as if we stalled past expiry).
        peer_store = quiet_store(root)
        peer_store.append_lease(
            shard.shard_id, "claim", "thief",
            time=time.time() + 10.0, expires=time.time() + 60.0,
        )
        peer_store.close()
        runner._finish_shard(shard.shard_id)
        store = quiet_store(root)
        assert not store.shard_done(shard.shard_id)


class TestHungRetryAcrossSessions:
    """Satellite: kill/resume after a hang retries the hunt and can
    reach exit 0 — a transient stall no longer pins exit code 2."""

    def test_resume_retries_hung_hunt_and_reaches_exit_0(
        self, tmp_path, monkeypatch
    ):
        m = manifest(seeds=(1,))
        [shard] = m.shards()
        stall = {"on": True}

        def flaky(spec, cpu, config, bug_index=0, scratch=None):
            if bug_index == 1 and stall["on"]:
                raise RuntimeError("injected transient stall")
            return BugHunt(
                spec=spec, cpu=cpu, detected=True, tests_run=1,
                detected_on_seed=config.seed, via="TSO violation",
            )

        monkeypatch.setattr("repro.analysis.campaign.hunt_bug", flaky)

        # At batch 4 hunt 1's whole chunk hangs and is tombstoned with it.
        for batch in (1, 4):
            root = str(tmp_path / f"job-b{batch}")
            stall["on"] = True

            # Session 1: hunt 1 fails its attempt and its retry —
            # recorded as a hung tombstone, session exits 2, but the
            # job completes.
            first = JobRunner(
                m, quiet_store(root), owner="s1", batch=batch
            ).run()
            assert first.exit_code() == 2
            assert first.hunts[1].hung

            # Session 2 (the "resume"): the stall was transient.  The
            # tombstone is re-queued, the retry lands a real result,
            # and the job reaches exit 0.
            stall["on"] = False
            second = JobRunner(
                m, quiet_store(root), owner="s2", batch=batch
            ).run()
            assert second.exit_code() == 0
            assert not any(h.hung for h in second.hunts)

            # Exactly one session's retry is allowed per run: the
            # stubborn case stays exit 2 instead of looping forever.
            stall["on"] = True
            third = JobRunner(
                m, quiet_store(root), owner="s3", batch=batch
            ).run()
            assert third.exit_code() == 0  # the real result persisted

    def test_stubborn_hang_terminates_each_session(
        self, tmp_path, monkeypatch
    ):
        m = manifest(seeds=(1,))

        def always_stalls(spec, cpu, config, bug_index=0, scratch=None):
            if bug_index == 1:
                raise RuntimeError("permanent stall")
            return BugHunt(
                spec=spec, cpu=cpu, detected=True, tests_run=1,
                detected_on_seed=config.seed, via="TSO violation",
            )

        monkeypatch.setattr(
            "repro.analysis.campaign.hunt_bug", always_stalls
        )
        for batch in (1, 4):
            root = str(tmp_path / f"job-b{batch}")
            for session in range(2):
                result = JobRunner(
                    m, quiet_store(root), owner=f"s{session}", batch=batch
                ).run()
                assert result.exit_code() == 2
                assert result.hunts[1].hung


class TestCompactionEndToEnd:
    def test_compacted_job_merges_identically(self, tmp_path, fast_hunts):
        m = manifest(seeds=(1, 2))
        root = str(tmp_path / "job")
        store = quiet_store(root)
        before = JobRunner(m, store, owner="solo").run()
        digests = store.hunt_digests()
        deltas = store.compact()
        assert len(deltas) == len(m.shards())
        for shard_id, (nbefore, nafter) in deltas.items():
            assert nafter < nbefore  # lease lines compacted away
        store.close()

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a torn rewrite would warn
            fresh = ResultStore(root)
        assert fresh.hunt_digests() == digests
        after = JobRunner(m, fresh, owner="merge-only").merged()
        assert after.hunts == before.hunts
        assert after.exit_code() == before.exit_code()


@pytest.mark.slow
class TestTwoDaemonKillTakeover:
    """The acceptance e2e: two daemons with distinct owners drain one
    job; one is SIGKILL'd mid-shard; the peer takes over its expired
    lease and completes; zero duplicate hunt records."""

    def test_sigkill_one_daemon_peer_takes_over(self, tmp_path):
        root = str(tmp_path / "svc")
        manifest_path = str(tmp_path / "m.json")
        # 8 seeds (24 hunts): daemon-a needs ~0.5 s after its second
        # hunt to drain the job, so the kill ~0.25 s later lands
        # mid-drain; a 12-hunt job was often drained before it.
        m = CampaignManifest(
            name="fleet-e2e", seeds=tuple(range(1, 9)), cpus=("CPU1",),
            tests_per_bug=8,
        )
        m.save(manifest_path)
        assert main(["submit", manifest_path, "--root", root]) == 0
        job_root = os.path.join(root, "jobs", m.job_id)

        def serve(owner, *extra):
            return subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--root", root, "--owner", owner,
                 "--lease-seconds", "2", "--no-http", *extra],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )

        victim = serve("daemon-a")
        survivor = None
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if len(hunt_lines(job_root)) >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("daemon-a never persisted any hunts")
            survivor = serve("daemon-b", "--once")
            time.sleep(0.2)  # let daemon-b start claiming its share
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
            assert survivor.wait(timeout=240) in (0, 1)
        finally:
            for proc in (victim, survivor):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)

        # The job completed despite the kill...
        assert os.path.exists(os.path.join(job_root, "result.json"))
        # ...with zero duplicated hunt records...
        lines = hunt_lines(job_root)
        assert len(lines) == len(set(lines)) == m.hunt_count()
        # ...and both owners' lease claims in the store (daemon-b did
        # real work, not just watching daemon-a's leftovers).
        owners = set()
        for path in glob.glob(os.path.join(job_root, "shards", "*.jsonl")):
            for line in open(path):
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if doc.get("kind") == "lease" and doc["op"] == "claim":
                    owners.add(doc["owner"])
        assert {"daemon-a", "daemon-b"} <= owners

        # Merged result bit-identical to a single-runner scratch run.
        resumed = quiet_store(job_root)
        scratch = ResultStore(str(tmp_path / "scratch"))
        scratch_result = JobRunner(m, scratch, owner="scratch").run()
        assert resumed.hunt_digests() == scratch.hunt_digests()
        with open(os.path.join(job_root, "result.json")) as fh:
            doc = json.load(fh)
        from repro.analysis.campaign import (
            CampaignResult,
            format_table1,
            format_table2,
        )
        merged = CampaignResult.from_dict(doc["result"])
        assert doc["exit_code"] == scratch_result.exit_code()
        assert format_table1(merged) == format_table1(scratch_result)
        assert format_table2(merged) == format_table2(scratch_result)
