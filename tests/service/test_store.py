"""Tests for the crash-safe result store: recording, dedup, recovery."""

import json
import os
import warnings

import pytest

from repro.analysis.campaign import BugHunt
from repro.sched.spec import SchedSpec
from repro.sched.trace import ScheduleTrace
from repro.service.manifest import CampaignManifest
from repro.service.store import ResultStore, failure_digest, hunt_digest
from repro.service import daemon
from repro.service.daemon import CampaignService, ServiceConfig
from repro.sim.cpus import cpu_by_name


def manifest(**kwargs):
    defaults = dict(name="s", seeds=(1,), cpus=("CPU1",), tests_per_bug=2)
    defaults.update(kwargs)
    return CampaignManifest(**defaults)


def make_hunt(bug_index=0, detected=True, schedule=None, via="TSO violation"):
    spec = cpu_by_name("CPU1").bugs[bug_index]
    return BugHunt(
        spec=spec, cpu="CPU1", detected=detected,
        tests_run=1 if detected else 2,
        detected_on_seed=11 if detected else None,
        via=via if detected else "", schedule=schedule,
    )


def make_schedule(choices=(("c", 1),)):
    trace = ScheduleTrace(policy="random")
    trace.choices.extend(choices)
    trace.meta.update({
        "kind": "hunt",
        "fault": {"mechanism": "StaleForwardFault", "unit": "LSU"},
    })
    return trace.to_json()


class TestDigests:
    def test_hunt_digest_ignores_schedule(self):
        with_trace = make_hunt(schedule=make_schedule())
        without = make_hunt(schedule=None)
        assert hunt_digest(with_trace) == hunt_digest(without)

    def test_hunt_digest_sensitive_to_outcome(self):
        assert hunt_digest(make_hunt(detected=True)) != \
            hunt_digest(make_hunt(detected=False))

    def test_failure_digest_none_without_detection_or_trace(self):
        assert failure_digest(make_hunt(detected=False)) is None
        assert failure_digest(make_hunt(detected=True, schedule=None)) is None

    def test_failure_digest_keys_on_behavior(self):
        a = make_hunt(schedule=make_schedule())
        b = make_hunt(schedule=make_schedule())
        assert failure_digest(a) == failure_digest(b)
        different_choices = make_hunt(
            schedule=make_schedule(choices=(("c", 0),))
        )
        assert failure_digest(a) != failure_digest(different_choices)
        different_verdict = make_hunt(
            schedule=make_schedule(), via="spurious alarm"
        )
        assert failure_digest(a) != failure_digest(different_verdict)


class TestRecording:
    def test_record_and_reload(self, tmp_path):
        store = ResultStore(str(tmp_path))
        hunt = make_hunt()
        digest, dedup = store.record_hunt("shard-a", 0, hunt)
        assert dedup is None
        store.mark_shard_done("shard-a")
        store.close()

        fresh = ResultStore(str(tmp_path))
        assert fresh.completed_hunts("shard-a") == {0: hunt}
        assert fresh.shard_done("shard-a")
        assert fresh.hunt_digests() == {digest}

    def test_identical_duplicate_record_is_idempotent(self, tmp_path):
        """A duplicate delivery of the *same* hunt (a late pool reply, a
        fleet overlap) is a no-op: no second line, same return value."""
        store = ResultStore(str(tmp_path))
        digest, dedup = store.record_hunt("shard-a", 0, make_hunt())
        again = store.record_hunt("shard-a", 0, make_hunt())
        assert again == (digest, dedup)
        path = os.path.join(str(tmp_path), "shards", "shard-a.jsonl")
        lines = [json.loads(x) for x in open(path) if x.strip()]
        assert sum(1 for d in lines if d["kind"] == "hunt") == 1

    def test_conflicting_record_raises(self, tmp_path):
        """Two *different* real outcomes for one (shard, bug) is a
        scheduler bug, never silently absorbed."""
        store = ResultStore(str(tmp_path))
        store.record_hunt("shard-a", 0, make_hunt(detected=True))
        with pytest.raises(ValueError, match="already"):
            store.record_hunt("shard-a", 0, make_hunt(detected=False))

    def test_real_result_supersedes_hung_tombstone(self, tmp_path):
        store = ResultStore(str(tmp_path))
        hung = BugHunt(
            spec=cpu_by_name("CPU1").bugs[0], cpu="CPU1", detected=False,
            tests_run=0, via="worker crashed or timed out", hung=True,
        )
        store.record_hunt("shard-a", 0, hung)
        real = make_hunt()
        store.record_hunt("shard-a", 0, real)
        assert store.completed_hunts("shard-a") == {0: real}
        store.close()
        # The replacement wins on replay too (later line supersedes).
        fresh = ResultStore(str(tmp_path))
        assert fresh.completed_hunts("shard-a") == {0: real}
        assert not fresh.completed_hunts("shard-a")[0].hung

    def test_late_hung_tombstone_never_clobbers_a_real_result(self, tmp_path):
        store = ResultStore(str(tmp_path))
        real = make_hunt()
        digest, _ = store.record_hunt("shard-a", 0, real)
        hung = BugHunt(
            spec=cpu_by_name("CPU1").bugs[0], cpu="CPU1", detected=False,
            tests_run=0, via="worker crashed or timed out", hung=True,
        )
        assert store.record_hunt("shard-a", 0, hung)[0] == digest
        assert store.completed_hunts("shard-a") == {0: real}

    def test_dedup_buckets_identical_detections(self, tmp_path):
        store = ResultStore(str(tmp_path))
        first = make_hunt(schedule=make_schedule())
        digest_a, dedup_a = store.record_hunt("shard-a", 0, first)
        digest_b, dedup_b = store.record_hunt("shard-b", 0, first)
        assert dedup_a is None              # first occurrence keeps trace
        assert dedup_b is not None          # duplicate was bucketed
        assert store.completed_hunts("shard-a")[0].schedule is not None
        assert store.completed_hunts("shard-b")[0].schedule is None
        # The stored duplicate digests identically to the original —
        # the digest excludes the schedule by design.
        assert digest_a == digest_b
        assert store.buckets() == {dedup_b: 2}
        assert store.schedule_for(dedup_b) == first.schedule

    def test_bucket_counts_survive_reload(self, tmp_path):
        store = ResultStore(str(tmp_path))
        hunt = make_hunt(schedule=make_schedule())
        store.record_hunt("a", 0, hunt)
        store.record_hunt("b", 0, hunt)
        store.record_hunt("c", 0, hunt)
        store.close()
        fresh = ResultStore(str(tmp_path))
        assert list(fresh.buckets().values()) == [3]
        assert fresh.schedule_for(failure_digest(hunt)) == hunt.schedule


class TestCrashRecovery:
    """Satellite: the store survives a SIGKILL's torn trailing line."""

    def _torn_store(self, tmp_path, keep_bytes=None):
        """A store with hunts 0 and 1 recorded, then the file torn
        mid-way through hunt 1's line (no shard-done marker)."""
        m = manifest()
        shard = m.shards()[0]
        store = ResultStore(str(tmp_path))
        store.record_hunt(shard.shard_id, 0, make_hunt(0))
        store.record_hunt(shard.shard_id, 1, make_hunt(1))
        store.close()
        path = os.path.join(str(tmp_path), "shards",
                            f"{shard.shard_id}.jsonl")
        lines = open(path).read().splitlines(True)
        torn = lines[1][: len(lines[1]) // 2] if keep_bytes is None else \
            lines[1][:keep_bytes]
        with open(path, "w") as fh:
            fh.write(lines[0])
            fh.write(torn)
        return m, shard, path

    def test_torn_trailing_line_skipped_with_warning(self, tmp_path):
        m, shard, path = self._torn_store(tmp_path)
        with pytest.warns(RuntimeWarning, match="torn append"):
            store = ResultStore(str(tmp_path))
        # The intact hunt is kept; only the torn one is lost.
        assert set(store.completed_hunts(shard.shard_id)) == {0}

    def test_resume_requeues_only_the_torn_hunt(self, tmp_path):
        m, shard, _ = self._torn_store(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            store = ResultStore(str(tmp_path))
        pending = store.pending(m)
        assert [(s.shard_id, missing) for s, missing in pending] == [
            (shard.shard_id, [1, 2])  # torn hunt 1 + never-run hunt 2
        ]

    def test_completed_shard_is_never_requeued(self, tmp_path):
        m = manifest()
        shard = m.shards()[0]
        store = ResultStore(str(tmp_path))
        for i in range(shard.hunt_count()):
            store.record_hunt(shard.shard_id, i, make_hunt(i))
        store.mark_shard_done(shard.shard_id)
        store.close()
        fresh = ResultStore(str(tmp_path))
        assert fresh.pending(m) == []

    def test_empty_trailing_junk_is_harmless(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.record_hunt("a", 0, make_hunt())
        store.close()
        path = os.path.join(str(tmp_path), "shards", "a.jsonl")
        with open(path, "a") as fh:
            fh.write("\n\n{not json")
        with pytest.warns(RuntimeWarning):
            fresh = ResultStore(str(tmp_path))
        assert set(fresh.completed_hunts("a")) == {0}


class TestMarkerValidation:
    """Satellite: a done marker outliving a torn mid-file hunt line must
    not wedge the job (pending() skipping it while merged() raises)."""

    def _done_store(self, tmp_path):
        m = manifest()
        shard = m.shards()[0]
        store = ResultStore(str(tmp_path))
        for i in range(shard.hunt_count()):
            store.record_hunt(shard.shard_id, i, make_hunt(i))
        store.mark_shard_done(shard.shard_id)
        store.close()
        path = os.path.join(str(tmp_path), "shards",
                            f"{shard.shard_id}.jsonl")
        return m, shard, path

    def test_marker_with_missing_hunts_demotes_shard(self, tmp_path):
        m, shard, path = self._done_store(tmp_path)
        lines = open(path).read().splitlines(True)
        # Corrupt a *mid-file* hunt line; the done marker survives.
        with open(path, "w") as fh:
            fh.write(lines[0])
            fh.write(lines[1][: len(lines[1]) // 2] + "\n")
            for line in lines[2:]:
                fh.write(line)
        with pytest.warns(RuntimeWarning, match="demoting"):
            store = ResultStore(str(tmp_path))
        assert not store.shard_done(shard.shard_id)
        # The missing hunt is re-queued; intact ones are reused.
        pending = store.pending(m)
        assert [(s.shard_id, missing) for s, missing in pending] == [
            (shard.shard_id, [1])
        ]

    def test_demoted_shard_completes_on_resume(self, tmp_path):
        m, shard, path = self._done_store(tmp_path)
        lines = open(path).read().splitlines(True)
        with open(path, "w") as fh:
            fh.write(lines[0])
            fh.write(lines[1][: len(lines[1]) // 2] + "\n")
            for line in lines[2:]:
                fh.write(line)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            store = ResultStore(str(tmp_path))
        # Resume records the missing hunt and re-marks the shard: the
        # wedge (pending empty + merged raising forever) is gone.
        store.record_hunt(shard.shard_id, 1, make_hunt(1))
        store.mark_shard_done(shard.shard_id)
        assert store.pending(m) == []
        store.close()
        fresh = ResultStore(str(tmp_path))
        assert fresh.shard_done(shard.shard_id)
        assert fresh.pending(m) == []

    def test_pending_checks_marker_against_manifest_hunt_count(
        self, tmp_path
    ):
        """A marker consistent with its *loaded* records but short of the
        manifest's hunt count still re-queues the difference."""
        m = manifest()
        shard = m.shards()[0]
        store = ResultStore(str(tmp_path))
        store.record_hunt(shard.shard_id, 0, make_hunt(0))
        store.mark_shard_done(shard.shard_id)  # marker says 1 hunt
        assert shard.hunt_count() > 1
        pending = store.pending(m)
        assert [(s.shard_id, missing) for s, missing in pending] == [
            (shard.shard_id, list(range(1, shard.hunt_count())))
        ]


class TestHungRequeue:
    """Satellite: a hung record is a tombstone, not a completion —
    resume retries it by default instead of pinning exit code 2."""

    def _hung(self, bug_index=0):
        return BugHunt(
            spec=cpu_by_name("CPU1").bugs[bug_index], cpu="CPU1",
            detected=False, tests_run=0,
            via="worker crashed or timed out", hung=True,
        )

    def test_pending_requeues_hung_hunts(self, tmp_path):
        m = manifest()
        shard = m.shards()[0]
        store = ResultStore(str(tmp_path))
        for i in range(shard.hunt_count()):
            store.record_hunt(
                shard.shard_id, i, self._hung(i) if i == 1 else make_hunt(i)
            )
        store.mark_shard_done(shard.shard_id)
        store.close()
        fresh = ResultStore(str(tmp_path))
        pending = fresh.pending(m)
        assert [(s.shard_id, missing) for s, missing in pending] == [
            (shard.shard_id, [1])
        ]

    def test_requeue_hung_false_keeps_tombstones_final(self, tmp_path):
        m = manifest()
        shard = m.shards()[0]
        store = ResultStore(str(tmp_path))
        for i in range(shard.hunt_count()):
            store.record_hunt(
                shard.shard_id, i, self._hung(i) if i == 1 else make_hunt(i)
            )
        store.mark_shard_done(shard.shard_id)
        store.close()
        fresh = ResultStore(str(tmp_path), requeue_hung=False)
        assert fresh.pending(m) == []


class TestCompaction:
    """Satellite: compaction preserves the hunt-digest set, the stored
    dedup references and schedule_for resolution."""

    def test_compact_preserves_digests_and_dedup(self, tmp_path):
        store = ResultStore(str(tmp_path))
        first = make_hunt(schedule=make_schedule())
        store.record_hunt("shard-a", 0, first)
        store.record_hunt("shard-b", 0, first)   # bucketed duplicate
        store.record_hunt("shard-a", 1, make_hunt(1, detected=False))
        # Lease churn + a superseded tombstone: all compacted away.
        store.append_lease("shard-a", "claim", "h1-1", time=1.0, expires=9.0)
        hung = BugHunt(
            spec=cpu_by_name("CPU1").bugs[2], cpu="CPU1", detected=False,
            tests_run=0, via="worker crashed or timed out", hung=True,
        )
        store.record_hunt("shard-a", 2, hung)
        store.record_hunt("shard-a", 2, make_hunt(2))
        store.append_lease("shard-a", "release", "h1-1", time=2.0, expires=2.0)
        store.mark_shard_done("shard-a")
        store.mark_shard_done("shard-b")
        digests = store.hunt_digests()
        bucket = failure_digest(first)

        deltas = store.compact()
        assert set(deltas) == {"shard-a", "shard-b"}
        before, after = deltas["shard-a"]
        assert after == 4  # three winning hunts + one marker
        assert before > after
        store.close()

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a torn rewrite would warn
            fresh = ResultStore(str(tmp_path))
        assert fresh.hunt_digests() == digests
        assert fresh.shard_done("shard-a") and fresh.shard_done("shard-b")
        assert not fresh.completed_hunts("shard-a")[2].hung
        # The bucketed duplicate still resolves to the canonical trace.
        assert fresh.completed_hunts("shard-b")[0].schedule is None
        assert fresh.schedule_for(bucket) == first.schedule

    def test_compact_refuses_live_shards(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.record_hunt("shard-a", 0, make_hunt())
        with pytest.raises(ValueError, match="not done"):
            store.compact_shard("shard-a")
        assert store.compact() == {}

    def test_append_after_compact_lands_in_the_new_file(self, tmp_path):
        """The cached O_APPEND fd must not keep writing to the unlinked
        pre-compaction inode."""
        store = ResultStore(str(tmp_path))
        store.record_hunt("shard-a", 0, make_hunt(0))
        store.mark_shard_done("shard-a")
        store.compact_shard("shard-a")
        store.record_hunt("shard-a", 1, make_hunt(1))
        store.close()
        fresh = ResultStore(str(tmp_path))
        assert set(fresh.completed_hunts("shard-a")) == {0, 1}


class TestSummary:
    def test_summary_counts(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.record_hunt("a", 0, make_hunt(0))
        store.record_hunt("a", 1, make_hunt(1, detected=False))
        store.mark_shard_done("a")
        hung = BugHunt(
            spec=cpu_by_name("CPU1").bugs[0], cpu="CPU1", detected=False,
            tests_run=0, via="worker crashed or timed out", hung=True,
        )
        store.record_hunt("b", 0, hung)
        summary = store.summary()
        assert summary["hunts_recorded"] == 3
        assert summary["hunts_detected"] == 1
        assert summary["hunts_hung"] == 1
        assert summary["shards_done"] == 1
        assert summary["shards"]["a"]["done"] is True
        assert summary["shards"]["b"]["done"] is False
        assert json.loads(json.dumps(summary)) == summary  # JSON-safe


class _FakeStatusServer:
    """A status endpoint that binds nothing (the address file is what
    these tests look at)."""

    address = ("127.0.0.1", 1)

    def __init__(self, *args, **kwargs):
        pass

    def start(self):
        return self

    def close(self):
        pass


class TestAtomicWrites:
    """Every atomic rewrite goes through ``store.atomic_write``; when its
    ``os.replace`` fails, the file it would replace is left as it was
    and the root still loads."""

    @pytest.fixture()
    def fail_replace(self, monkeypatch):
        """Arm ``os.replace`` to fail for one target path."""
        real_replace = os.replace
        targets = set()

        def replace(src, dst):
            if str(dst) in targets:
                raise OSError(f"injected failure replacing {dst}")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        return lambda path: targets.add(str(path))

    def _service(self, tmp_path, **kwargs):
        kwargs.setdefault("http_port", None)
        return CampaignService(ServiceConfig(root=str(tmp_path), **kwargs))

    def test_spool_submit(self, tmp_path, fail_replace):
        service = self._service(tmp_path)
        first = service.submit(manifest(name="first"))
        second = manifest(name="second")
        fail_replace(service._spool_path(second.job_id))
        with pytest.raises(OSError, match="injected"):
            service.submit(second)
        assert [job for job, _, _ in service.spooled()] == [first]
        assert not os.path.exists(service._spool_path(second.job_id))

    def test_result_json(self, tmp_path, fail_replace):
        service = self._service(tmp_path)
        service._fail_job("job-1", "first reason")
        path = service.result_path("job-1")
        before = open(path).read()
        fail_replace(path)
        with pytest.raises(OSError, match="injected"):
            service._fail_job("job-1", "second reason")
        assert open(path).read() == before
        assert json.loads(before)["error"] == "first reason"
        assert service.job_done("job-1")

    def test_status_address(self, tmp_path, fail_replace, monkeypatch):
        monkeypatch.setattr(daemon, "StatusServer", _FakeStatusServer)
        service = self._service(tmp_path, http_port=0, once=True)
        with open(service.address_path, "w") as fh:
            fh.write("old-host 9\n")
        fail_replace(service.address_path)
        with pytest.raises(OSError, match="injected"):
            service.serve()
        assert open(service.address_path).read() == "old-host 9\n"
        assert service.spooled() == []

    def test_store_manifest(self, tmp_path, fail_replace):
        store = ResultStore(str(tmp_path))
        store.save_manifest(manifest(name="first"))
        fail_replace(store.manifest_path)
        with pytest.raises(OSError, match="injected"):
            store.save_manifest(manifest(name="second"))
        assert store.load_manifest().name == "first"
        store.close()
        assert ResultStore(str(tmp_path)).load_manifest().name == "first"

    def test_compaction(self, tmp_path, fail_replace):
        store = ResultStore(str(tmp_path))
        store.record_hunt("shard-a", 0, make_hunt(0))
        store.record_hunt("shard-a", 1, make_hunt(1, detected=False))
        store.append_lease("shard-a", "claim", "h1-1", time=1.0, expires=9.0)
        store.mark_shard_done("shard-a")
        digests = store.hunt_digests()
        path = store._shard_path("shard-a")
        before = open(path).read()
        fail_replace(path)
        with pytest.raises(OSError, match="injected"):
            store.compact_shard("shard-a")
        store.close()
        assert open(path).read() == before
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh = ResultStore(str(tmp_path))
        assert fresh.hunt_digests() == digests
        assert fresh.shard_done("shard-a")

    def test_every_writer_fsyncs_before_replacing(self, tmp_path, monkeypatch):
        real_fsync = os.fsync
        synced = []

        def fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(daemon, "StatusServer", _FakeStatusServer)
        service = self._service(tmp_path / "svc")
        server = self._service(tmp_path / "served", http_port=0, once=True)
        store = ResultStore(str(tmp_path / "store"))
        store.record_hunt("shard-a", 0, make_hunt(0))
        store.mark_shard_done("shard-a")
        writers = [
            lambda: service.submit(manifest()),
            lambda: service._fail_job("job-1", "reason"),
            server.serve,  # writes status.address, drains an empty spool
            lambda: store.save_manifest(manifest()),
            lambda: store.compact_shard("shard-a"),
        ]
        for write in writers:
            before = len(synced)
            write()
            assert len(synced) == before + 1
        store.close()
