"""Tests for the JobRunner: dispatch, resume, and merged equivalence."""

import pytest

from repro.analysis.campaign import format_table1, format_table2, run_campaign
from repro.service.manifest import CampaignManifest
from repro.service.queue import JobRunner
from repro.service.store import ResultStore, hunt_digest
from repro.sim.cpus import cpu_by_name

FAST = dict(tests_per_bug=4)
#: JobRunner batch sizes the dispatch tests drain at: one hunt per pool
#: task, and chunks of several hunts per shard.
BATCHES = (1, 4)


def manifest(**kwargs):
    defaults = dict(name="q", seeds=(2004,), cpus=("CPU1",), **FAST)
    defaults.update(kwargs)
    return CampaignManifest(**defaults)


class TestRun:
    def test_fresh_run_matches_run_campaign(self, tmp_path):
        m = manifest()
        reference = run_campaign(
            cpus=[cpu_by_name("CPU1")], config=m.campaign_config(2004)
        )
        for batch in BATCHES:
            runner = JobRunner(
                m, ResultStore(str(tmp_path / f"b{batch}")), batch=batch
            )
            result = runner.run()
            # Hunt-for-hunt identity — the service must not perturb seeds.
            assert result.hunts == reference.hunts
            assert format_table1(result) == format_table1(reference)
            assert format_table2(result) == format_table2(reference)
            assert result.exit_code() == reference.exit_code()

    def test_multi_seed_order_is_seed_major(self, tmp_path):
        m = manifest(seeds=(1, 2), cpus=("CPU1", "CPU2"))
        result = JobRunner(m, ResultStore(str(tmp_path))).run()
        assert len(result.hunts) == m.hunt_count()
        specs = [(h.cpu, h.spec.name) for h in result.hunts]
        per_seed = specs[: len(specs) // 2]
        assert specs == per_seed + per_seed  # same roster, seed-major

    def test_persists_incrementally_with_markers(self, tmp_path):
        m = manifest()
        store = ResultStore(str(tmp_path))
        JobRunner(m, store).run()
        shard = m.shards()[0]
        assert store.shard_done(shard.shard_id)
        assert set(store.completed_hunts(shard.shard_id)) == set(
            range(shard.hunt_count())
        )

    def test_manifest_saved_alongside_results(self, tmp_path):
        m = manifest()
        store = ResultStore(str(tmp_path))
        JobRunner(m, store)
        assert store.load_manifest() == m


class TestResume:
    def test_completed_store_runs_nothing(self, tmp_path):
        m = manifest()
        JobRunner(m, ResultStore(str(tmp_path))).run()

        store = ResultStore(str(tmp_path))
        runner = JobRunner(m, store)
        assert runner.complete()
        # A completed hunt must never be re-recorded; record_hunt raises
        # on duplicates, so a clean second run proves zero re-execution.
        result = runner.run()
        assert len(result.hunts) == m.hunt_count()

    def test_partial_store_runs_only_missing(self, tmp_path):
        m = manifest(seeds=(1, 2))
        shard_a, shard_b = m.shards()
        from repro.analysis.campaign import hunt_bug
        config = m.campaign_config(shard_a.seed)
        scratch = ResultStore(str(tmp_path / "scratch"))
        JobRunner(m, scratch).run()

        for batch in BATCHES:
            root = str(tmp_path / f"b{batch}")
            # Seed the store with shard A complete, shard B empty.
            full_store = ResultStore(root)
            runner = JobRunner(m, full_store, batch=batch)
            [(_, missing_a), (_, _)] = runner.pending()
            for i in missing_a:
                spec = cpu_by_name(shard_a.cpu).bugs[i]
                full_store.record_hunt(
                    shard_a.shard_id, i,
                    hunt_bug(spec, shard_a.cpu, config, i),
                )
            full_store.mark_shard_done(shard_a.shard_id)
            full_store.close()

            store = ResultStore(root)
            resumed = JobRunner(m, store, batch=batch)
            pending = resumed.pending()
            assert [s.shard_id for s, _ in pending] == [shard_b.shard_id]
            result = resumed.run()
            assert result.exit_code() == 0

            # Digest-set equality with a from-scratch run of the same job.
            assert store.hunt_digests() == scratch.hunt_digests()

    def test_torn_marker_is_reappended_without_rerun(self, tmp_path):
        m = manifest()
        shard = m.shards()[0]
        store = ResultStore(str(tmp_path))
        runner = JobRunner(m, store)
        from repro.analysis.campaign import hunt_bug
        config = m.campaign_config(shard.seed)
        for i in range(shard.hunt_count()):
            spec = cpu_by_name(shard.cpu).bugs[i]
            store.record_hunt(
                shard.shard_id, i, hunt_bug(spec, shard.cpu, config, i)
            )
        # All hunts recorded, marker lost (torn away): run() must only
        # re-append the marker — record_hunt would raise on any re-run.
        assert not store.shard_done(shard.shard_id)
        result = runner.run()
        assert store.shard_done(shard.shard_id)
        assert len(result.hunts) == shard.hunt_count()


class TestMerged:
    def test_merge_of_incomplete_store_raises(self, tmp_path):
        m = manifest()
        runner = JobRunner(m, ResultStore(str(tmp_path)))
        with pytest.raises(ValueError, match="not recorded"):
            runner.merged()

    def test_merged_sched_describes_manifest_policy(self, tmp_path):
        m = manifest()
        result = JobRunner(m, ResultStore(str(tmp_path))).run()
        assert result.sched == m.sched.describe()
