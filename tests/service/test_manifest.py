"""Tests for the campaign manifest document and its shard expansion."""

import json

import pytest

from repro.analysis.campaign import CampaignConfig
from repro.generator.config import GeneratorConfig
from repro.sched.spec import SchedSpec
from repro.service.manifest import CampaignManifest, Shard


def small(**kwargs):
    defaults = dict(name="t", seeds=(1, 2), cpus=("CPU1", "CPU2"))
    defaults.update(kwargs)
    return CampaignManifest(**defaults)


class TestValidation:
    def test_bad_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            CampaignManifest(name="has spaces")
        with pytest.raises(ValueError, match="name"):
            CampaignManifest(name="")

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            small(seeds=(1, 1))

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            small(seeds=())

    def test_unknown_cpu_rejected(self):
        with pytest.raises(ValueError, match="CPU9"):
            small(cpus=("CPU9",))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            small(engine="nope")
        # A retired engine is unknown too: a manifest naming it fails to
        # load for submission, with the engine named.
        for engine in ("closure", "stream"):
            doc = dict(small().to_dict(), engine=engine)
            with pytest.raises(ValueError, match=f"'{engine}'"):
                CampaignManifest.from_json(json.dumps(doc))

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            small(model="RMO")

    def test_sweep_sched_rejected(self):
        # Same restriction as `tsotool campaign`: a sweep cannot be
        # re-instantiated per hunt attempt.
        with pytest.raises(ValueError, match="sweep"):
            small(sched=SchedSpec(kind="sweep"))

    def test_nonpositive_tests_per_bug_rejected(self):
        with pytest.raises(ValueError, match="tests_per_bug"):
            small(tests_per_bug=0)


class TestIdentity:
    def test_job_id_is_content_addressed(self):
        assert small().job_id == small().job_id
        assert small().job_id != small(seeds=(1, 3)).job_id
        assert small().job_id.startswith("t-")

    def test_shard_ids_deterministic_and_distinct(self):
        a, b = small().shards(), small().shards()
        assert [s.shard_id for s in a] == [s.shard_id for s in b]
        assert len({s.shard_id for s in a}) == len(a)

    def test_shard_expansion_is_seed_major(self):
        shards = small().shards()
        assert [(s.seed, s.cpu) for s in shards] == [
            (1, "CPU1"), (1, "CPU2"), (2, "CPU1"), (2, "CPU2"),
        ]
        assert [s.index for s in shards] == [0, 1, 2, 3]

    def test_different_manifests_never_share_shard_ids(self):
        ours = {s.shard_id for s in small().shards()}
        theirs = {s.shard_id for s in small(tests_per_bug=5).shards()}
        assert not ours & theirs


class TestExpansion:
    def test_empty_cpus_means_all_six(self):
        m = CampaignManifest(name="all", seeds=(1,))
        assert [c.name for c in m.cpu_configs()] == [
            "CPU1", "CPU2", "CPU3", "CPU4", "CPU5", "CPU6",
        ]
        assert len(m.shards()) == 6

    def test_hunt_count_sums_rosters(self):
        m = small()  # CPU1 has 3 bugs, CPU2 has 7; two seeds
        per_seed = sum(s.hunt_count() for s in m.shards()[:2])
        assert m.hunt_count() == 2 * per_seed

    def test_campaign_config_mirrors_manifest(self):
        m = small(tests_per_bug=5, sched=SchedSpec(kind="pct", pct_depth=2),
                  engine="baseline")
        config = m.campaign_config(7)
        assert config.tests_per_bug == 5
        assert config.seed == 7
        assert config.sched.kind == "pct"
        assert config.engine == "baseline"
        # Default generator = the campaign default, not None.
        assert config.generator == CampaignConfig().generator


class TestSerialization:
    def test_round_trip_default(self):
        m = small()
        assert CampaignManifest.from_json(m.to_json()) == m

    def test_round_trip_with_generator(self):
        m = small(generator=GeneratorConfig(nprocs=2, ops_per_proc=40,
                                            shared_words=8))
        back = CampaignManifest.from_json(m.to_json())
        assert back == m
        assert back.digest() == m.digest()

    def test_save_load(self, tmp_path):
        path = str(tmp_path / "m.json")
        m = small()
        m.save(path)
        assert CampaignManifest.load(path) == m

    def test_unsupported_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            CampaignManifest.from_dict({"version": 99, "name": "x"})
