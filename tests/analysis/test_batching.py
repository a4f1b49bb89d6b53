"""Batched dispatch and pipelined campaigns: determinism regressions.

The contract under test is the tentpole invariant of the batching work:
``batch``, ``workers`` and ``pipeline`` change *how* a campaign's hunts
execute — task granularity, process fan-out, check/simulate overlap —
never *which* hunts run or what they record.  Hunt-digest-set equality
(the store's resume witness, schedule and ops excluded) is the
observable.
"""

import dataclasses

import pytest

from repro import telemetry
from repro.analysis import campaign
from repro.analysis.campaign import (
    BugHunt,
    CampaignConfig,
    HuntScratch,
    hunt_batch,
    hunt_bug,
    run_campaign,
)
from repro.generator.config import GeneratorConfig
from repro.service.store import hunt_digest
from repro.sim.cpus import CPU_CONFIGS
from repro.telemetry import MemorySink

#: Small but non-trivial: one CPU roster (three seeded bugs), two
#: attempts each, short racy programs — every (batch, workers) cell
#: below re-runs the identical hunts.
SMALL = CampaignConfig(
    tests_per_bug=2,
    generator=GeneratorConfig(nprocs=2, ops_per_proc=30, shared_words=4),
)
CPUS = CPU_CONFIGS[:1]


@pytest.fixture(autouse=True)
def _reset_global_telemetry():
    yield
    telemetry.reset()


def _digests(result):
    return sorted(hunt_digest(h) for h in result.hunts)


class TestBatchDeterminism:
    def test_digest_set_invariant_across_batch_and_workers(self):
        """The satellite regression: batch x workers never changes the
        hunt-digest set."""
        baseline = _digests(run_campaign(CPUS, SMALL, workers=1))
        assert baseline  # the campaign actually ran hunts
        for batch in (4, 16):
            for workers in (1, 4):
                config = dataclasses.replace(SMALL, batch=batch)
                result = run_campaign(CPUS, config, workers=workers)
                assert _digests(result) == baseline, (
                    f"batch={batch} workers={workers} changed the hunts"
                )

    def test_batch_one_with_workers_matches_sequential(self):
        baseline = _digests(run_campaign(CPUS, SMALL, workers=1))
        parallel = _digests(run_campaign(CPUS, SMALL, workers=4))
        assert parallel == baseline

    def test_hunt_batch_matches_individual_hunts(self):
        """One shared scratch across a batch reproduces solo hunts."""
        cpu = CPUS[0]
        work = [(spec, cpu.name, i) for i, spec in enumerate(cpu.bugs)]
        batched = hunt_batch(work, SMALL, scratch=HuntScratch())
        solo = [
            hunt_bug(spec, cpu.name, SMALL, bug_index=i)
            for spec, _, i in work
        ]
        assert [hunt_digest(h) for h in batched] == [
            hunt_digest(h) for h in solo
        ]

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="batch"):
            CampaignConfig(batch=0)


class TestPipelineParity:
    def test_pipeline_digest_set_matches_conventional(self):
        """Stream-checked hunts reach the identical verdicts/digests."""
        baseline = _digests(run_campaign(CPUS, SMALL, workers=1))
        piped = dataclasses.replace(SMALL, pipeline=True)
        assert _digests(run_campaign(CPUS, piped, workers=1)) == baseline

    def test_pipeline_composes_with_batching(self):
        baseline = _digests(run_campaign(CPUS, SMALL, workers=1))
        both = dataclasses.replace(SMALL, batch=4, pipeline=True)
        assert _digests(run_campaign(CPUS, both, workers=1)) == baseline

    def test_pipeline_matches_conventional_on_long_programs(
        self, monkeypatch
    ):
        """4x600 programs (2,400 op slots per attempt) are stream-checked
        like short ones and reach the conventional digests: a session
        keeps the whole run, so no program size falls back."""
        big = dataclasses.replace(
            SMALL,
            generator=GeneratorConfig(
                nprocs=4, ops_per_proc=600, shared_words=4
            ),
            tests_per_bug=1,
        )
        baseline = _digests(run_campaign(CPUS, big, workers=1))
        sessions = []
        streamed = campaign.stream_check_machine

        def counted(machine, **kwargs):
            sessions.append(len(machine.cpus))
            return streamed(machine, **kwargs)

        monkeypatch.setattr(campaign, "stream_check_machine", counted)
        piped = dataclasses.replace(big, pipeline=True)
        assert _digests(run_campaign(CPUS, piped, workers=1)) == baseline
        assert sessions


class TestHungChunks:
    def test_hung_chunk_tombstones_every_member(self, monkeypatch):
        """A crashed/timed-out batch task yields one hung tombstone per
        member hunt — batching never silently drops work."""

        def fake_run_tasks(fn, tasks, **kwargs):
            from repro.core.result import PoolStats

            return [None for _ in tasks], PoolStats(tasks=len(tasks))

        import repro.analysis.campaign as campaign

        monkeypatch.setattr(campaign, "run_tasks", fake_run_tasks)
        config = dataclasses.replace(SMALL, batch=4)
        result = run_campaign(CPUS, config, workers=1)
        assert len(result.hunts) == len(CPUS[0].bugs)
        assert all(h.hung and not h.detected for h in result.hunts)
        assert result.exit_code() == 2


class TestBatchTelemetry:
    def test_batch_size_histogram_recorded(self):
        sink = MemorySink()
        tel = telemetry.configure(sinks=[sink])
        cpu = CPUS[0]
        work = [(spec, cpu.name, i) for i, spec in enumerate(cpu.bugs)]
        hunt_batch(work, SMALL)
        hist = tel.snapshot()["histograms"]["pool.batch_size"]
        assert hist["count"] == 1
        assert hist["max"] == len(work)

    def test_machine_resets_counted(self):
        tel = telemetry.configure()
        cpu = CPUS[0]
        work = [(spec, cpu.name, i) for i, spec in enumerate(cpu.bugs)]
        hunt_batch(work, SMALL, scratch=HuntScratch())
        counters = tel.snapshot()["counters"]
        # The first attempt builds the machine; every later attempt in
        # the batch reuses it via reset().
        assert counters["sim.machine_resets"] >= len(work) - 1


class TestOpsAccounting:
    def test_ops_counted_and_digest_excluded(self):
        hunt = hunt_bug(CPUS[0].bugs[0], CPUS[0].name, SMALL)
        assert hunt.ops > 0
        stripped = dataclasses.replace(hunt, ops=0)
        assert hunt_digest(hunt) == hunt_digest(stripped)

    def test_ops_round_trips(self):
        hunt = hunt_bug(CPUS[0].bugs[0], CPUS[0].name, SMALL)
        assert BugHunt.from_dict(hunt.to_dict()).ops == hunt.ops
