"""The three benchmark workloads, driven through the library's public API.

Each workload draws its inputs from a pinned pool of *members* (program
seeds, campaign seeds, or campaign-seed pairs).  The benchmark's
``--seed`` only chooses the order in which pool members run, so every
run's inputs come from the seed, and every member's outputs can be
checked against the counts and digests pinned for it in
``pinned.json``.  One held-out member per workload is never run unless
``--held-out`` is given; a later claim must also hold there.

A *unit* is the timed operation: one paper-scale test (generate →
simulate → expand → check), one whole campaign, or one job drain.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.campaign import CampaignConfig, run_campaign
from repro.core.api import check
from repro.generator.config import GeneratorConfig, InstructionMix
from repro.generator.generator import generate_program
from repro.service.manifest import CampaignManifest
from repro.service.queue import JobRunner
from repro.service.store import ResultStore, hunt_digest
from repro.sim.cpus import CPU_CONFIGS
from repro.sim.machine import TsoMachine

#: The load/store/atomic mix of the paper's runtime measurements, so
#: analysis nodes track the requested operation count.
MEASURE_MIX = InstructionMix(
    load=40.0, store=40.0, swap=3.0, cas=3.0, membar=3.0,
    block_load=0.0, block_store=0.0, nonfaulting_load=0.0,
    prefetch=0.0, flush=0.0, branch=0.0, interrupt=0.0,
)

#: Sizes per profile.  ``full`` is the benchmark; ``tiny`` exists for
#: the smoke test and runs each layer on inputs a hundred times smaller.
PROFILES: Dict[str, Dict[str, object]] = {
    "full": {
        "paper": GeneratorConfig(
            nprocs=16, ops_per_proc=400, shared_words=16,
            mix=MEASURE_MIX, loop_prob=0.0,
        ),
        "campaign_generator": None,  # CampaignConfig's default 4x80
        "cpus": tuple(cpu.name for cpu in CPU_CONFIGS),
        "tests_per_bug": 10,
        "batch": 16,
        "paper_pool": [1, 2, 3, 4, 5, 6, 7, 8],
        "paper_held_out": 101,
        "campaign_pool": [1, 2, 3, 4, 5, 6, 7, 8],
        "campaign_held_out": [9001, 9002],
    },
    "tiny": {
        "paper": GeneratorConfig(
            nprocs=4, ops_per_proc=40, shared_words=4,
            mix=MEASURE_MIX, loop_prob=0.0,
        ),
        "campaign_generator": GeneratorConfig(
            nprocs=3, ops_per_proc=40, shared_words=4
        ),
        "cpus": ("CPU1",),
        "tests_per_bug": 4,
        "batch": 4,
        "paper_pool": [1, 2],
        "paper_held_out": 3,
        "campaign_pool": [1, 2],
        "campaign_held_out": [3, 4],
    },
}


def no_span(name: str):
    return contextlib.nullcontext()


@dataclass
class Unit:
    """One timed operation and what it produced.

    ``ops`` counts the operations it attempted (tests or hunts, plus the
    service's resume) and ``failed`` those whose output was wrong.
    ``counts`` holds what must repeat exactly for the member.
    """

    member: str
    wall: float
    tests: int
    ops: int
    hunts: int = 0
    failed: int = 0
    counts: Dict[str, object] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)


def member_key(member) -> str:
    if isinstance(member, (list, tuple)):
        return "+".join(str(m) for m in member)
    return str(member)


class Workload:
    name = ""
    #: Runs its units in ``workers`` pool processes.  Such units are not
    #: scaled by the one-core reference (see ``reference.py``).
    uses_pool = False

    def __init__(self, profile: str, pinned: Dict[str, object], workdir: str) -> None:
        self.profile = PROFILES[profile]
        self.pinned = pinned
        self.workdir = workdir
        #: Worker processes for pool-backed workloads (the harness sets
        #: it per phase).
        self.workers = 1
        #: Span factory; the traced run swaps in the tracer's.
        self.span: Callable = no_span

    def pool(self) -> List[object]:
        raise NotImplementedError

    def held_out(self) -> List[object]:
        raise NotImplementedError

    def run_unit(self, member) -> Unit:
        raise NotImplementedError

    def expected(self, member) -> Optional[Dict[str, object]]:
        """The pinned record for ``member`` (None before pinning)."""
        return self.pinned.get(self.name, {}).get(member_key(member))


class PaperScale(Workload):
    """16 processors x 400 instructions on 16 words, golden machine."""

    name = "paper_scale"

    def pool(self):
        return list(self.profile["paper_pool"])

    def held_out(self):
        return [self.profile["paper_held_out"]]

    def run_unit(self, seed) -> Unit:
        start = time.perf_counter()
        program = generate_program(self.profile["paper"], seed=seed)
        machine = TsoMachine(program, seed=seed)
        execution = machine.run()
        result = check(program, execution)
        wall = time.perf_counter() - start
        counts = {
            "verdict": "PASS" if result.ok else "FAIL",
            "nodes": result.stats.nodes,
            "edges": result.stats.edges,
            "iterations": result.stats.iterations,
            "closure_rebuilds": result.stats.closure_rebuilds,
            "sim.cycles": machine.tick,
            "sim.records": sum(len(r) for r in execution.records),
        }
        unit = Unit(member_key(seed), wall, tests=1, ops=1, counts=counts)
        expected = self.expected(seed)
        if counts["verdict"] != "PASS" or (
            expected is not None and expected["counts"] != counts
        ):
            unit.failed = 1
        return unit


def _digest_mismatches(got: List[str], want: Optional[List[str]]) -> int:
    if want is None:
        return 0
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


class Campaign(Workload):
    """The Table 1/2 campaign: all six rosters through ``run_campaign``."""

    name = "campaign"
    uses_pool = True

    def pool(self):
        return list(self.profile["campaign_pool"])

    def held_out(self):
        return list(self.profile["campaign_held_out"])

    def config(self, seed: int) -> CampaignConfig:
        kwargs = dict(
            seed=seed,
            tests_per_bug=self.profile["tests_per_bug"],
            batch=self.profile["batch"],
        )
        if self.profile["campaign_generator"] is not None:
            kwargs["generator"] = self.profile["campaign_generator"]
        return CampaignConfig(**kwargs)

    def run_unit(self, seed) -> Unit:
        cpus = [c for c in CPU_CONFIGS if c.name in self.profile["cpus"]]
        config = self.config(seed)
        start = time.perf_counter()
        result = run_campaign(cpus, config, workers=self.workers)
        wall = time.perf_counter() - start
        digests = [hunt_digest(h) for h in result.hunts]
        record = self.expected(seed)
        want = record["counts"]["hunts"] if record else None
        unit = Unit(
            member_key(seed), wall,
            tests=sum(h.tests_run for h in result.hunts),
            ops=max(len(digests), len(want or ())),
            hunts=len(result.hunts),
            counts={"hunts": digests, "exit_code": result.exit_code()},
        )
        unit.failed = _digest_mismatches(digests, want)
        return unit


class ServicePipeline(Workload):
    """The same rosters as a two-seed manifest drained by a JobRunner."""

    name = "service_pipeline"
    uses_pool = True

    def pool(self):
        seeds = self.profile["campaign_pool"]
        return [[a, seeds[(i + 1) % len(seeds)]] for i, a in enumerate(seeds)]

    def held_out(self):
        return [list(self.profile["campaign_held_out"])]

    def manifest(self, seeds) -> CampaignManifest:
        return CampaignManifest(
            name="perfbench",
            seeds=tuple(seeds),
            cpus=tuple(self.profile["cpus"]),
            tests_per_bug=self.profile["tests_per_bug"],
            generator=self.profile["campaign_generator"],
            batch=self.profile["batch"],
            pipeline=True,
        )

    def campaign_digests(self, seeds) -> Optional[List[str]]:
        """The campaign workload's pinned digests for these seeds, in
        manifest order: the service must reproduce them hunt for hunt."""
        campaign = self.pinned.get("campaign", {})
        out: List[str] = []
        for seed in seeds:
            record = campaign.get(member_key(seed))
            if record is None:
                return None
            out.extend(record["counts"]["hunts"])
        return out

    def run_unit(self, seeds) -> Unit:
        manifest = self.manifest(seeds)
        root = tempfile.mkdtemp(prefix="job-", dir=self.workdir)
        try:
            start = time.perf_counter()
            store = ResultStore(root)
            drained = JobRunner(
                manifest, store, workers=self.workers, owner="perfbench"
            ).run()
            store.close()
            wall = time.perf_counter() - start
            store_bytes = sum(
                os.path.getsize(os.path.join(d, f))
                for d, _, files in os.walk(root) for f in files
            )
            with self.span("service.resume"):
                resume_start = time.perf_counter()
                store = ResultStore(root)
                resumed = JobRunner(
                    manifest, store, workers=self.workers,
                    owner="perfbench-resume",
                ).run()
                store.close()
                resume_s = time.perf_counter() - resume_start
        finally:
            shutil.rmtree(root, ignore_errors=True)
        digests = [hunt_digest(h) for h in drained.hunts]
        resumed_digests = [hunt_digest(h) for h in resumed.hunts]
        want = self.campaign_digests(seeds)
        unit = Unit(
            member_key(seeds), wall,
            tests=sum(h.tests_run for h in drained.hunts),
            ops=max(len(digests), len(want or ())) + 1,
            hunts=len(drained.hunts),
            counts={"exit_code": drained.exit_code()},
            extra={"resume_s": resume_s, "store_bytes": float(store_bytes)},
        )
        unit.failed = _digest_mismatches(digests, want)
        if (
            drained.exit_code() != 0
            or resumed.exit_code() != 0
            or resumed_digests != digests
        ):
            unit.failed += 1
        return unit


WORKLOADS = {w.name: w for w in (PaperScale, Campaign, ServicePipeline)}
