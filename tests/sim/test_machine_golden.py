"""Golden digests of the simulator and the generator.

Every value below was captured from the machine and the generator as
they stood before the simulator's hot paths were table-dispatched (fault
hooks, the tick loop, the invalidate broadcast, cache installs) and the
generator's weighted draws were precomputed.  Those changes promise
byte-identical output, so these digests must never move: a change here
means a seed, a fault activation or a recorded schedule would replay
differently, and every previously recorded campaign result with it.

Each machine digest covers the observed and true traces, the global
commit order, the final tick, every :class:`MachineStats` counter, the
monitor alarms and every fault's activation count.
"""

import hashlib
from dataclasses import asdict

import pytest

from repro.analysis.campaign import CampaignConfig
from repro.generator.config import GeneratorConfig, InstructionMix
from repro.generator.generator import generate_program
from repro.model.program import format_program
from repro.sched.policy import RandomPolicy
from repro.sched.trace import RecordingPolicy
from repro.sim.cpus import CPU_CONFIGS, cpu_by_name
from repro.sim.faults import DroppedInvalidateFault, LostDirtyBitFault
from repro.sim.machine import MachineConfig, TsoMachine

#: The campaign's default 4 x 80 test shape.
_CAMPAIGN_GEN = CampaignConfig().generator

#: A generator shape heavy on loops, directed patterns and non-cacheable
#: traffic, so every generator draw site is exercised.
_HEAVY_GEN = GeneratorConfig(
    nprocs=3,
    ops_per_proc=120,
    shared_words=8,
    loop_prob=0.3,
    loop_body_max=5,
    pattern_prob=0.3,
    nc_words=3,
    mix=InstructionMix(nc_load=8.0, nc_store=8.0, branch=4.0, interrupt=2.0),
)

#: One shared word per cache line, so sequential-line loads (the
#: hardware prefetcher's trigger) actually occur.
_STRIDED_GEN = GeneratorConfig(
    nprocs=4, ops_per_proc=80, shared_words=6, stride_words=16
)


def _machine_digest(machine: TsoMachine, observed) -> str:
    h = hashlib.sha256()
    h.update(observed.dump().encode())
    h.update(machine.true_execution.dump().encode())
    h.update(repr(machine.commit_order).encode())
    h.update(repr(machine.tick).encode())
    h.update(repr(asdict(machine.stats)).encode())
    h.update(repr(machine.monitor_alarms).encode())
    h.update(repr([r.activations for r in machine.fault_reports()]).encode())
    return h.hexdigest()[:16]


def _run(seed, config=None, faults=(), gen=_CAMPAIGN_GEN, policy=None):
    program = generate_program(gen, seed=seed)
    machine = TsoMachine(
        program, seed=seed, config=config, faults=list(faults), policy=policy
    )
    observed = machine.run()
    return machine, observed


#: One digest per CPU roster: every bug of the roster, each hunted on
#: one default campaign program at seed ``100 + bug index``.
ROSTER_GOLDEN = {
    "CPU1": "6248c2358d873be7",
    "CPU2": "eb35396d0f4de14c",
    "CPU3": "f30b66bf19bca074",
    "CPU4": "ef221d8f9ce1e9d7",
    "CPU5": "d4d03d07c2282de1",
    "CPU6": "60deb78f69067133",
}


def _roster_digest(cpu_name: str) -> str:
    h = hashlib.sha256()
    for index, spec in enumerate(cpu_by_name(cpu_name).bugs):
        machine, observed = _run(100 + index, faults=[spec.instantiate()])
        h.update(_machine_digest(machine, observed).encode())
    return h.hexdigest()[:16]


def test_roster_golden_covers_every_cpu():
    assert sorted(ROSTER_GOLDEN) == sorted(cpu.name for cpu in CPU_CONFIGS)
    assert sum(len(cpu.bugs) for cpu in CPU_CONFIGS) == 106


@pytest.mark.parametrize("cpu_name", sorted(ROSTER_GOLDEN))
def test_roster_bug_runs_match_golden(cpu_name):
    assert _roster_digest(cpu_name) == ROSTER_GOLDEN[cpu_name]


#: name -> (seed, machine config factory, fault factory[, generator]).
_MODES = {
    "pso": (3, lambda: MachineConfig(pso_mode=True), lambda: []),
    "sc": (3, lambda: MachineConfig(sc_mode=True), lambda: []),
    "writeback": (
        3, lambda: MachineConfig(writeback=True, cache_lines=2), lambda: []
    ),
    "writeback_lost_dirty": (
        5, lambda: MachineConfig(writeback=True, cache_lines=2),
        lambda: [LostDirtyBitFault(rate=0.3)],
    ),
    "hw_prefetch": (
        3, lambda: MachineConfig(hw_prefetch=True), lambda: [], _STRIDED_GEN
    ),
    "monitor": (3, lambda: MachineConfig(enable_monitor=True), lambda: []),
    "monitor_dropped_invalidate": (
        5, lambda: MachineConfig(enable_monitor=True),
        lambda: [DroppedInvalidateFault(rate=0.5)],
    ),
    "jitter": (3, lambda: MachineConfig(invalidate_jitter=3), lambda: []),
    "jitter_pso_dropped_invalidate": (
        5, lambda: MachineConfig(invalidate_jitter=3, pso_mode=True),
        lambda: [DroppedInvalidateFault(rate=0.5)],
    ),
}

MODE_GOLDEN = {
    "pso": "10bf7cf538b778d6",
    "sc": "83fb4807b3d04b52",
    "writeback": "46fe7b3e63b053a8",
    "writeback_lost_dirty": "54cd684e84461f9f",
    "hw_prefetch": "ebd10a6939b62402",
    "monitor": "e2ba95df2f80f091",
    "monitor_dropped_invalidate": "397f355a1479d7bb",
    "jitter": "1e09d8b603560a74",
    "jitter_pso_dropped_invalidate": "01b68488cc95e4b3",
}


@pytest.mark.parametrize("name", sorted(MODE_GOLDEN))
def test_machine_mode_runs_match_golden(name):
    seed, config_fn, faults_fn, *gen = _MODES[name]
    machine, observed = _run(
        seed, config=config_fn(), faults=faults_fn(), gen=(gen or [_CAMPAIGN_GEN])[0]
    )
    assert _machine_digest(machine, observed) == MODE_GOLDEN[name]


#: A recorded run's schedule JSON: what failure buckets and replays key on.
RECORDED_GOLDEN = "0ccfff86012ab9da"


def test_recorded_schedule_matches_golden():
    h = hashlib.sha256()
    for cpu_name in ("CPU4", "CPU6"):
        for index, spec in enumerate(cpu_by_name(cpu_name).bugs[:6]):
            seed = 200 + index
            recorder = RecordingPolicy(RandomPolicy(seed))
            machine, observed = _run(
                seed, faults=[spec.instantiate()], policy=recorder,
                config=MachineConfig(invalidate_jitter=2),
            )
            h.update(recorder.trace.to_json().encode())
            h.update(_machine_digest(machine, observed).encode())
    assert h.hexdigest()[:16] == RECORDED_GOLDEN


def test_reset_machine_matches_golden_rosters():
    """A machine re-armed by ``reset()`` rebuilds its hook tables."""
    h = hashlib.sha256()
    machine = None
    for index, spec in enumerate(cpu_by_name("CPU5").bugs):
        seed = 100 + index
        program = generate_program(_CAMPAIGN_GEN, seed=seed)
        faults = [spec.instantiate()]
        if machine is None:
            machine = TsoMachine(program, seed=seed, faults=faults)
        else:
            machine.reset(program, seed=seed, faults=faults)
        observed = machine.run()
        h.update(_machine_digest(machine, observed).encode())
    assert h.hexdigest()[:16] == ROSTER_GOLDEN["CPU5"]


GENERATOR_GOLDEN = {
    "campaign": "d9f2886ad269094a",
    "heavy": "ab79c167fa13e1c8",
}


@pytest.mark.parametrize("name", sorted(GENERATOR_GOLDEN))
def test_generated_programs_match_golden(name):
    gen = {"campaign": _CAMPAIGN_GEN, "heavy": _HEAVY_GEN}[name]
    h = hashlib.sha256()
    for seed in range(12):
        program = generate_program(gen, seed=seed)
        h.update(format_program(program).encode())
        h.update(repr(program.threads).encode())
        h.update(b"\n--\n")
    assert h.hexdigest()[:16] == GENERATOR_GOLDEN[name]
