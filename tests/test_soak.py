"""Soak test: exotic machine/generator configurations, end to end.

The per-module suites exercise features in isolation; this file sweeps
combined configurations — PSO draining with hardware prefetch, interrupt
storms over block operations, strided layouts with deep buffers — and
holds the one invariant that matters everywhere: the checker never flags
a legal machine's run.
"""

import pytest

from repro.core.api import check
from repro.core.policy import PSO, SC, TSO
from repro.generator.config import GeneratorConfig, InstructionMix
from repro.generator.generator import generate_program
from repro.sim.machine import MachineConfig, TsoMachine
from tests.util import count_hw_prefetches

EXOTIC_MIXES = {
    "block-heavy": InstructionMix(
        load=10, store=10, block_load=10, block_store=10, membar=3,
        swap=2, cas=2,
    ),
    "atomic-storm": InstructionMix(
        load=5, store=5, swap=20, cas=20, membar=5,
    ),
    "interrupt-storm": InstructionMix(
        load=15, store=15, interrupt=15, membar=5,
    ),
    "branchy-loops": InstructionMix(
        load=20, store=20, branch=15, membar=2,
    ),
    "oddballs": InstructionMix(
        load=10, store=10, nonfaulting_load=10, prefetch=10, flush=10,
        nc_load=5, nc_store=5,
    ),
}

EXOTIC_MACHINES = {
    "deep-buffer": MachineConfig(buffer_capacity=32, drain_bias=0.05),
    "shallow-buffer": MachineConfig(buffer_capacity=1, drain_bias=0.9),
    "pso+prefetch": MachineConfig(pso_mode=True, hw_prefetch=True),
    "sc+monitor": MachineConfig(sc_mode=True, enable_monitor=True),
    "writeback-tiny": MachineConfig(writeback=True, cache_lines=1),
    "writeback-prefetch": MachineConfig(
        writeback=True, cache_lines=2, hw_prefetch=True, enable_monitor=True
    ),
}


@pytest.mark.parametrize("mix_name", sorted(EXOTIC_MIXES))
@pytest.mark.parametrize("machine_name", sorted(EXOTIC_MACHINES))
def test_exotic_configurations_stay_sound(mix_name, machine_name, monkeypatch):
    machine_config = EXOTIC_MACHINES[machine_name]
    model = PSO if machine_config.pso_mode else TSO
    prefetches = count_hw_prefetches(monkeypatch)
    for seed in range(3):
        if machine_config.hw_prefetch:
            # Eight words at stride 8 span four cache lines.  At strides
            # 1 and 4 they fit in one or two lines, so a sequential-line
            # load never finds a next line holding a word to prefetch.
            stride = 8
        else:
            stride = 4 if seed % 2 else 1
        config = GeneratorConfig(
            nprocs=4,
            ops_per_proc=50,
            shared_words=8,
            stride_words=stride,
            mix=EXOTIC_MIXES[mix_name],
            loop_prob=0.1 if mix_name == "branchy-loops" else 0.0,
        )
        program = generate_program(config, seed=seed)
        machine = TsoMachine(program, seed=seed, config=machine_config)
        execution = machine.run()
        result = check(program, execution, model=model)
        assert result.ok, (
            f"{mix_name}/{machine_name}/seed{seed}:\n" + result.explain()
        )
        if machine_config.enable_monitor:
            assert machine.monitor_alarms == []
    if machine_config.hw_prefetch:
        assert prefetches


def test_many_processors_few_words():
    # Sixteen CPUs hammering two words: maximal contention.
    config = GeneratorConfig(nprocs=16, ops_per_proc=25, shared_words=2)
    for seed in range(3):
        program = generate_program(config, seed=seed)
        execution = TsoMachine(program, seed=seed).run()
        assert check(program, execution).ok


def test_single_processor_is_trivially_sequential():
    # One CPU: every model accepts every golden run.
    config = GeneratorConfig(nprocs=1, ops_per_proc=120, shared_words=4)
    for seed in range(3):
        program = generate_program(config, seed=seed)
        execution = TsoMachine(program, seed=seed).run()
        for model in (SC, TSO, PSO):
            assert check(program, execution, model=model).ok


def test_wide_strides_isolate_lines():
    # Every word on its own cache line: no false sharing, prefetcher busy.
    config = GeneratorConfig(nprocs=4, ops_per_proc=60, shared_words=8,
                             stride_words=16)
    for seed in range(3):
        program = generate_program(config, seed=seed)
        machine = TsoMachine(
            program, seed=seed, config=MachineConfig(hw_prefetch=True)
        )
        assert check(program, machine.run()).ok
