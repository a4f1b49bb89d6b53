"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.api import check
from repro.core.policy import MemoryModel, TSO
from repro.core.result import CheckResult
from repro.core.stream import StreamSession
from repro.generator.config import GeneratorConfig, InstructionMix
from repro.generator.generator import generate_program
from repro.model.expansion import AnalysisProgram, expand
from repro.model.ops import WORD_SIZE
from repro.model.program import Program, parse_litmus
from repro.model.trace import Execution
from repro.sim.machine import MachineConfig, TsoMachine

#: A small, intensely-racy generator config used across tests.
SMALL = GeneratorConfig(nprocs=4, ops_per_proc=50, shared_words=6)

#: Loads/stores/atomics only — no block ops, branches, or oddballs.
PLAIN_MIX = InstructionMix(
    load=40.0, store=40.0, swap=4.0, cas=4.0, membar=4.0,
    block_load=0.0, block_store=0.0, nonfaulting_load=0.0,
    prefetch=0.0, flush=0.0, branch=0.0, interrupt=0.0,
)


def golden_run(
    seed: int,
    config: Optional[GeneratorConfig] = None,
    machine_config: Optional[MachineConfig] = None,
) -> Tuple[Program, Execution, TsoMachine]:
    """Generate and execute one fault-free run."""
    config = config or SMALL
    program = generate_program(config, seed=seed)
    machine = TsoMachine(program, seed=seed, config=machine_config or MachineConfig())
    execution = machine.run()
    return program, execution, machine


def paper_scale_run(seed: int) -> Tuple[Program, Execution]:
    """One fault-free run at the paper's operating point: 16 processors
    x 400 instructions on 16 words, in the runtime measurements' mix."""
    from repro.analysis.runtime import _MEASURE_MIX

    config = GeneratorConfig(
        nprocs=16, ops_per_proc=400, shared_words=16,
        mix=_MEASURE_MIX, loop_prob=0.0,
    )
    program = generate_program(config, seed=seed)
    return program, TsoMachine(program, seed=seed).run()


def litmus_aprog(text: str) -> AnalysisProgram:
    """Parse litmus text and expand it to an analysis program."""
    program, execution = parse_litmus(text)
    return expand(execution, initial=program.initial, word_names=program.word_names)


def stream_check(
    program: Program, execution: Execution, model: MemoryModel = TSO
) -> CheckResult:
    """Check a finished run through a pipeline :class:`StreamSession`,
    fed each processor's records in order: all of P0's, then P1's, ...

    The session declares the words :func:`expand` roots (the initial
    values' and every word a record touches), so op ids, edge lists and
    witnesses line up with a batch expansion of the same run.
    """
    words = set(program.initial)
    for records in execution.records:
        for rec in records:
            addr = getattr(rec.instr, "addr", None)
            if addr is not None:
                words.update(
                    addr + w * WORD_SIZE for w in range(rec.instr.words())
                )
    session = StreamSession(
        model, sorted(words), initial=program.initial,
        word_names=program.word_names, nprocs=len(execution.records),
    )
    for pid, records in enumerate(execution.records):
        for rec in records:
            session.feed(pid, rec)
    return session.finish()


def check_on(
    engine: str, program: Program, execution: Execution,
    model: MemoryModel = TSO,
) -> CheckResult:
    """:func:`check` on a registered engine, or :func:`stream_check`
    for ``"stream"``."""
    if engine == "stream":
        return stream_check(program, execution, model)
    return check(program, execution, model=model, engine=engine)


def describe_map(aprog: AnalysisProgram) -> Dict[str, int]:
    """Map human descriptions to node ids, for edge-level assertions."""
    return {aprog.describe(op.id): op.id for op in aprog.ops}


def count_hw_prefetches(monkeypatch) -> List[int]:
    """Record every line fill the hardware prefetcher makes.

    Wraps :meth:`TsoMachine._maybe_hw_prefetch` for the test; returns
    the list that collects the prefetched word addresses, so a test
    whose layout is meant to exercise the prefetcher can assert it did.
    """
    fills: List[int] = []
    real_prefetch = TsoMachine._maybe_hw_prefetch

    def prefetch(machine, cpu, addr):
        real_install = machine._install_clean

        def install(pid, word, value):
            fills.append(word)
            real_install(pid, word, value)

        machine._install_clean = install
        try:
            real_prefetch(machine, cpu, addr)
        finally:
            del machine._install_clean

    monkeypatch.setattr(TsoMachine, "_maybe_hw_prefetch", prefetch)
    return fills
