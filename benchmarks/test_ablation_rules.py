"""Ablation: what the inferred rules R6/R7 buy (DESIGN.md choice #2).

The static rules R1–R3 plus the observed rules R4/R5 are cheap; R6/R7
carry the fixed-point cost.  This bench measures both sides of that
trade on the litmus library and on fault-injected machine runs: how many
violations each configuration catches, and what it pays.
"""

import pytest

from repro.core.vc import VectorClockChecker
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.generator.litmus import LITMUS_LIBRARY
from repro.model.expansion import expand
from repro.sim.faults import DroppedInvalidateFault, StoreBufferReorderFault
from repro.sim.machine import TsoMachine
from tests.util import litmus_aprog


def _violating_tso_cases():
    return [c for c in LITMUS_LIBRARY if c.expect.get("TSO") is False]


def test_rule_ablation_detection_rate(benchmark, record):
    """R6/R7 off: how many litmus and injected violations survive?"""
    full = VectorClockChecker()
    ablated = VectorClockChecker(inferred_rules=False)

    litmus_cases = _violating_tso_cases()
    full_catches = ablated_catches = 0
    for case in litmus_cases:
        if not full.run(litmus_aprog(case.text)).ok:
            full_catches += 1
        if not ablated.run(litmus_aprog(case.text)).ok:
            ablated_catches += 1

    # Fault-injected runs: count detected violations over a fixed set.
    config = GeneratorConfig(nprocs=4, ops_per_proc=80, shared_words=6)
    injected_full = injected_ablated = injected_total = 0
    for seed in range(20):
        for mechanism in (StoreBufferReorderFault, DroppedInvalidateFault):
            program = generate_program(config, seed=seed)
            machine = TsoMachine(program, seed=seed, faults=[mechanism(rate=0.6)])
            execution = machine.run()
            aprog = expand(
                execution, initial=program.initial, word_names=program.word_names
            )
            injected_total += 1
            if not full.run(aprog).ok:
                injected_full += 1
            if not ablated.run(aprog).ok:
                injected_ablated += 1

    record(
        "ablation_rules",
        "Ablation: inferred rules R6/R7 on vs off\n"
        f"  litmus violations caught:   full {full_catches}/{len(litmus_cases)}, "
        f"without R6/R7 {ablated_catches}/{len(litmus_cases)}\n"
        f"  injected-fault runs flagged: full {injected_full}/{injected_total}, "
        f"without R6/R7 {injected_ablated}/{injected_total}",
    )

    assert full_catches == len(litmus_cases)
    # Without the inferred edges the checker must lose real detections.
    assert ablated_catches < full_catches
    assert injected_ablated < injected_full

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_rule_ablation_runtime(benchmark):
    """What R6/R7 cost on a clean run of moderate size."""
    from repro.analysis.runtime import _MEASURE_MIX

    config = GeneratorConfig(
        nprocs=4, ops_per_proc=300, shared_words=16,
        mix=_MEASURE_MIX, loop_prob=0.0,
    )
    program = generate_program(config, seed=23)
    execution = TsoMachine(program, seed=23).run()
    aprog = expand(execution, initial=program.initial)

    full = VectorClockChecker()
    ablated = VectorClockChecker(inferred_rules=False)
    result = benchmark.pedantic(
        lambda: full.run(aprog), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.ok
    ablated_result = ablated.run(aprog)
    assert ablated_result.ok
    benchmark.extra_info.update(
        full_seconds=result.stats.seconds,
        ablated_seconds=ablated_result.stats.seconds,
        inferred_edges=result.stats.inferred_edges,
    )
