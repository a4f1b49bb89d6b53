"""Reuse safety: warm state never changes a verdict or a hunt.

Two kinds of state outlive one check.  A checker instance may run many
analysis programs (``measure_runtime`` times repeated ``run()`` calls
on one instance), and a :class:`~repro.analysis.campaign.HuntScratch`
lends one reset-reused :class:`~repro.sim.machine.TsoMachine` to every
hunt of a batch.  The contract for both: a run through reused state
must return exactly what fresh state returns, witness included.
"""

import pytest

from repro.core.api import ENGINES, check, make_checker
from repro.core.policy import TSO
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.model.expansion import expand
from repro.model.program import parse_litmus
from repro.sim.cpus import CPU_CONFIGS
from repro.sim.faults import StaleForwardFault
from repro.sim.machine import TsoMachine

FIG3 = """
    P0: S[B]#91 ; S[A]#1 ; L[A]=2
    P1: S[A]#2
    P2: S[B]#92 ; L[A]=2 ; L[B]=92
    P3: L[B]=92 ; L[B]=91
"""


def _cases():
    """(program, execution) pairs of varied size and verdict."""
    cases = [parse_litmus(FIG3)]
    big = generate_program(
        GeneratorConfig(nprocs=4, ops_per_proc=60, shared_words=4), seed=11
    )
    cases.append((big, TsoMachine(big, seed=11).run()))
    small = generate_program(
        GeneratorConfig(nprocs=2, ops_per_proc=20, shared_words=3), seed=7
    )
    cases.append((small, TsoMachine(small, seed=7).run()))
    # A genuinely violating simulated run (not just the litmus case).
    config = GeneratorConfig(nprocs=3, ops_per_proc=50, shared_words=4)
    for seed in range(3, 40):
        faulty = generate_program(config, seed=seed)
        trace = TsoMachine(
            faulty, seed=seed, faults=[StaleForwardFault()]
        ).run()
        if not check(faulty, trace).ok:
            cases.append((faulty, trace))
            break
    return cases


CASES = _cases()


class TestReuseParity:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_fresh_vs_reused_verdict_and_witness(self, engine):
        """Every engine, one checker instance run twice over cases that
        grow, shrink and flip verdict: verdicts and witnesses match a
        fresh checker case for case."""
        assert any(not check(p, e).ok for p, e in CASES)
        reused = make_checker(TSO, engine)
        for _round in range(2):
            for program, execution in CASES:
                aprog = expand(
                    execution, initial=program.initial,
                    word_names=program.word_names,
                )
                fresh = make_checker(TSO, engine).run(aprog)
                again = reused.run(aprog)
                assert again.ok == fresh.ok
                assert again.explain() == fresh.explain()
                if fresh.violation is not None:
                    assert again.violation.kind == fresh.violation.kind
                    assert again.violation.cycle == fresh.violation.cycle


class TestCampaignContextReuse:
    def test_reused_context_in_triage_matches_fresh(self):
        """The campaign-shaped reuse: several hunts through one scratch,
        each compared against the same hunt run without one."""
        from repro.analysis.campaign import CampaignConfig, HuntScratch, hunt_bug
        from repro.service.store import hunt_digest

        config = CampaignConfig(
            tests_per_bug=2,
            generator=GeneratorConfig(
                nprocs=2, ops_per_proc=30, shared_words=4
            ),
        )
        cpu = CPU_CONFIGS[0]
        scratch = HuntScratch()
        for index, spec in enumerate(cpu.bugs):
            with_scratch = hunt_bug(
                spec, cpu.name, config, bug_index=index, scratch=scratch
            )
            without = hunt_bug(spec, cpu.name, config, bug_index=index)
            assert hunt_digest(with_scratch) == hunt_digest(without)
        assert scratch.machine is not None
