"""Sweep acceptance: full outcome enumeration on classic litmus shapes.

This file is the CI sweep smoke job (see .github/workflows/ci.yml): the
systematic scheduler must enumerate the complete outcome set of the
store-buffering and message-passing litmus programs on the TSO machine —
including SB's relaxed ``r1 = r2 = 0`` result, which needs both loads to
overtake both buffered stores, and *excluding* MP's forbidden ``(new,
old)`` result, which TSO's FIFO store buffers cannot produce.  Every
engine must pass every outcome the sweep produces.

The differential soundness oracle below extends that to every program
of :data:`~repro.generator.litmus.LITMUS_LIBRARY` on the TSO, PSO and SC
machines: each operational outcome is legal by construction, so every
engine and the exhaustive ``complete_check`` must accept it, and the
outcome counts and the programs whose schedule tree does not finish
within the budget are pinned.
"""

import pytest

from repro.core.api import ENGINES, check
from repro.core.complete import complete_check
from repro.core.policy import PSO, SC, TSO
from repro.generator.litmus import LITMUS_LIBRARY
from repro.model.expansion import expand
from repro.model.program import parse_litmus
from repro.sched.sweep import sweep_program
from repro.sim.machine import MachineConfig

SB = """
P0: S[A]#1 ; L[B]=0
P1: S[B]#2 ; L[A]=0
"""

MP = """
P0: S[X]#1 ; S[Y]#2
P1: L[Y]=0 ; L[X]=0
"""


def _bit(loaded, new_value):
    """0 for the initial value, 1 for the (counter-sourced) stored value.

    The machine sources store values from a per-CPU counter at run time
    (unique-value guarantee), so the litmus ``#v`` literals are not what
    lands in memory — compare against the store's own recorded value.
    """
    if loaded == 0:
        return 0
    assert loaded == new_value, f"unexpected loaded value {loaded}"
    return 1


def test_sb_enumerates_all_four_outcomes():
    program, _ = parse_litmus(SB)
    result = sweep_program(program, budget=4096)
    assert result.stats.complete, "SB schedule tree should be finite"
    outcomes = set()
    for o in result.outcomes.values():
        recs = o.execution.records
        r0 = _bit(recs[0][1].loaded[0], recs[1][0].stored[0])  # P0: L[B]
        r1 = _bit(recs[1][1].loaded[0], recs[0][0].stored[0])  # P1: L[A]
        outcomes.add((r0, r1))
    # All four combinations are TSO-legal — including the relaxed (0, 0)
    # that SC forbids (both loads overtake both buffered stores).
    assert outcomes == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for engine in sorted(ENGINES):
        for o in result.outcomes.values():
            assert check(program, o.execution, engine=engine).ok, engine


def test_mp_never_produces_the_forbidden_outcome():
    program, _ = parse_litmus(MP)
    result = sweep_program(program, budget=4096)
    assert result.stats.complete, "MP schedule tree should be finite"
    outcomes = set()
    for o in result.outcomes.values():
        recs = o.execution.records
        ry = _bit(recs[1][0].loaded[0], recs[0][1].stored[0])  # P1: L[Y]
        rx = _bit(recs[1][1].loaded[0], recs[0][0].stored[0])  # P1: L[X]
        outcomes.add((ry, rx))
    # Seeing the new Y but the old X would require reordering P0's FIFO
    # stores — impossible under TSO.
    assert (1, 0) not in outcomes
    assert outcomes == {(0, 0), (0, 1), (1, 1)}
    for engine in sorted(ENGINES):
        for o in result.outcomes.values():
            assert check(program, o.execution, engine=engine).ok, engine


#: Machine mode -> (memory model its outcomes are checked against,
#: machine configuration that produces them).
_MACHINES = {
    "TSO": (TSO, MachineConfig()),
    "PSO": (PSO, MachineConfig(pso_mode=True)),
    "SC": (SC, MachineConfig(sc_mode=True)),
}

#: Schedules each sweep may run.
BUDGET = 4096

#: Programs whose schedule tree does not finish within ``BUDGET``.  The
#: Fig. 3 and Fig. 5 shapes branch on about 15 decisions per schedule;
#: ``R`` finishes only on the SC machine, where no store is buffered.
UNFINISHED = {
    (name, mode)
    for name in ("fig3", "fig5_base", "fig5_mirrored")
    for mode in ("TSO", "PSO", "SC")
} | {("R", "TSO"), ("R", "PSO")}

#: Distinct outcomes of every finished sweep: name -> (TSO, PSO, SC).
OUTCOME_COUNTS = {
    "fig6": (3, 3, 3),
    "fig7": (3, 3, 3),
    "SB": (4, 4, 3),
    "SB+membars": (3, 3, 3),
    "MP": (3, 4, 3),
    "MP+membar": (3, 3, 3),
    "LB": (3, 3, 3),
    "IRIW": (15, 15, 15),
    "CoRR": (6, 6, 6),
    "CoRR-ok": (6, 6, 6),
    "store-forwarding": (4, 4, 3),
    "atomic-mutex": (2, 2, 2),
    "cas-fail-race": (3, 3, 3),
    "WRC": (7, 7, 7),
    "RWC": (7, 7, 7),
    "S": (13, 14, 13),
    "R": (None, None, 13),
    "SB+one-membar": (4, 4, 3),
    "CoWR": (3, 3, 3),
    "atomic-chain": (2, 2, 2),
    "atomic-chain-backwards": (12, 12, 12),
    "CO-2observers": (47, 47, 47),
}


def test_oracle_tables_cover_the_whole_library():
    names = {case.name for case in LITMUS_LIBRARY}
    assert len(names) == 25
    finished = {
        (name, mode)
        for name, counts in OUTCOME_COUNTS.items()
        for mode, count in zip(_MACHINES, counts)
        if count is not None
    }
    assert finished.isdisjoint(UNFINISHED)
    assert finished | UNFINISHED == {
        (name, mode) for name in names for mode in _MACHINES
    }


@pytest.mark.parametrize("mode", sorted(_MACHINES))
@pytest.mark.parametrize("case", LITMUS_LIBRARY, ids=lambda case: case.name)
def test_every_swept_outcome_is_legal_under_every_oracle(case, mode):
    model, config = _MACHINES[mode]
    program, _ = parse_litmus(case.text)
    result = sweep_program(program, config=config, budget=BUDGET)
    finished = (case.name, mode) not in UNFINISHED
    assert result.stats.complete == finished, (
        f"{case.name} on the {mode} machine "
        f"{'no longer' if finished else 'now'} finishes within {BUDGET}"
    )
    if finished:
        expected = OUTCOME_COUNTS[case.name][list(_MACHINES).index(mode)]
        assert len(result.outcomes) == expected
    for outcome in result.outcomes.values():
        aprog = expand(
            outcome.execution, initial=program.initial,
            word_names=program.word_names,
        )
        complete = complete_check(aprog, model)
        verdicts = {
            engine: check(program, outcome.execution, model=model,
                          engine=engine).ok
            for engine in sorted(ENGINES)
        }
        # Soundness: an engine may only reject what the exhaustive
        # procedure also rejects.
        for engine, ok in verdicts.items():
            assert ok or complete.valid is False, (
                f"{engine} rejects an outcome complete_check accepts"
            )
        # The machine only produces legal outcomes, so nothing rejects.
        assert complete.valid is True, outcome.execution.dump()
        assert all(verdicts.values()), verdicts
