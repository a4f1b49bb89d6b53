"""Sweep acceptance: full outcome enumeration on classic litmus shapes.

This file is the CI sweep smoke job (see .github/workflows/ci.yml): the
systematic scheduler must enumerate the complete outcome set of the
store-buffering and message-passing litmus programs on the TSO machine —
including SB's relaxed ``r1 = r2 = 0`` result, which needs both loads to
overtake both buffered stores, and *excluding* MP's forbidden ``(new,
old)`` result, which TSO's FIFO store buffers cannot produce.  Every
engine must pass every outcome the sweep produces.
"""

from repro.core.api import ENGINES, check
from repro.model.program import parse_litmus
from repro.sched.sweep import sweep_program

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
