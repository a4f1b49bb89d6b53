"""One-call checking API — the front door of the library.

Typical use::

    from repro import check_litmus, TSO

    result = check_litmus('''
        P0: S[B]#91 ; S[A]#1 ; L[A]=2
        P1: S[A]#2
        P2: S[B]#92 ; L[A]=2 ; L[B]=92
        P3: L[B]=92 ; L[B]=91
    ''')
    assert not result.ok        # the paper's Fig. 3 violation
    print(result.explain())

or, end to end against the simulator substrate::

    from repro import GeneratorConfig, generate_program, TsoMachine, check

    program = generate_program(GeneratorConfig(nprocs=4, ops_per_proc=200), seed=7)
    execution = TsoMachine(program, seed=7).run()
    assert check(program, execution).ok
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import telemetry
from repro.core.checker import BaselineChecker
from repro.core.policy import MemoryModel, TSO
from repro.core.result import CheckResult
from repro.core.vc import VectorClockChecker
from repro.model.expansion import expand
from repro.model.program import Program, parse_litmus
from repro.model.trace import Execution

#: Registered checker engines, by name.
ENGINES = {
    "baseline": BaselineChecker,
    "vc": VectorClockChecker,
}

#: The production default: the incremental vector-clock engine (see
#: ``docs/engines.md`` for the two engines and when to pick each).
DEFAULT_ENGINE = "vc"


def make_checker(model: MemoryModel = TSO, engine: str = DEFAULT_ENGINE):
    """Instantiate a checker engine by name (see :data:`ENGINES`)."""
    try:
        cls = ENGINES[engine]
    except KeyError:
        raise ValueError(f"unknown engine {engine!r}; choose from {sorted(ENGINES)}")
    return cls(model)


def check_execution(
    execution: Execution,
    initial: Optional[Dict[int, int]] = None,
    word_names: Optional[Dict[int, str]] = None,
    model: MemoryModel = TSO,
    engine: str = DEFAULT_ENGINE,
) -> CheckResult:
    """Check a raw execution trace against a memory model.

    This is the standalone analysis interface of Sec. 3.3: it needs only
    the dynamic operation stream with load/store values (for instance one
    parsed back from :meth:`repro.model.trace.Execution.load` after a
    what-if edit), plus initial memory values.
    """
    with telemetry.span("expand"):
        aprog = expand(execution, initial=initial, word_names=word_names)
    with telemetry.span("check", engine=engine, model=model.name):
        return make_checker(model, engine).run(aprog)


def check(
    program: Program,
    execution: Execution,
    model: MemoryModel = TSO,
    engine: str = DEFAULT_ENGINE,
) -> CheckResult:
    """Check a program's observed execution against a memory model."""
    return check_execution(
        execution,
        initial=program.initial,
        word_names=program.word_names,
        model=model,
        engine=engine,
    )


def check_litmus(
    text: str, model: MemoryModel = TSO, engine: str = DEFAULT_ENGINE
) -> CheckResult:
    """Parse the paper's litmus notation and check the described outcome."""
    program, execution = parse_litmus(text)
    return check(program, execution, model=model, engine=engine)
