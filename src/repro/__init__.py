"""repro — a full reproduction of TSOtool (Hangal et al., ISCA 2004).

TSOtool verifies a shared-memory multiprocessor's implementation of its
memory consistency model by running pseudo-random programs with data
races and checking the observed load values against the formal axioms
with a polynomial-time, sound-but-incomplete constraint-graph algorithm.

This package provides, end to end:

* the analysis algorithm (rules R1–R7, Fig. 2) in two agreeing
  engines — the literal
  :class:`~repro.core.checker.BaselineChecker` and the incremental
  :class:`~repro.core.vc.VectorClockChecker` default (see
  ``docs/engines.md``) — plus the exponential complete procedure
  :func:`~repro.core.complete.complete_check`;
* the memory models TSO, SC and PSO as pluggable ordering policies;
* the pseudo-random racy test generator of Sec. 3.1;
* an operational TSO multiprocessor simulator with store buffers, caches
  and an injectable microarchitectural-bug catalog, standing in for the
  SPARC silicon the paper ran on;
* campaign and runtime harnesses that regenerate Tables 1–2 and
  Figures 8–9 of the paper.

Quickstart::

    import repro

    cfg = repro.GeneratorConfig(nprocs=4, ops_per_proc=100, shared_words=16)
    program = repro.generate_program(cfg, seed=1)
    execution = repro.TsoMachine(program, seed=1).run()
    result = repro.check(program, execution)
    assert result.ok
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core.policy": "TSO SC PSO MemoryModel",
    ".core.checker": "BaselineChecker",
    ".core.result": "CheckResult EdgeReason Violation ViolationKind",
    ".core.complete": "CompleteResult complete_check",
    ".core.api": "check check_execution check_litmus",
    ".generator.config": "GeneratorConfig",
    ".generator.generator": "generate_program",
    ".generator.litmus": "LITMUS_LIBRARY",
    ".model.trace": "Execution",
    ".model.program": "Program Thread parse_litmus",
    ".model.expansion": "expand",
    ".sim.machine": "MachineConfig TsoMachine",
    ".sim.faults": "Fault FaultReport",
    ".sim.cpus": "CPU_CONFIGS",
    ".analysis.coverage": "CoverageReport measure_coverage",
    ".analysis.minimize": "minimize_failure render_minimized",
    ".emit.sparc": "emit_sparc",
    ".generator.patterns": "PATTERNS",
})

__version__ = "1.0.0"

__all__ = [
    "TSO",
    "SC",
    "PSO",
    "MemoryModel",
    "BaselineChecker",
    "CheckResult",
    "CompleteResult",
    "EdgeReason",
    "Violation",
    "ViolationKind",
    "check",
    "check_execution",
    "check_litmus",
    "complete_check",
    "GeneratorConfig",
    "generate_program",
    "LITMUS_LIBRARY",
    "Execution",
    "Program",
    "Thread",
    "expand",
    "parse_litmus",
    "MachineConfig",
    "TsoMachine",
    "Fault",
    "FaultReport",
    "CPU_CONFIGS",
    "CoverageReport",
    "measure_coverage",
    "minimize_failure",
    "render_minimized",
    "emit_sparc",
    "PATTERNS",
    "__version__",
]
