"""The paper's contribution: the polynomial-time memory-model checker.

Public surface:

* :data:`repro.core.policy.TSO` / ``SC`` / ``PSO`` — memory-model
  ordering policies (Sec. 2 and footnote 2 of Sec. 4),
* :func:`repro.core.api.check` / :func:`repro.core.api.check_execution` /
  :func:`repro.core.api.check_litmus` — one-call checking,
* :class:`repro.core.result.CheckResult` — verdict, violation witness
  with per-edge reasons, DOT export,
* :class:`repro.core.checker.BaselineChecker` — the literal Fig. 2
  algorithm,
* :class:`repro.core.vc.VectorClockChecker` — the optimized default
  engine (incremental chain frontiers; see ``docs/engines.md``), whose
  core :func:`repro.core.stream.stream_check_machine` drives one record
  at a time while campaign pipeline mode simulates,
* :func:`repro.core.complete.complete_check` — the exponential complete
  decision procedure (enforces the Order axiom; small programs only).

The package is stdlib-only: no engine needs numpy.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".policy": "TSO SC PSO MemoryModel",
    ".api": "check check_execution check_litmus",
    ".result": "CheckResult Violation ViolationKind EdgeReason",
    ".checker": "BaselineChecker",
    ".vc": "VectorClockChecker",
    ".complete": "complete_check CompleteResult",
    ".axioms": "verify_witness",
    ".htmlreport": "render_html",
    ".reduction": "vsc_to_vtso",
    ".observability": "ObservabilityChecker check_with_store_order",
})

__all__ = [
    "TSO",
    "SC",
    "PSO",
    "MemoryModel",
    "check",
    "check_execution",
    "check_litmus",
    "CheckResult",
    "Violation",
    "ViolationKind",
    "EdgeReason",
    "BaselineChecker",
    "VectorClockChecker",
    "complete_check",
    "CompleteResult",
    "verify_witness",
    "render_html",
    "vsc_to_vtso",
    "ObservabilityChecker",
    "check_with_store_order",
]
