"""Edge reasons as a check records them: a rule code and node ids.

Every explicit edge of the analysis graph has a reason (Sec. 3.4), but
only a witness or a graph dump ever reads one.  So an engine hands the
graph a small integer code plus up to three node ids, and the graph's
edge log (:class:`repro.core.graph.ConstraintGraph`) stores just those;
:func:`decode` turns a logged edge back into its
:class:`~repro.core.result.EdgeReason` when it is read:

* a static rule (R1–R3, ``atomic``, ``init``) decodes to its shared
  :data:`STATIC_REASONS` instance;
* R4/R5, the node-id R6/R7 of vc and the pipeline, and the baseline's
  described R6/R7 decode to a deferred reason with the renderer and
  arguments the engine would have built it with, so its text is the
  same;
* :data:`GIVEN` marks an arbitrary reason (an environment-supplied
  edge, a test's own) that the graph keeps as given.
"""

from __future__ import annotations

from typing import Optional

from repro.core.result import EdgeReason
from repro.model.expansion import AnalysisProgram

#: The static rules, shared by every edge they explain.
R1, R2, R3, ATOMIC, INIT = range(5)
#: ``(load, store)``: the load observed a store not earlier in its
#: processor's program order.
R4 = 5
#: ``(load, store, s_prime)``: the load observed ``store`` despite its
#: program-order-earlier same-address ``s_prime``.
R5 = 6
#: ``(s_prime, load, target)``, rendered with node ids (vc, pipeline).
R6 = 7
#: ``(load, store, s_prime)``, rendered with node ids (vc, pipeline).
R7 = 8
#: R6 and R7 with the same arguments, rendered with each node's
#: description (the baseline).
R6_DESCRIBED = 9
R7_DESCRIBED = 10
#: An arbitrary :class:`EdgeReason`, kept as given.
GIVEN = 11

#: The rule each code stands for.
RULE_NAMES = (
    "R1", "R2", "R3", "atomic", "init", "R4", "R5", "R6", "R7", "R6", "R7",
)
#: How many node ids each code's reason reads (:data:`GIVEN` last).
NODE_IDS = (0, 0, 0, 0, 0, 2, 3, 3, 3, 3, 3, 0)

#: A static rule's code, by the name :func:`repro.core.policy.static_edges`
#: yields.
STATIC_CODES = {rule: code for code, rule in enumerate(RULE_NAMES[:R4])}

#: One shared reason per static rule (R1–R3, ``atomic``, ``init``).
STATIC_REASONS = {
    rule: EdgeReason(rule, "program order") for rule in STATIC_CODES
}
_STATIC = tuple(STATIC_REASONS.values())


def _r4_text(aprog: AnalysisProgram, load: int, store: int) -> str:
    return (
        f"{aprog.describe(load)} observed the value of "
        f"{aprog.describe(store)}, which is not an earlier store of "
        "the same processor, so the store must be globally visible "
        "before the load binds (Value axiom)"
    )


def _r5_text(
    aprog: AnalysisProgram, load: int, store: int, s_prime: int
) -> str:
    return (
        f"{aprog.describe(load)} observed {aprog.describe(store)} "
        f"despite the program-order-earlier {aprog.describe(s_prime)}; "
        "by the Value axiom that earlier store must be globally "
        "ordered before the observed one"
    )


_r6_text = (
    "store n{} precedes load n{}, which observed store n{} (Value axiom)"
).format
_r7_text = (
    "load n{} observed store n{}, which precedes store n{} (Value axiom)"
).format


def _r6_described(
    aprog: AnalysisProgram, s_prime: int, load: int, target: int
) -> str:
    return (
        f"{aprog.describe(s_prime)} precedes {aprog.describe(load)} "
        f"in the global order, and the load observed "
        f"{aprog.describe(target)}; by the Value axiom the preceding "
        "store must come before the observed one"
    )


def _r7_described(
    aprog: AnalysisProgram, load: int, store: int, s_prime: int
) -> str:
    return (
        f"{aprog.describe(load)} observed {aprog.describe(store)} "
        f"which precedes {aprog.describe(s_prime)}; had the load "
        "bound after the later store it could not have observed "
        "the earlier one (Value axiom)"
    )


#: Per deferred code (from R4 on): its renderer, and whether that
#: takes the analysis program before the node ids.
_DEFERRED = (
    (_r4_text, True),
    (_r5_text, True),
    (_r6_text, False),
    (_r7_text, False),
    (_r6_described, True),
    (_r7_described, True),
)


def decode(
    aprog: Optional[AnalysisProgram], code: int, *ids: int
) -> EdgeReason:
    """The reason a logged ``code`` with its :data:`NODE_IDS` node ids
    stands for (not :data:`GIVEN`, whose reason the log keeps as given)."""
    if code < R4:
        return _STATIC[code]
    render, described = _DEFERRED[code - R4]
    if described:
        return EdgeReason.deferred(RULE_NAMES[code], render, aprog, *ids)
    return EdgeReason.deferred(RULE_NAMES[code], render, *ids)


def r6_reason(s_prime: int, load: int, target: int) -> EdgeReason:
    """Why R6 orders ``s_prime`` before ``target`` (vc/pipeline)."""
    return decode(None, R6, s_prime, load, target)
