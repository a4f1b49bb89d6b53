"""Extra-observability checking (Sec. 3.2).

"In a simulation environment, TSOtool can optionally utilize the
additional observability provided by the environment."  The strongest
such signal is the *store commit order* — RTL simulation (and this
repository's simulator) can watch stores become globally visible.  Feeding
that order to the checker as extra edges removes precisely the
incompleteness the paper trades away: with all stores totally ordered,
the Order axiom needs no search, and the polynomial rules decide the
run outright.

Usage::

    machine = TsoMachine(program, seed=1)
    execution = machine.run()
    result = check_with_store_order(
        execution, machine.commit_order, initial=program.initial
    )

The Fig. 5 mirrored outcome — the paper's canonical polynomial-checker
miss — becomes detectable the moment the true store order is supplied
(``tests/core/test_observability.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policy import MemoryModel, TSO
from repro.core.result import CheckResult, EdgeReason
from repro.core.vc import VectorClockChecker
from repro.model.expansion import AnalysisProgram, expand
from repro.model.trace import Execution

#: One observed commit: the (word address, value) pair written.
CommitEvent = Tuple[int, int]


def store_order_edges(
    aprog: AnalysisProgram, commit_order: Sequence[CommitEvent]
) -> List[Tuple[int, int, EdgeReason]]:
    """Edges chaining stores in their observed global-visibility order.

    Events that do not correspond to a store node (e.g. fault-dropped
    writes replayed to memory) are ignored; consecutive observed stores
    are chained, which totally orders every store the trace knows about
    once roots (already ordered before everything at their address) are
    accounted for.
    """
    edges: List[Tuple[int, int, EdgeReason]] = []
    previous: Optional[int] = None
    for index, (addr, value) in enumerate(commit_order):
        node = aprog.map_value(addr, value)
        if node is None or aprog.ops[node].is_root:
            continue
        if previous is not None and previous != node:
            edges.append(
                (
                    previous,
                    node,
                    EdgeReason(
                        "obs",
                        f"commit #{index}: the environment observed "
                        f"{aprog.describe(previous)} become globally "
                        f"visible before {aprog.describe(node)}",
                    ),
                )
            )
        previous = node
    return edges


class ObservabilityChecker(VectorClockChecker):
    """VectorClockChecker seeded with environment-observed store order."""

    name = "vc+observability"

    def __init__(
        self,
        commit_order: Sequence[CommitEvent],
        model: MemoryModel = TSO,
    ) -> None:
        super().__init__(model)
        self.commit_order = list(commit_order)

    def _extra_edges(self, aprog):
        return store_order_edges(aprog, self.commit_order)


def check_with_store_order(
    execution: Execution,
    commit_order: Sequence[CommitEvent],
    initial: Optional[Dict[int, int]] = None,
    word_names: Optional[Dict[int, str]] = None,
    model: MemoryModel = TSO,
) -> CheckResult:
    """Check an execution with the observed store order as extra edges.

    Sound for any correct observation (the edges state facts about the
    run), and complete with respect to the Order axiom when the
    observation covers all stores: the paper's unordered-store searches
    never arise because no stores are left unordered.
    """
    aprog = expand(execution, initial=initial, word_names=word_names)
    checker = ObservabilityChecker(commit_order, model=model)
    return checker.run(aprog)
