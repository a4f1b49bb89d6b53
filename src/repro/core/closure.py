"""The production checker engine: bitset transitive closure.

Same rules as :class:`repro.core.checker.BaselineChecker` (R1–R7 of
Fig. 2), but reachability is kept as bitsets — ``reach_from[v]`` is the
set of nodes reachable from ``v`` and ``reach_to[v]`` the set that
reaches ``v``, both held as arbitrary-precision integers used as bit
vectors.  This buys three things:

* **R6/R7 become set intersections.**  "All same-address store
  predecessors of L" is ``reach_to[L] & stores_at[addr]`` — no graph
  traversal at all.  This is this reproduction's version of the paper's
  "optimizations to bound the predecessor and successor subgraph
  traversal when it is known that no new constraints can be added".
* **Cheap cycle detection.**  The closure is rebuilt by dynamic
  programming over a topological order once per fixed-point pass; a
  failed topological sort *is* the violation.
* **Implied-edge suppression.**  An edge already implied by the current
  closure is skipped in O(1), so each pass only pays for edges that add
  information.

Rebuilding the closure per pass — O(E·n/w) — is far cheaper at small
scale than maintaining full bitsets incrementally per edge (O(n²/w)
each), and the number of passes is small in practice (the paper's
fixed-point iterations).  At the paper's operating point the rebuilds
dominate, which is what :class:`repro.core.vc.VectorClockChecker`
removes with incremental per-chain frontiers; see ``docs/engines.md``.
``benchmarks/test_ablation_checkers.py`` measures this engine against
the literal Fig. 2 baseline.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.core.checker import (
    cycle_violation,
    observed_edges,
    precheck_violation,
    r6_reason,
    r7_reason,
)
from repro.core.graph import ConstraintGraph, CycleDetected
from repro.core.policy import MemoryModel, TSO, static_edges
from repro.core.prep import iter_bits, prepare
from repro.core.result import CheckResult, CheckStats, EdgeReason, Violation
from repro.model.expansion import AnalysisProgram


def topological_order(graph: ConstraintGraph) -> Optional[List[int]]:
    """Kahn's algorithm; ``None`` if the graph has a cycle."""
    indeg = [0] * graph.n
    for node in range(graph.n):
        for child in graph.succ[node]:
            indeg[child] += 1
    frontier = [node for node in range(graph.n) if indeg[node] == 0]
    order: List[int] = []
    while frontier:
        node = frontier.pop()
        order.append(node)
        for child in graph.succ[node]:
            indeg[child] -= 1
            if indeg[child] == 0:
                frontier.append(child)
    return order if len(order) == graph.n else None


def compute_closure(
    graph: ConstraintGraph, order: List[int]
) -> Tuple[List[int], List[int]]:
    """(reach_from, reach_to) bitsets (both including the node itself)."""
    n = graph.n
    reach_from = [0] * n
    reach_to = [0] * n
    for node in reversed(order):
        mask = 1 << node
        for child in graph.succ[node]:
            mask |= reach_from[child]
        reach_from[node] = mask
    for node in order:
        mask = 1 << node
        for parent in graph.pred[node]:
            mask |= reach_to[parent]
        reach_to[node] = mask
    return reach_from, reach_to


class ClosureChecker:
    """Fig. 2 with per-pass bitset transitive closure."""

    name = "closure"

    def __init__(self, model: MemoryModel = TSO, inferred_rules: bool = True) -> None:
        """Args:
            model: memory-model ordering policy.
            inferred_rules: apply the R6/R7 fixed point.  Disabling them
                (the DESIGN.md rule ablation) leaves only static + observed
                edges — faster, but blind to most cross-processor
                violations; measured in ``benchmarks/test_ablation_rules.py``.
        """
        self.model = model
        self.inferred_rules = inferred_rules

    def run(self, aprog: AnalysisProgram) -> CheckResult:
        """Check one analysis program; return the verdict with a witness."""
        start = time.perf_counter()
        stats = CheckStats(nodes=aprog.n)

        self._graph = None
        violation = precheck_violation(aprog)
        if violation is None:
            violation = self._analyze(aprog, stats)

        stats.seconds = time.perf_counter() - start
        telemetry.record_check(stats, self.name)
        return CheckResult(
            ok=violation is None,
            model_name=self.model.name,
            engine=self.name,
            violation=violation,
            stats=stats,
            aprog=aprog,
            graph=self._graph,
        )

    def _initial_edges(self, aprog: AnalysisProgram):
        """The phase-1 edge stream: (src, dst, reason, kind) tuples.

        ``kind`` is "static" or "observed" (statistics bucketing).
        Subclasses extend this to inject extra environment-supplied
        ordering facts.
        """
        for u, v, rule in static_edges(aprog, self.model):
            yield u, v, EdgeReason(rule, "program order"), "static"
        for u, v, reason, _rule in observed_edges(aprog):
            yield u, v, reason, "observed"

    # ------------------------------------------------------------------

    def _analyze(
        self, aprog: AnalysisProgram, stats: CheckStats
    ) -> Optional[Violation]:
        graph = ConstraintGraph(aprog)
        self._graph = graph

        # Phase 1: static + observed edges (subclasses may extend the
        # stream — e.g. environment-observed store order, Sec. 3.2).
        try:
            for u, v, reason, kind in self._initial_edges(aprog):
                if graph.add_edge(u, v, reason):
                    if kind == "static":
                        stats.static_edges += 1
                    else:
                        stats.observed_edges += 1
        except CycleDetected as exc:
            return cycle_violation(aprog, graph, exc)

        order = topological_order(graph)
        if order is None:
            return cycle_violation(aprog, graph)
        if not self.inferred_rules:
            return None
        reach_from, reach_to = compute_closure(graph, order)
        stats.closure_rebuilds += 1

        stores_at: Dict[int, int] = {
            addr: sum(1 << s for s in stores)
            for addr, stores in aprog.stores_by_addr.items()
        }
        # Shared work lists (repro.core.prep): the atomic-group endpoints
        # they carry matter — pruning below must match the *redirected*
        # edge (incoming edges land on a group's first node, outgoing
        # leave from its last), or it would skip edges that still add
        # information.
        prep = prepare(aprog)
        loads, stores, group_first = prep.loads, prep.stores, prep.group_first

        # Phase 2: R6/R7 fixed point; rebuild the closure once per pass.
        while True:
            stats.iterations += 1
            added = 0
            try:
                for load, addr, target, target_first in loads:
                    candidates = (reach_to[load] & stores_at[addr]) & ~(
                        (1 << target) | reach_to[target_first]
                    )
                    for s_prime in iter_bits(candidates):
                        if graph.add_edge(
                            s_prime, target, r6_reason(s_prime, load, target)
                        ):
                            added += 1
                for store, addr, observers in stores:
                    candidates = reach_from[store] & stores_at[addr] & ~(1 << store)
                    for s_prime in iter_bits(candidates):
                        s_prime_first = group_first[s_prime]
                        for load, load_last in observers:
                            if (reach_from[load_last] >> s_prime_first) & 1:
                                continue  # redirected edge already implied
                            if graph.add_edge(
                                load, s_prime, r7_reason(load, store, s_prime)
                            ):
                                added += 1
            except CycleDetected as exc:
                return cycle_violation(aprog, graph, exc)
            if not added:
                return None
            stats.inferred_edges += added
            order = topological_order(graph)
            if order is None:
                return cycle_violation(aprog, graph)
            reach_from, reach_to = compute_closure(graph, order)
            stats.closure_rebuilds += 1
