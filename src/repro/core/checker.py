"""The reference checker: a literal implementation of Fig. 2.

Rules applied, exactly as in the paper (Sec. 4); throughout, ``S``, ``S'``
and ``L`` are accesses to the same address, ``map`` is the value→store map
and ``;`` / ``<=`` are program / global memory order:

* **R1–R3** (static): program-order edges per the LoadOp, StoreStore and
  Membar axioms — produced by :func:`repro.core.policy.static_edges`.
* **R4** (observed): ``Val[L]=Val[S]  and  not S;L   =>  S <= L``.
* **R5** (observed): ``Val[L]=Val[S]  and  S';L      =>  S' <= S``
  where ``S'`` is the last same-address store preceding ``L`` in program
  order.
* **R6** (inferred): ``Val[L]=Val[S]  and  S' <= L   =>  S' <= S``.
* **R7** (inferred): ``Val[L]=Val[S]  and  S  <= S'  =>  L <= S'``.

R6/R7 are iterated to a fixed point; the graph is checked for cycles after
every iteration (the paper flags a violation as soon as a cycle is found).
This engine performs the predecessor/successor discovery for R6/R7 by
plain breadth-first traversal each iteration — the straightforward reading
of the pseudo-code, kept as the readable reference and as the ablation
baseline for :class:`repro.core.vc.VectorClockChecker`.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro import telemetry
from repro.core.graph import ConstraintGraph, CycleDetected
from repro.core.policy import MemoryModel, TSO, static_edges
from repro.core.prep import prepare
from repro.core.reasons import (
    R4,
    R5,
    R6_DESCRIBED,
    R7_DESCRIBED,
    STATIC_CODES,
    r6_reason,  # noqa: F401 - re-exported
)
from repro.core.result import (
    CheckResult,
    CheckStats,
    EdgeReason,
    Violation,
    ViolationKind,
)
from repro.model.expansion import AnalysisProgram, OpKind

#: One R4/R5 edge: ``(src, dst, code, load, store, s_prime)``, the
#: :mod:`repro.core.reasons` code and node ids its reason is logged with
#: (``s_prime`` is -1 when the load has none).
ObservedEdge = Tuple[int, int, int, int, int, int]


def precheck_violation(aprog: AnalysisProgram) -> Optional[Violation]:
    """Turn expansion-time failures into a Violation (or None)."""
    if not aprog.precheck_failures:
        return None
    codes = {code for code, _ in aprog.precheck_failures}
    kind = (
        ViolationKind.UNMAPPED_VALUE if codes == {"unmapped"} else ViolationKind.PRECHECK
    )
    message = "; ".join(msg for _, msg in aprog.precheck_failures)
    return Violation(kind=kind, message=message)


def po_prev_stores(aprog: AnalysisProgram) -> Dict[int, int]:
    """For each load, the last same-address store preceding it in program
    order (the ``S'`` of rule R5); loads with no such store are absent."""
    result: Dict[int, int] = {}
    for stream in aprog.per_proc:
        last_store_to: Dict[int, int] = {}
        for op_id in stream:
            op = aprog.ops[op_id]
            if op.kind == OpKind.LOAD:
                prev = last_store_to.get(op.addr)
                if prev is not None:
                    result[op_id] = prev
            elif op.kind == OpKind.STORE:
                last_store_to[op.addr] = op_id
    return result


def observed_edges(
    aprog: AnalysisProgram,
) -> Iterable[ObservedEdge]:
    """Yield the R4/R5 edges of all loads (see :data:`ObservedEdge`)."""
    prev_store = po_prev_stores(aprog)
    for op in aprog.ops:
        if not op.is_load:
            continue
        store = aprog.map_value(op.addr, op.value)
        if store is None:
            continue  # precheck failure already recorded
        yield from load_edges(aprog, op.id, store, prev_store.get(op.id))


def load_edges(
    aprog: AnalysisProgram, load: int, store: int, s_prime: Optional[int]
) -> List[ObservedEdge]:
    """The R4/R5 edges of one load that observed ``store``, where
    ``s_prime`` is its last program-order-earlier same-address store."""
    op = aprog.ops[load]
    s_op = aprog.ops[store]
    if s_prime is None:
        s_prime = -1
    out: List[ObservedEdge] = []
    if not (s_op.proc == op.proc and not s_op.is_root and s_op.po < op.po):
        out.append((store, load, R4, load, store, s_prime))
    if s_prime != -1 and s_prime != store:
        out.append((s_prime, store, R5, load, store, s_prime))
    return out


def cycle_violation(
    aprog: AnalysisProgram,
    graph: ConstraintGraph,
    exc: Optional[CycleDetected] = None,
) -> Optional[Violation]:
    """The cycle witness every engine reports: the cycle through the
    edge that closed it (``exc``), or else any cycle of ``graph``
    (``None`` if it has none), with one reason per edge."""
    if exc is None:
        cycle = graph.find_cycle()
        if cycle is None:
            return None
    else:
        cycle = graph.cycle_through_edge(exc.u, exc.v)
    return Violation(
        kind=ViolationKind.CYCLE,
        message=(
            f"the inferred global memory order contains a cycle of "
            f"{len(cycle)} operation(s): "
            + " <= ".join(aprog.describe(n) for n in cycle)
            + f" <= {aprog.describe(cycle[0])}"
        ),
        cycle=cycle,
        reasons=graph.cycle_reasons(cycle),
    )


class BaselineChecker:
    """Fig. 2 implemented with per-iteration graph traversal."""

    name = "baseline"

    def __init__(self, model: MemoryModel = TSO) -> None:
        self.model = model

    def run(self, aprog: AnalysisProgram) -> CheckResult:
        """Check one analysis program; return the verdict with a witness."""
        start = time.perf_counter()
        stats = CheckStats(nodes=aprog.n)

        violation = precheck_violation(aprog)
        if violation is not None:
            stats.seconds = time.perf_counter() - start
            telemetry.record_check(stats, self.name)
            return CheckResult(
                ok=False, model_name=self.model.name, engine=self.name,
                violation=violation, stats=stats, aprog=aprog,
            )

        graph = ConstraintGraph(aprog)
        self._graph = graph
        try:
            for u, v, rule in static_edges(aprog, self.model):
                if graph.add_edge(u, v, STATIC_CODES[rule]):
                    stats.static_edges += 1
            for u, v, code, load, store, s_prime in observed_edges(aprog):
                if graph.add_edge(u, v, code, load, store, s_prime):
                    stats.observed_edges += 1
            violation = self._fixed_point(aprog, graph, stats)
        except CycleDetected as exc:
            violation = self._self_loop_violation(aprog, graph, exc)

        stats.seconds = time.perf_counter() - start
        telemetry.record_check(stats, self.name)
        return CheckResult(
            ok=violation is None,
            model_name=self.model.name,
            engine=self.name,
            violation=violation,
            stats=stats,
            aprog=aprog,
            graph=graph,
        )

    # ------------------------------------------------------------------

    def _fixed_point(
        self, aprog: AnalysisProgram, graph: ConstraintGraph, stats: CheckStats
    ) -> Optional[Violation]:
        """Iterate R6/R7 until no edges are added; cycle-check each pass.

        The R6/R7 work lists come from :func:`repro.core.prep.prepare`,
        computed once: loads arrive with their observed store already
        resolved (loads whose value maps to no store — a recorded
        precheck failure — are excluded up front rather than re-resolved
        and re-skipped every pass), and stores nobody observed never
        enter the R7 loop at all.
        """
        prep = prepare(aprog)

        # Cycle may already exist from static + observed edges.
        violation = cycle_violation(aprog, graph)
        if violation is not None:
            return violation

        changed = True
        while changed:
            changed = False
            stats.iterations += 1
            for load, addr, target, _target_first in prep.loads:
                changed |= self._apply_r6(aprog, graph, stats, load, addr, target)
            for store, addr, observers in prep.stores:
                changed |= self._apply_r7(
                    aprog, graph, stats, store, addr, observers
                )
            violation = cycle_violation(aprog, graph)
            if violation is not None:
                return violation
        return None

    def _apply_r6(
        self, aprog: AnalysisProgram, graph: ConstraintGraph,
        stats: CheckStats, load: int, addr: int, target: int,
    ) -> bool:
        """R6: every same-address store predecessor of L precedes map(L)."""
        changed = False
        visited = self._reachable(graph, load, addr, forward=False)
        stats.traversals += 1
        stats.traversal_visits += len(visited)
        for s_prime in visited:
            node = aprog.ops[s_prime]
            if not node.is_store or node.addr != addr or s_prime == target:
                continue
            if graph.add_edge(
                s_prime, target, R6_DESCRIBED, s_prime, load, target
            ):
                stats.inferred_edges += 1
                changed = True
        return changed

    def _apply_r7(
        self, aprog: AnalysisProgram, graph: ConstraintGraph,
        stats: CheckStats, store: int, addr: int,
        observers: List[Tuple[int, int]],
    ) -> bool:
        """R7: loads of S precede every same-address store successor of S."""
        changed = False
        visited = self._reachable(graph, store, addr, forward=True)
        stats.traversals += 1
        stats.traversal_visits += len(visited)
        for s_prime in visited:
            node = aprog.ops[s_prime]
            if not node.is_store or node.addr != addr or s_prime == store:
                continue
            for load, _load_last in observers:
                if graph.add_edge(
                    load, s_prime, R7_DESCRIBED, load, store, s_prime
                ):
                    stats.inferred_edges += 1
                    changed = True
        return changed

    def _reachable(
        self, graph: ConstraintGraph, start: int, addr: int, forward: bool
    ) -> List[int]:
        """Nodes reachable from ``start`` (excluding it), by *bounded* BFS.

        This is the paper's traversal optimization ("we implement
        optimizations to bound the predecessor and successor subgraph
        traversal when it is known that no new constraints can be
        added"): the search does not expand beyond a store to the same
        address.  Any same-address store *behind* one already found is
        ordered through it by transitivity, so the edge R6/R7 would add
        for it is implied by the edge added for the nearer store —
        nothing new can come from continuing.

        The bounding is also what gives the analyzer the paper's Fig. 9
        behaviour: with few shared addresses, traversals stop almost
        immediately; with many, they wander much further before hitting
        a same-address store.
        """
        aprog = graph.aprog
        adj = graph.succ if forward else graph.pred
        seen = {start}
        frontier = [start]
        order: List[int] = []
        while frontier:
            nxt = []
            for node in frontier:
                for child in adj[node]:
                    if child in seen:
                        continue
                    seen.add(child)
                    order.append(child)
                    child_op = aprog.ops[child]
                    if child_op.is_store and child_op.addr == addr:
                        continue  # bound: do not expand past it
                    nxt.append(child)
            frontier = nxt
        return order

    def _self_loop_violation(
        self, aprog: AnalysisProgram, graph: ConstraintGraph, exc: CycleDetected
    ) -> Violation:
        return Violation(
            kind=ViolationKind.CYCLE,
            message=(
                f"operation {aprog.describe(exc.u)} is required to precede "
                "itself (atomic-group redirection collapsed an inferred edge "
                "into a self-loop)"
            ),
            cycle=[exc.u],
            reasons=[EdgeReason("?", "self-loop")],
        )
