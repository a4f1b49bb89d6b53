"""The incremental checker engine: vector-clock frontiers + online
topological order.

An implementation of the Fig. 2 rules (R1–R7) built on the observation
of Roy et al., *Fast and Generalized Polynomial Time Memory Consistency
Verification* (the Intel follow-up to TSOtool): program order totally
orders large slices of the analysis graph, so "the set of nodes that
reaches v" does not need an n-bit set — it is captured exactly by a
short *frontier vector* with one entry per totally ordered **chain** of
nodes.

Chains are carved out of the static program-order edges the memory
model guarantees (see :func:`repro.core.prep.chain_key`): under TSO
each processor contributes one load(+membar) chain and one store
chain, each synthetic
root store is its own singleton chain, so ``k ≈ 2·procs + addrs`` —
two orders of magnitude below the node count at the paper's operating
point.  Because every chain is a path in the constraint graph, "chain
``c``'s members that reach ``v``" is always a *prefix* of ``c``; the
frontier entry stores just the prefix length.  This buys the things
a per-pass engine (one that rebuilds reachability every fixed-point
pass, as the baseline's traversals do) pays for repeatedly:

* **R6/R7 candidate discovery is O(k).**  "Same-address store
  predecessors of L not already ordered before the observed store" is,
  per chain, one half-open interval of positions — two binary searches
  in the chain's per-address store index, no bitset scan over n nodes.
* **Cycle detection is incremental.**  A topological order of the graph
  is maintained *online* across edge insertions with Pearce–Kelly local
  reordering: only the affected region — nodes whose order indices sit
  between the new edge's endpoints — is visited, instead of a full
  Kahn pass per fixed-point iteration.  An inserted edge whose forward
  search finds its own source *is* the violation.
* **Closure updates are deltas.**  Inserting ``u -> v`` pushes
  ``u``'s frontier entries through ``v``'s descendants (and ``v``'s
  backward frontier through ``u``'s ancestors), one flood per improved
  entry over a stack of adjacency lists, stopping wherever nothing
  improves.  The full closure is built once, from the initial static +
  observed edges — ``closure_rebuilds`` stays at 1 however many
  fixed-point passes run.
* **Frontiers are kept only where R6/R7 read them.**  Frontier entries
  evolve independently per chain, and every R6 interval, R7 scan bound
  and R7 observer test reads an entry on the chain of a same-address
  store candidate.  Root stores are never candidates: a root is a
  source of every acyclic graph (no static edge points into it, and
  every rule that can target it does so from a node the root already
  reaches through its ``init`` edges), and the engine raises on the
  first cycle, so a root reaches every R6 target's group entry (empty
  interval) and is reached from no R7 store but itself.
  Both ``vec_to`` and ``vec_from`` rows therefore carry one column per
  chain holding a non-root store
  (:attr:`repro.core.prep.Chains.to_col`) — under TSO not the
  load/membar chains, under any model not the root singletons — and
  the floods never touch the rest.  The R7 observer test asks whether
  the observer's group exit reaches the candidate ``s'`` itself rather
  than its group entry: for an observer outside ``s'``'s atomic group
  the two agree (every external edge into a group lands on its first
  node, and the group is internally chained), and an observer inside
  it — a swap whose own store half is the candidate — never reaches
  the group entry, so it is explicitly never "implied".
* **Rescans follow moved frontiers.**  Each insertion stamps the rows
  it improves; a fixed-point pass rescans an R6 item only if its load's
  ``vec_to`` moved since the item's last scan (an R7 item: its store's
  ``vec_from``).  A skipped item could only re-propose existing edges,
  so the edges, their order and the iteration count are unchanged.
* **R7 chain scans stop at the first implied successor.**  An R7
  item's candidates on one chain come in ascending position.  Once
  every observer's test says "implied" for a candidate, it says so for
  every later candidate too (the chain is a path, and an observer that
  reaches a candidate cannot be a later one without a cycle), and
  reach only grows — the rest of that chain would propose nothing.
* **Reasons are logged, not built.**  An insertion hands the graph a
  :mod:`repro.core.reasons` code and the node ids its reason reads,
  which the graph's columnar edge log stores; an
  :class:`~repro.core.result.EdgeReason` is built, and its text
  formatted, only when a Sec. 3.4 witness or a graph dump reads it.  A
  passing paper-scale check logs ~44k edges and builds no reason.
* **No garbage-collector passes.**  :meth:`VectorClockChecker.run`
  pauses Python's cyclic collector for the check and restores the
  caller's state afterwards.  A check builds no reference cycles
  (``tests/core/test_vc_gc.py`` holds it to that), so the ~200
  collections a paper-scale check used to trigger could free nothing.

Atomic-group redirection and the R5 ``S';L`` subtlety are inherited
bit-for-bit: edges are stored in the same :class:`ConstraintGraph`
(which performs the paper's redirection), and the R4/R5 edge stream is
the shared :func:`repro.core.checker.observed_edges`.  Verdict
agreement with the other engines is enforced by
``tests/test_properties.py``.

The incremental machinery — insertion under the online order, both
floods, the R6 interval and the R7 chain scan — is
:class:`FrontierCore`, which the pipeline's online checker
(:mod:`repro.core.stream`) drives one record at a time;
:class:`VectorClockChecker` drives it in batch passes.
"""

from __future__ import annotations

import gc
import time
from bisect import bisect_left, bisect_right
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.core.checker import cycle_violation, observed_edges, precheck_violation
from repro.core.graph import ConstraintGraph, CycleDetected, topological_order
from repro.core.kernels import build_frontiers_scalar
from repro.core.policy import MemoryModel, TSO, static_edges
from repro.core.prep import Chains, EnginePrep, prepare
from repro.core.reasons import R6, R7, STATIC_CODES
from repro.core.result import CheckResult, CheckStats, EdgeReason, Violation
from repro.model.expansion import AnalysisProgram


class FrontierCore:
    """The incremental machinery the vc engine and the online checker
    (:mod:`repro.core.stream`) share: edge insertion under a
    Pearce–Kelly order, the two frontier floods, and the R6/R7
    candidate scans over :class:`~repro.core.prep.Chains`.

    An engine sets these before its first insertion: ``_graph``,
    ``_stats``, ``_chains``, ``_ord`` (order index per node),
    ``_vec_to``/``_vec_from`` (one row per node, one entry per column
    chain), ``_moved_to``/``_moved_from`` (written ``[node] = _seq``
    for every row a flood improves: a stamp list in vc, a dict of moved
    nodes in stream), ``_seq`` and ``_inf`` (the "unreached" entry).
    """

    def _add_edge(
        self, u: int, v: int, reason: Union[int, EdgeReason],
        a: int = -1, b: int = -1, c: int = -1,
    ) -> bool:
        """Insert ``u -> v``; keep order + frontiers current.  ``reason``
        and ``a, b, c`` are logged as :meth:`ConstraintGraph.add_edge`
        takes them.

        Raises:
            CycleDetected: the redirected edge closes a cycle (found by
                the Pearce–Kelly forward search, or as a self-loop).
        """
        graph = self._graph
        u, v = graph.redirect(u, v)
        if u == v:
            raise CycleDetected(u, v)
        if graph.has_edge(u, v):
            return False
        # Order-compatible edges (the overwhelming majority) skip the
        # Pearce–Kelly call; _reorder repeats this guard for direct callers.
        if self._ord[u] >= self._ord[v]:
            self._reorder(u, v, reason, a, b, c)
        graph.append(u, v, reason, a, b, c)
        self._seq += 1
        self._push_forward(u, v)
        self._push_backward(u, v)
        return True

    def _reorder(
        self, u: int, v: int, reason: Union[int, EdgeReason],
        a: int = -1, b: int = -1, c: int = -1,
    ) -> None:
        """Pearce–Kelly local reordering for the insertion of ``u -> v``.

        When ``u`` already precedes ``v`` in the maintained order the
        edge is order-compatible and nothing is visited.  Otherwise the
        affected region — forward from ``v`` up to ``u``'s index,
        backward from ``u`` down to ``v``'s index — is discovered and
        its order indices are redealt, ancestors first.  The forward
        search reaching ``u`` is a cycle: the edge is recorded (so the
        witness can explain it) and :class:`CycleDetected` is raised.
        """
        ord_ = self._ord
        upper = ord_[u]
        if upper < ord_[v]:
            return
        graph = self._graph
        succ, pred = graph.succ, graph.pred
        lower = ord_[v]
        forward = {v}
        stack = [v]
        while stack:
            node = stack.pop()
            for child in succ[node]:
                if child == u:
                    # Path v ~> u exists: u -> v closes a cycle.  Record
                    # the edge so cycle_reasons can name its rule.
                    graph.append(u, v, reason, a, b, c)
                    raise CycleDetected(u, v)
                if child not in forward and ord_[child] <= upper:
                    forward.add(child)
                    stack.append(child)
        backward = {u}
        stack = [u]
        while stack:
            node = stack.pop()
            for parent in pred[node]:
                if parent not in backward and ord_[parent] >= lower:
                    backward.add(parent)
                    stack.append(parent)
        self._stats.reorder_visits += len(forward) + len(backward)
        affected = sorted(backward, key=ord_.__getitem__)
        affected += sorted(forward, key=ord_.__getitem__)
        slots = sorted(ord_[node] for node in affected)
        for node, slot in zip(affected, slots):
            ord_[node] = slot

    def _push_forward(self, u: int, v: int) -> None:
        """Propagate ``u``'s backward frontier into ``v``'s descendants.

        Each (projected) entry of ``u`` that improves ``v`` floods on
        its own, with its column and position held in locals and a
        stack of child lists, so a child costs one integer compare.
        Improved rows are stamped.  Columns flood highest first, each
        depth-first, which fixes the order in which rows are first
        stamped: the online checker drains its moved rows in that order.
        """
        vec_to = self._vec_to
        moved = self._moved_to
        seq = self._seq
        succ = self._graph.succ
        src = vec_to[u]
        vec = vec_to[v]
        for col in range(len(vec) - 1, -1, -1):
            pos = src[col]
            if pos <= vec[col]:
                continue
            vec[col] = pos
            moved[v] = seq
            # v is not its own descendant, so no flood touches its row.
            stack = [succ[v]]
            while stack:
                for child in stack.pop():
                    row = vec_to[child]
                    if pos > row[col]:
                        row[col] = pos
                        moved[child] = seq
                        stack.append(succ[child])

    def _push_backward(self, u: int, v: int) -> None:
        """Propagate ``v``'s forward frontier into ``u``'s ancestors
        (the mirror of :meth:`_push_forward`)."""
        vec_from = self._vec_from
        moved = self._moved_from
        seq = self._seq
        pred = self._graph.pred
        src = vec_from[v]
        vec = vec_from[u]
        for col in range(len(vec) - 1, -1, -1):
            pos = src[col]
            if pos >= vec[col]:
                continue
            vec[col] = pos
            moved[u] = seq
            stack = [pred[u]]
            while stack:
                for parent in stack.pop():
                    row = vec_from[parent]
                    if pos < row[col]:
                        row[col] = pos
                        moved[parent] = seq
                        stack.append(pred[parent])

    # ------------------------------------------------------------------
    # R6/R7 over the frontiers
    # ------------------------------------------------------------------

    def _r6_interval(
        self,
        addr: int,
        vt_load: Sequence[int],
        vt_floor: Sequence[int],
        target: int,
    ) -> List[int]:
        """Same-address stores, but ``target``, that reach the load
        (``vt_load``) and not yet the observed store (``vt_floor``, the
        row of its group entry point): per chain, the positions in
        ``(vt_floor[col], vt_load[col]]``."""
        out: List[int] = []
        chains = self._chains
        to_col = chains.to_col
        queries = 0
        for chain, positions in chains.addr_stores.get(addr, ()):
            queries += 1
            col = to_col[chain]
            lo = vt_floor[col]
            hi = vt_load[col]
            if hi <= lo:
                continue
            members = chains.nodes[chain]
            for pos in positions[bisect_right(positions, lo):
                                 bisect_right(positions, hi)]:
                node = members[pos]
                if node != target:
                    out.append(node)
        self._stats.vc_queries += queries
        return out

    def _apply_r6(self, load: int, target: int, candidates: List[int]) -> int:
        """R6 edges ``s' -> target``; returns how many were new."""
        added = 0
        for s_prime in candidates:
            if self._add_edge(s_prime, target, R6, s_prime, load, target):
                added += 1
        return added

    def _apply_r7(
        self, store: int, addr: int, observers: List[Tuple[int, int]]
    ) -> int:
        """R7 edges ``load -> s'`` for the same-address store successors
        ``s'`` of ``store``, chain by chain; returns how many were new.

        The observer-suppression test runs for every tested (candidate,
        observer) pair — ~10^5 times at paper scale — so it is inlined
        over hoisted locals, with the query count kept in bulk.
        """
        chains = self._chains
        to_col = chains.to_col
        chain_nodes = chains.nodes
        inf = self._inf
        vec_from = self._vec_from
        add_edge = self._add_edge
        # Bounded by vec_from[store] as it stood when the scan began
        # (insertions below may lower it).
        vf = vec_from[store][:]
        added = 0
        queries = 0
        for chain, positions in chains.addr_stores.get(addr, ()):
            queries += 1
            col = to_col[chain]
            lo = vf[col]
            if lo >= inf:
                continue
            members = chain_nodes[chain]
            for pos in positions[bisect_left(positions, lo):]:
                s_prime = members[pos]
                if s_prime == store:
                    continue
                queries += len(observers)
                implied = True
                for load, load_last in observers:
                    # The redirected edge is implied when the observer's
                    # group exit reaches s' — unless it *is* s' (a swap
                    # observing ``store`` whose own store half is the
                    # candidate), which never reaches its group entry.
                    if vec_from[load_last][col] <= pos and load_last != s_prime:
                        continue
                    implied = False
                    if add_edge(load, s_prime, R7, load, store, s_prime):
                        added += 1
                if implied:
                    # Every observer reaches this candidate, hence every
                    # later one on the chain: the rest would propose
                    # nothing.
                    break
        self._stats.vc_queries += queries
        return added


class VectorClockChecker(FrontierCore):
    """Fig. 2 with incremental frontier vectors and online topo order."""

    name = "vc"

    #: Per-check tables :meth:`run` drops when it returns (the result
    #: keeps the graph), so a checker run again holds one check's worth.
    _CHECK_STATE = (
        "_chains", "_ord", "_vec_to", "_vec_from", "_moved_to", "_moved_from",
    )

    def __init__(
        self,
        model: MemoryModel = TSO,
        inferred_rules: bool = True,
    ) -> None:
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
        """Check one analysis program; return the verdict with a witness.

        The cyclic garbage collector is paused for the whole check: a
        check builds no reference cycles, so its passes could free
        nothing.  The caller's collector state is restored on return,
        and the per-check tables are dropped, also when the check raises.
        """
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run(aprog)
        finally:
            for name in self._CHECK_STATE:
                self.__dict__.pop(name, None)
            if gc_was_enabled:
                gc.enable()

    def _run(self, aprog: AnalysisProgram) -> CheckResult:
        start = time.perf_counter()
        stats = CheckStats(nodes=aprog.n)

        self._graph: Optional[ConstraintGraph] = None
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

    # ------------------------------------------------------------------
    # Phase 1: bulk edges, chain decomposition, one closure build
    # ------------------------------------------------------------------

    def _analyze(
        self, aprog: AnalysisProgram, stats: CheckStats
    ) -> Optional[Violation]:
        graph = ConstraintGraph(aprog)
        self._graph = graph
        self._stats = stats

        try:
            for u, v, rule in static_edges(aprog, self.model):
                if graph.add_edge(u, v, STATIC_CODES[rule]):
                    stats.static_edges += 1
            for u, v, code, load, store, s_prime in observed_edges(aprog):
                if graph.add_edge(u, v, code, load, store, s_prime):
                    stats.observed_edges += 1
            for u, v, reason in self._extra_edges(aprog):
                if graph.add_edge(u, v, reason):
                    stats.observed_edges += 1
        except CycleDetected as exc:
            return cycle_violation(aprog, graph, exc)

        order = topological_order(graph)
        if order is None:
            return cycle_violation(aprog, graph)
        if not self.inferred_rules:
            return None

        self._chains = Chains(aprog, self.model)
        self._init_state(graph, order)
        stats.closure_rebuilds += 1
        prep = prepare(aprog)
        try:
            return self._fixed_point(aprog, graph, stats, prep)
        except CycleDetected as exc:
            return cycle_violation(aprog, graph, exc)

    def _extra_edges(
        self, aprog: AnalysisProgram
    ) -> Iterable[Tuple[int, int, EdgeReason]]:
        """Environment-supplied ordering facts, as ``(u, v, reason)``
        edges added after the observed edges and counted with them
        (none here; :mod:`repro.core.observability` adds the observed
        store order of Sec. 3.2)."""
        return ()

    def _init_state(self, graph: ConstraintGraph, order: List[int]) -> None:
        """Build frontiers and the topological order in one DP pass.

        ``vec_to[v][to_col[c]]`` is the highest position in chain ``c``
        whose member reaches ``v`` (-1: none), and
        ``vec_from[v][to_col[c]]`` the lowest position in chain ``c``
        reachable from ``v`` (``_inf``: none), both kept only for the
        chains holding a non-root store.  Both include ``v`` itself,
        as :func:`repro.core.graph.compute_closure`'s reach bitsets do.
        ``_moved_to``/``_moved_from`` stamp each row with the ``_seq``
        of the last insertion that improved it.
        """
        n = graph.n
        chains = self._chains
        self._inf = n + 1
        self._ord = [0] * n
        for index, node in enumerate(order):
            self._ord[node] = index
        self._vec_to, self._vec_from = build_frontiers_scalar(
            n, order, graph.pred, graph.succ,
            chains.chain_of, chains.pos_of, chains.to_col,
        )
        self._seq = 0
        self._moved_to = [0] * n
        self._moved_from = [0] * n

    # ------------------------------------------------------------------
    # Phase 2: the R6/R7 fixed point over live frontiers
    # ------------------------------------------------------------------

    def _fixed_point(
        self,
        aprog: AnalysisProgram,
        graph: ConstraintGraph,
        stats: CheckStats,
        prep: EnginePrep,
    ) -> Optional[Violation]:
        moved_to = self._moved_to
        moved_from = self._moved_from
        # The insertion stamp at which each R6/R7 item was last scanned
        # (see "Rescans follow moved frontiers" in the module docstring).
        r6_seen = [-1] * len(prep.loads)
        r7_seen = [-1] * len(prep.stores)
        while True:
            stats.iterations += 1
            added = 0
            for i, (load, addr, target, target_first) in enumerate(prep.loads):
                if moved_to[load] <= r6_seen[i]:
                    continue  # vec_to[load] unchanged since the last scan
                r6_seen[i] = self._seq
                added += self._apply_r6(load, target, self._r6_candidates(
                    addr, load, target, target_first
                ))
            for i, (store, addr, observers) in enumerate(prep.stores):
                if moved_from[store] <= r7_seen[i]:
                    continue  # vec_from[store] unchanged since the last scan
                r7_seen[i] = self._seq
                added += self._apply_r7(store, addr, observers)
            if not added:
                return None
            stats.inferred_edges += added

    def _r6_candidates(
        self, addr: int, load: int, target: int, target_first: int
    ) -> List[int]:
        """Same-address store predecessors of ``load`` not already
        ordered before the observed store's group entry point."""
        vec_to = self._vec_to
        return self._r6_interval(addr, vec_to[load], vec_to[target_first], target)
