"""The exponential *complete* decision procedure (Order axiom included).

The polynomial algorithm of Fig. 2 is sound but incomplete: it never
enforces the **Order** axiom (the total order over all stores), because
doing so requires searching over orderings of writes left unordered at
the fixed point — "this search would make the runtime exponential in the
worst case" (Sec. 4).  This module implements exactly that search, for
use on *small* programs:

* as ground truth in tests (the polynomial checker must never flag an
  execution this procedure accepts — soundness — and any execution the
  polynomial checker flags must be rejected here too);
* to demonstrate the paper's Fig. 5 incompleteness example: the plain
  Fig. 5 outcome is legal, but its mirrored extension is a genuine TSO
  violation that the polynomial checker misses and this procedure
  catches (see ``tests/core/test_incompleteness.py``).

The procedure searches for a *witness linearization*: a topological
extension of the sound constraint set (static R1–R3 edges plus everything
the polynomial checker inferred — all sound, so pruning with them is
safe) in which every load reads exactly the value the Value axiom
dictates.  Store buffering is modelled by the Value axiom's own-store
term: when a load is placed while some program-order-earlier same-address
store of its processor is still unplaced, the load must return the
po-latest such store's value (the store is "in the buffer").  Atomic
groups are placed contiguously, which also enforces the Atomicity axiom.

The search memoizes on (placed-set, per-address last-writer) and gives up
beyond ``max_states`` expansions, reporting ``decided=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.graph import compute_closure, topological_order
from repro.core.policy import MemoryModel, TSO
from repro.core.prep import iter_bits
from repro.core.vc import VectorClockChecker
from repro.model.expansion import AnalysisProgram, NO_GROUP, OpKind


@dataclass
class CompleteResult:
    """Outcome of the complete decision procedure.

    Attributes:
        valid: True if a witness total order exists, False if provably
            none exists, ``None`` if the search budget was exhausted.
        decided: whether the search ran to completion.
        witness: a valid linearization of analysis-op ids (roots first)
            when ``valid`` is True.
        explored: number of search states expanded.
    """

    valid: Optional[bool]
    decided: bool
    witness: Optional[List[int]] = None
    explored: int = 0


def complete_check(
    aprog: AnalysisProgram,
    model: MemoryModel = TSO,
    max_states: int = 2_000_000,
) -> CompleteResult:
    """Decide (for small programs) whether an execution satisfies all axioms.

    Args:
        aprog: the expanded execution (see :func:`repro.model.expansion.expand`).
        model: memory-model policy for the program-order constraints.
        max_states: search budget; beyond it the result is undecided.

    Returns:
        A :class:`CompleteResult`; ``valid=False`` is a complete proof of
        violation, ``valid=True`` carries a witness order.
    """
    if aprog.precheck_failures:
        return CompleteResult(valid=False, decided=True)

    # Sound pruning constraints: everything the polynomial checker infers.
    violation, reach_to = _closure_constraints(aprog, model)
    if violation:
        # The polynomial checker is sound, so a flagged execution is
        # certainly invalid — no search needed.
        return CompleteResult(valid=False, decided=True)

    return _Search(aprog, reach_to, max_states).run()


def _closure_constraints(
    aprog: AnalysisProgram, model: MemoryModel
) -> Tuple[bool, List[int]]:
    """Run the polynomial checker; return (flagged, ancestor bitsets).

    The ancestor bitsets come from the fixed-point graph of the same
    run: for each node, the nodes ordered before it (excluding itself).
    """
    result = VectorClockChecker(model).run(aprog)
    if not result.ok:
        return True, []
    graph = result.graph
    order = topological_order(graph)
    assert order is not None, "acyclic by hypothesis (check passed)"
    _, reach_to = compute_closure(graph, order)
    return False, [mask & ~(1 << node) for node, mask in enumerate(reach_to)]


class _Search:
    """Backtracking search for a witness linearization."""

    def __init__(
        self, aprog: AnalysisProgram, reach_to: List[int], max_states: int
    ) -> None:
        self.aprog = aprog
        self.max_states = max_states
        self.explored = 0

        # Build super-nodes: atomic groups collapse to one unit.
        self.units: List[List[int]] = []
        unit_of: Dict[int, int] = {}
        roots: List[int] = []
        for op in aprog.ops:
            if op.is_root:
                roots.append(op.id)
                continue
            if op.group == NO_GROUP:
                unit_of[op.id] = len(self.units)
                self.units.append([op.id])
            else:
                members = aprog.groups[op.group]
                if members[0] == op.id:
                    for m in members:
                        unit_of[m] = len(self.units)
                    self.units.append(list(members))
        self.roots = roots

        # Per-unit ancestor masks in *unit* space.
        nunits = len(self.units)
        self.anc = [0] * nunits
        for uid, members in enumerate(self.units):
            mask = 0
            for m in members:
                mask |= reach_to[m]
            unit_mask = 0
            for node in iter_bits(mask):
                if aprog.ops[node].is_root:
                    continue
                other = unit_of[node]
                if other != uid:
                    unit_mask |= 1 << other
            self.anc[uid] = unit_mask

        # Program-order earlier same-address stores per load (for the
        # store-buffer term of the Value axiom), as op-id lists.
        self.po_stores: Dict[int, List[int]] = {}
        for stream in aprog.per_proc:
            per_addr: Dict[int, List[int]] = {}
            for op_id in stream:
                op = aprog.ops[op_id]
                if op.kind == OpKind.LOAD:
                    self.po_stores[op_id] = list(per_addr.get(op.addr, ()))
                elif op.kind == OpKind.STORE:
                    per_addr.setdefault(op.addr, []).append(op_id)

    def run(self) -> CompleteResult:
        aprog = self.aprog
        memory: Dict[int, int] = {
            aprog.ops[r].addr: aprog.ops[r].value for r in self.roots
        }
        placed_ops: Set[int] = set(self.roots)
        witness: List[int] = list(self.roots)
        failed: Set[Tuple[int, Tuple[Tuple[int, int], ...]]] = set()

        nunits = len(self.units)
        full = (1 << nunits) - 1

        def mem_key(mem: Dict[int, int]) -> Tuple[Tuple[int, int], ...]:
            return tuple(sorted(mem.items()))

        def dfs(placed_mask: int, mem: Dict[int, int]) -> Optional[bool]:
            if placed_mask == full:
                return True
            self.explored += 1
            if self.explored > self.max_states:
                return None
            key = (placed_mask, mem_key(mem))
            if key in failed:
                return False
            for uid in range(nunits):
                bit = 1 << uid
                if placed_mask & bit:
                    continue
                if self.anc[uid] & ~placed_mask:
                    continue  # an ancestor unit is still unplaced
                new_mem = self._try_place(uid, placed_ops, mem)
                if new_mem is None:
                    continue  # value mismatch; prune this candidate
                for m in self.units[uid]:
                    placed_ops.add(m)
                    witness.append(m)
                sub = dfs(placed_mask | bit, new_mem)
                if sub:
                    return True  # keep the witness list intact
                for m in self.units[uid]:
                    placed_ops.discard(m)
                    witness.pop()
                if sub is None:
                    return None
            failed.add(key)
            return False

        verdict = dfs(0, memory)
        if verdict is None:
            return CompleteResult(valid=None, decided=False, explored=self.explored)
        if verdict:
            return CompleteResult(
                valid=True, decided=True, witness=list(witness),
                explored=self.explored,
            )
        return CompleteResult(valid=False, decided=True, explored=self.explored)

    def _try_place(
        self, uid: int, placed_ops: Set[int], mem: Dict[int, int]
    ) -> Optional[Dict[int, int]]:
        """Simulate placing a unit; None if some load's value mismatches."""
        aprog = self.aprog
        new_mem = dict(mem)
        for op_id in self.units[uid]:
            op = aprog.ops[op_id]
            if op.kind == OpKind.MEMBAR:
                continue
            if op.kind == OpKind.STORE:
                new_mem[op.addr] = op.value
                continue
            # Load: Value axiom.  If a po-earlier same-address own store is
            # still unplaced, the load must see the po-latest such store
            # (it is "in the store buffer" and <=-after this load).
            pending = [
                s for s in self.po_stores.get(op_id, ())
                if s not in placed_ops and s not in self.units[uid]
            ]
            if pending:
                required = aprog.ops[pending[-1]].value
            else:
                required = new_mem.get(op.addr)
            if required != op.value:
                return None
        return new_mem
