"""Memory-model ordering policies and static (program-order) edges.

A :class:`MemoryModel` captures which program-order pairs must also hold
in the global memory order ``<=`` — the information behind the paper's
static rules R1–R3 (Sec. 4):

* R1 (LoadOp axiom):      ``L ; Op  =>  L <= Op``
* R2 (StoreStore axiom):  ``S ; S'  =>  S <= S'``
* R3 (Membar axiom):      ``Op1 ; M ; Op2  =>  Op1 <= Op2``

TSO relaxes only store→load; SC relaxes nothing; PSO additionally relaxes
store→store (the paper notes in Sec. 4 that "the only difference lies in
the initial set of edges determined from program order and the
application of the remaining rules remains the same" — this module is
that difference).

:func:`static_edges` walks each processor's op stream once with a
:class:`ProgramOrder` tracker, emitting edges from the *latest* op of
each kind, which suffices because transitivity chains earlier same-kind
ops through the latest one whenever same-kind pairs are themselves
ordered.  The one case where they are not — stores under PSO — is
handled by remembering every store since the last barrier and draining
the whole set into the barrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.model.expansion import AnalysisOp, AnalysisProgram, OpKind


@dataclass(frozen=True)
class MemoryModel:
    """Which same-processor program-order pairs imply global order.

    Attributes:
        name: display name.
        load_load: ``L ; L'`` implies ``L <= L'``.
        load_store: ``L ; S`` implies ``L <= S``.
        store_store: ``S ; S'`` implies ``S <= S'``.
        store_load: ``S ; L`` implies ``S <= L`` (SC only).
        same_addr_store_store: same-address stores keep program order
            even when ``store_store`` is relaxed — true for SPARC PSO,
            whose relaxation never breaks per-location coherence.
    """

    name: str
    load_load: bool
    load_store: bool
    store_store: bool
    store_load: bool
    same_addr_store_store: bool = True

    def __str__(self) -> str:
        return self.name


#: Total Store Order: loads may overtake stores, nothing else reorders.
TSO = MemoryModel("TSO", load_load=True, load_store=True, store_store=True,
                  store_load=False)

#: Sequential Consistency: full program order is preserved.
SC = MemoryModel("SC", load_load=True, load_store=True, store_store=True,
                 store_load=True)

#: Partial Store Order: like TSO but stores may also reorder among themselves.
PSO = MemoryModel("PSO", load_load=True, load_store=True, store_store=False,
                  store_load=False)

StaticEdge = Tuple[int, int, str]


def static_edges(aprog: AnalysisProgram, model: MemoryModel) -> Iterator[StaticEdge]:
    """Yield all static edges ``(src, dst, rule)`` required by ``model``.

    Includes, in addition to the R1–R3 program-order edges:

    * atomic-group internal chains (the load half of a swap precedes its
      store half — the Atomicity axiom's ``L <= S``),
    * initial-value edges: the synthetic root store of every address
      precedes every real store to that address.
    """
    yield from _program_order_edges(aprog, model)
    yield from _group_chain_edges(aprog)
    yield from _root_edges(aprog)


class ProgramOrder:
    """One processor's R1–R3 rules: fed its ops in program order, it
    returns each op's program-order in-edges.

    :func:`static_edges` drives one per processor over a whole program;
    the online checker (:mod:`repro.core.stream`) drives one op at a
    time as records arrive.
    :attr:`last_store_to` is the last store to each address so far —
    the R5 ``S'`` of a load that follows.
    """

    __slots__ = (
        "model", "last_load", "last_store", "last_membar",
        "unordered_stores", "last_store_to",
    )

    def __init__(self, model: MemoryModel) -> None:
        self.model = model
        self.last_load: Optional[int] = None
        self.last_store: Optional[int] = None
        self.last_membar: Optional[int] = None
        #: Stores since the last membar (store_store-relaxed models only).
        self.unordered_stores: List[int] = []
        self.last_store_to: Dict[int, int] = {}

    def in_edges(self, op: AnalysisOp) -> List[StaticEdge]:
        """The program-order edges into ``op``; then record it."""
        model = self.model
        op_id = op.id
        kind = op.kind
        out: List[StaticEdge] = []
        if kind == OpKind.LOAD:
            if model.load_load and self.last_load is not None:
                out.append((self.last_load, op_id, "R1"))
            if model.store_load and self.last_store is not None:
                out.append((self.last_store, op_id, "R2"))
            if self.last_membar is not None:
                out.append((self.last_membar, op_id, "R3"))
            self.last_load = op_id
        elif kind == OpKind.STORE:
            if model.load_store and self.last_load is not None:
                out.append((self.last_load, op_id, "R1"))
            if model.store_store and self.last_store is not None:
                out.append((self.last_store, op_id, "R2"))
            if self.last_membar is not None:
                out.append((self.last_membar, op_id, "R3"))
            if not model.store_store:
                self.unordered_stores.append(op_id)
                if model.same_addr_store_store:
                    # Per-location coherence survives the relaxation.
                    prev_same = self.last_store_to.get(op.addr)
                    if prev_same is not None:
                        out.append((prev_same, op_id, "R2"))
            self.last_store_to[op.addr] = op_id
            self.last_store = op_id
        else:  # MEMBAR orders everything before it against everything after
            if self.last_load is not None:
                out.append((self.last_load, op_id, "R3"))
            if model.store_store:
                if self.last_store is not None:
                    out.append((self.last_store, op_id, "R3"))
            else:
                out.extend((store, op_id, "R3") for store in self.unordered_stores)
                self.unordered_stores.clear()
            if self.last_membar is not None:
                out.append((self.last_membar, op_id, "R3"))
            self.last_membar = op_id
        return out


def _program_order_edges(
    aprog: AnalysisProgram, model: MemoryModel
) -> Iterator[StaticEdge]:
    ops = aprog.ops
    for stream in aprog.per_proc:
        tracker = ProgramOrder(model)
        for op_id in stream:
            yield from tracker.in_edges(ops[op_id])


def _group_chain_edges(aprog: AnalysisProgram) -> Iterator[StaticEdge]:
    for members in aprog.groups.values():
        for prev, nxt in zip(members, members[1:]):
            yield prev, nxt, "atomic"


def _root_edges(aprog: AnalysisProgram) -> Iterator[StaticEdge]:
    for addr, stores in aprog.stores_by_addr.items():
        root = aprog.roots[addr]
        for store in stores:
            if store != root:
                yield root, store, "init"
