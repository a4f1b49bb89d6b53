"""Shared per-engine setup for the R1–R7 checker engines.

Every engine needs the same derived views of an
:class:`~repro.model.expansion.AnalysisProgram` before its fixed point
starts: the loads with their observed-store targets resolved (and the
atomic-group endpoints the closure pruning must respect), the stores
with their observer loads, and the per-node ``group_first`` table.
Historically each engine rebuilt these independently — the baseline
even re-resolved ``map_value`` every fixed-point pass.  This module is
the single home for all of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.core.policy import MemoryModel
from repro.model.expansion import AnalysisProgram, OpKind

#: One R6 work item: (load id, word address, observed store,
#: group-first node of the observed store — where redirected incoming
#: edges actually land).
LoadItem = Tuple[int, int, int, int]

#: One R7 work item: (store id, word address, observer loads as
#: (load id, group-last node of the load — where redirected outgoing
#: edges actually leave from) pairs).
StoreItem = Tuple[int, int, List[Tuple[int, int]]]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Chains:
    """A chain decomposition of the analysis nodes, derived from the
    memory model's static guarantees.

    Every node belongs to exactly one chain, and consecutive members of
    a chain are always ordered by the static edges (directly, or through
    their atomic group's internal ``atomic`` chain after redirection).
    That path property is what makes a frontier entry exact: if chain
    member ``c[i]`` reaches ``v``, so does every ``c[j]`` with
    ``j < i``.

    The decomposition, per processor:

    * loads and membars in program order (``load_load`` models — all
      shipped ones; otherwise membars chain alone and loads are
      singletons);
    * stores in program order when the model keeps ``store_store``
      (TSO/SC; under SC the load and store chains merge into one full
      program-order chain);
    * stores per address when only ``same_addr_store_store`` survives
      (PSO per-location coherence);
    * singleton chains otherwise.

    Each synthetic root store is its own singleton chain (roots are
    mutually unordered).

    Consumed by the vc engine, whose ``vec_to`` and ``vec_from`` rows
    both carry one entry per chain holding a non-root store
    (:attr:`store_chains`, columns :attr:`to_col`), and whose R6/R7
    candidate queries search the per-address store index
    (:attr:`addr_stores`).  Root stores are left out of both: a root
    is a source of every acyclic graph, so no R6 interval or R7 scan
    can return one (see :mod:`repro.core.vc`).
    """

    def __init__(self, aprog: AnalysisProgram, model: MemoryModel) -> None:
        n = aprog.n
        self.nodes: List[List[int]] = []
        self.chain_of = [0] * n
        self.pos_of = [0] * n
        for addr in sorted(aprog.roots):
            self._new_chain([aprog.roots[addr]])
        full_po = (
            model.load_load and model.load_store
            and model.store_store and model.store_load
        )
        for stream in aprog.per_proc:
            if full_po:
                self._new_chain(list(stream))
                continue
            ops = aprog.ops
            if model.load_load:
                self._new_chain([
                    op_id for op_id in stream
                    if ops[op_id].kind != OpKind.STORE
                ])
            else:
                self._new_chain([
                    op_id for op_id in stream
                    if ops[op_id].kind == OpKind.MEMBAR
                ])
                for op_id in stream:
                    if ops[op_id].kind == OpKind.LOAD:
                        self._new_chain([op_id])
            stores = [op_id for op_id in stream if ops[op_id].is_store]
            if model.store_store:
                self._new_chain(stores)
            elif model.same_addr_store_store:
                by_addr: Dict[int, List[int]] = {}
                for store in stores:
                    by_addr.setdefault(ops[store].addr, []).append(store)
                for addr in sorted(by_addr):
                    self._new_chain(by_addr[addr])
            else:
                for store in stores:
                    self._new_chain([store])
        self.k = len(self.nodes)
        # Per-address index of the non-root stores: addr -> [(chain,
        # sorted positions)], the slices every R6/R7 interval query
        # searches.
        self.addr_stores: Dict[int, List[Tuple[int, List[int]]]] = {}
        per_chain: Dict[Tuple[int, int], List[int]] = {}
        for op in aprog.ops:
            if op.is_store and not op.is_root:
                key = (op.addr, self.chain_of[op.id])
                per_chain.setdefault(key, []).append(self.pos_of[op.id])
        for (addr, chain), positions in per_chain.items():
            positions.sort()
            self.addr_stores.setdefault(addr, []).append((chain, positions))
        # The chains R6/R7 read frontiers on — those holding a non-root
        # store — in chain order; ``to_col[c]`` is chain ``c``'s column
        # in the vc engine's projected rows (-1: not kept).
        self.store_chains = sorted({chain for _, chain in per_chain})
        self.to_col = [-1] * self.k
        for col, chain in enumerate(self.store_chains):
            self.to_col[chain] = col

    def _new_chain(self, members: List[int]) -> None:
        if not members:
            return
        chain = len(self.nodes)
        self.nodes.append(members)
        for pos, node in enumerate(members):
            self.chain_of[node] = chain
            self.pos_of[node] = pos


@dataclass
class EnginePrep:
    """The shared pre-computed views every checker engine consumes.

    Attributes:
        readers: store op id → loads that observed its value.
        loads: R6 work list (see :data:`LoadItem`); loads whose value
            maps to no store are excluded — the precheck has already
            recorded those as failures, so no engine needs to re-resolve
            ``map_value`` per pass.
        stores: R7 work list (see :data:`StoreItem`); stores nobody
            observed are excluded.
        group_first: per-node atomic-group first member (the node
            itself when ungrouped) — incoming redirected edges land
            there.
    """

    readers: Dict[int, List[int]]
    loads: List[LoadItem]
    stores: List[StoreItem]
    group_first: List[int]


def prepare(aprog: AnalysisProgram) -> EnginePrep:
    """Build the shared engine setup for one analysis program."""
    readers = aprog.readers()
    loads: List[LoadItem] = []
    for op in aprog.ops:
        if not op.is_load:
            continue
        target = aprog.map_value(op.addr, op.value)
        if target is None:
            continue  # precheck failure already recorded
        loads.append((op.id, op.addr, target, aprog.group_first(target)))
    stores: List[StoreItem] = [
        (
            op.id,
            op.addr,
            [(ld, aprog.group_last(ld)) for ld in readers[op.id]],
        )
        for op in aprog.ops
        if op.is_store and op.id in readers
    ]
    group_first = [aprog.group_first(i) for i in range(aprog.n)]
    return EnginePrep(
        readers=readers, loads=loads, stores=stores, group_first=group_first
    )
