"""Shared per-engine setup for the R1–R7 checker engines.

Every engine needs the same derived views of an
:class:`~repro.model.expansion.AnalysisProgram` before its fixed point
starts: the loads with their observed-store targets resolved (and the
atomic-group endpoints candidate pruning must respect), the stores
with their observer loads, and the per-node ``group_first`` table.
Historically each engine rebuilt these independently — the baseline
even re-resolved ``map_value`` every fixed-point pass.  This module is
the single home for all of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.policy import MemoryModel
from repro.model.expansion import ROOT_PROC, AnalysisOp, AnalysisProgram, OpKind

#: One R6 work item: (load id, word address, observed store,
#: group-first node of the observed store — where redirected incoming
#: edges actually land).
LoadItem = Tuple[int, int, int, int]

#: One R7 work item: (store id, word address, observer loads as
#: (load id, group-last node of the load — where redirected outgoing
#: edges actually leave from) pairs).
StoreItem = Tuple[int, int, List[Tuple[int, int]]]

#: A chain's identity (see :func:`chain_key`).
ChainKey = Tuple[int, ...]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def chain_key(
    model: MemoryModel, proc: int, kind: OpKind, addr: int, po: int
) -> ChainKey:
    """The chain an op belongs to under ``model``: the one chain rule.

    Consecutive members of a chain are always ordered by the static
    edges (directly, or through their atomic group's internal
    ``atomic`` chain after redirection).  Per processor:

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
    mutually unordered).  Keys sort roots first, by address, then by
    processor, each processor's load/membar chain before its stores.
    """
    if proc == ROOT_PROC:
        return (ROOT_PROC, addr)
    if (model.load_load and model.load_store
            and model.store_store and model.store_load):
        return (proc, 0)
    if kind != OpKind.STORE:
        if model.load_load or kind == OpKind.MEMBAR:
            return (proc, 0)
        return (proc, 1, po)
    if model.store_store:
        return (proc, 2)
    if model.same_addr_store_store:
        return (proc, 2, addr)
    return (proc, 3, po)


class Chains:
    """A chain decomposition of the analysis nodes (see
    :func:`chain_key`), with the per-address store index the R6/R7
    queries search.

    Every chain is a path of static edges, which is what makes a
    frontier entry exact: if chain member ``c[i]`` reaches ``v``, so
    does every ``c[j]`` with ``j < i``.  The vc engine and the online checker keep
    ``vec_to`` and ``vec_from`` rows with one entry per *column* chain
    (:attr:`to_col`; -1: no column), and their R6/R7 candidate queries
    search :attr:`addr_stores`.  Root stores are left out of both: a
    root is a source of every acyclic graph, so no R6 interval or R7
    scan can return one (see :mod:`repro.core.vc`).

    Built over a whole program, the columns are the chains holding a
    non-root store (:attr:`store_chains`).  A stream passes the keys of
    every chain that can ever hold one as ``columns`` instead: the
    chains then start empty, and it appends each op (roots first) with
    :meth:`add` as it arrives.
    """

    def __init__(
        self,
        aprog: AnalysisProgram,
        model: MemoryModel,
        columns: Optional[Iterable[ChainKey]] = None,
    ) -> None:
        self.model = model
        self.nodes: List[List[int]] = []
        self.chain_of: List[int] = []
        self.pos_of: List[int] = []
        self.to_col: List[int] = []
        #: addr -> [(chain, ascending positions of its non-root stores)].
        self.addr_stores: Dict[int, List[Tuple[int, List[int]]]] = {}
        self._ids: Dict[ChainKey, int] = {}
        self._positions: Dict[Tuple[int, int], List[int]] = {}
        ops = aprog.ops if columns is None else ()
        keys = [chain_key(model, op.proc, op.kind, op.addr, op.po) for op in ops]
        for key in sorted(set(keys).union(columns or ())):
            self._new_chain(key)
        for op, key in zip(ops, keys):
            self._append(op, key)
        if columns is None:
            chains = {c for index in self.addr_stores.values() for c, _ in index}
        else:
            chains = {self._ids[key] for key in columns}
        #: The column chains, in chain order; ``to_col[c]`` is chain
        #: ``c``'s column.
        self.store_chains = sorted(chains)
        for col, chain in enumerate(self.store_chains):
            self.to_col[chain] = col

    @property
    def k(self) -> int:
        """Number of chains."""
        return len(self.nodes)

    def add(self, op: AnalysisOp) -> None:
        """Append the next op (ids in order) to its chain."""
        self._append(op, chain_key(self.model, op.proc, op.kind, op.addr, op.po))

    def _new_chain(self, key: ChainKey) -> int:
        chain = self._ids[key] = len(self.nodes)
        self.nodes.append([])
        self.to_col.append(-1)
        return chain

    def _append(self, op: AnalysisOp, key: ChainKey) -> None:
        chain = self._ids.get(key)
        if chain is None:
            chain = self._new_chain(key)
        members = self.nodes[chain]
        pos = len(members)
        members.append(op.id)
        self.chain_of.append(chain)
        self.pos_of.append(pos)
        if op.is_store and not op.is_root:
            positions = self._positions.get((op.addr, chain))
            if positions is None:
                positions = self._positions[(op.addr, chain)] = []
                self.addr_stores.setdefault(op.addr, []).append(
                    (chain, positions)
                )
            positions.append(pos)


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
