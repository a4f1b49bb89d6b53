"""Expansion of a dynamic execution into the uniform analysis-op stream.

Sec. 3.3 of the paper: before analysis, "the nodes in the program
representation ... are first expanded to form nodes in an analysis graph
... unrolling loops and resolving branches ... Nodes representing
instructions which cover multiple shared words of interest are expanded,
so that all loads, stores and swaps in the analysis graph are of a uniform
size."  This module performs that expansion at 4-byte word granularity:

* multi-word loads/stores become one word-sized op per word, grouped into
  an *atomic group* (the SPARC architecture requires aligned accesses of
  up to 64 bits — and this substrate, of up to 128 bits — to be atomic);
* swaps become an atomic group of load-ops followed by store-ops;
* CAS is resolved from its observed outcome: a successful CAS becomes a
  swap, a failed one a plain load (Sec. 3.3);
* 64-byte block operations become eight 8-byte atomic chunks in program
  order (this substrate's block ops are the strongly-ordered "commit"
  flavour, so program-order rules apply to the chunks);
* prefetches, cache/pipeline flushes and branches are dropped — no
  programmer-visible data effect;
* non-faulting loads to faulting addresses are checked to have returned
  zero and then dropped; valid ones become regular loads;
* a synthetic *root store* per shared address writes the initial value
  (the paper's "synthetic node at the root of the graph acts like a set
  of stores writing initial values").

The expansion also builds the value→store map the analysis algorithm
requires.  The paper keys the map by value alone (store values are
globally unique); this reproduction keys it by ``(address, value)``, which
is equivalent under the uniqueness requirement and additionally tolerates
reuse of a value at *different* addresses (e.g. every location starting
at 0).  A load observing a value never written to its address is recorded
as an up-front failure ("a load reading a value never written to that
address is signaled as a failure at the outset").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.model.ops import (
    WORD_SIZE,
    IBlockLoad,
    IBlockStore,
    IBranch,
    ICas,
    IFlushCache,
    IFlushPipe,
    IInterrupt,
    ILoad,
    IMembar,
    INonFaultingLoad,
    IPrefetch,
    IStore,
    ISwap,
    Instr,
)
from repro.model.trace import DynRecord, Execution


class ExpansionError(ValueError):
    """Raised when a trace is structurally unusable for analysis.

    Examples: a record whose value tuple does not match its instruction's
    word count, or a store value reused at the same address (which breaks
    the unique-store-value requirement the whole algorithm rests on).
    """


class UnmappedValueError(ExpansionError):
    """A load observed a value that no store ever wrote to its address."""


class OpKind(enum.IntEnum):
    """Kind of a word-sized analysis operation."""

    LOAD = 0
    STORE = 1
    MEMBAR = 2


#: Sentinel processor id for synthetic root stores.
ROOT_PROC = -1

#: Sentinel group id for ops not in any atomic group.
NO_GROUP = -1


@dataclass(slots=True)
class AnalysisOp:
    """One word-sized node of the analysis graph.

    Attributes:
        id: global node id (root stores come first).
        proc: issuing processor, or ``ROOT_PROC`` for root stores.
        po: position in the processor's dynamic op stream (-1 for roots).
        kind: load / store / membar.
        addr: word address (``None`` for membars).
        value: value read (loads) or written (stores); ``None`` for membars.
        group: atomic group id, or ``NO_GROUP``.
    """

    id: int
    proc: int
    po: int
    kind: OpKind
    addr: Optional[int]
    value: Optional[int]
    group: int = NO_GROUP

    @property
    def is_load(self) -> bool:
        """True for load ops."""
        return self.kind == OpKind.LOAD

    @property
    def is_store(self) -> bool:
        """True for store ops (including synthetic roots)."""
        return self.kind == OpKind.STORE

    @property
    def is_root(self) -> bool:
        """True for synthetic initial-value stores."""
        return self.proc == ROOT_PROC


@dataclass
class AnalysisProgram:
    """The expanded, analysis-ready view of one execution.

    This is the input consumed by every checker engine.  It bundles the
    node list, per-processor program order, atomic-group structure, the
    value→store map and any failures detected during expansion itself.
    """

    ops: List[AnalysisOp]
    per_proc: List[List[int]]
    roots: Dict[int, int]
    groups: Dict[int, List[int]]
    value_map: Dict[Tuple[int, int], int]
    stores_by_addr: Dict[int, List[int]]
    word_names: Dict[int, str] = field(default_factory=dict)
    #: Failures detected during expansion itself, as (code, message) pairs;
    #: codes are "unmapped" (load value never written to its address) and
    #: "nonfaulting" (faulting non-faulting load returned nonzero).
    precheck_failures: List[Tuple[str, str]] = field(default_factory=list)
    #: Lazily filled cache behind :meth:`describe` (reason strings render
    #: the same nodes thousands of times at checker scale).
    _describe_cache: Dict[int, str] = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        """Total node count (including roots)."""
        return len(self.ops)

    @property
    def nprocs(self) -> int:
        """Number of real processors."""
        return len(self.per_proc)

    def group_first(self, op_id: int) -> int:
        """First node of ``op_id``'s atomic group (itself if ungrouped)."""
        group = self.ops[op_id].group
        return op_id if group == NO_GROUP else self.groups[group][0]

    def group_last(self, op_id: int) -> int:
        """Last node of ``op_id``'s atomic group (itself if ungrouped)."""
        group = self.ops[op_id].group
        return op_id if group == NO_GROUP else self.groups[group][-1]

    def map_value(self, addr: int, value: int) -> Optional[int]:
        """The store op that wrote ``value`` to ``addr``, or ``None``."""
        return self.value_map.get((addr, value))

    def readers(self) -> Dict[int, List[int]]:
        """Map each store op id to the load ops that observed its value."""
        result: Dict[int, List[int]] = {}
        for op in self.ops:
            if not op.is_load:
                continue
            store = self.map_value(op.addr, op.value)
            if store is not None:
                result.setdefault(store, []).append(op.id)
        return result

    def name_of(self, addr: int) -> str:
        """Symbolic name of a word address (hex fallback)."""
        return self.word_names.get(addr, f"{addr:#x}")

    def describe(self, op_id: int) -> str:
        """Human-readable one-line description of a node, for diagnostics.

        Memoized: reason strings for the guaranteed-edge phase describe
        every load and its stores, so each node is rendered many times.
        """
        cached = self._describe_cache.get(op_id)
        if cached is not None:
            return cached
        text = self._describe(op_id)
        self._describe_cache[op_id] = text
        return text

    def _describe(self, op_id: int) -> str:
        op = self.ops[op_id]
        if op.is_root:
            return f"init[{self.name_of(op.addr)}]#{op.value}"
        where = f"P{op.proc}.{op.po}"
        if op.kind == OpKind.MEMBAR:
            return f"{where} MEMBAR"
        name = self.name_of(op.addr)
        if op.kind == OpKind.STORE:
            return f"{where} S[{name}]#{op.value}"
        return f"{where} L[{name}]={op.value}"


def expand(
    execution: Execution,
    initial: Optional[Dict[int, int]] = None,
    word_names: Optional[Dict[int, str]] = None,
) -> AnalysisProgram:
    """Expand an execution into an :class:`AnalysisProgram`.

    Args:
        execution: the dynamic trace of one run.
        initial: initial word values (addresses absent default to 0).
        word_names: optional symbolic names for addresses (debug output).

    Raises:
        ExpansionError: on malformed records or duplicate store values at
            the same address.
    """
    initial = dict(initial or {})
    builder = _Builder(initial, word_names or {})
    for pid, proc_records in enumerate(execution.records):
        builder.begin_proc(pid)
        for rec_idx, rec in enumerate(proc_records):
            builder.add_record(pid, rec_idx, rec)
    return builder.finish()


class _Builder:
    """Incremental construction of an AnalysisProgram."""

    def __init__(self, initial: Dict[int, int], word_names: Dict[int, str]) -> None:
        self._initial = initial
        self._word_names = word_names
        self._ops: List[AnalysisOp] = []
        self._per_proc: List[List[int]] = []
        self._groups: Dict[int, List[int]] = {}
        self._next_group = 0
        self._addresses: Set[int] = set(initial)
        self._failures: List[Tuple[str, str]] = []
        self._roots: Dict[int, int] = {}
        self._stores_by_addr: Dict[int, List[int]] = {}
        self._value_map: Dict[Tuple[int, int], int] = {}
        # (pid, rec_idx, instr, loaded words, stored words, kind sequence)
        self._pending: List[Tuple[int, int, DynRecord]] = []

    def begin_proc(self, pid: int) -> None:
        while len(self._per_proc) <= pid:
            self._per_proc.append([])

    def add_record(self, pid: int, rec_idx: int, rec: DynRecord) -> None:
        self._pending.append((pid, rec_idx, rec))
        instr = rec.instr
        addr = getattr(instr, "addr", None)
        if addr is not None and instr.words():
            for w in range(instr.words()):
                self._addresses.add(addr + w * WORD_SIZE)

    def _init_roots(self) -> None:
        """Emit the synthetic root stores, one per address, ids first."""
        for addr in sorted(self._addresses):
            op = AnalysisOp(
                id=len(self._ops),
                proc=ROOT_PROC,
                po=-1,
                kind=OpKind.STORE,
                addr=addr,
                value=self._initial.get(addr, 0),
            )
            self._ops.append(op)
            self._roots[addr] = op.id
            self._stores_by_addr[addr] = [op.id]
            self._value_map[(addr, op.value)] = op.id

    def _build_aprog(self) -> AnalysisProgram:
        """Wrap the builder's (shared, still-mutable) state in the program
        view every checker engine consumes."""
        return AnalysisProgram(
            ops=self._ops,
            per_proc=self._per_proc,
            roots=self._roots,
            groups=self._groups,
            value_map=self._value_map,
            stores_by_addr=self._stores_by_addr,
            word_names=self._word_names,
            precheck_failures=self._failures,
        )

    def finish(self) -> AnalysisProgram:
        # Root stores first so their ids are stable and dense.
        self._init_roots()
        for pid, rec_idx, rec in self._pending:
            self._expand_record(pid, rec_idx, rec)
        aprog = self._build_aprog()
        self._check_load_values(aprog)
        return aprog

    # ------------------------------------------------------------------

    def _new_group(self) -> int:
        gid = self._next_group
        self._next_group += 1
        self._groups[gid] = []
        return gid

    def _emit(
        self,
        pid: int,
        kind: OpKind,
        addr: Optional[int],
        value: Optional[int],
        group: int,
    ) -> AnalysisOp:
        op = AnalysisOp(
            id=len(self._ops),
            proc=pid,
            po=len(self._per_proc[pid]),
            kind=kind,
            addr=addr,
            value=value,
            group=group,
        )
        self._ops.append(op)
        self._per_proc[pid].append(op.id)
        if group != NO_GROUP:
            self._groups[group].append(op.id)
        if kind == OpKind.STORE:
            key = (addr, value)
            if key in self._value_map:
                raise ExpansionError(
                    f"store value {value} written twice to address {addr:#x}: "
                    "unique-store-value requirement violated"
                )
            self._value_map[key] = op.id
            self._stores_by_addr.setdefault(addr, []).append(op.id)
        return op

    def _words_of(self, rec: DynRecord, which: str) -> Tuple[int, ...]:
        values = getattr(rec, which)
        expected = rec.instr.words()
        if values is None or len(values) != expected:
            raise ExpansionError(
                f"{rec.instr.mnemonic()}: expected {expected} {which} word(s), "
                f"got {values!r}"
            )
        return values

    def _expand_record(self, pid: int, rec_idx: int, rec: DynRecord) -> None:
        instr = rec.instr

        if isinstance(
            instr, (IPrefetch, IFlushCache, IFlushPipe, IBranch, IInterrupt)
        ):
            return  # no programmer-visible data effect (Sec. 3.3)

        if isinstance(instr, INonFaultingLoad):
            loaded = self._words_of(rec, "loaded")
            if instr.faulting:
                if any(v != 0 for v in loaded):
                    self._failures.append((
                        "nonfaulting",
                        f"P{pid}.{rec_idx}: non-faulting load to faulting address "
                        f"{instr.addr:#x} returned {loaded}, expected zeros",
                    ))
                return  # checked, then ignored for the rest of the analysis
            instr = ILoad(addr=instr.addr, size=instr.size)
            rec = DynRecord(instr=instr, loaded=loaded)

        if isinstance(instr, ILoad):
            loaded = self._words_of(rec, "loaded")
            group = self._new_group() if len(loaded) > 1 else NO_GROUP
            for w, value in enumerate(loaded):
                self._emit(pid, OpKind.LOAD, instr.addr + w * WORD_SIZE, value, group)
            return

        if isinstance(instr, IStore):
            stored = self._words_of(rec, "stored")
            group = self._new_group() if len(stored) > 1 else NO_GROUP
            for w, value in enumerate(stored):
                self._emit(pid, OpKind.STORE, instr.addr + w * WORD_SIZE, value, group)
            return

        if isinstance(instr, ISwap):
            self._emit_atomic(pid, rec)
            return

        if isinstance(instr, ICas):
            if rec.cas_ok:
                self._emit_atomic(pid, rec)
            else:
                # Failed compare: the CAS degenerates to a plain load.
                loaded = self._words_of(rec, "loaded")
                group = self._new_group() if len(loaded) > 1 else NO_GROUP
                for w, value in enumerate(loaded):
                    self._emit(
                        pid, OpKind.LOAD, instr.addr + w * WORD_SIZE, value, group
                    )
            return

        if isinstance(instr, IBlockLoad):
            loaded = self._words_of(rec, "loaded")
            for chunk in range(0, len(loaded), 2):
                group = self._new_group()
                for w in (chunk, chunk + 1):
                    self._emit(
                        pid, OpKind.LOAD, instr.addr + w * WORD_SIZE, loaded[w], group
                    )
            return

        if isinstance(instr, IBlockStore):
            stored = self._words_of(rec, "stored")
            for chunk in range(0, len(stored), 2):
                group = self._new_group()
                for w in (chunk, chunk + 1):
                    self._emit(
                        pid, OpKind.STORE, instr.addr + w * WORD_SIZE, stored[w], group
                    )
            return

        if isinstance(instr, IMembar):
            self._emit(pid, OpKind.MEMBAR, None, None, NO_GROUP)
            return

        raise ExpansionError(f"cannot expand instruction {instr!r}")

    def _emit_atomic(self, pid: int, rec: DynRecord) -> None:
        """Emit an atomic [loads; stores] group for a swap or successful CAS."""
        instr = rec.instr
        loaded = self._words_of(rec, "loaded")
        stored = self._words_of(rec, "stored")
        group = self._new_group()
        for w, value in enumerate(loaded):
            self._emit(pid, OpKind.LOAD, instr.addr + w * WORD_SIZE, value, group)
        for w, value in enumerate(stored):
            self._emit(pid, OpKind.STORE, instr.addr + w * WORD_SIZE, value, group)

    def _check_load_values(self, aprog: AnalysisProgram) -> None:
        """Flag loads whose value was never written to their address."""
        for op in aprog.ops:
            if op.is_load and aprog.map_value(op.addr, op.value) is None:
                self._failures.append((
                    "unmapped",
                    f"{aprog.describe(op.id)}: value {op.value} was never "
                    f"written to {aprog.name_of(op.addr)} (unmapped load value)",
                ))


class StreamExpander(_Builder):
    """Incremental expansion for the streaming checker.

    Where :func:`expand` consumes a *completed* execution in two phases
    (collect addresses, then expand), this variant is fed one
    :class:`~repro.model.trace.DynRecord` at a time, as the simulator
    emits them, and appends the resulting analysis ops to a *live*
    :class:`AnalysisProgram` whose containers are shared with the checker
    consuming it.

    The price of streaming is that the address universe must be declared
    up front: root-store ids come first and are dense, so a never-seen
    address arriving mid-stream cannot get a root retroactively.  Feeding
    a record that touches an undeclared address raises
    :class:`ExpansionError`.

    Unmapped-load detection is *not* performed here (a matching store may
    simply not have been fed yet); the streaming checker tracks
    unresolved loads itself and reports survivors when the session
    finishes.
    """

    def __init__(
        self,
        addresses: Sequence[int],
        initial: Optional[Dict[int, int]] = None,
        word_names: Optional[Dict[int, str]] = None,
        nprocs: int = 0,
    ) -> None:
        super().__init__(dict(initial or {}), dict(word_names or {}))
        self._addresses.update(addresses)
        self._init_roots()
        if nprocs > 0:
            self.begin_proc(nprocs - 1)
        self.aprog = self._build_aprog()

    def feed(self, pid: int, rec_idx: int, rec: DynRecord) -> List[int]:
        """Expand one dynamic record; return the new analysis-op ids."""
        self.begin_proc(pid)
        instr = rec.instr
        addr = getattr(instr, "addr", None)
        if addr is not None and instr.words():
            for w in range(instr.words()):
                word = addr + w * WORD_SIZE
                if word not in self._roots:
                    raise ExpansionError(
                        f"P{pid}.{rec_idx} touches address {word:#x}, which "
                        "was not declared when the stream session opened"
                    )
        before = len(self._ops)
        self._expand_record(pid, rec_idx, rec)
        return list(range(before, len(self._ops)))
