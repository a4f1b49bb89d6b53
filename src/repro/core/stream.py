"""The pipeline's online checker: check operations as the machine emits them.

TSOtool's pipeline (PAPER.md Sec. 2) expands the whole execution before
analysis starts, so a violation in the first minute is reported only
after the last.  Campaign pipeline mode (``CampaignConfig.pipeline``)
instead checks each attempt while it runs, through
:func:`stream_check_machine`.  The vc engine's core
(:class:`repro.core.vc.FrontierCore`: frontier rows and their floods, a
Pearce–Kelly online order, the R6/R7 scans) is already incremental, and
this module is a thin online driver over it:

* a :class:`StreamSession` expands each fed record
  (:class:`~repro.model.expansion.StreamExpander`) and admits its ops:
  each joins its chain (:meth:`repro.core.prep.Chains.add`) and gets
  its :class:`~repro.core.policy.ProgramOrder`, ``atomic`` and ``init``
  edges;
* at each record boundary loads meet the stores whose value they read
  (or wait until it arrives): R4/R5 edges from
  :func:`repro.core.checker.load_edges`, an R6 item per load, an R7
  item per observed store;
* a dirty-set drain rescans an item in full when the floods moved its
  row (they record moved rows in a dict) or it is new or gained an
  observer, and a new same-address store is tested on its own against
  the observers of each R7 item whose store reaches its chain.  The
  rules are monotone, so quiescence is the batch fixed point;
* a cycle is reported **at the op that closes it**, with the witness of
  :func:`repro.core.checker.cycle_violation`.

Rows have vc's layout, with one column per chain that can hold a
non-root store of a declared processor (under TSO, its store chain).
A session keeps the whole run, like the batch engines, and its graph
has the vc engine's closure (``tests/core/test_stream.py``).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import telemetry
from repro.core.checker import cycle_violation, load_edges, precheck_violation
from repro.core.graph import ConstraintGraph, CycleDetected
from repro.core.policy import MemoryModel, ProgramOrder, TSO
from repro.core.prep import Chains, chain_key
from repro.core.reasons import R7, STATIC_CODES
from repro.core.result import CheckResult, CheckStats, Violation
from repro.core.vc import FrontierCore
from repro.model.expansion import NO_GROUP, AnalysisProgram, OpKind, StreamExpander
from repro.model.trace import DynRecord

#: Frontier entry for "no position reachable" (the vc engine uses
#: ``n + 1``, but a stream does not know its final ``n``).
_INF = 1 << 60


class _StreamState(FrontierCore):
    """The online driver over a growing program.

    :meth:`check_record` admits one dynamic record's ops (in id order,
    as the expander emits them) and then settles them: atomic groups
    never span records, so by then every admitted group is complete and
    redirection endpoints are final.
    """

    def __init__(
        self, aprog: AnalysisProgram, model: MemoryModel, stats: CheckStats
    ) -> None:
        if not model.load_load or not (
            model.store_store or model.same_addr_store_store
        ):
            raise ValueError(
                "a stream session needs a chain decomposition of bounded "
                "width known up front: models without load_load order or "
                "same-address store order are not supported (all shipped "
                "models keep both)"
            )
        self.aprog = aprog
        self._stats = stats
        self._graph = ConstraintGraph(aprog)
        self._chains = Chains(aprog, model, columns={
            chain_key(model, pid, OpKind.STORE, addr, 0)
            for pid in range(aprog.nprocs)
            for addr in aprog.roots
        })
        self._width = len(self._chains.store_chains)
        self._inf = _INF
        self._vec_to: List[List[int]] = []
        self._vec_from: List[List[int]] = []
        self._ord: List[int] = []
        self._seq = 0
        #: Nodes whose row a flood improved since the last drain.
        self._moved_to: Dict[int, int] = {}
        self._moved_from: Dict[int, int] = {}
        self._procs = [ProgramOrder(model) for _ in range(aprog.nprocs)]
        #: (addr, value) -> loads awaiting their store.
        self._pending: Dict[Tuple[int, int], List[int]] = {}
        #: R5 ``S'`` captured at admit time, per load.
        self._r5_prev: Dict[int, int] = {}
        #: R6 items: load -> (addr, target, the target group's entry row).
        self._r6_items: Dict[int, Tuple[int, int, List[int]]] = {}
        #: R7 items: store -> (addr, [(load, load_last), ...]).
        self._r7_items: Dict[int, Tuple[int, List[Tuple[int, int]]]] = {}
        self._r7_by_addr: Dict[int, Set[int]] = {}
        self._dirty_r6: Set[int] = set()
        self._dirty_r7: Set[int] = set()

        for addr in sorted(aprog.roots):
            self._add_node(aprog.ops[aprog.roots[addr]])

    def check_record(self, op_ids: List[int]) -> Optional[Violation]:
        """Admit one dynamic record's ops, then settle; the violation if
        an edge closed a cycle."""
        try:
            for op_id in op_ids:
                self.admit(op_id)
            self.settle(op_ids)
        except CycleDetected as exc:
            return cycle_violation(self.aprog, self._graph, exc)
        return None

    def _add_node(self, op) -> None:
        """Chain position, fresh rows and an order index for ``op``."""
        node = op.id
        chains = self._chains
        chains.add(op)
        vec_to = [-1] * self._width
        vec_from = [_INF] * self._width
        col = chains.to_col[chains.chain_of[node]]
        if col >= 0:
            vec_to[col] = vec_from[col] = chains.pos_of[node]
        self._vec_to.append(vec_to)
        self._vec_from.append(vec_from)
        self._ord.append(len(self._ord))
        self._stats.live_peak = len(self._ord)

    def admit(self, op_id: int) -> None:
        """Admit one analysis op: node and static edges.

        Raises:
            CycleDetected: a static edge closed a cycle.
        """
        aprog = self.aprog
        op = aprog.ops[op_id]
        if self._graph.n <= op_id:
            self._graph.grow()
        self._add_node(op)
        tracker = self._procs[op.proc]
        if op.is_load:
            s_prime = tracker.last_store_to.get(op.addr)
            if s_prime is not None:
                self._r5_prev[op_id] = s_prime
        static = tracker.in_edges(op)
        if op.group != NO_GROUP:
            members = aprog.groups[op.group]
            index = members.index(op_id)
            if index:
                static.append((members[index - 1], op_id, "atomic"))
        if op.is_store:
            static.append((aprog.roots[op.addr], op_id, "init"))
            self._note_new_store(op_id, op.addr)
        for u, v, rule in static:
            if self._add_edge(u, v, STATIC_CODES[rule]):
                self._stats.static_edges += 1

    def _note_new_store(self, store: int, addr: int) -> None:
        """R7 for a newly admitted store.

        The new store is a candidate of every R7 item whose store
        already reaches its chain (the chain is a path ending at it),
        with no frontier moving: test it against those items' observers
        here.  An item whose store comes to reach the chain later is
        rescanned when its row moves.  (R6 needs no such trigger: the
        new position is above every existing vec_to entry, so no
        interval covers it.)
        """
        chains = self._chains
        col = chains.to_col[chains.chain_of[store]]
        pos = chains.pos_of[store]
        vec_from = self._vec_from
        for item in self._r7_by_addr.get(addr, ()):
            if vec_from[item][col] < _INF:
                for load, load_last in self._r7_items[item][1]:
                    if vec_from[load_last][col] > pos and self._add_edge(
                        load, store, R7, load, item, store
                    ):
                        self._stats.inferred_edges += 1

    def settle(self, op_ids: List[int]) -> None:
        """Resolve a record's admitted ops, then drain the R6/R7 dirty
        set to quiescence.

        Raises:
            CycleDetected: an observed or inferred edge closed a cycle.
        """
        admitted_limit = len(self._ord)
        for op_id in op_ids:
            op = self.aprog.ops[op_id]
            if op.is_load:
                key = (op.addr, op.value)
                target = self.aprog.value_map.get(key)
                if target is not None and target < admitted_limit:
                    self._resolve(op_id, target)
                else:
                    self._pending.setdefault(key, []).append(op_id)
            elif op.is_store:
                for load in self._pending.pop((op.addr, op.value), ()):
                    self._resolve(load, op_id)
        self._drain()

    def _resolve(self, load: int, target: int) -> None:
        """A load's observed store is known: R4/R5 edges, R6/R7 items."""
        aprog = self.aprog
        s_prime = self._r5_prev.pop(load, None)
        for u, v, code, a, b, c in load_edges(aprog, load, target, s_prime):
            if self._add_edge(u, v, code, a, b, c):
                self._stats.observed_edges += 1
        addr = aprog.ops[load].addr
        floor = self._vec_to[aprog.group_first(target)]
        self._r6_items[load] = (addr, target, floor)
        self._dirty_r6.add(load)
        item = self._r7_items.get(target)
        if item is None:
            item = self._r7_items[target] = (addr, [])
            self._r7_by_addr.setdefault(addr, set()).add(target)
        item[1].append((load, aprog.group_last(load)))
        self._dirty_r7.add(target)

    def _drain(self) -> None:
        """Rescan dirty R6/R7 items until none is left.

        Every way a candidate set can grow dirties its item (a moved
        row, a new item or observer, a new same-address store), and the
        rules are monotone, so quiescence here is the batch fixed point.
        """
        r6_items, r7_items = self._r6_items, self._r7_items
        dirty_r6, dirty_r7 = self._dirty_r6, self._dirty_r7
        moved_to, moved_from = self._moved_to, self._moved_from
        stats = self._stats
        worked = False
        while True:
            dirty_r6.update(node for node in moved_to if node in r6_items)
            dirty_r7.update(node for node in moved_from if node in r7_items)
            moved_to.clear()
            moved_from.clear()
            if not dirty_r6 and not dirty_r7:
                break
            worked = True
            while dirty_r6:
                load = dirty_r6.pop()
                addr, target, floor = r6_items[load]
                candidates = self._r6_interval(
                    addr, self._vec_to[load], floor, target
                )
                stats.inferred_edges += self._apply_r6(load, target, candidates)
            while dirty_r7:
                store = dirty_r7.pop()
                addr, observers = r7_items[store]
                stats.inferred_edges += self._apply_r7(store, addr, observers)
        if worked:
            stats.iterations += 1

    def flush_unresolved(self) -> None:
        """Record still-unresolved loads as unmapped-value precheck
        failures on the program (end-of-session bookkeeping)."""
        aprog = self.aprog
        for load in sorted(
            load for loads in self._pending.values() for load in loads
        ):
            op = aprog.ops[load]
            aprog.precheck_failures.append((
                "unmapped",
                f"{aprog.describe(load)}: value {op.value} was never "
                f"written to {aprog.name_of(op.addr)} (unmapped load value)",
            ))


class StreamSession:
    """One live checking session: feed dynamic records, get the verdict.

    ``feed`` returns the :class:`Violation` as soon as one exists — at
    the op that closes the cycle, even if a later record would also fail
    the unmapped-value precheck — and every later ``feed`` is a no-op
    returning the same violation.  ``finish`` runs the end-of-stream
    checks (unresolved loads, expansion failures) and returns the full
    :class:`CheckResult`.
    """

    #: The engine name results and telemetry report.
    name = "stream"

    def __init__(
        self,
        model: MemoryModel,
        addresses: Sequence[int],
        initial: Optional[Dict[int, int]] = None,
        word_names: Optional[Dict[int, str]] = None,
        *,
        nprocs: int,
    ) -> None:
        self.model = model
        self.nprocs = nprocs
        self._start = time.perf_counter()
        self._expander = StreamExpander(
            addresses, initial=initial, word_names=word_names, nprocs=nprocs
        )
        self.aprog = self._expander.aprog
        self.stats = CheckStats()
        self._state = _StreamState(self.aprog, model, self.stats)
        self._rec_counts: Dict[int, int] = {}
        self.violation: Optional[Violation] = None
        self._finished: Optional[CheckResult] = None

    def feed(
        self, pid: int, rec: DynRecord, rec_idx: Optional[int] = None
    ) -> Optional[Violation]:
        """Check one dynamic record of a declared processor (else
        ``ValueError``); return the violation if one is known."""
        if not 0 <= pid < self.nprocs:
            raise ValueError(
                f"record from processor {pid}, but the session declared "
                f"nprocs={self.nprocs}"
            )
        if self.violation is not None:
            return self.violation
        if rec_idx is None:
            rec_idx = self._rec_counts.get(pid, 0)
        self._rec_counts[pid] = rec_idx + 1
        self.violation = self._state.check_record(
            self._expander.feed(pid, rec_idx, rec)
        )
        return self.violation

    def finish(self) -> CheckResult:
        """End the stream: final prechecks, stats, telemetry, result."""
        if self._finished is None:
            if self.violation is None:
                self._state.flush_unresolved()
                self.violation = precheck_violation(self.aprog)
            stats = self.stats
            stats.nodes = self.aprog.n
            stats.seconds = time.perf_counter() - self._start
            telemetry.record_check(stats, self.name)
            self._finished = CheckResult(
                ok=self.violation is None,
                model_name=self.model.name,
                engine=self.name,
                violation=self.violation,
                stats=stats,
                aprog=self.aprog,
                graph=self._state._graph,
            )
        return self._finished


class StreamViolationStop(Exception):
    """Raised out of the machine's observer to abort a doomed run early."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(violation.message)
        self.violation = violation


def stream_check_machine(
    machine,
    model: MemoryModel = TSO,
    stop_on_violation: bool = False,
    on_record: Optional[Callable[[int, int], None]] = None,
):
    """Run a :class:`~repro.sim.machine.TsoMachine`, checking its observed
    records *as they are emitted* — simulation and analysis pipelined.

    Args:
        machine: a constructed, not-yet-run machine.  Its ``observer``
            hook must be free (this function installs one).
        model: memory model to check against.
        stop_on_violation: abort the simulation the moment a cycle
            closes, instead of running the program to completion; the
            returned execution is then ``None`` (partial run).
        on_record: optional ``(pid, rec_idx)`` progress callback, invoked
            after each record is checked.

    Returns:
        ``(result, execution)`` — the :class:`CheckResult` and the full
        observed :class:`~repro.model.trace.Execution` (``None`` when the
        run was aborted early).
    """
    program = machine.program
    session = StreamSession(
        model,
        machine.shared_words,
        initial=program.initial,
        word_names=program.word_names,
        nprocs=len(machine.cpus),
    )

    def observer(pid: int, rec_idx: int, rec: DynRecord) -> None:
        violation = session.feed(pid, rec, rec_idx)
        if on_record is not None:
            on_record(pid, rec_idx)
        if violation is not None and stop_on_violation:
            raise StreamViolationStop(violation)

    machine.observer = observer
    try:
        execution = machine.run()
    except StreamViolationStop:
        execution = None
    finally:
        machine.observer = None
    return session.finish(), execution
