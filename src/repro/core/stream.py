"""The streaming online checker: check operations as the machine emits them.

TSOtool's pipeline (PAPER.md Sec. 2) expands the whole execution before
analysis starts, so the trace must fit in memory and a violation in the
first minute is reported only after the last.  The vc engine's core
(:class:`repro.core.vc.FrontierCore`: frontier rows and their floods, a
Pearce–Kelly online order, the R6/R7 scans) is already incremental, and
this module is a thin online driver over it:

* a :class:`StreamSession` expands each fed record
  (:class:`~repro.model.expansion.StreamExpander`) and admits its ops:
  each joins its chain (:meth:`repro.core.prep.Chains.add`) and gets
  its :class:`~repro.core.policy.ProgramOrder`, ``atomic`` and ``init``
  edges.  :func:`stream_check_machine` feeds it from the simulator;
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

**Retirement** bounds live state (the windowed verification of Bui et
al., PAPERS.md).  A node ``window`` admitted ops old gets shared
sentinel rows that no flood can improve, and an insertion from it
pushes nothing.  Roots never retire; the newest store to an address is
pinned while newest, and a superseded one until its superseder is a
window old (a straggling load may still observe it); an unresolved load
is pinned until it resolves, then gets a fresh window.  Adjacency,
reasons, positions and the order are kept, so detection and witnesses
stay exact across retired epochs.  An R6 item holds its observed
store's row object, so a store that retires later leaves the last floor
it reached (exact: every store below it reaches the target); one
retired before resolution gives the floor "nothing", which the item
advances past each interval it scans.  A retired R7 observer counts as
reaching every candidate, and a store retired before it is observed
gets no R7 item.  Retirement thus only drops inference, never invents
an edge: ``ok=True`` is windowed verification, sound but incomplete
like the paper's algorithm.  At the default window nothing retires and
the graph has the vc engine's closure (``tests/core/test_stream.py``).
"""

from __future__ import annotations

import time
from collections import deque
from itertools import groupby
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro import telemetry
from repro.core.checker import (
    STATIC_REASONS,
    cycle_violation,
    load_edges,
    precheck_violation,
    r7_reason,
)
from repro.core.graph import ConstraintGraph, CycleDetected
from repro.core.policy import MemoryModel, ProgramOrder, TSO
from repro.core.prep import Chains, chain_key
from repro.core.result import CheckResult, CheckStats, Violation
from repro.core.vc import FrontierCore
from repro.model.expansion import NO_GROUP, AnalysisProgram, OpKind, StreamExpander
from repro.model.trace import DynRecord

#: Default frontier-retirement window, in admitted analysis ops.  Far
#: larger than any agreement-suite run (so batch verdicts are exact),
#: far smaller than a soak run (so live state stays bounded).
DEFAULT_WINDOW = 4096

#: Frontier entry for "no position reachable" (the vc engine uses
#: ``n + 1``, but a stream does not know its final ``n``).
_INF = 1 << 60

class _StreamState(FrontierCore):
    """The online driver over a (possibly growing) program.

    :meth:`check_record` admits one dynamic record's ops (in id order,
    as the expander emits them) and then settles them: atomic groups
    never span records, so by then every admitted group is complete and
    redirection endpoints are final.
    """

    def __init__(
        self,
        aprog: AnalysisProgram,
        model: MemoryModel,
        stats: CheckStats,
        window: int = DEFAULT_WINDOW,
        inferred_rules: bool = True,
    ) -> None:
        if not model.load_load or not (
            model.store_store or model.same_addr_store_store
        ):
            raise ValueError(
                "the stream engine needs a chain decomposition of bounded "
                "width known up front: models without load_load order or "
                "same-address store order are not supported (all shipped "
                "models keep both)"
            )
        self.aprog = aprog
        self._stats = stats
        self.window = max(1, int(window))
        self.inferred_rules = inferred_rules
        self._graph = ConstraintGraph(aprog)
        self._chains = Chains(aprog, model, columns={
            chain_key(model, pid, OpKind.STORE, addr, 0)
            for pid in range(aprog.nprocs)
            for addr in aprog.roots
        })
        width = len(self._chains.store_chains)
        self._inf = _INF
        self._retired_to = [_INF] * width
        self._retired_from = [-1] * width
        self._vec_to: List[List[int]] = []
        self._vec_from: List[List[int]] = []
        self._ord: List[int] = []
        self._seq = 0
        #: Nodes whose row a flood improved since the last drain.
        self._moved_to: Dict[int, int] = {}
        self._moved_from: Dict[int, int] = {}
        self._procs = [ProgramOrder(model) for _ in range(aprog.nprocs)]
        self._admit_stamp: List[int] = []
        self._admitted = 0
        #: (addr, value) -> loads awaiting their store.
        self._pending: Dict[Tuple[int, int], List[int]] = {}
        self._unresolved: Set[int] = set()
        #: R5 ``S'`` captured at admit time, per load.
        self._r5_prev: Dict[int, int] = {}
        #: R6 items: load -> (addr, target, floor row, own floor?).
        self._r6_items: Dict[int, Tuple[int, int, List[int], bool]] = {}
        #: R7 items: store -> (addr, [(load, load_last), ...]).
        self._r7_items: Dict[int, Tuple[int, List[Tuple[int, int]]]] = {}
        self._r7_by_addr: Dict[int, Set[int]] = {}
        self._dirty_r6: Set[int] = set()
        self._dirty_r7: Set[int] = set()
        self._live = 0
        #: (stamp, node) in stamp order; an entry whose node was
        #: re-stamped since is stale.
        self._retire_q: Deque[Tuple[int, int]] = deque()
        self._last_store: Dict[int, int] = {}

        for addr in sorted(aprog.roots):
            root = aprog.roots[addr]
            self._add_node(aprog.ops[root])
            self._last_store[addr] = root

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
        vec_to = [-1] * len(self._retired_to)
        vec_from = [_INF] * len(vec_to)
        col = chains.to_col[chains.chain_of[node]]
        if col >= 0:
            vec_to[col] = vec_from[col] = chains.pos_of[node]
        self._vec_to.append(vec_to)
        self._vec_from.append(vec_from)
        self._ord.append(len(self._ord))
        self._admitted += 1
        self._admit_stamp.append(self._admitted)
        self._live += 1
        if self._live > self._stats.live_peak:
            self._stats.live_peak = self._live

    def admit(self, op_id: int) -> None:
        """Admit one analysis op: node, static edges, retirement entry.

        Raises:
            CycleDetected: a static edge closed a cycle.
        """
        aprog = self.aprog
        op = aprog.ops[op_id]
        if self._graph.n <= op_id:
            self._graph.grow()
        self._add_node(op)
        self._retire_q.append((self._admitted, op_id))
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
            if self._add_edge(u, v, STATIC_REASONS[rule]):
                self._stats.static_edges += 1

    def _note_new_store(self, store: int, addr: int) -> None:
        """Retirement + R7 bookkeeping for a newly admitted store."""
        prev = self._last_store[addr]
        self._last_store[addr] = store
        if not self.aprog.ops[prev].is_root:
            self._restamp(prev)  # a window from now, it retires
        # The new store is a candidate of every R7 item whose store
        # already reaches its chain (the chain is a path ending at it),
        # with no frontier moving: test it against those items'
        # observers here.  An item whose store comes to reach the chain
        # later is rescanned when its row moves.  (R6 needs no such
        # trigger: the new position is above every existing vec_to
        # entry, so no interval covers it.)
        chains = self._chains
        col = chains.to_col[chains.chain_of[store]]
        pos = chains.pos_of[store]
        vec_from = self._vec_from
        for item in self._r7_by_addr.get(addr, ()):
            if vec_from[item][col] < _INF:
                for load, load_last in self._r7_items[item][1]:
                    if vec_from[load_last][col] > pos and self._add_edge(
                        load, store, r7_reason(load, item, store)
                    ):
                        self._stats.inferred_edges += 1

    def settle(self, op_ids: List[int]) -> None:
        """Resolve a record's admitted ops, drain the R6/R7 dirty set to
        quiescence, then sweep retirement.

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
                    self._unresolved.add(op_id)
            elif op.is_store:
                for load in self._pending.pop((op.addr, op.value), ()):
                    self._unresolved.discard(load)
                    self._restamp(load)  # a fresh window from here
                    self._resolve(load, op_id)
        self._drain()
        self._retire_sweep()

    def _resolve(self, load: int, target: int) -> None:
        """A load's observed store is known: R4/R5 edges, R6/R7 items."""
        aprog = self.aprog
        s_prime = self._r5_prev.pop(load, None)
        for u, v, reason, _rule in load_edges(aprog, load, target, s_prime):
            if self._add_edge(u, v, reason):
                self._stats.observed_edges += 1
        if not self.inferred_rules:
            return
        addr = aprog.ops[load].addr
        floor = self._vec_to[aprog.group_first(target)]
        own = floor is self._retired_to
        if own:
            floor = [-1] * len(floor)
        self._r6_items[load] = (addr, target, floor, own)
        self._dirty_r6.add(load)
        if self._vec_from[target] is not self._retired_from:
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
                addr, target, floor, own = r6_items[load]
                vt_load = self._vec_to[load]
                candidates = self._r6_interval(addr, vt_load, floor, target)
                if own:
                    floor[:] = vt_load  # everything up to here is scanned
                stats.inferred_edges += self._apply_r6(load, target, candidates)
            while dirty_r7:
                store = dirty_r7.pop()
                addr, observers = r7_items[store]
                stats.inferred_edges += self._apply_r7(store, addr, observers)
        if worked:
            stats.iterations += 1

    def _restamp(self, node: int) -> None:
        self._admit_stamp[node] = self._admitted
        self._retire_q.append((self._admitted, node))

    def _retire_sweep(self) -> None:
        """Retire every node a window old that no pin holds."""
        admitted = self._admitted
        q = self._retire_q
        stamp = self._admit_stamp
        while q and admitted - q[0][0] >= self.window:
            entry, node = q.popleft()
            if stamp[node] != entry:
                continue
            op = self.aprog.ops[node]
            if op.is_load and node in self._unresolved:
                continue  # pinned until it resolves, then re-stamped
            if op.is_store and self._last_store[op.addr] == node:
                continue  # pinned while newest, re-stamped when superseded
            self._retire(node)

    def _retire(self, node: int) -> None:
        """Swap the node's rows for the sentinels and drop its items
        (graph, order and positions are kept)."""
        self._vec_to[node] = self._retired_to
        self._vec_from[node] = self._retired_from
        self._live -= 1
        self._stats.retired_nodes += 1
        self._r6_items.pop(node, None)
        item = self._r7_items.pop(node, None)
        if item is not None:
            self._r7_by_addr[item[0]].discard(node)

    def flush_unresolved(self) -> None:
        """Record still-unresolved loads as unmapped-value precheck
        failures on the program (end-of-session bookkeeping)."""
        aprog = self.aprog
        for load in sorted(self._unresolved):
            op = aprog.ops[load]
            aprog.precheck_failures.append((
                "unmapped",
                f"{aprog.describe(load)}: value {op.value} was never "
                f"written to {aprog.name_of(op.addr)} (unmapped load value)",
            ))


class StreamSession:
    """One live checking session: feed dynamic records, get the verdict.

    Create via :meth:`StreamingChecker.open_session`.  ``feed`` returns
    the :class:`Violation` as soon as one exists — at the op that closes
    the cycle, even if a later record would also fail the unmapped-value
    precheck — and every later ``feed`` is a no-op returning the same
    violation.  ``finish`` runs the end-of-stream checks (unresolved
    loads, expansion failures) and returns the full
    :class:`CheckResult`.
    """

    def __init__(
        self,
        model: MemoryModel,
        addresses: Sequence[int],
        initial: Optional[Dict[int, int]] = None,
        word_names: Optional[Dict[int, str]] = None,
        *,
        nprocs: int,
        window: int = DEFAULT_WINDOW,
        inferred_rules: bool = True,
    ) -> None:
        self.model = model
        self.nprocs = nprocs
        self._start = time.perf_counter()
        self._expander = StreamExpander(
            addresses, initial=initial, word_names=word_names, nprocs=nprocs
        )
        self.aprog = self._expander.aprog
        self.stats = CheckStats()
        self._state = _StreamState(
            self.aprog, model, self.stats,
            window=window, inferred_rules=inferred_rules,
        )
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
            self.stats.nodes = self.aprog.n
            self._finished = _result(
                self.model, self.stats, self._start, self.violation,
                self.aprog, self._state._graph,
            )
        return self._finished


class StreamingChecker:
    """Fig. 2 as an online algorithm: bounded live state, early verdicts."""

    name = "stream"

    def __init__(
        self,
        model: MemoryModel = TSO,
        inferred_rules: bool = True,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        """Args:
            model: memory-model ordering policy.
            inferred_rules: apply the R6/R7 fixed point (the DESIGN.md
                rule ablation, as on the vc engine).
            window: frontier-retirement window in admitted analysis ops;
                live checker state is O(window), verdicts are windowed
                (see the module docstring).
        """
        self.model = model
        self.inferred_rules = inferred_rules
        self.window = window

    def open_session(
        self,
        addresses: Sequence[int],
        initial: Optional[Dict[int, int]] = None,
        word_names: Optional[Dict[int, str]] = None,
        *,
        nprocs: int,
        window: Optional[int] = None,
    ) -> StreamSession:
        """Open a live session fed record-by-record (the true streaming
        path; :meth:`run` is the batch shim over the same core) for
        records of processors ``range(nprocs)``."""
        return StreamSession(
            self.model, addresses,
            initial=initial, word_names=word_names, nprocs=nprocs,
            window=self.window if window is None else window,
            inferred_rules=self.inferred_rules,
        )

    def run(self, aprog: AnalysisProgram) -> CheckResult:
        """Check a completed analysis program (``--engine stream``) by
        replaying it through the online driver, one record at a time.

        The up-front precheck runs first, exactly like the batch engines,
        so verdict *and* violation kind agree with them even on traces
        that contain both an unmapped value and a cycle.
        """
        start = time.perf_counter()
        stats = CheckStats(nodes=aprog.n)
        graph = None
        violation = precheck_violation(aprog)
        if violation is None:
            state = _StreamState(
                aprog, self.model, stats,
                window=self.window, inferred_rules=self.inferred_rules,
            )
            graph = state._graph
            records = groupby(
                (op for op in aprog.ops if not op.is_root),
                key=lambda op: (op.proc, op.origin),
            )
            for _, ops in records:
                violation = state.check_record([op.id for op in ops])
                if violation is not None:
                    break
        return _result(self.model, stats, start, violation, aprog, graph)


def _result(
    model: MemoryModel,
    stats: CheckStats,
    start: float,
    violation: Optional[Violation],
    aprog: AnalysisProgram,
    graph: Optional[ConstraintGraph],
) -> CheckResult:
    """Time, record and wrap one stream check."""
    stats.seconds = time.perf_counter() - start
    telemetry.record_check(stats, StreamingChecker.name)
    return CheckResult(
        ok=violation is None,
        model_name=model.name,
        engine=StreamingChecker.name,
        violation=violation,
        stats=stats,
        aprog=aprog,
        graph=graph,
    )


class StreamViolationStop(Exception):
    """Raised out of the machine's observer to abort a doomed run early."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(violation.message)
        self.violation = violation


def stream_check_machine(
    machine,
    model: MemoryModel = TSO,
    window: int = DEFAULT_WINDOW,
    stop_on_violation: bool = False,
    on_record: Optional[Callable[[int, int], None]] = None,
):
    """Run a :class:`~repro.sim.machine.TsoMachine`, checking its observed
    records *as they are emitted* — simulation and analysis pipelined.

    Args:
        machine: a constructed, not-yet-run machine.  Its ``observer``
            hook must be free (this function installs one).
        model: memory model to check against.
        window: frontier-retirement window (see :data:`DEFAULT_WINDOW`).
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
    session = StreamingChecker(model, window=window).open_session(
        addresses=machine.shared_words,
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
