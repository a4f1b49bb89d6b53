"""The operational TSO multiprocessor (the paper's "platform", Step 2).

``TsoMachine`` executes a :class:`~repro.model.program.Program` under
seeded random interleaving and returns the observed
:class:`~repro.model.trace.Execution`.  The golden (fault-free) machine
implements exactly the TSO axioms:

* stores enter a per-CPU FIFO store buffer and become globally visible —
  memory write plus same-step invalidation of every other CPU's cached
  copy — when their entry drains (Order/StoreStore/Value axioms);
* loads forward from the newest matching own-buffer entry, else read the
  coherent cache/memory (the Value axiom's two store sets);
* membars drain the buffer before the next instruction issues;
* swaps and compare-and-swaps drain the buffer, then read and write
  memory in one indivisible step (Atomicity axiom);
* every scheduler decision — which CPU acts, drain-vs-issue, which PSO
  entry drains, invalidate-delivery jitter — is delegated to a
  :class:`~repro.sched.policy.SchedulePolicy`.  The default
  :class:`~repro.sched.policy.RandomPolicy` draws from a seeded PRNG
  exactly as the pre-refactor inline scheduler did, so runs are exactly
  reproducible — the property that makes a TSOtool failure "a good
  probability of being reproduced in the simulation environment"
  (Sec. 5.2) — while PCT, systematic-sweep and replay policies explore
  or pin the interleaving instead (see :mod:`repro.sched`).

With ``MachineConfig.sc_mode`` the store buffer is drained eagerly after
every store, yielding sequentially-consistent executions (used to test
the SC checker).  Injected :class:`~repro.sim.faults.Fault` objects
perturb specific mechanisms to reproduce the paper's bug catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.generator.lfsr import Lfsr
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
from repro.model.program import Program
from repro.model.trace import DynRecord, Execution
from repro.sched.policy import RandomPolicy, SchedulePolicy
from repro.sched.spec import SchedSpec, make_policy
from repro.sim import interconnect as ic
from repro.sim.cache import LINE_SIZE, CpuCache, line_of
from repro.sim.cpu import Cpu
from repro.sim.faults import FAULT_HOOKS, Fault, overrides
from repro.sim.interconnect import Interconnect
from repro.sim.memory import Memory
from repro.sim.storebuffer import BufferedStore, StoreBuffer


class _FaultHooks:
    """One list per :data:`~repro.sim.faults.FAULT_HOOKS` hook: the bound
    hook methods of the faults that override it, in fault order.

    A roster fault overrides exactly one hook, so each hook site loops
    over at most the faults that can change its outcome instead of
    calling the base class's no-op on every other one.
    """

    __slots__ = FAULT_HOOKS

    def __init__(self, faults: Sequence[Fault]) -> None:
        for hook in FAULT_HOOKS:
            setattr(self, hook, [
                getattr(fault, hook) for fault in faults
                if overrides(fault, hook)
            ])


@dataclass
class MachineStats:
    """Event counters exposed for coverage reporting (Sec. 3.1: "tools
    which report test coverage").

    Attributes:
        forwards: loads satisfied by store-to-load forwarding.
        cache_hits: loads served from the CPU's cache snapshot.
        memory_reads: loads that went all the way to memory.
        commits: store-buffer entries made globally visible.
        invalidations: invalidate deliveries performed.
        buffer_highwater: per-CPU maximum store-buffer occupancy.
        ipis_delivered: serializing interrupt entries taken.
    """

    forwards: int = 0
    cache_hits: int = 0
    memory_reads: int = 0
    commits: int = 0
    invalidations: int = 0
    buffer_highwater: List[int] = field(default_factory=list)
    ipis_delivered: int = 0
    #: Scheduler decision points consulted on the policy (coverage: how
    #: much interleaving freedom the run actually had).
    sched_decisions: int = 0
    #: Write-back mode only: dirty lines written back to memory, and
    #: misses served by another cache's dirty line.
    writebacks: int = 0
    snoop_hits: int = 0


@dataclass(frozen=True)
class MachineConfig:
    """Tunables of the simulated machine.

    Attributes:
        buffer_capacity: store-buffer entries per CPU.
        drain_bias: probability that a scheduler tick drains a buffer
            entry instead of issuing the CPU's next instruction; higher
            values shorten store-buffer residency.
        sc_mode: drain the buffer immediately after every store, which
            collapses TSO to SC (for testing the SC checker).
        writeback: write-back caching — a committed store dirties the
            owner's cache line instead of memory; other processors snoop
            dirty lines on a miss, and memory is updated only when a
            dirty victim is evicted or its owner is superseded.  The
            richer substrate behind the Fig. 6 "write cache" story.
        cache_lines: per-CPU resident-line capacity (0 = unbounded);
            with ``writeback`` this makes evictions and write-backs
            actually happen.
        pso_mode: drain any buffer entry whose words are not shadowed by
            an older entry, instead of strict FIFO — different-address
            stores may become visible out of order, which is exactly
            PSO's extra relaxation (per-address order is preserved).
        hw_prefetch: model the hardware prefetcher the paper mentions
            ("certain patterns of load accesses can also trigger a
            hardware prefetch"): two consecutive loads from adjacent
            cache lines install the following line.  Value-transparent
            on a healthy machine; it widens the attack surface of the
            cache fault models.  It needs shared words on three or more
            lines: the campaign's default 6 words at stride 1 fit in one
            line and never trigger it (``stride_words=8`` does).
        enable_monitor: run the coherence runtime checker each commit
            (the "runtime checkers monitoring the design" of Sec. 3.2).
        max_tick_factor: safety valve — the run aborts after
            ``max_tick_factor * total_instructions + 1000`` ticks.
        sched: schedule-exploration strategy spec
            (:class:`~repro.sched.spec.SchedSpec`); ``None`` means the
            classic seeded-random scheduler.  An explicit ``policy``
            object passed to :class:`TsoMachine` overrides this.
        invalidate_jitter: maximum ticks the schedule policy may delay
            any single invalidate delivery (0 = atomic same-step
            visibility, the golden TSO behaviour).  Lets policies explore
            invalidate-in-flight windows on a *healthy* machine; this is
            a scheduling relaxation, so analysis of jittered runs should
            expect store-visibility races.
    """

    buffer_capacity: int = 8
    drain_bias: float = 0.35
    sc_mode: bool = False
    pso_mode: bool = False
    hw_prefetch: bool = False
    writeback: bool = False
    cache_lines: int = 0
    enable_monitor: bool = False
    max_tick_factor: int = 400
    sched: Optional[SchedSpec] = None
    invalidate_jitter: int = 0

    def __post_init__(self) -> None:
        if self.sc_mode and self.pso_mode:
            raise ValueError("sc_mode and pso_mode are mutually exclusive")
        if self.invalidate_jitter < 0:
            raise ValueError("invalidate_jitter must be >= 0")


class TsoMachine:
    """Executes one program under seeded random interleaving."""

    def __init__(
        self,
        program: Program,
        seed: int = 0,
        config: Optional[MachineConfig] = None,
        faults: Sequence[Fault] = (),
        policy: Optional[SchedulePolicy] = None,
        observer: Optional[Callable[[int, int, DynRecord], None]] = None,
    ) -> None:
        self.config = config or MachineConfig()
        self.interconnect: Optional[Interconnect] = None
        self.caches: List[CpuCache] = []
        self.buffers: List[StoreBuffer] = []
        # Profile-guided dispatch state.  The scheduler loop runs once
        # per tick and dominates simulation time, so hoist what it
        # touches: a bound-method handler table (one dict hit, no
        # descriptor rebind per issue) and per-cpu scheduler rows
        # pairing each cpu with its buffer and instruction count (a
        # property call and two list indexes per cpu per tick priced out
        # in cProfile).  The table is built once — :meth:`reset` reuses
        # it; the rows are rebuilt per run.
        self._dispatch = {
            cls: getattr(self, handler.__name__)
            for cls, handler in self._HANDLERS.items()
        }
        self._arm(program, seed, faults, policy, observer)

    def reset(
        self,
        program: Optional[Program] = None,
        seed: int = 0,
        faults: Sequence[Fault] = (),
        policy: Optional[SchedulePolicy] = None,
        observer: Optional[Callable[[int, int, DynRecord], None]] = None,
    ) -> "TsoMachine":
        """Re-arm this machine for another run, reusing its containers.

        A reset machine is behaviorally identical to a freshly
        constructed ``TsoMachine(program, seed, config, faults, policy)``
        with the same (immutable) config — same policy derivation, same
        per-CPU and per-fault seed streams — but reuses the allocated
        caches, store buffers, interconnect and dispatch table instead
        of re-allocating them, which is the per-seed fixed cost the
        batched campaign path amortizes.  ``program=None`` re-arms with
        the current program.  Returns ``self`` for chaining.
        """
        tel = telemetry.get_telemetry()
        if tel.enabled:
            tel.count("sim.machine_resets")
        self._arm(program or self.program, seed, faults, policy, observer)
        return self

    def _arm(
        self,
        program: Program,
        seed: int,
        faults: Sequence[Fault],
        policy: Optional[SchedulePolicy],
        observer: Optional[Callable[[int, int, DynRecord], None]],
    ) -> None:
        """Per-run state setup, shared by ``__init__`` and :meth:`reset`.

        Mirrors the historical constructor order exactly (policy before
        memory before interconnect before CPUs before fault attach) so
        seed streams and any fault's attach-time view of the machine are
        unchanged; containers whose shape still fits are cleared in
        place rather than rebuilt.
        """
        program.validate()
        self.program = program
        if policy is not None:
            self.policy = policy
        elif self.config.sched is not None:
            self.policy = make_policy(self.config.sched, seed=seed)
        else:
            self.policy = RandomPolicy(seed)
        self.policy.bind(self)
        addresses = program.addresses()
        self.memory = Memory(initial=dict(program.initial))
        self.memory.register_valid(addresses)
        nprocs = program.nprocs
        if self.interconnect is None or self.interconnect.ncpus != nprocs:
            self.interconnect = Interconnect(
                nprocs,
                policy=self.policy,
                jitter=self.config.invalidate_jitter,
            )
        else:
            self.interconnect.policy = self.policy
            self.interconnect.pending.clear()
        if len(self.caches) != nprocs:
            self.caches = [
                CpuCache(capacity=self.config.cache_lines)
                for _ in range(nprocs)
            ]
            self.buffers = [
                StoreBuffer(self.config.buffer_capacity)
                for _ in range(nprocs)
            ]
        else:
            for cache in self.caches:
                cache.clear()
            for buffer in self.buffers:
                buffer.clear()
        self.cpus = [
            Cpu(pid=pid, thread=thread, lfsr=Lfsr(seed * 7919 + pid + 1))
            for pid, thread in enumerate(program.threads)
        ]
        self.faults = list(faults)
        for i, fault in enumerate(self.faults):
            fault.attach(self, seed * 104729 + i + 1)
        self._hooks = _FaultHooks(self.faults)
        #: Passed to the interconnect only when some fault can intercept
        #: an invalidate; otherwise every delivery is an immediate one.
        self._verdict = (
            self._invalidate_verdict if self._hooks.invalidate_verdict
            else None
        )
        self.shared_words = sorted(addresses)
        self.shared_word_set = addresses
        self.tick = 0
        self.monitor_alarms: List[str] = []
        self.true_execution: Optional[Execution] = None
        self.stats = MachineStats(buffer_highwater=[0] * nprocs)
        #: Observed global store order: (word address, value) per commit,
        #: the Sec. 3.2 "additional observability" fed to
        #: :func:`repro.core.observability.check_with_store_order`.
        self.commit_order: List[Tuple[int, int]] = []
        #: Per-record observation hook ``(pid, rec_idx, observed_record)``,
        #: called the moment a CPU retires a dynamic record — the same
        #: data :func:`repro.model.expansion.expand` consumes, but at
        #: emission time; this is how the streaming checker
        #: (:func:`repro.core.stream.stream_check_machine`) pipelines
        #: checking with simulation.  Must be installed before :meth:`run`.
        #: The hook sees records *after* observation-path fault
        #: corruption; corruption is applied at retire time rather than
        #: end of run, so a stateful fault's RNG draws interleave with the
        #: run instead of following it — streamed and batch observations
        #: of the same seed are each internally deterministic but may
        #: corrupt different records.  Exceptions raised by the hook abort
        #: the run (used to stop on a detected violation).
        self.observer = observer
        self._observed_stream: List[List[DynRecord]] = [
            [] for _ in range(nprocs)
        ]
        #: Per-CPU scheduler rows, indexed by pid.
        self._sched_rows = [
            (cpu, self.buffers[cpu.pid], len(cpu.thread))
            for cpu in self.cpus
        ]

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def run(self) -> Execution:
        """Execute to completion; return the *observed* execution.

        The observed trace may differ from ``self.true_execution`` only
        when an environment-class fault corrupts the observation path.
        """
        with telemetry.span("simulate", procs=len(self.cpus)):
            observed = self._run_to_completion()
        tel = telemetry.get_telemetry()
        if tel.enabled:
            tel.count("sim.runs")
            tel.count("sim.cycles", self.tick)
            tel.count("sim.drains", self.stats.commits)
            tel.count("sim.invalidates", self.stats.invalidations)
            tel.count("sim.forwards", self.stats.forwards)
            tel.count("sim.sched_decisions", self.stats.sched_decisions)
            tel.record("sim.cycles_per_run", self.tick)
        return observed

    def _run_to_completion(self) -> Execution:
        total = sum(len(t) for t in self.program.threads)
        max_ticks = self.config.max_tick_factor * max(total, 1) + 1000
        interconnect = self.interconnect
        deliver = self._deliver_invalidate
        poll_monitor = (
            self._poll_monitor
            if self._hooks.monitor_alarm or self.config.enable_monitor
            else None
        )
        pick_cpu = self.policy.pick_cpu
        step = self._step
        rows = self._sched_rows
        stats = self.stats
        while True:
            # One scan per tick.  Delivering invalidates and polling
            # monitors touch neither a pc nor a buffer, so the CPUs
            # runnable now are the ones the policy picks from below.
            runnable = [
                cpu.pid for cpu, buffer, ninstrs in rows
                if cpu.pc < ninstrs or buffer._entries
            ]
            if not runnable and not interconnect.pending:
                break
            self.tick += 1
            if self.tick > max_ticks:
                raise RuntimeError(
                    f"machine did not quiesce within {max_ticks} ticks "
                    "(scheduler livelock?)"
                )
            if interconnect.pending:
                interconnect.deliver_due(self.tick, deliver)
            if poll_monitor is not None:
                poll_monitor()
            if runnable:
                stats.sched_decisions += 1
                step(rows[pick_cpu(runnable)])
        interconnect.flush(deliver)

        true_records = [list(cpu.records) for cpu in self.cpus]
        self.true_execution = Execution(records=true_records)
        observed = []
        for cpu in self.cpus:
            streamed = self._observed_stream[cpu.pid]
            if len(streamed) == len(cpu.records):
                # Observer path: records were observed at retire time;
                # reuse them (re-observing would re-draw fault RNG).
                observed.append(list(streamed))
            elif self._hooks.corrupt_record:
                observed.append(
                    [self._observe(cpu.pid, rec) for rec in cpu.records]
                )
            else:
                observed.append(list(cpu.records))
        return Execution(records=observed)

    def fault_reports(self):
        """Per-fault activation accounting (campaign triage)."""
        return [fault.report() for fault in self.faults]

    def _step(self, row: Tuple[Cpu, StoreBuffer, int]) -> None:
        """One scheduler action for one CPU: drain, resume, or issue."""
        cpu, buffer, ninstrs = row
        if cpu.pending_ipi:
            # Interrupt entry is serializing: the handler runs only after
            # every pending store is globally visible.
            self._drain_all(cpu)
            cpu.pending_ipi = False
            self.stats.ipis_delivered += 1
            return
        if cpu.pc >= ninstrs:
            self._drain_one(cpu)
            return
        if buffer._entries:
            self.stats.sched_decisions += 1
            if self.policy.should_drain(cpu.pid, buffer):
                self._drain_one(cpu)
                return
        instr = cpu.thread.instrs[cpu.pc]
        self._dispatch[type(instr)](cpu, instr)

    # ------------------------------------------------------------------
    # Commit path (global visibility)
    # ------------------------------------------------------------------

    def _drain_one(self, cpu: Cpu) -> None:
        buffer = self.buffers[cpu.pid]
        if buffer.empty:
            return
        index = 0
        for pick_drain_index in self._hooks.pick_drain_index:
            picked = pick_drain_index(cpu.pid, buffer)
            if picked is not None:
                index = min(picked, len(buffer) - 1)
                break
        else:
            if self.config.pso_mode:
                eligible = self._pso_eligible(buffer)
                self.stats.sched_decisions += 1
                index = self.policy.pick_drain_index(eligible)
        entry = buffer.pop(index)
        self._commit(cpu.pid, entry.words, cacheable=entry.cacheable)

    @staticmethod
    def _pso_eligible(buffer: StoreBuffer) -> List[int]:
        """Drainable entry indices that keep per-address FIFO order.

        An entry is eligible when no older entry writes any of the same
        words; draining it early reorders only different-address stores,
        which is the one extra relaxation PSO allows over TSO.  Uses the
        per-entry cached word sets so the scan is one set intersection
        per entry instead of rebuilding each set from the word tuples.
        """
        eligible = []
        seen_words: set = set()
        for idx, entry in enumerate(buffer.entries()):
            words = entry.word_set
            if not (words & seen_words):
                eligible.append(idx)
            seen_words |= words
        return eligible

    def _drain_all(self, cpu: Cpu) -> None:
        while not self.buffers[cpu.pid].empty:
            self._drain_one(cpu)

    def _commit(
        self, pid: int, words: Tuple[Tuple[int, int], ...],
        cacheable: bool = True,
    ) -> None:
        """Make a store globally visible (or let a fault subvert that).

        Non-cacheable commits skip the committer's own cache install;
        other CPUs' copies are still invalidated for robustness (healthy
        software never aliases a line cacheably and non-cacheably, but a
        fault-perturbed run might).
        """
        action = "commit"
        for on_commit in self._hooks.on_commit:
            action, words = on_commit(pid, words)
            if action != "commit":
                break
        if action == "drop":
            return
        if action == "local":
            # Lost dirty bit: own cache gets the data, memory never does,
            # and the line self-destructs after a few uses.
            cache = self.caches[pid]
            for addr, value in words:
                cache.install(addr, value)
                line = cache.line(addr)
                if line is not None:
                    line.stale = True
                    line.ttl = self._lost_line_ttl()
            return
        self.stats.commits += 1
        self.commit_order.extend(words)
        if self.config.writeback and cacheable:
            self._commit_writeback(pid, words)
            return
        cache = self.caches[pid]
        for addr, value in words:
            self.memory.write(addr, value)
            if cacheable:
                cache.install(addr, value)
            self._broadcast_invalidate(pid, addr)

    def _commit_writeback(self, pid: int, words: Tuple[Tuple[int, int], ...]) -> None:
        """Write-back commit: take ownership, dirty the line, no memory write.

        A previous owner's dirty line is written back to memory first so
        its committed words for *other* addresses of the line survive the
        ownership transfer.
        """
        for addr, value in words:
            for other in range(len(self.caches)):
                if other == pid:
                    continue
                line = self.caches[other].line(addr)
                if line is not None and line.dirty:
                    for waddr, wvalue in line.dirty_items():
                        self.memory.write(waddr, wvalue)
                    self.stats.writebacks += 1
                    line.dirty_words.clear()
            self.caches[pid].install(addr, value, dirty=True)
            self._broadcast_invalidate(pid, addr)
            self._evict_as_needed(pid)

    def _evict_as_needed(self, pid: int) -> None:
        cache = self.caches[pid]
        while cache.needs_eviction():
            victim = cache.evict_victim()
            if victim is None:
                return
            _line_addr, line = victim
            if line.dirty:
                for waddr, wvalue in line.dirty_items():
                    self.memory.write(waddr, wvalue)
                self.stats.writebacks += 1

    def _lost_line_ttl(self) -> int:
        for fault in self.faults:
            ttl = getattr(fault, "ttl", None)
            if ttl is not None:
                return ttl
        return 3

    def _broadcast_invalidate(self, src: int, addr: int) -> None:
        self.interconnect.broadcast(
            src, addr, self.tick, self._deliver_invalidate, self._verdict
        )

    def _invalidate_verdict(
        self, src: int, victim: int, addr: int
    ) -> Tuple[str, int]:
        if self.caches[victim].line(addr) is None:
            return ic.DELIVER, 0  # nothing to invalidate; don't tempt faults
        for invalidate_verdict in self._hooks.invalidate_verdict:
            action, delay = invalidate_verdict(src, victim, addr)
            if action != ic.DELIVER:
                return action, delay
        return ic.DELIVER, 0

    def _deliver_invalidate(self, victim: int, addr: int) -> None:
        if self.caches[victim].invalidate(addr):
            self.stats.invalidations += 1

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def _read_word(
        self, pid: int, addr: int, allow_forward: bool = True,
        cacheable: bool = True,
    ) -> int:
        """A load's value for one word: buffer, then cache, then memory.

        Non-cacheable loads skip the cache entirely (no lookup, no line
        install) — they always observe the coherent memory, modulo the
        store buffer and any memory-controller fault.
        """
        hooks = self._hooks
        for translate_load in hooks.translate_load:
            addr = translate_load(pid, addr)
        buffer = self.buffers[pid]
        if allow_forward and buffer._entries:
            forwarded = buffer.forward(addr)
            if forwarded is not None:
                if any(skip(pid, addr) for skip in hooks.skip_forwarding):
                    pass  # fault: pretend the buffer had no match
                else:
                    self.stats.forwards += 1
                    return forwarded
        if cacheable:
            cached = self.caches[pid].lookup(addr)
            if cached is not None:
                self.stats.cache_hits += 1
                return cached
        if self.config.writeback:
            # Snoop: a dirty line in another cache is newer than memory.
            for other in range(len(self.caches)):
                if other == pid:
                    continue
                snooped = self.caches[other].dirty_value(addr)
                if snooped is not None:
                    self.stats.snoop_hits += 1
                    if cacheable:
                        self.caches[pid].install(addr, snooped)
                        self._evict_as_needed(pid)
                    return snooped
        self.stats.memory_reads += 1
        value = self.memory.read(addr)
        for on_load_value in hooks.on_load_value:
            value = on_load_value(pid, addr, value)
        if cacheable:
            self.caches[pid].install(addr, value)
            self._evict_as_needed(pid)
        return value

    def _read_words(
        self, pid: int, addr: int, nwords: int, cacheable: bool = True,
        allow_forward: bool = True,
    ) -> Tuple[int, ...]:
        if nwords == 1:
            return (self._read_word(pid, addr, allow_forward, cacheable),)
        return tuple(
            self._read_word(
                pid, addr + i * WORD_SIZE, allow_forward, cacheable
            )
            for i in range(nwords)
        )

    @staticmethod
    def _fresh_words(
        cpu: Cpu, addr: int, nwords: int
    ) -> Tuple[Tuple[int, int], ...]:
        """``(word address, fresh unique value)`` for each word stored."""
        if nwords == 1:
            return ((addr, cpu.next_value()),)
        return tuple(
            (addr + i * WORD_SIZE, cpu.next_value()) for i in range(nwords)
        )

    # ------------------------------------------------------------------
    # Issue path
    # ------------------------------------------------------------------

    def _advance(self, cpu: Cpu, instr_index: int, rec: DynRecord, skip: int = 0) -> None:
        cpu.record(instr_index, rec)
        cpu.pc += 1 + skip
        if self.observer is not None:
            # Observe (fault-corrupt) once, here; the cached record is
            # reused for the final Execution so the observer and the
            # returned trace are guaranteed to agree.
            observed = self._observe(cpu.pid, rec)
            self._observed_stream[cpu.pid].append(observed)
            self.observer(cpu.pid, len(cpu.records) - 1, observed)

    def _issue_load(self, cpu: Cpu, instr: ILoad) -> None:
        loaded = self._read_words(
            cpu.pid, instr.addr, instr.words(), cacheable=instr.cacheable
        )
        if self.config.hw_prefetch and instr.cacheable:
            self._maybe_hw_prefetch(cpu, instr.addr)
        self._advance(cpu, cpu.pc, DynRecord(instr=instr, loaded=loaded))

    def _maybe_hw_prefetch(self, cpu: Cpu, addr: int) -> None:
        """Install the next line after two sequential-line loads."""
        line = line_of(addr)
        if cpu.last_load_line == line - LINE_SIZE:
            nxt = line + LINE_SIZE
            for word in self.shared_words:
                if nxt <= word < nxt + LINE_SIZE:
                    self._install_clean(
                        cpu.pid, word, self._coherent_fill_value(cpu.pid, word)
                    )
        cpu.last_load_line = line

    def _issue_store(self, cpu: Cpu, instr: IStore) -> None:
        buffer = self.buffers[cpu.pid]
        if buffer.full:
            self._drain_one(cpu)
            return  # retry the store on a later tick
        words = self._fresh_words(cpu, instr.addr, instr.words())
        buffer.push(BufferedStore(
            words=words, tag=f"P{cpu.pid}.{cpu.pc}", cacheable=instr.cacheable,
        ))
        self._note_buffer_depth(cpu.pid)
        for on_buffer_push in self._hooks.on_buffer_push:
            on_buffer_push(cpu.pid, buffer)
        rec = DynRecord(instr=instr, stored=tuple(v for _, v in words))
        self._advance(cpu, cpu.pc, rec)
        if self.config.sc_mode:
            self._drain_all(cpu)

    def _issue_block_store(self, cpu: Cpu, instr: IBlockStore) -> None:
        buffer = self.buffers[cpu.pid]
        nchunks = instr.words() // 2
        stored: List[int] = []
        for chunk in range(nchunks):
            # A block store streams eight 8-byte chunks through the write
            # path; with a buffer smaller than the block, earlier chunks
            # simply commit before later ones enter (still FIFO order).
            while buffer.full:
                self._drain_one(cpu)
            words = tuple(
                (instr.addr + (chunk * 2 + i) * WORD_SIZE, cpu.next_value())
                for i in range(2)
            )
            buffer.push(BufferedStore(words=words, tag=f"P{cpu.pid}.{cpu.pc}+{chunk}"))
            stored.extend(v for _, v in words)
        self._note_buffer_depth(cpu.pid)
        for on_buffer_push in self._hooks.on_buffer_push:
            on_buffer_push(cpu.pid, buffer)
        self._advance(cpu, cpu.pc, DynRecord(instr=instr, stored=tuple(stored)))
        if self.config.sc_mode:
            self._drain_all(cpu)

    def _issue_block_load(self, cpu: Cpu, instr: IBlockLoad) -> None:
        loaded = self._read_words(cpu.pid, instr.addr, instr.words())
        self._advance(cpu, cpu.pc, DynRecord(instr=instr, loaded=loaded))

    def _issue_membar(self, cpu: Cpu, instr: IMembar) -> None:
        if all(effective(cpu.pid) for effective in self._hooks.membar_effective):
            self._drain_all(cpu)
        self._advance(cpu, cpu.pc, DynRecord(instr=instr))

    def _issue_swap(self, cpu: Cpu, instr: ISwap) -> None:
        self._drain_all(cpu)
        loaded = self._read_words(
            cpu.pid, instr.addr, instr.words(), allow_forward=False
        )
        words = self._fresh_words(cpu, instr.addr, instr.words())
        rec = DynRecord(instr=instr, loaded=loaded, stored=tuple(v for _, v in words))
        self._advance(cpu, cpu.pc, rec)
        self._finish_atomic(cpu, words)

    def _issue_cas(self, cpu: Cpu, instr: ICas) -> None:
        self._drain_all(cpu)
        loaded = self._read_words(
            cpu.pid, instr.addr, instr.words(), allow_forward=False
        )
        compare_rec = cpu.record_by_instr.get(instr.compare_from)
        expected = compare_rec.loaded if compare_rec is not None else None
        if expected is not None and loaded == expected:
            words = self._fresh_words(cpu, instr.addr, instr.words())
            rec = DynRecord(
                instr=instr, loaded=loaded,
                stored=tuple(v for _, v in words), cas_ok=True,
            )
            self._advance(cpu, cpu.pc, rec)
            self._finish_atomic(cpu, words)
        else:
            # Compare failed (or its companion load was branch-skipped):
            # the CAS degenerates to a plain load.
            rec = DynRecord(instr=instr, loaded=loaded, cas_ok=False)
            self._advance(cpu, cpu.pc, rec)

    def _finish_atomic(self, cpu: Cpu, words: Tuple[Tuple[int, int], ...]) -> None:
        """Write half of an atomic: immediate, unless a fault opens a window.

        The faulty path models the paper's Fig. 7 root cause — "the lock
        for the atomic swap to be released early, before the store part of
        the swap was complete": the store half is demoted to an ordinary
        store-buffer entry, so the CPU keeps executing and other
        processors' stores can slip between the atomic's read and write.
        """
        if any(window(cpu.pid) for window in self._hooks.atomic_window):
            self.buffers[cpu.pid].push(
                BufferedStore(words=words, tag=f"P{cpu.pid} leaked-atomic")
            )
        else:
            self._commit(cpu.pid, words)

    def _issue_nonfaulting(self, cpu: Cpu, instr: INonFaultingLoad) -> None:
        if instr.faulting or not self.memory.is_valid(instr.addr):
            loaded = tuple(0 for _ in range(instr.words()))
            rec = DynRecord(instr=instr, loaded=loaded, faulted=True)
        else:
            loaded = self._read_words(cpu.pid, instr.addr, instr.words())
            rec = DynRecord(instr=instr, loaded=loaded, faulted=False)
        self._advance(cpu, cpu.pc, rec)

    def _issue_prefetch(self, cpu: Cpu, instr: IPrefetch) -> None:
        # Install the word into the cache; no architectural effect.  A
        # dirty resident line must not be clobbered, and the fill must
        # come through the coherent path (snooped dirty data, not stale
        # memory).
        self._install_clean(
            cpu.pid, instr.addr, self._coherent_fill_value(cpu.pid, instr.addr)
        )
        self._advance(cpu, cpu.pc, DynRecord(instr=instr))

    def _install_clean(self, pid: int, addr: int, value: int) -> None:
        """Install a memory-sourced value unless the word is held dirty."""
        line = self.caches[pid].line(addr)
        if line is not None and addr in line.dirty_words:
            return
        self.caches[pid].install(addr, value)
        self._evict_as_needed(pid)

    def _coherent_fill_value(self, pid: int, addr: int) -> int:
        """The value a cache fill must install: snooped dirty data wins.

        In write-back mode memory lags dirty lines, so any fill that
        bypasses the snoop (prefetches!) would install stale data as
        clean — the exact mechanism of the coherence bug this fixed.
        """
        if self.config.writeback:
            for other in range(len(self.caches)):
                if other == pid:
                    continue
                snooped = self.caches[other].dirty_value(addr)
                if snooped is not None:
                    return snooped
        return self.memory.read(addr)

    def _issue_flush_cache(self, cpu: Cpu, instr: IFlushCache) -> None:
        # A flush writes dirty data back before dropping the line — a
        # flush is never allowed to lose committed stores.
        line = self.caches[cpu.pid].line(instr.addr)
        if line is not None and line.dirty:
            for waddr, wvalue in line.dirty_items():
                self.memory.write(waddr, wvalue)
            self.stats.writebacks += 1
        self.caches[cpu.pid].invalidate(instr.addr)
        self._advance(cpu, cpu.pc, DynRecord(instr=instr))

    def _issue_flush_pipe(self, cpu: Cpu, instr: IFlushPipe) -> None:
        self._advance(cpu, cpu.pc, DynRecord(instr=instr))

    def _issue_interrupt(self, cpu: Cpu, instr: IInterrupt) -> None:
        target = instr.target % len(self.cpus)
        if target != cpu.pid:
            self.cpus[target].pending_ipi = True
        self._advance(cpu, cpu.pc, DynRecord(instr=instr))

    def _issue_branch(self, cpu: Cpu, instr: IBranch) -> None:
        taken = bool(cpu.lfsr.next_bit())
        rec = DynRecord(instr=instr, taken=taken)
        self._advance(cpu, cpu.pc, rec, skip=instr.skip if taken else 0)

    _HANDLERS = {
        ILoad: _issue_load,
        IStore: _issue_store,
        IBlockStore: _issue_block_store,
        IBlockLoad: _issue_block_load,
        IMembar: _issue_membar,
        ISwap: _issue_swap,
        ICas: _issue_cas,
        INonFaultingLoad: _issue_nonfaulting,
        IPrefetch: _issue_prefetch,
        IFlushCache: _issue_flush_cache,
        IFlushPipe: _issue_flush_pipe,
        IInterrupt: _issue_interrupt,
        IBranch: _issue_branch,
    }

    def _note_buffer_depth(self, pid: int) -> None:
        depth = len(self.buffers[pid])
        if depth > self.stats.buffer_highwater[pid]:
            self.stats.buffer_highwater[pid] = depth

    # ------------------------------------------------------------------
    # Monitors and observation
    # ------------------------------------------------------------------

    def _poll_monitor(self) -> None:
        for monitor_alarm in self._hooks.monitor_alarm:
            alarm = monitor_alarm(self.tick)
            if alarm:
                self.monitor_alarms.append(alarm)
        if not self.config.enable_monitor:
            return
        # Real coherence monitor: every resident *clean* cached word must
        # match the coherent value — memory, or a dirty owner's copy in
        # write-back mode — unless some CPU still has it buffered.
        for pid, cache in enumerate(self.caches):
            for line in cache.resident_lines().values():
                for addr, value in line.words.items():
                    if addr in line.dirty_words:
                        continue  # legitimately ahead of memory
                    coherent = {self.memory.read(addr)}
                    if self.config.writeback:
                        for other_cache in self.caches:
                            owner_value = other_cache.dirty_value(addr)
                            if owner_value is not None:
                                coherent.add(owner_value)
                    if value not in coherent and not self._buffered(addr):
                        self.monitor_alarms.append(
                            f"coherence: P{pid} caches {value} at {addr:#x}, "
                            f"coherent value(s) {sorted(coherent)}"
                        )

    def _buffered(self, addr: int) -> bool:
        return any(b.forward(addr) is not None for b in self.buffers)

    def _observe(self, pid: int, rec: DynRecord) -> DynRecord:
        for corrupt_record in self._hooks.corrupt_record:
            rec = corrupt_record(pid, rec)
        return rec
