"""Injectable microarchitectural bugs (the Sec. 5 bug catalog).

Each :class:`Fault` plugs into named hook points of
:class:`~repro.sim.machine.TsoMachine` and perturbs one mechanism with a
configured probability.  Every concrete fault reproduces the *mechanism*
of a bug class the paper reports:

===============================  ==========  =============================
Fault                            Unit        Paper reference
===============================  ==========  =============================
StoreBufferReorderFault          LSU         StoreStore violations
StaleForwardFault                LSU         load/store unit bypass bugs
AtomicityHoleFault               Pipe        Fig. 7 (early lock release)
MembarSkipFault                  Pipe        membar ordering bugs
LostDirtyBitFault                Caches      Fig. 6 (write-cache tag bug)
DroppedInvalidateFault           Caches      "prefetch cache dropped an
                                             invalidate ... stale data"
InterconnectDelayFault           Interconn.  in-flight invalidate windows
WritebackReorderFault            MemCntlr    "cacheable and non-cacheable
                                             stores ... ordering violated"
DroppedSpeculativeLoadFault      MemCntlr    "DRAM controller dropped a
                                             speculative load request"
TlbAliasFault                    TLB         translation corner cases
MonitorFalseAlarmFault           (roster)    Table 1 "monitor bugs"
TraceCorruptionFault             --          Table 1 "environment bugs"
===============================  ==========  =============================

Fault *class* (architecture / design / monitor / environment) is a
property of where the mistake was made, not of the mechanism, so rosters
(:mod:`repro.sim.cpus`) choose it per instance — e.g. CPU5's architecture
bugs use the same atomicity-hole mechanism a design bug would, just as
the paper's early-lock-release "optimization ... had been thought to be
valid" was an architecture-level mistake.

All faults are deterministic given the machine seed: each gets its own
``random.Random`` stream at attach time.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.sim import interconnect as ic
from repro.model.trace import DynRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import TsoMachine
    from repro.sim.storebuffer import StoreBuffer

#: Word-tuple type committed by a store: ((addr, value), ...).
Words = Tuple[Tuple[int, int], ...]


class FuncUnit(enum.Enum):
    """Functional units of Table 2."""

    PIPE = "Pipe"
    CACHES = "Caches"
    TLB = "TLB"
    LSU = "LSU"
    MEM_CNTLR = "Mem Cntlr"
    INTERCONNECT = "Interconnect"
    NONE = "-"


class BugClass(enum.Enum):
    """Bug classes of Table 1."""

    ARCHITECTURE = "Architecture"
    DESIGN = "Design"
    MONITOR = "Monitor"
    ENVIRONMENT = "Environment"


@dataclass
class FaultReport:
    """Post-run accounting for one fault instance."""

    name: str
    unit: FuncUnit
    bug_class: BugClass
    activations: int


class Fault:
    """Base fault: all hooks are benign no-ops.

    Subclasses override the hooks relevant to their mechanism and call
    :meth:`fire` to roll the trigger probability (which also counts
    activations).
    """

    #: Default functional unit; rosters may override per instance.
    default_unit = FuncUnit.NONE

    def __init__(
        self,
        rate: float = 0.1,
        unit: Optional[FuncUnit] = None,
        bug_class: BugClass = BugClass.DESIGN,
        name: Optional[str] = None,
    ) -> None:
        if not (0.0 <= rate <= 1.0):
            raise ValueError("rate must be in [0, 1]")
        self.rate = rate
        self.unit = unit or self.default_unit
        self.bug_class = bug_class
        self.name = name or type(self).__name__
        self.activations = 0
        self.rng = random.Random(0)
        self.machine: Optional["TsoMachine"] = None

    def attach(self, machine: "TsoMachine", seed: int) -> None:
        """Bind to a machine; gives the fault its own deterministic RNG."""
        self.machine = machine
        self.rng = random.Random(seed)
        self.activations = 0

    def fire(self) -> bool:
        """Roll the trigger; count and return True when the fault fires."""
        if self.rng.random() < self.rate:
            self.activations += 1
            return True
        return False

    def report(self) -> FaultReport:
        """Accounting snapshot for campaign triage."""
        return FaultReport(
            name=self.name, unit=self.unit, bug_class=self.bug_class,
            activations=self.activations,
        )

    # ------------------------------------------------------------------
    # Hook points (defaults = correct behaviour)
    # ------------------------------------------------------------------

    def on_commit(self, cpu: int, words: Words) -> Tuple[str, Words]:
        """Intercept a store becoming globally visible.

        Returns (action, words): action is ``commit`` (normal), ``drop``
        (store vanishes) or ``local`` (own cache only — lost dirty bit).
        """
        return "commit", words

    def invalidate_verdict(self, src: int, victim: int, addr: int) -> Tuple[str, int]:
        """Decide an invalidate delivery: (DELIVER/DROP/DELAY, delay_ticks)."""
        return ic.DELIVER, 0

    def translate_load(self, cpu: int, addr: int) -> int:
        """Translate a load's word address (TLB hook)."""
        return addr

    def skip_forwarding(self, cpu: int, addr: int) -> bool:
        """True to make a load ignore the store buffer (stale forward)."""
        return False

    def on_load_value(self, cpu: int, addr: int, value: int) -> int:
        """Perturb a memory-sourced load value (memory-controller hook)."""
        return value

    def on_buffer_push(self, cpu: int, buffer: "StoreBuffer") -> None:
        """Inspect/perturb the store buffer right after a push."""

    def pick_drain_index(self, cpu: int, buffer: "StoreBuffer") -> Optional[int]:
        """FIFO index to drain next, or None to leave the choice alone.

        Returning an index — *including 0* — overrides the machine's
        drain selection; None lets the scheduler policy decide.  A fault
        that wants to force the correct FIFO head must return 0, which is
        distinct from declining to intervene.
        """
        return None

    def membar_effective(self, cpu: int) -> bool:
        """False to silently skip a membar's buffer drain."""
        return True

    def atomic_window(self, cpu: int) -> bool:
        """True to split an atomic's read and write across ticks."""
        return False

    def corrupt_record(self, cpu: int, rec: DynRecord) -> DynRecord:
        """Perturb the *observed* trace (environment bugs)."""
        return rec

    def monitor_alarm(self, tick: int) -> Optional[str]:
        """A spurious runtime-checker alarm message, or None."""
        return None


#: Every hook point above.  The machine dispatches each hook only to the
#: faults that override it (see :func:`overrides`); a hook added to
#: :class:`Fault` must be listed here or the machine never calls it.
FAULT_HOOKS = (
    "on_commit",
    "invalidate_verdict",
    "translate_load",
    "skip_forwarding",
    "on_load_value",
    "on_buffer_push",
    "pick_drain_index",
    "membar_effective",
    "atomic_window",
    "corrupt_record",
    "monitor_alarm",
)


def overrides(fault: Fault, hook: str) -> bool:
    """Whether ``fault`` replaces the base class's no-op ``hook``.

    True for a subclass override and for a callable set on the instance.
    Skipping a fault that does not override a hook changes nothing: every
    base hook returns its neutral value and draws no randomness.
    """
    method = getattr(fault, hook)
    return getattr(method, "__func__", None) is not getattr(Fault, hook)


# ---------------------------------------------------------------------------
# LSU
# ---------------------------------------------------------------------------


class StoreBufferReorderFault(Fault):
    """Occasionally swaps the two newest store-buffer entries.

    Mechanism for StoreStore violations: two stores of one CPU reach
    memory in the wrong order.
    """

    default_unit = FuncUnit.LSU

    def on_buffer_push(self, cpu: int, buffer: "StoreBuffer") -> None:
        if len(buffer) >= 2 and self.fire():
            buffer.swap(-1, -2)


class StaleForwardFault(Fault):
    """A load occasionally ignores its own store buffer.

    The CPU reads memory although a newer own store is still buffered —
    the load returns a value older than the processor's own last write,
    violating the Value axiom's own-store term.
    """

    default_unit = FuncUnit.LSU

    def skip_forwarding(self, cpu: int, addr: int) -> bool:
        return self.fire()


# ---------------------------------------------------------------------------
# Pipe
# ---------------------------------------------------------------------------


class AtomicityHoleFault(Fault):
    """Atomics occasionally release their lock between read and write.

    The paper's Fig. 7 root cause: "the lock for the atomic swap to be
    released early, before the store part of the swap was complete ...
    opened a window for another store to sneak in."
    """

    default_unit = FuncUnit.PIPE

    def atomic_window(self, cpu: int) -> bool:
        return self.fire()


class MembarSkipFault(Fault):
    """A membar occasionally fails to drain the store buffer."""

    default_unit = FuncUnit.PIPE

    def membar_effective(self, cpu: int) -> bool:
        return not self.fire()


# ---------------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------------


class LostDirtyBitFault(Fault):
    """A commit updates the write cache but the dirty tag write is lost.

    The Fig. 6 silicon bug: the store's data lands in the CPU's own cache
    (so its own loads briefly see it) but never reaches memory, and the
    line is silently replaced after a few uses — "the data update being
    lost when the line was later replaced in the write cache".
    """

    default_unit = FuncUnit.CACHES

    def __init__(self, rate: float = 0.05, ttl: int = 3, **kwargs) -> None:
        super().__init__(rate=rate, **kwargs)
        self.ttl = ttl

    def on_commit(self, cpu: int, words: Words) -> Tuple[str, Words]:
        if self.fire():
            return "local", words
        return "commit", words


class DroppedInvalidateFault(Fault):
    """An invalidate to a CPU holding the line is occasionally dropped.

    The Sec. 5.1 bug: "a prefetch cache dropped an invalidate request,
    and later returned stale data to the pipeline."
    """

    default_unit = FuncUnit.CACHES

    def invalidate_verdict(self, src: int, victim: int, addr: int) -> Tuple[str, int]:
        if self.fire():
            return ic.DROP, 0
        return ic.DELIVER, 0


# ---------------------------------------------------------------------------
# Interconnect
# ---------------------------------------------------------------------------


class InterconnectDelayFault(Fault):
    """Invalidates are occasionally delivered several ticks late.

    Models in-flight invalidate windows on the system bus: a store is in
    memory (so some CPUs see it) while another CPU still reads its stale
    cached copy — different observers disagree on store order.
    """

    default_unit = FuncUnit.INTERCONNECT

    def __init__(self, rate: float = 0.1, max_delay: int = 24, **kwargs) -> None:
        super().__init__(rate=rate, **kwargs)
        self.max_delay = max_delay

    def invalidate_verdict(self, src: int, victim: int, addr: int) -> Tuple[str, int]:
        if self.fire():
            return ic.DELAY, self.rng.randint(2, self.max_delay)
        return ic.DELIVER, 0


# ---------------------------------------------------------------------------
# Memory controller
# ---------------------------------------------------------------------------


class WritebackReorderFault(Fault):
    """The write queue occasionally drains out of FIFO order.

    Models the Sec. 5.1 bug where "cacheable and non-cacheable stores
    went through different write queues; in some cases, the ordering
    between these queues was violated."  When the buffer holds a mix of
    cacheable and non-cacheable entries, the fault preferentially lets
    the *other* queue's head overtake (the literal mechanism); with a
    homogeneous buffer it falls back to a plain adjacent reorder.
    """

    default_unit = FuncUnit.MEM_CNTLR

    def pick_drain_index(self, cpu: int, buffer: "StoreBuffer") -> Optional[int]:
        if len(buffer) < 2 or not self.fire():
            return None
        head_cacheable = buffer.peek(0).cacheable
        for index in range(1, len(buffer)):
            if buffer.peek(index).cacheable != head_cacheable:
                return index  # the other write queue wins the race
        return 1


class DroppedSpeculativeLoadFault(Fault):
    """A load occasionally returns the word's just-overwritten value.

    Models the Sec. 5.1 bug: "the DRAM controller dropped a speculative
    load request due to a buffer full condition, leading to data
    corruption later" — the stale speculative data is used anyway.
    """

    default_unit = FuncUnit.MEM_CNTLR

    def on_load_value(self, cpu: int, addr: int, value: int) -> int:
        if self.machine is not None and self.fire():
            return self.machine.memory.previous_value(addr)
        return value


# ---------------------------------------------------------------------------
# TLB
# ---------------------------------------------------------------------------


class TlbAliasFault(Fault):
    """A load's address occasionally translates to the wrong shared word.

    The load returns data belonging to another location — typically an
    unmapped (address, value) pair, which the analysis flags at the
    outset (Sec. 4).
    """

    default_unit = FuncUnit.TLB

    def translate_load(self, cpu: int, addr: int) -> int:
        machine = self.machine
        if machine is None or len(machine.shared_words) < 2:
            return addr
        if addr in machine.shared_word_set and self.fire():
            choices = [w for w in machine.shared_words if w != addr]
            return self.rng.choice(choices)
        return addr


# ---------------------------------------------------------------------------
# Monitor / environment (Table 1's non-hardware bug classes)
# ---------------------------------------------------------------------------


class MonitorFalseAlarmFault(Fault):
    """A bug in a runtime checker: raises a spurious alarm.

    The design under test is fine; the simulation-environment monitor
    mis-fires.  Campaign triage recognises the bug when the alarm fires
    on a run whose TSOtool analysis passes.
    """

    def __init__(self, rate: float = 0.2, **kwargs) -> None:
        kwargs.setdefault("bug_class", BugClass.MONITOR)
        super().__init__(rate=rate, **kwargs)
        self._alarmed = False

    def attach(self, machine: "TsoMachine", seed: int) -> None:
        super().attach(machine, seed)
        self._alarmed = False

    def monitor_alarm(self, tick: int) -> Optional[str]:
        if not self._alarmed and self.fire():
            self._alarmed = True
            return (
                f"{self.name}: coherence monitor raised a spurious "
                f"mismatch alarm at tick {tick}"
            )
        return None


class TraceCorruptionFault(Fault):
    """The result-observation path corrupts a recorded load value.

    The hardware behaved correctly; the environment's trace is wrong.
    Campaign triage recognises the bug when the *observed* trace fails
    analysis while the machine's true trace passes.
    """

    def __init__(self, rate: float = 0.02, **kwargs) -> None:
        kwargs.setdefault("bug_class", BugClass.ENVIRONMENT)
        kwargs.setdefault("unit", FuncUnit.NONE)
        super().__init__(rate=rate, **kwargs)

    def corrupt_record(self, cpu: int, rec: DynRecord) -> DynRecord:
        if rec.loaded and self.fire():
            loaded = list(rec.loaded)
            idx = self.rng.randrange(len(loaded))
            loaded[idx] ^= 0x40000000  # a value nothing ever stored
            return rec.with_loaded(loaded)
        return rec


class HangFault(Fault):
    """Deliberately wedges the machine on its first load (test scaffolding).

    Models a hardware hang / livelock: the simulation never completes,
    so the run can only end via the campaign pool's per-task timeout.
    Used by the timeout-injection tests; never part of a CPU roster and
    not a paper bug class.  The hang ignores ``rate`` — it is
    unconditional, so behaviour does not depend on RNG state.
    """

    default_unit = FuncUnit.NONE

    def translate_load(self, cpu: int, addr: int) -> int:
        import time as _time

        while True:  # pragma: no cover - only ever killed from outside
            _time.sleep(0.05)


#: Mechanisms by functional unit, used by rosters to pick a mechanism for
#: a bug of a given unit.
MECHANISMS_BY_UNIT = {
    FuncUnit.PIPE: (AtomicityHoleFault, MembarSkipFault),
    FuncUnit.CACHES: (LostDirtyBitFault, DroppedInvalidateFault),
    FuncUnit.TLB: (TlbAliasFault,),
    FuncUnit.LSU: (StoreBufferReorderFault, StaleForwardFault),
    FuncUnit.MEM_CNTLR: (WritebackReorderFault, DroppedSpeculativeLoadFault),
    FuncUnit.INTERCONNECT: (InterconnectDelayFault,),
}
