"""Per-CPU architectural state.

Each :class:`Cpu` owns its program counter, its unique-store-value
counter (the paper's register-resident running counters, Sec. 3.1), its
software LFSR for branch randomization, and the dynamic records it has
produced so far.  All behaviour — the memory semantics — lives in
:class:`~repro.sim.machine.TsoMachine`; this class is deliberately just
state plus tiny helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.generator.lfsr import Lfsr
from repro.model.ops import Instr
from repro.model.program import Thread
from repro.model.trace import DynRecord


@dataclass
class Cpu:
    """One logical processor's state."""

    pid: int
    thread: Thread
    lfsr: Lfsr
    value_counter: int = 0
    pc: int = 0
    records: List[DynRecord] = field(default_factory=list)
    record_by_instr: Dict[int, DynRecord] = field(default_factory=dict)
    #: Set when another CPU sent an IPI; cleared after the serializing
    #: interrupt entry (a full store-buffer drain).
    pending_ipi: bool = False
    #: Line address of the most recent load (hardware-prefetch pattern
    #: detection); -1 before any load.
    last_load_line: int = -1

    def current(self) -> Instr:
        """The next instruction to issue."""
        return self.thread.instrs[self.pc]

    def next_value(self) -> int:
        """A fresh globally-unique store value.

        Encodes the CPU id in the low byte and the per-CPU counter above
        it, so no two stores in a run (on any CPU) ever write the same
        value — the unique-store-value requirement of Sec. 3.1.  Values
        are always >= 256, so they never collide with small initial
        values like 0.
        """
        self.value_counter += 1
        return (self.value_counter << 8) | (self.pid + 1)

    def record(self, instr_index: int, rec: DynRecord) -> None:
        """Append a dynamic record and index it by instruction position."""
        self.records.append(rec)
        self.record_by_instr[instr_index] = rec
