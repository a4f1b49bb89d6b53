"""The machine substrate: an operational TSO multiprocessor simulator.

The paper ran its tests on SPARC silicon and RTL simulation; this
subpackage is the reproduction's stand-in (see DESIGN.md).  It executes
:class:`~repro.model.program.Program` objects under seeded random
interleaving and produces the :class:`~repro.model.trace.Execution`
traces the analysis consumes.

Architecture (one instance each per machine):

* :class:`~repro.sim.memory.Memory` — word-addressed global memory with
  page validity (for non-faulting loads) and last-overwritten-value
  tracking (for the stale-speculative-load fault).
* :class:`~repro.sim.storebuffer.StoreBuffer` — per-CPU FIFO write
  buffer with byte... word-accurate load forwarding; the component that
  makes the machine TSO rather than SC.
* :class:`~repro.sim.cache.CpuCache` — per-CPU line snapshots kept
  coherent by immediate invalidation in the golden machine; the faults
  of Sec. 5.1 (dropped invalidate, lost dirty bit) live here.
* :class:`~repro.sim.interconnect.Interconnect` — invalidation
  broadcast, instantaneous when healthy, delayable by faults.
* :class:`~repro.sim.cpu.Cpu` — per-CPU architectural state: program
  counter, unique-value counters, the Sec. 3.1 software LFSR.
* :class:`~repro.sim.machine.TsoMachine` — the scheduler and the
  commit/read paths, with every fault hook point.
* :mod:`~repro.sim.faults` — the injectable bug catalog.
* :mod:`~repro.sim.cpus` — the six synthetic CPU configurations whose
  bug rosters regenerate Tables 1 and 2.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".machine": "MachineConfig TsoMachine",
    ".memory": "Memory",
    ".storebuffer": "BufferedStore StoreBuffer",
    ".cache": "CpuCache",
    ".interconnect": "Interconnect",
})

__all__ = [
    "MachineConfig",
    "TsoMachine",
    "Memory",
    "BufferedStore",
    "StoreBuffer",
    "CpuCache",
    "Interconnect",
]
