"""Instruction-level operations emitted by the test generator.

The paper's generator (Sec. 3.1) produces SPARC V9 assembler; this
reproduction keeps the same *operation vocabulary* as an abstract
instruction set that the simulator substrate executes directly:

* 32/64/128-bit loads and stores (word-aligned),
* swap and compare-and-swap atomics (CAS preceded by a same-address load,
  whose result is the compare value, exactly as in Sec. 3.1),
* memory barriers,
* 64-byte block loads and stores,
* prefetch variants (strong and weak),
* non-faulting loads to valid or faulting addresses,
* cache-line and pipeline flushes,
* unpredictable conditional branches resolved by a per-CPU LFSR at run time.

All data accesses are in units of 4-byte words (``WORD_SIZE``) and
word-aligned; the analysis phase (:mod:`repro.model.expansion`) splits
multi-word accesses into word-sized operations grouped atomically, which is
the paper's "nodes ... are expanded so that all loads, stores and swaps in
the analysis graph are of a uniform size".

Store values are *counter-sourced*: an :class:`IStore` (and the store half
of atomics) does not carry a literal value; the value is drawn from a
per-CPU running counter at execution time, mirroring the paper's
unique-store-value scheme ("two running counters ... used as the source of
store values").  The value actually written is recorded in the dynamic
trace (:class:`repro.model.trace.DynRecord`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Analysis granularity in bytes.  Every access address must be a multiple
#: of this, and every access size a multiple of this.
WORD_SIZE = 4

#: Size in bytes of a block load/store (SPARC VIS block operations).
BLOCK_SIZE = 64

#: Access sizes (bytes) allowed for plain loads and stores.
SCALAR_SIZES = (4, 8, 16)

#: Access sizes (bytes) allowed for swap / compare-and-swap.
ATOMIC_SIZES = (4, 8)


class PrefetchVariant(enum.Enum):
    """SPARC prefetch function codes modelled by the generator (Sec. 3.1)."""

    READ_ONCE = "read_once"
    READ_MANY = "read_many"
    WRITE_ONCE = "write_once"
    WRITE_MANY = "write_many"


def _check_access(addr: int, size: int, allowed: Tuple[int, ...]) -> None:
    if size not in allowed:
        raise ValueError(f"access size {size} not in {allowed}")
    if addr < 0 or addr % WORD_SIZE != 0:
        raise ValueError(f"address {addr:#x} is not word-aligned")
    if addr % size != 0:
        raise ValueError(f"address {addr:#x} is not aligned to size {size}")


@dataclass(frozen=True, slots=True)
class Instr:
    """Base class for all generated instructions.

    Instructions are immutable; dynamic outcomes (values loaded, branch
    directions, CAS success) live in :class:`repro.model.trace.DynRecord`.
    """

    def words(self) -> int:
        """Number of 4-byte words this instruction touches (0 if none)."""
        return 0

    def mnemonic(self) -> str:
        """Short human-readable mnemonic used in program listings."""
        return type(self).__name__


@dataclass(frozen=True, slots=True)
class ILoad(Instr):
    """A plain load of ``size`` bytes from word-aligned ``addr``.

    ``cacheable=False`` models an access through a non-cacheable ASI
    (Sec. 2: "non-cacheable accesses with or without side-effect";
    Sec. 3.1: "memory access instructions to various Address Space
    Identifiers").  Non-cacheable accesses bypass the cache hierarchy
    but obey the same TSO axioms, so the analysis treats them uniformly.
    """

    addr: int
    size: int = WORD_SIZE
    cacheable: bool = True

    def __post_init__(self) -> None:
        _check_access(self.addr, self.size, SCALAR_SIZES)

    def words(self) -> int:
        return self.size // WORD_SIZE

    def mnemonic(self) -> str:
        asi = "" if self.cacheable else " !nc"
        return f"LD{self.size * 8}  [{self.addr:#x}]{asi}"


@dataclass(frozen=True, slots=True)
class IStore(Instr):
    """A plain store of ``size`` bytes to word-aligned ``addr``.

    The stored value is counter-sourced at run time; each word of the
    access receives its own fresh unique value.  ``cacheable=False``
    marks a non-cacheable (ASI) store: it drains through the memory
    controller's uncached write path — the other of the "different write
    queues" in the Sec. 5.1 memory-controller bug.
    """

    addr: int
    size: int = WORD_SIZE
    cacheable: bool = True

    def __post_init__(self) -> None:
        _check_access(self.addr, self.size, SCALAR_SIZES)

    def words(self) -> int:
        return self.size // WORD_SIZE

    def mnemonic(self) -> str:
        asi = "" if self.cacheable else " !nc"
        return f"ST{self.size * 8}  [{self.addr:#x}]{asi}"


@dataclass(frozen=True, slots=True)
class ISwap(Instr):
    """An atomic swap: read the old value and write a fresh counter value.

    Modelled after SPARC ``swap`` (32-bit) and the swap-like use of
    ``casx``; sizes of 4 or 8 bytes are supported.
    """

    addr: int
    size: int = WORD_SIZE

    def __post_init__(self) -> None:
        _check_access(self.addr, self.size, ATOMIC_SIZES)

    def words(self) -> int:
        return self.size // WORD_SIZE

    def mnemonic(self) -> str:
        return f"SWAP{self.size * 8} [{self.addr:#x}]"


@dataclass(frozen=True, slots=True)
class ICas(Instr):
    """A compare-and-swap whose compare value comes from a prior load.

    Sec. 3.1: "Compare and swap instructions are emitted with a preceding
    load of the same size to the same address.  The value returned by the
    load is used as the compare value for the CAS instruction."

    ``compare_from`` is the index (within the same thread) of that load
    instruction.  At run time the CAS succeeds iff memory still holds the
    value that load observed; the analysis phase converts a successful CAS
    into a swap and a failed CAS into a plain load (Sec. 3.3).
    """

    addr: int
    size: int
    compare_from: int

    def __post_init__(self) -> None:
        _check_access(self.addr, self.size, ATOMIC_SIZES)
        if self.compare_from < 0:
            raise ValueError("compare_from must be a valid instruction index")

    def words(self) -> int:
        return self.size // WORD_SIZE

    def mnemonic(self) -> str:
        return f"CAS{self.size * 8}  [{self.addr:#x}] cmp@{self.compare_from}"


@dataclass(frozen=True, slots=True)
class IMembar(Instr):
    """A full memory barrier.

    Sec. 3.1: "these require that all previous instructions on the issuing
    processor are globally visible before the next instruction is issued."
    """

    def mnemonic(self) -> str:
        return "MEMBAR"


@dataclass(frozen=True, slots=True)
class IBlockLoad(Instr):
    """A 64-byte block load (SPARC VIS ``ldda``-style).

    Expanded for analysis into eight 8-byte atomic chunks issued in program
    order; see :mod:`repro.model.expansion` for the ordering discussion.
    """

    addr: int

    def __post_init__(self) -> None:
        if self.addr < 0 or self.addr % BLOCK_SIZE != 0:
            raise ValueError(f"block address {self.addr:#x} must be 64-byte aligned")

    def words(self) -> int:
        return BLOCK_SIZE // WORD_SIZE

    def mnemonic(self) -> str:
        return f"BLD   [{self.addr:#x}]"


@dataclass(frozen=True, slots=True)
class IBlockStore(Instr):
    """A 64-byte block store (SPARC VIS ``stda``-style), counter-sourced."""

    addr: int

    def __post_init__(self) -> None:
        if self.addr < 0 or self.addr % BLOCK_SIZE != 0:
            raise ValueError(f"block address {self.addr:#x} must be 64-byte aligned")

    def words(self) -> int:
        return BLOCK_SIZE // WORD_SIZE

    def mnemonic(self) -> str:
        return f"BST   [{self.addr:#x}]"


@dataclass(frozen=True, slots=True)
class IPrefetch(Instr):
    """A prefetch hint; no programmer-visible effect (dropped in analysis).

    ``strong`` prefetches may take TLB-miss traps; weak ones are silently
    dropped on a miss (Sec. 3.1).  The simulator uses prefetches only to
    perturb cache state.
    """

    addr: int
    variant: PrefetchVariant = PrefetchVariant.READ_ONCE
    strong: bool = False

    def __post_init__(self) -> None:
        if self.addr < 0 or self.addr % WORD_SIZE != 0:
            raise ValueError(f"address {self.addr:#x} is not word-aligned")

    def mnemonic(self) -> str:
        kind = "strong" if self.strong else "weak"
        return f"PREF  [{self.addr:#x}] {self.variant.value},{kind}"


@dataclass(frozen=True, slots=True)
class INonFaultingLoad(Instr):
    """A non-faulting load (SPARC ASI_PRIMARY_NOFAULT style).

    If ``faulting`` is true the target address is invalid and the load must
    return 0; otherwise it must behave exactly like a regular load
    (Sec. 3.1 / 3.3).
    """

    addr: int
    size: int = WORD_SIZE
    faulting: bool = False

    def __post_init__(self) -> None:
        _check_access(self.addr, self.size, SCALAR_SIZES)

    def words(self) -> int:
        return self.size // WORD_SIZE

    def mnemonic(self) -> str:
        tag = "!fault" if self.faulting else "ok"
        return f"NFLD{self.size * 8} [{self.addr:#x}] {tag}"


@dataclass(frozen=True, slots=True)
class IFlushCache(Instr):
    """Flush the cache line containing ``addr``; no visible data effect."""

    addr: int

    def __post_init__(self) -> None:
        if self.addr < 0 or self.addr % WORD_SIZE != 0:
            raise ValueError(f"address {self.addr:#x} is not word-aligned")

    def mnemonic(self) -> str:
        return f"FLUSH [{self.addr:#x}]"


@dataclass(frozen=True, slots=True)
class IFlushPipe(Instr):
    """Flush the execution pipeline; no visible data effect."""

    def mnemonic(self) -> str:
        return "FLUSHW"


@dataclass(frozen=True, slots=True)
class IInterrupt(Instr):
    """Send an inter-processor interrupt to ``target`` (Sec. 3.1).

    Interrupts carry no data; their test value is perturbation — the
    receiving processor's interrupt entry is serializing, so its store
    buffer drains before it executes anything further.  Dropped during
    analysis (no programmer-visible data effect).
    """

    target: int

    def __post_init__(self) -> None:
        if self.target < 0:
            raise ValueError("interrupt target must be a processor id")

    def mnemonic(self) -> str:
        return f"IPI   ->P{self.target}"


@dataclass(frozen=True, slots=True)
class IBranch(Instr):
    """An unpredictable conditional branch over the next ``skip`` instructions.

    The direction is decided at run time by the per-CPU software LFSR
    (Sec. 3.1) and recorded in the dynamic trace, which is how the analysis
    phase "resolves branches ... to model the dynamic sequence of memory
    operations".
    """

    skip: int = 1

    def __post_init__(self) -> None:
        if self.skip < 1:
            raise ValueError("branch must skip at least one instruction")

    def mnemonic(self) -> str:
        return f"BR    +{self.skip}"
