"""Dynamic execution traces: what a test run actually observed.

A test run (Step 2 in Fig. 1) turns the static :class:`~repro.model.program.Program`
into a per-processor sequence of *dynamic records*: which instructions
actually executed (branches resolved), the values every load observed, the
values counter-sourced stores actually wrote, and whether each CAS
succeeded.  The analysis phase consumes exactly this information.

The paper's standalone analysis interface (Sec. 3.3) accepts "a program
description along with the values of all loads and stores"; the text
format implemented by :meth:`Execution.dump` / :meth:`Execution.load` is
this reproduction's version of that interface, and it also supports the
Sec. 3.4 *what-if* workflow — dump, hand-edit a load value, re-analyze.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

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
    PrefetchVariant,
)


@dataclass(frozen=True, slots=True)
class DynRecord:
    """The dynamic outcome of one executed instruction.

    Attributes:
        instr: the static instruction this record belongs to.
        loaded: word values observed, in address order, for instructions
            with a load component (loads, swaps, CAS, block loads,
            non-faulting loads); ``None`` otherwise.
        stored: word values written, in address order, for instructions
            with a store component (stores, swaps, successful CAS, block
            stores); ``None`` otherwise.
        cas_ok: for CAS only — whether the compare succeeded.
        taken: for branches only — whether the branch was taken (skipping
            its ``skip`` successor instructions).
        faulted: for non-faulting loads only — whether the access faulted
            (and hence must have returned zeros).
    """

    instr: Instr
    loaded: Optional[Tuple[int, ...]] = None
    stored: Optional[Tuple[int, ...]] = None
    cas_ok: Optional[bool] = None
    taken: Optional[bool] = None
    faulted: Optional[bool] = None

    def with_loaded(self, loaded: Sequence[int]) -> "DynRecord":
        """Return a copy with a different observed-load tuple (what-if edits)."""
        return replace(self, loaded=tuple(loaded))


@dataclass
class Execution:
    """The complete observed outcome of one run: per-processor record lists.

    The same test program can legally produce different executions on
    different runs (Sec. 3: "the analysis result always applies to the
    correctness of a particular run"), so programs and executions are kept
    as separate objects.
    """

    records: List[List[DynRecord]]

    @property
    def nprocs(self) -> int:
        """Number of processors in the trace."""
        return len(self.records)

    def total_records(self) -> int:
        """Total number of dynamic records across all processors."""
        return sum(len(r) for r in self.records)

    def memory_operations(self) -> int:
        """Total data-carrying memory operations (loads+stores+atomics)."""
        count = 0
        for proc in self.records:
            for rec in proc:
                if rec.loaded is not None or rec.stored is not None:
                    count += 1
        return count

    # ------------------------------------------------------------------
    # Text serialization (the standalone analysis interface of Sec. 3.3)
    # ------------------------------------------------------------------

    def dump(self) -> str:
        """Serialize to the standalone-analysis text format.

        One line per dynamic record::

            P<pid> <OPCODE> [field=value ...]

        The format is line-oriented and hand-editable so a user can apply
        the Sec. 3.4 what-if workflow: guess a corrected load value, edit
        the line, and re-run the analyzer via :meth:`load`.
        """
        lines = ["# tsotool trace v1"]
        for pid, proc in enumerate(self.records):
            for rec in proc:
                lines.append(f"P{pid} {_encode_record(rec)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, text: str) -> "Execution":
        """Parse the text produced by :meth:`dump` (possibly hand-edited)."""
        per_proc: Dict[int, List[DynRecord]] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                head, rest = line.split(None, 1)
                if not head.startswith("P"):
                    raise ValueError("record must start with P<pid>")
                pid = int(head[1:])
                rec = _decode_record(rest)
            except ValueError as exc:
                raise ValueError(f"trace line {lineno}: {exc}") from exc
            per_proc.setdefault(pid, []).append(rec)
        nprocs = max(per_proc) + 1 if per_proc else 0
        return cls(records=[per_proc.get(p, []) for p in range(nprocs)])


def _ints(values: Optional[Sequence[int]]) -> str:
    assert values is not None
    return ",".join(str(v) for v in values)


def _encode_record(rec: DynRecord) -> str:
    """Encode a single record as opcode + key=value fields."""
    instr = rec.instr
    if isinstance(instr, ICas):
        parts = [
            f"CAS addr={instr.addr} size={instr.size} cmp_from={instr.compare_from}",
            f"loaded={_ints(rec.loaded)}",
            f"ok={int(bool(rec.cas_ok))}",
        ]
        if rec.cas_ok:
            parts.append(f"stored={_ints(rec.stored)}")
        return " ".join(parts)
    if isinstance(instr, ISwap):
        return (
            f"SWAP addr={instr.addr} size={instr.size} "
            f"loaded={_ints(rec.loaded)} stored={_ints(rec.stored)}"
        )
    if isinstance(instr, IBlockStore):
        return f"BST addr={instr.addr} stored={_ints(rec.stored)}"
    if isinstance(instr, IBlockLoad):
        return f"BLD addr={instr.addr} loaded={_ints(rec.loaded)}"
    if isinstance(instr, IStore):
        nc = "" if instr.cacheable else " nc=1"
        return f"ST addr={instr.addr} size={instr.size}{nc} stored={_ints(rec.stored)}"
    if isinstance(instr, INonFaultingLoad):
        return (
            f"NFLD addr={instr.addr} size={instr.size} "
            f"faulted={int(bool(rec.faulted))} loaded={_ints(rec.loaded)}"
        )
    if isinstance(instr, ILoad):
        nc = "" if instr.cacheable else " nc=1"
        return f"LD addr={instr.addr} size={instr.size}{nc} loaded={_ints(rec.loaded)}"
    if isinstance(instr, IMembar):
        return "MEMBAR"
    if isinstance(instr, IBranch):
        return f"BR skip={instr.skip} taken={int(bool(rec.taken))}"
    if isinstance(instr, IPrefetch):
        return (
            f"PREF addr={instr.addr} variant={instr.variant.value} "
            f"strong={int(instr.strong)}"
        )
    if isinstance(instr, IFlushCache):
        return f"FLUSH addr={instr.addr}"
    if isinstance(instr, IFlushPipe):
        return "FLUSHW"
    if isinstance(instr, IInterrupt):
        return f"IPI target={instr.target}"
    raise ValueError(f"cannot encode instruction {instr!r}")


def _decode_record(rest: str) -> DynRecord:
    """Decode the opcode + fields part of a trace line."""
    parts = rest.split()
    opcode, fields = parts[0], {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"bad field {part!r}")
        key, val = part.split("=", 1)
        fields[key] = val

    def addr() -> int:
        return int(fields["addr"])

    def size() -> int:
        return int(fields.get("size", WORD_SIZE))

    def words(key: str) -> Tuple[int, ...]:
        return tuple(int(v) for v in fields[key].split(","))

    cacheable = not bool(int(fields.get("nc", "0")))
    if opcode == "LD":
        return DynRecord(
            instr=ILoad(addr=addr(), size=size(), cacheable=cacheable),
            loaded=words("loaded"),
        )
    if opcode == "ST":
        return DynRecord(
            instr=IStore(addr=addr(), size=size(), cacheable=cacheable),
            stored=words("stored"),
        )
    if opcode == "SWAP":
        return DynRecord(
            instr=ISwap(addr=addr(), size=size()),
            loaded=words("loaded"),
            stored=words("stored"),
        )
    if opcode == "CAS":
        ok = bool(int(fields["ok"]))
        return DynRecord(
            instr=ICas(addr=addr(), size=size(), compare_from=int(fields["cmp_from"])),
            loaded=words("loaded"),
            stored=words("stored") if ok else None,
            cas_ok=ok,
        )
    if opcode == "BST":
        return DynRecord(instr=IBlockStore(addr=addr()), stored=words("stored"))
    if opcode == "BLD":
        return DynRecord(instr=IBlockLoad(addr=addr()), loaded=words("loaded"))
    if opcode == "NFLD":
        return DynRecord(
            instr=INonFaultingLoad(
                addr=addr(), size=size(), faulting=bool(int(fields["faulted"]))
            ),
            loaded=words("loaded"),
            faulted=bool(int(fields["faulted"])),
        )
    if opcode == "MEMBAR":
        return DynRecord(instr=IMembar())
    if opcode == "BR":
        return DynRecord(
            instr=IBranch(skip=int(fields["skip"])), taken=bool(int(fields["taken"]))
        )
    if opcode == "PREF":
        return DynRecord(
            instr=IPrefetch(
                addr=addr(),
                variant=PrefetchVariant(fields["variant"]),
                strong=bool(int(fields["strong"])),
            )
        )
    if opcode == "FLUSH":
        return DynRecord(instr=IFlushCache(addr=addr()))
    if opcode == "FLUSHW":
        return DynRecord(instr=IFlushPipe())
    if opcode == "IPI":
        return DynRecord(instr=IInterrupt(target=int(fields["target"])))
    raise ValueError(f"unknown opcode {opcode!r}")
