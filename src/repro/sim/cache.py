"""Per-CPU cache with line snapshots — the home of the Sec. 5.1 cache bugs.

The golden machine keeps these caches trivially coherent: every commit
invalidates the line in all other CPUs' caches in the same step, so a
cached word always equals memory and the cache is value-transparent.
Its purpose is to be a *mechanistic hook point*: the dropped-invalidate
fault leaves a stale line behind, the lost-dirty-bit fault updates a line
without updating memory, prefetches install lines, flushes drop them —
all observable through the normal load path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

#: Cache line size in bytes (matches the 64-byte block operations).
LINE_SIZE = 64


def line_of(addr: int) -> int:
    """The line-aligned base address containing ``addr``."""
    return addr - (addr % LINE_SIZE)


@dataclass
class CacheLine:
    """One resident line: sparse per-word snapshot plus fault bookkeeping.

    Attributes:
        words: word address -> snapshotted value.
        stale: marked by fault models when the snapshot is knowingly out
            of date (purely diagnostic; reads do not consult it).
        ttl: when >= 0, the line serves at most this many more reads
            before silently self-destructing — used by fault models to
            bound stale windows and to model silent replacement of a
            lost-dirty-bit line.
    """

    words: Dict[int, int] = field(default_factory=dict)
    stale: bool = False
    ttl: int = -1
    #: Write-back mode: the words of this line holding data newer than
    #: memory (the "modified" part of the line).  Dirtiness is tracked
    #: per word: a dirty line may also carry clean snapshot words whose
    #: memory may have advanced since — those must never be written back.
    dirty_words: Set[int] = field(default_factory=set)

    @property
    def dirty(self) -> bool:
        """True when any word of the line is newer than memory."""
        return bool(self.dirty_words)

    def dirty_items(self):
        """(addr, value) pairs that must reach memory on write-back."""
        return [(addr, self.words[addr]) for addr in sorted(self.dirty_words)]


class CpuCache:
    """A private cache: a dict of resident lines.

    ``capacity`` bounds the number of resident lines (0 = unbounded, the
    write-through default).  When a new line would exceed it, the oldest
    resident line is chosen as the victim; the machine performs the
    write-back of dirty victims (the cache itself has no memory access).
    """

    def __init__(self, capacity: int = 0) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._lines: Dict[int, CacheLine] = {}

    def lookup(self, addr: int) -> Optional[int]:
        """The cached value of the word at ``addr``, if resident.

        Counts down a fault-set TTL and silently drops the line when it
        expires (the "replacement" that loses a dirty-bit-bug line).
        """
        base = addr - addr % LINE_SIZE
        line = self._lines.get(base)
        if line is None:
            return None
        value = line.words.get(addr)
        if value is not None and line.ttl >= 0:
            line.ttl -= 1
            if line.ttl <= 0:
                del self._lines[base]
        return value

    def install(self, addr: int, value: int, dirty: bool = False) -> None:
        """Record the word's value in its (possibly new) resident line."""
        base = addr - addr % LINE_SIZE
        line = self._lines.get(base)
        if line is None:
            line = self._lines[base] = CacheLine()
        line.words[addr] = value
        if dirty:
            line.dirty_words.add(addr)

    def needs_eviction(self) -> bool:
        """True when over capacity (a victim must be evicted first)."""
        return self.capacity > 0 and len(self._lines) > self.capacity

    def evict_victim(self) -> Optional[tuple]:
        """Pop the oldest resident line; returns (line_addr, line) or None.

        The caller is responsible for writing back dirty victims.
        """
        if not self._lines:
            return None
        victim_addr = next(iter(self._lines))
        return victim_addr, self._lines.pop(victim_addr)

    def dirty_value(self, addr: int) -> Optional[int]:
        """The word's value if this cache holds it *dirty* (snooping)."""
        line = self._lines.get(addr - addr % LINE_SIZE)
        if line is not None and addr in line.dirty_words:
            return line.words[addr]
        return None

    def line(self, addr: int) -> Optional[CacheLine]:
        """The resident line containing ``addr``, if any."""
        return self._lines.get(addr - addr % LINE_SIZE)

    def invalidate(self, addr: int) -> bool:
        """Drop the line containing ``addr``; True if it was resident."""
        return self._lines.pop(addr - addr % LINE_SIZE, None) is not None

    def update_if_resident(self, addr: int, value: int) -> None:
        """Refresh a word only when its line is already resident."""
        line = self._lines.get(addr - addr % LINE_SIZE)
        if line is not None:
            line.words[addr] = value

    def resident_lines(self) -> Dict[int, CacheLine]:
        """All resident lines (for the coherence monitor)."""
        return self._lines

    def clear(self) -> None:
        """Drop everything (pipeline-level flush)."""
        self._lines.clear()
