"""The pseudo-random racy program generator (Sec. 3.1).

Generates a multithreaded :class:`~repro.model.program.Program` with data
races on a small set of shared words, controlled by a
:class:`~repro.generator.config.GeneratorConfig`:

* intense sharing: every data access targets the (small) shared region;
* unique store values by construction: stores are counter-sourced, so the
  executing machine assigns each stored word a fresh value from a per-CPU
  counter (the paper's integer/floating-point register counters);
* CAS instructions are emitted with their Sec. 3.1 companion load ("the
  value returned by the load is used as the compare value"), giving each
  CAS a good chance of resolving into a swap while occasionally failing
  when a racing store intervenes;
* loops repeat a fixed body several times; they are emitted statically
  unrolled, which is behaviourally identical because the analysis phase
  unrolls loops anyway (Sec. 3.3) and counter-sourced stores keep values
  unique across iterations;
* unpredictable conditional branches, non-faulting loads (to both valid
  and faulting addresses), prefetch variants, block operations and
  cache/pipeline flushes are mixed in per the configured weights.

Generation is deterministic per (config, seed).
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.generator.config import GeneratorConfig
from repro.generator.patterns import build_pattern
from repro.model.ops import (
    BLOCK_SIZE,
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
from repro.model.program import Program, Thread

#: A unit recipe: materializes one or more instructions into a thread.
_Recipe = Callable[[List[Instr]], None]


def _weighted(rng: random.Random, population: List, cum_weights: List[float]):
    """One draw of ``rng.choices(population, cum_weights=cum_weights)[0]``.

    The same single ``rng.random()`` call and the same bisection as the
    library, without building a one-element list per draw.
    """
    total = cum_weights[-1] + 0.0
    if total <= 0.0:
        raise ValueError("Total of weights must be greater than zero")
    return population[
        bisect(cum_weights, rng.random() * total, 0, len(population) - 1)
    ]


def generate_program(config: GeneratorConfig, seed: int = 0) -> Program:
    """Generate a racy test program.

    Args:
        config: the generation knobs.
        seed: PRNG seed; the same (config, seed) always yields the same
            program.

    Returns:
        A validated :class:`~repro.model.program.Program` with exactly
        ``config.ops_per_proc`` instructions per processor and all shared
        words initialised to 0.
    """
    with telemetry.span("generate", procs=config.nprocs, ops=config.ops_per_proc):
        rng = random.Random(seed)
        gen = _ThreadGenerator(config, rng)
        threads = [gen.generate_thread(pid) for pid in range(config.nprocs)]
        initial = {addr: 0 for addr in config.word_addresses()}
        initial.update({addr: 0 for addr in config.nc_addresses()})
        program = Program(threads=threads, initial=initial)
        program.validate()
        return program


class _ThreadGenerator:
    """Generates one thread at a time from shared configuration."""

    def __init__(self, config: GeneratorConfig, rng: random.Random) -> None:
        self.config = config
        self.rng = rng
        self.words = config.word_addresses()
        self.nc_words = config.nc_addresses()
        # Cumulative weights, built once for every draw (``rng.choices``
        # with ``weights=`` would rebuild them each time).
        mix = config.mix.weights()
        self._kinds = [name for name, _ in mix]
        self._kind_cum = list(accumulate(weight for _, weight in mix))
        sizes = sorted(config.size_weights.items())
        self._sizes = [s for s, _ in sizes]
        self._size_cum = list(accumulate(w for _, w in sizes))
        # Atomics come in 4- and 8-byte flavours; respect the configured
        # size weights so targets without 8-byte atomics (the C11
        # backend) can restrict them.
        self._atomic_sizes = [s for s in self._sizes if s in (4, 8)] or [4]
        self._atomic_cum = list(accumulate(
            config.size_weights.get(s, 1.0) for s in self._atomic_sizes
        ))
        span = config.shared_words * config.stride_words * WORD_SIZE
        self._block_lines = max(1, span // BLOCK_SIZE)

    def generate_thread(self, pid: int = 0) -> Thread:
        self._pid = pid
        budget = self.config.ops_per_proc
        instrs: List[Instr] = []
        while len(instrs) < budget:
            remaining = budget - len(instrs)
            if (
                self.config.pattern_prob > 0
                and remaining >= 4
                and self.rng.random() < self.config.pattern_prob
            ):
                self._emit_pattern(instrs, remaining)
            elif (
                remaining >= 4
                and self.rng.random() < self.config.loop_prob
            ):
                self._emit_loop(instrs, remaining)
            else:
                recipe, cost = self._pick_unit(len(instrs), budget)
                if cost <= remaining:
                    recipe(instrs)
                else:
                    # Unit does not fit the tail of the thread: pad with a
                    # plain load so generation always terminates.
                    addr, size = self._scalar_access()
                    instrs.append(ILoad(addr=addr, size=size))
        return Thread(instrs=instrs)

    # ------------------------------------------------------------------
    # Unit selection
    # ------------------------------------------------------------------

    def _pick_unit(self, position: int, budget: int) -> Tuple[_Recipe, int]:
        """Choose one instruction unit; returns (recipe, instruction cost)."""
        kind = _weighted(self.rng, self._kinds, self._kind_cum)
        if kind == "load":
            addr, size = self._scalar_access()
            return (lambda out: out.append(ILoad(addr=addr, size=size))), 1
        if kind == "store":
            addr, size = self._scalar_access()
            return (lambda out: out.append(IStore(addr=addr, size=size))), 1
        if kind == "swap":
            addr, size = self._atomic_access()
            return (lambda out: out.append(ISwap(addr=addr, size=size))), 1
        if kind == "cas":
            addr, size = self._atomic_access()

            def emit_cas(out: List[Instr]) -> None:
                load_idx = len(out)
                out.append(ILoad(addr=addr, size=size))
                out.append(ICas(addr=addr, size=size, compare_from=load_idx))

            return emit_cas, 2
        if kind == "membar":
            return (lambda out: out.append(IMembar())), 1
        if kind == "block_load":
            addr = self._block_access()
            return (lambda out: out.append(IBlockLoad(addr=addr))), 1
        if kind == "block_store":
            addr = self._block_access()
            return (lambda out: out.append(IBlockStore(addr=addr))), 1
        if kind == "nonfaulting_load":
            faulting = self.rng.random() < 0.5
            if faulting:
                addr, size = self.config.faulting_address, WORD_SIZE
            else:
                addr, size = self._scalar_access()
            return (
                lambda out: out.append(
                    INonFaultingLoad(addr=addr, size=size, faulting=faulting)
                )
            ), 1
        if kind == "prefetch":
            addr = self._word()
            variant = self.rng.choice(list(PrefetchVariant))
            strong = self.rng.random() < 0.5
            return (
                lambda out: out.append(
                    IPrefetch(addr=addr, variant=variant, strong=strong)
                )
            ), 1
        if kind == "flush":
            if self.rng.random() < 0.5:
                addr = self._word()
                return (lambda out: out.append(IFlushCache(addr=addr))), 1
            return (lambda out: out.append(IFlushPipe())), 1
        if kind in ("nc_load", "nc_store"):
            if not self.nc_words:
                addr, size = self._scalar_access()
                return (lambda out: out.append(ILoad(addr=addr, size=size))), 1
            addr = self.rng.choice(self.nc_words)
            if kind == "nc_load":
                return (
                    lambda out: out.append(
                        ILoad(addr=addr, size=WORD_SIZE, cacheable=False)
                    )
                ), 1
            return (
                lambda out: out.append(
                    IStore(addr=addr, size=WORD_SIZE, cacheable=False)
                )
            ), 1
        if kind == "interrupt":
            others = [p for p in range(self.config.nprocs) if p != self._pid]
            if not others:
                addr, size = self._scalar_access()
                return (lambda out: out.append(ILoad(addr=addr, size=size))), 1
            target = self.rng.choice(others)
            return (lambda out: out.append(IInterrupt(target=target))), 1
        if kind == "branch":
            # Only emit where the skip provably stays inside the thread.
            max_skip = min(self.config.branch_skip_max, budget - position - 2)
            if max_skip < 1:
                addr, size = self._scalar_access()
                return (lambda out: out.append(ILoad(addr=addr, size=size))), 1
            skip = self.rng.randint(1, max_skip)
            return (lambda out: out.append(IBranch(skip=skip))), 1
        raise AssertionError(f"unhandled instruction kind {kind!r}")

    def _emit_pattern(self, instrs: List[Instr], remaining: int) -> None:
        """Splice one directed corner-case sequence, if it fits."""
        name = self.rng.choice(list(self.config.patterns))
        sequence = build_pattern(name, self.rng, self.words, len(instrs))
        if len(sequence) <= remaining:
            instrs.extend(sequence)

    def _emit_loop(self, instrs: List[Instr], remaining: int) -> None:
        """Emit a statically-unrolled loop of a fixed random body."""
        body_len = self.rng.randint(1, min(self.config.loop_body_max, remaining // 2))
        count = self.rng.randint(2, max(2, self.config.loop_count_max))
        # Pick body recipes once (same addresses each iteration, like a
        # real loop), excluding branches for simplicity of skip targets.
        recipes: List[_Recipe] = []
        cost = 0
        for _ in range(body_len):
            while True:
                recipe, unit_cost = self._pick_unit(len(instrs) + cost, 10 ** 9)
                probe: List[Instr] = []
                recipe(probe)
                if not any(isinstance(i, IBranch) for i in probe):
                    break
            recipes.append(recipe)
            cost += unit_cost
        iterations = min(count, max(1, remaining // max(cost, 1)))
        for _ in range(iterations):
            for recipe in recipes:
                recipe(instrs)

    # ------------------------------------------------------------------
    # Address/size selection
    # ------------------------------------------------------------------

    def _word(self) -> int:
        return self.rng.choice(self.words)

    def _scalar_access(self) -> Tuple[int, int]:
        size = _weighted(self.rng, self._sizes, self._size_cum)
        addr = self._word()
        return addr - (addr % size), size

    def _atomic_access(self) -> Tuple[int, int]:
        size = _weighted(self.rng, self._atomic_sizes, self._atomic_cum)
        addr = self._word()
        return addr - (addr % size), size

    def _block_access(self) -> int:
        line = self.rng.randrange(self._block_lines)
        return self.config.base + line * BLOCK_SIZE
