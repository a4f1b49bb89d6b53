"""Analysis-runtime measurement — the harness behind Figures 8 and 9.

Fig. 8 plots analysis runtime against total memory operations for 2, 4,
8 and 16 processors at 16 shared words; Fig. 9 the same sweep for a
varying number of shared addresses at 4 processors.  The paper's claims
are about shape, not absolute numbers (theirs is a 450 MHz
UltraSPARC-II):

* runtime scales roughly linearly with total operations for fixed
  processor/address counts;
* more processors → denser cross-processor ordering → slower;
* more shared addresses → sparser graph, more dispersed relations, more
  R6/R7 traversal → slower.

:func:`sweep_runtime` generates *passing* runs on the golden machine (a
violation would end analysis early and skew timing) and times the
checker on each, returning the series to print or benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.pool import ProgressFn, run_tasks
from repro.core.api import DEFAULT_ENGINE, make_checker
from repro.core.policy import TSO, MemoryModel
from repro.core.result import PoolStats
from repro.generator.config import GeneratorConfig, InstructionMix
from repro.generator.generator import generate_program
from repro.model.expansion import expand
from repro.sim.machine import MachineConfig, TsoMachine


@dataclass
class RuntimePoint:
    """One measurement: a configuration and its analysis runtime."""

    nprocs: int
    shared_words: int
    total_ops: int
    nodes: int
    edges: int
    iterations: int
    seconds: float
    #: Closure rebuilds the engine paid (the vc engine: exactly one,
    #: its headline property; the other engines build none).
    closure_rebuilds: int = 0

    def row(self) -> str:
        """Fixed-width text row for the harness output."""
        return (
            f"procs={self.nprocs:<3d} words={self.shared_words:<4d} "
            f"ops={self.total_ops:<7d} nodes={self.nodes:<7d} "
            f"edges={self.edges:<8d} iters={self.iterations:<3d} "
            f"rebuilds={self.closure_rebuilds:<3d} "
            f"time={self.seconds * 1e3:9.2f} ms"
        )


#: A measurement-friendly mix: loads/stores/atomics only, so node count
#: tracks the requested op count closely.
_MEASURE_MIX = InstructionMix(
    load=40.0, store=40.0, swap=3.0, cas=3.0, membar=3.0,
    block_load=0.0, block_store=0.0, nonfaulting_load=0.0,
    prefetch=0.0, flush=0.0, branch=0.0, interrupt=0.0,
)


def measure_runtime(
    nprocs: int,
    shared_words: int,
    total_ops: int,
    seed: int = 0,
    model: MemoryModel = TSO,
    engine: str = DEFAULT_ENGINE,
    repeats: int = 1,
    max_attempts: int = 3,
) -> RuntimePoint:
    """Generate one passing run and time its analysis.

    ``total_ops`` is split evenly across processors.  The reported time
    is the minimum over ``repeats`` checker invocations (generation and
    simulation are excluded — the paper times only the analysis).

    The golden machine should always produce a passing run; if analysis
    fails anyway (a checker bug, or a mis-tuned generator config), the
    point is regenerated with a derived seed up to ``max_attempts``
    times — *never* unboundedly — and then a :class:`RuntimeError`
    naming the offending :class:`~repro.generator.config.GeneratorConfig`
    is raised.
    """
    config = GeneratorConfig(
        nprocs=nprocs,
        ops_per_proc=max(1, total_ops // nprocs),
        shared_words=shared_words,
        mix=_MEASURE_MIX,
        loop_prob=0.0,
    )
    max_attempts = max(1, max_attempts)
    last_result = None
    for attempt in range(max_attempts):
        # Attempt 0 uses the caller's seed verbatim (the historical
        # behaviour); retries derive fresh, well-separated seeds.
        attempt_seed = seed + attempt * 1_000_003
        program = generate_program(config, seed=attempt_seed)
        machine = TsoMachine(program, seed=attempt_seed, config=MachineConfig())
        execution = machine.run()
        aprog = expand(
            execution, initial=program.initial, word_names=program.word_names
        )
        checker = make_checker(model, engine)
        best: Optional[float] = None
        result = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            result = checker.run(aprog)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        assert result is not None and best is not None
        if result.ok:
            return RuntimePoint(
                nprocs=nprocs,
                shared_words=shared_words,
                total_ops=total_ops,
                nodes=result.stats.nodes,
                edges=result.stats.edges,
                iterations=result.stats.iterations,
                seconds=best,
                closure_rebuilds=result.stats.closure_rebuilds,
            )
        last_result = result
    assert last_result is not None
    raise RuntimeError(
        f"no passing run after {max_attempts} attempt(s) on the golden "
        f"machine (seed={seed}, model={model}, engine={engine!r}) — this "
        f"is a checker or generator bug; generator config: {config!r}; "
        "last failure:\n" + last_result.explain()
    )


@dataclass
class SweepResult:
    """An ordered list of sweep points plus batch execution stats.

    Behaves as a sequence of :class:`RuntimePoint` (iteration, indexing,
    ``len``) so pre-pool callers keep working unchanged; ``stats`` adds
    the :class:`~repro.core.result.PoolStats` of the batch.  Points
    whose worker hung on every attempt are *omitted* from ``points``
    but counted in ``stats.hung``.
    """

    points: List[RuntimePoint] = field(default_factory=list)
    stats: Optional[PoolStats] = None

    def __iter__(self) -> Iterator[RuntimePoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index):
        return self.points[index]


def _measure_task(task: Tuple[int, int, int, int, str]) -> RuntimePoint:
    """Picklable pool entry point: measure one sweep point in a worker."""
    nprocs, words, ops, seed, engine = task
    return measure_runtime(nprocs, words, ops, seed=seed, engine=engine)


def sweep_runtime(
    proc_counts: Sequence[int],
    word_counts: Sequence[int],
    ops_points: Sequence[int],
    seed: int = 0,
    engine: str = DEFAULT_ENGINE,
    workers: int = 1,
    task_timeout: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Cartesian runtime sweep over processors × shared words × ops.

    With ``workers > 1`` points are measured across a process pool
    (:mod:`repro.analysis.pool`); every point carries its own seed, so
    the series is identical to the sequential sweep in any worker
    configuration.  Note that concurrent points contend for cores, so
    parallel sweeps trade per-point timing fidelity for wall-clock
    throughput — use ``workers=1`` when publishing Fig. 8/9 numbers.
    """
    tasks: List[Tuple[int, int, int, int, str]] = []
    for nprocs in proc_counts:
        for words in word_counts:
            for ops in ops_points:
                tasks.append((nprocs, words, ops, seed, engine))
    results, stats = run_tasks(
        _measure_task,
        tasks,
        workers=workers,
        task_timeout=task_timeout,
        labels=[f"procs={t[0]} words={t[1]} ops={t[2]}" for t in tasks],
        progress=progress,
    )
    return SweepResult(
        points=[p for p in results if p is not None], stats=stats
    )


def format_series(points: Iterable[RuntimePoint], title: str) -> str:
    """Render a sweep as the text the benchmark harness prints."""
    lines = [title]
    lines.extend("  " + p.row() for p in points)
    return "\n".join(lines)
