"""Ablation: the literal Fig. 2 traversal engine vs the vc engine.

DESIGN.md design-choice #1: the paper reports minutes of analysis for
100k-operation programs on a 450 MHz UltraSPARC-II, which requires
bounding the R6/R7 traversals.  This bench quantifies the gap between
the two implementations of the same rules — both must agree on every
verdict (also enforced by property tests) while differing in cost.
"""

import pytest

from repro.core.checker import BaselineChecker
from repro.core.vc import VectorClockChecker
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.model.expansion import expand
from repro.sim.machine import TsoMachine

TOTAL_OPS = 800
SHARED_WORDS = 16
NPROCS = 4


@pytest.fixture(scope="module")
def aprog():
    from repro.analysis.runtime import _MEASURE_MIX

    config = GeneratorConfig(
        nprocs=NPROCS,
        ops_per_proc=TOTAL_OPS // NPROCS,
        shared_words=SHARED_WORDS,
        mix=_MEASURE_MIX,
        loop_prob=0.0,
    )
    program = generate_program(config, seed=17)
    execution = TsoMachine(program, seed=17).run()
    return expand(execution, initial=program.initial, word_names=program.word_names)


def test_ablation_baseline_engine(benchmark, aprog):
    """The Fig. 2 reading: per-iteration bounded BFS traversals."""
    checker = BaselineChecker()
    result = benchmark.pedantic(
        lambda: checker.run(aprog), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.ok
    benchmark.extra_info.update(
        engine="baseline",
        traversal_visits=result.stats.traversal_visits,
        edges=result.stats.edges,
    )


def test_ablation_vc_engine(benchmark, aprog):
    """The production engine: chain frontiers, no traversals."""
    checker = VectorClockChecker()
    result = benchmark.pedantic(
        lambda: checker.run(aprog), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.ok
    benchmark.extra_info.update(engine="vc", edges=result.stats.edges)


def test_ablation_engines_agree_and_speedup(benchmark, aprog, record):
    """Same verdict; the vc engine should win by a wide margin."""
    baseline = BaselineChecker().run(aprog)
    vc = VectorClockChecker().run(aprog)
    assert baseline.ok == vc.ok
    speedup = baseline.stats.seconds / max(vc.stats.seconds, 1e-9)
    record(
        "ablation_checkers",
        "Ablation: Fig. 2 traversal engine vs vector-clock engine\n"
        f"  nodes={aprog.n} ops~{TOTAL_OPS}\n"
        f"  baseline: {baseline.stats.seconds * 1e3:9.2f} ms "
        f"({baseline.stats.traversals} traversals, "
        f"{baseline.stats.traversal_visits} nodes visited)\n"
        f"  vc:       {vc.stats.seconds * 1e3:9.2f} ms\n"
        f"  speedup:  {speedup:.1f}x",
    )
    assert speedup > 3.0, f"expected a clear win, got {speedup:.1f}x"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
