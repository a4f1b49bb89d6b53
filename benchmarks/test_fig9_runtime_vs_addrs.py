"""Fig. 9: analysis runtime vs total memory operations, by shared-address
count.

The paper fixes 4 processors and sweeps the operation count for several
shared-location counts, observing (a) near-linear scaling in operations
and (b) higher runtime with more shared addresses, explained as "more
addresses lead to a sparser graph with more dispersed ordering relations
... a larger number of nodes to be visited during the traversal of
predecessor/successor subgraphs due to Rules R6 and R7".

What this reproduction measures (and EXPERIMENTS.md discusses):

* linearity in operations — holds on the vc engine at every address
  count;
* the *mechanism* behind the paper's address trend — nodes visited per
  R6/R7 traversal — is measured directly on the traversal (baseline)
  engine and indeed grows with the address count;
* the wall-clock address trend itself is implementation-dependent, and
  on the vc engine it is flat within run-to-run noise — an expected
  deviation: vc finds R6/R7 candidates with per-chain interval queries
  instead of traversals, so the traversal cost the paper's trend came
  from is not there to grow, and the edge counts that do drive its cost
  differ little across address counts.
"""

import pytest

from repro.analysis.runtime import format_series, measure_runtime
from repro.core.api import make_checker
from repro.core.checker import BaselineChecker
from repro.core.policy import TSO
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.model.expansion import expand
from repro.sim.machine import TsoMachine

NPROCS = 4
WORD_COUNTS = (4, 16, 64)
OPS_POINTS = (400, 800, 1600)


def _aprog(words: int, total_ops: int, seed: int = 9):
    from repro.analysis.runtime import _MEASURE_MIX

    config = GeneratorConfig(
        nprocs=NPROCS,
        ops_per_proc=max(1, total_ops // NPROCS),
        shared_words=words,
        mix=_MEASURE_MIX,
        loop_prob=0.0,
    )
    program = generate_program(config, seed=seed)
    execution = TsoMachine(program, seed=seed).run()
    return expand(execution, initial=program.initial, word_names=program.word_names)


@pytest.mark.parametrize("words", WORD_COUNTS)
@pytest.mark.parametrize("total_ops", OPS_POINTS)
def test_fig9_point(benchmark, words, total_ops):
    """One (shared-word count, operation count) point of Fig. 9."""
    aprog = _aprog(words, total_ops)
    checker = make_checker(TSO, "vc")
    result = benchmark.pedantic(
        lambda: checker.run(aprog), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.ok
    benchmark.extra_info.update(
        shared_words=words, total_ops=total_ops, nodes=result.stats.nodes
    )


def test_fig9_series_and_shape(benchmark, record):
    """The Fig. 9 series on the vc engine, the traversal mechanism on
    the baseline engine, plus the shape claims."""
    points = [
        measure_runtime(NPROCS, words, ops, seed=9, repeats=2)
        for words in WORD_COUNTS
        for ops in OPS_POINTS
    ]
    lines = [
        format_series(
            points,
            f"Fig. 9 (vc engine): analysis time vs ops ({NPROCS} processors)",
        )
    ]

    # The traversal engine exposes the paper's mechanism: visited nodes
    # per R6/R7 traversal.  Measured at a single op count to keep the
    # bench quick.
    visit_rows = []
    visits_per_traversal = {}
    for words in WORD_COUNTS:
        result = BaselineChecker().run(_aprog(words, 400))
        assert result.ok
        stats = result.stats
        per = stats.traversal_visits / max(stats.traversals, 1)
        visits_per_traversal[words] = per
        visit_rows.append(
            f"  words={words:<4d} traversals={stats.traversals:<6d} "
            f"visits/traversal={per:9.1f} time={stats.seconds * 1e3:9.2f} ms"
        )
    lines.append(
        "Fig. 9 mechanism (traversal engine, 400 ops): nodes visited per "
        "R6/R7 traversal\n" + "\n".join(visit_rows)
    )
    record("fig9_runtime_vs_addrs", "\n\n".join(lines))

    # Claim 1: near-linear in ops, at every sharing density (wall-clock,
    # so the bound is generous against scheduler noise).
    by_words = {
        w: [pt for pt in points if pt.shared_words == w]
        for w in WORD_COUNTS
    }
    for words, series in by_words.items():
        lo, hi = series[0], series[-1]
        ratio = (hi.seconds / lo.seconds) / (hi.total_ops / lo.total_ops)
        assert ratio < 4.5, (
            f"words={words}: superlinear beyond tolerance: {ratio:.2f}"
        )
    # Claim 2 (mechanism): more addresses -> more nodes visited per
    # traversal, exactly as the paper explains.
    assert (
        visits_per_traversal[4]
        < visits_per_traversal[16]
        < visits_per_traversal[64]
    )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
