"""Fig. 8: analysis runtime vs total memory operations, by processor count.

The paper fixes 16 shared words and sweeps the operation count for 2, 4,
8 and 16 processors on a 450 MHz UltraSPARC-II.  Claims to reproduce
(shape, not absolute numbers):

* runtime scales roughly linearly with total memory operations for a
  given processor count;
* for the same operation count, runtime increases with processor count
  ("a higher number of processors creates more ordering relationships
  ... a broader and denser analysis graph").
"""

import pytest

from repro.analysis.runtime import format_series, measure_runtime
from repro.core.api import make_checker
from repro.core.policy import TSO
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.model.expansion import expand
from repro.sim.machine import TsoMachine

SHARED_WORDS = 16
PROC_COUNTS = (2, 4, 8, 16)
OPS_POINTS = (400, 800, 1600)


def _aprog(nprocs: int, total_ops: int, seed: int = 8):
    from repro.analysis.runtime import _MEASURE_MIX

    config = GeneratorConfig(
        nprocs=nprocs,
        ops_per_proc=max(1, total_ops // nprocs),
        shared_words=SHARED_WORDS,
        mix=_MEASURE_MIX,
        loop_prob=0.0,
    )
    program = generate_program(config, seed=seed)
    execution = TsoMachine(program, seed=seed).run()
    return expand(execution, initial=program.initial, word_names=program.word_names)


@pytest.mark.parametrize("nprocs", PROC_COUNTS)
@pytest.mark.parametrize("total_ops", OPS_POINTS)
def test_fig8_point(benchmark, nprocs, total_ops):
    """One (processor count, operation count) point of Fig. 8."""
    aprog = _aprog(nprocs, total_ops)
    checker = make_checker(TSO, "vc")
    result = benchmark.pedantic(
        lambda: checker.run(aprog), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.ok
    benchmark.extra_info.update(
        nprocs=nprocs, total_ops=total_ops,
        nodes=result.stats.nodes, edges=result.stats.edges,
    )


def test_fig8_series_and_shape(benchmark, record):
    """The full Fig. 8 series, plus the paper's two shape claims."""
    points = [
        measure_runtime(nprocs, SHARED_WORDS, ops, seed=8, repeats=2)
        for nprocs in PROC_COUNTS
        for ops in OPS_POINTS
    ]
    record(
        "fig8_runtime_vs_procs",
        format_series(
            points,
            "Fig. 8: analysis time vs total memory operations "
            f"({SHARED_WORDS} shared words)",
        ),
    )

    by_procs = {
        p: [pt for pt in points if pt.nprocs == p] for p in PROC_COUNTS
    }
    # Claim 1: near-linear in ops — quadrupling the op count must not
    # blow far past the linear prediction.  (Wall-clock, so the bound is
    # generous against scheduler noise; the typical ratio is ~1.5-2.)
    for series in by_procs.values():
        lo, hi = series[0], series[-1]
        ratio = (hi.seconds / lo.seconds) / (hi.total_ops / lo.total_ops)
        assert ratio < 4.0, f"superlinear beyond tolerance: {ratio:.2f}"
    # Claim 2: more processors -> denser graph -> slower.  The edge
    # counts are deterministic ("broader and denser analysis graph"),
    # the wall-clock comparison keeps a noise margin.
    for i in range(len(OPS_POINTS)):
        edge_series = [by_procs[p][i].edges for p in PROC_COUNTS]
        assert edge_series == sorted(edge_series), edge_series
    largest = {p: by_procs[p][-1].seconds for p in PROC_COUNTS}
    assert largest[16] > largest[2]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
