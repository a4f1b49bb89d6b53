"""Paper-scale end-to-end run (Sec. 3.2 / 5.2 operating point).

"On physical systems, we typically run TSOtool on configurations of up
to 16 processors with a few thousand memory operations per processor",
and "our analysis algorithm runs in the order of minutes on programs
with about 100,000 operations" on a 450 MHz UltraSPARC-II.

This bench drives the full pipeline once at 16 processors x 400
instructions (≈10k analysis nodes after multi-word expansion) and checks
the whole thing stays in single-digit seconds on a modern laptop — the
scaled-down equivalent of the paper's operating point.
"""

import pytest

from repro.analysis.runtime import measure_runtime

NPROCS = 16
SHARED_WORDS = 16
TOTAL_OPS = 6400


def test_sixteen_processor_run(benchmark, record):
    point = measure_runtime(
        NPROCS, SHARED_WORDS, TOTAL_OPS, seed=12, repeats=1
    )
    record(
        "paper_scale",
        "Paper-scale operating point (16 CPUs, 400 instructions each)\n"
        f"  vc      {point.row()}",
    )
    assert point.nodes > 8_000
    assert point.seconds < 60.0, "analysis fell off a cliff at paper scale"
    # The closure is built once, however many fixed-point passes run.
    assert point.closure_rebuilds == 1

    benchmark.pedantic(
        lambda: measure_runtime(NPROCS, SHARED_WORDS, TOTAL_OPS, seed=12),
        rounds=1, iterations=1,
    )
