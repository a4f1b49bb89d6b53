"""Engine scaling: the batch R1–R7 implementations across problem sizes.

Complements ``test_ablation_checkers.py`` (one size) with a sweep,
recording where each engine's cost structure bites: the traversal
baseline's per-iteration BFS cost, and the incremental vector-clock
engine's frontier maintenance (which buys it exactly one closure build
regardless of iteration count).
"""

import pytest

from repro.core.checker import BaselineChecker
from repro.core.vc import VectorClockChecker
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.model.expansion import expand
from repro.sim.machine import TsoMachine

ENGINES = {
    "baseline": BaselineChecker,
    "vc": VectorClockChecker,
}

#: Total-op sweep; the traversal engine is capped at the smaller sizes
#: (its cost at 1600 ops is tens of seconds — the point of the
#: ablation).  The upper sizes show the vc engine's growth alone.
SIZES = (200, 400, 800, 1600, 3200)
BASELINE_MAX = 400
_CAPS = {"baseline": BASELINE_MAX}


def _aprog(total_ops: int, seed: int = 31):
    from repro.analysis.runtime import _MEASURE_MIX

    config = GeneratorConfig(
        nprocs=4, ops_per_proc=total_ops // 4, shared_words=16,
        mix=_MEASURE_MIX, loop_prob=0.0,
    )
    program = generate_program(config, seed=seed)
    execution = TsoMachine(program, seed=seed).run()
    return expand(execution, initial=program.initial)


@pytest.mark.parametrize("total_ops", SIZES)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_scaling_point(benchmark, engine, total_ops):
    if total_ops > _CAPS.get(engine, max(SIZES)):
        pytest.skip("slow engine capped to keep the bench quick")
    aprog = _aprog(total_ops)
    checker = ENGINES[engine]()
    result = benchmark.pedantic(
        lambda: checker.run(aprog), rounds=2, iterations=1, warmup_rounds=1
    )
    assert result.ok
    benchmark.extra_info.update(engine=engine, total_ops=total_ops,
                                nodes=aprog.n)


def test_engine_scaling_series(benchmark, record):
    rows = []
    verdicts = set()
    for total_ops in SIZES:
        aprog = _aprog(total_ops)
        cells = [f"  ops={total_ops:<6d} nodes={aprog.n:<6d}"]
        for name, cls in sorted(ENGINES.items()):
            if total_ops > _CAPS.get(name, max(SIZES)):
                cells.append(f"{name}=--")
                continue
            result = cls().run(aprog)
            verdicts.add(result.ok)
            cells.append(f"{name}={result.stats.seconds * 1e3:8.1f}ms")
        rows.append(" ".join(cells))
    record(
        "engine_scaling",
        "Engine scaling (same rules, two batch implementations)\n"
        + "\n".join(rows),
    )
    assert verdicts == {True}
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
