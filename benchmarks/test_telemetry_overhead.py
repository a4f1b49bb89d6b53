"""Telemetry overhead: disabled vs enabled-with-NullSink on the hot path.

The instrumentation contract (``src/repro/telemetry/registry.py``) is
that a dark instrumentation point costs one attribute load and one
branch, and that an enabled registry draining into a :class:`NullSink`
stays within 5% of disabled on the real checking pipeline — i.e. under
the run-to-run noise floor of ``test_engine_scaling.py``.  Measurements
interleave the two modes and keep the minimum per mode, so thermal and
scheduling drift cannot bias the ratio.
"""

import time

import pytest

from repro import telemetry
from repro.core.vc import VectorClockChecker
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.model.expansion import expand
from repro.sim.machine import TsoMachine
from repro.telemetry import NullSink, Telemetry

#: Interleaved timing rounds per mode.
ROUNDS = 7

#: Accepted enabled/disabled ratio for the full pipeline (ISSUE bound).
MAX_OVERHEAD = 1.05


@pytest.fixture(autouse=True)
def _reset_global_telemetry():
    yield
    telemetry.reset()


def _aprog(total_ops: int = 400, seed: int = 31):
    from repro.analysis.runtime import _MEASURE_MIX

    config = GeneratorConfig(
        nprocs=4, ops_per_proc=total_ops // 4, shared_words=16,
        mix=_MEASURE_MIX, loop_prob=0.0,
    )
    program = generate_program(config, seed=seed)
    execution = TsoMachine(program, seed=seed).run()
    return expand(execution, initial=program.initial)


def _time_min(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _interleaved_min(run, rounds=ROUNDS):
    """Min-of-N per mode, alternating disabled/enabled each round."""
    disabled = Telemetry(enabled=False)
    enabled = Telemetry(enabled=True, sinks=[NullSink()])
    best = {"disabled": float("inf"), "enabled": float("inf")}
    for _ in range(rounds):
        for mode, instance in (("disabled", disabled), ("enabled", enabled)):
            telemetry.set_telemetry(instance)
            t0 = time.perf_counter()
            run()
            best[mode] = min(best[mode], time.perf_counter() - t0)
    return best["disabled"], best["enabled"]


def test_null_sink_overhead_on_check_pipeline(record):
    aprog = _aprog()
    checker = VectorClockChecker()
    checker.run(aprog)  # warmup both code paths
    disabled, enabled = _interleaved_min(lambda: checker.run(aprog))
    ratio = enabled / disabled

    # Micro cost of one dark span entry/exit (the disabled fast path).
    telemetry.set_telemetry(Telemetry(enabled=False))
    n = 100_000
    dark = _time_min(lambda: [telemetry.span("x") for _ in range(n)], rounds=3)

    record(
        "telemetry_overhead",
        "Telemetry overhead (vc engine, 400-op analysis program)\n"
        f"  disabled       {disabled * 1e3:8.2f} ms/check (min of {ROUNDS})\n"
        f"  null sink      {enabled * 1e3:8.2f} ms/check (min of {ROUNDS})\n"
        f"  ratio          {ratio:8.3f}  (bound {MAX_OVERHEAD})\n"
        f"  dark span      {dark / n * 1e9:8.1f} ns/entry",
    )
    assert ratio <= MAX_OVERHEAD, (
        f"null-sink telemetry costs {100 * (ratio - 1):.1f}% on the check "
        f"pipeline (bound: {100 * (MAX_OVERHEAD - 1):.0f}%)"
    )


def test_disabled_span_is_allocation_free():
    telemetry.set_telemetry(Telemetry(enabled=False))
    assert telemetry.span("a") is telemetry.span("b")
