"""Property-based tests (hypothesis) for the core invariants.

The three load-bearing properties of the whole system:

1. **End-to-end soundness** — the checker never flags an execution the
   golden TSO machine produced ("we presume the machine innocent,
   unless proved guilty": no false positives, Sec. 1).
2. **Engine agreement** — both checker engines (the literal Fig. 2
   baseline and the incremental vector-clock engine) return the same
   verdict — and, on failures, the same violation kind — on everything,
   including adversarially corrupted and fault-injected runs; so does
   the pipeline's online checker, whose kind is compared when vc
   reports a cycle.  Every cycle witness must additionally be
   *valid*: a closed walk of explicit, reasoned edges in the engine's
   own final graph (the engines may close different — equally real —
   cycles).
3. **Complete-checker consistency** — on small programs, the polynomial
   checker is sound w.r.t. the exponential ground truth: whatever it
   flags, the complete procedure also rejects.
"""

import random as stdlib_random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import ENGINES, check, check_execution
from repro.core.checker import BaselineChecker
from repro.core.complete import complete_check
from repro.core.policy import PSO, SC, TSO
from repro.core.result import ViolationKind
from repro.core.vc import VectorClockChecker
from repro.generator.config import GeneratorConfig, InstructionMix
from repro.generator.generator import generate_program
from repro.model.expansion import expand
from repro.model.trace import Execution
from repro.sim.faults import (
    MECHANISMS_BY_UNIT,
    MonitorFalseAlarmFault,
    TraceCorruptionFault,
)
from repro.sim.machine import MachineConfig, TsoMachine
from tests.util import PLAIN_MIX, stream_check

FAST = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

small_configs = st.builds(
    GeneratorConfig,
    nprocs=st.integers(2, 6),
    ops_per_proc=st.integers(5, 40),
    shared_words=st.integers(1, 10),
    stride_words=st.sampled_from([1, 4, 16]),
)


@FAST
@given(config=small_configs, seed=st.integers(0, 10_000))
def test_golden_tso_runs_always_pass(config, seed):
    program = generate_program(config, seed=seed)
    execution = TsoMachine(program, seed=seed).run()
    result = check(program, execution)
    assert result.ok, result.explain()


@FAST
@given(config=small_configs, seed=st.integers(0, 10_000))
def test_sc_mode_runs_pass_under_every_model(config, seed):
    # SC executions are a subset of TSO and PSO executions.
    program = generate_program(config, seed=seed)
    machine = TsoMachine(program, seed=seed, config=MachineConfig(sc_mode=True))
    execution = machine.run()
    for model in (SC, TSO, PSO):
        assert check(program, execution, model=model).ok, model.name


@FAST
@given(config=small_configs, seed=st.integers(0, 10_000))
def test_writeback_machine_runs_always_pass(config, seed):
    # The write-back cache mode (dirty lines, snooping, evictions) must
    # be just as TSO-sound as the write-through default.
    program = generate_program(config, seed=seed)
    machine = TsoMachine(
        program, seed=seed,
        config=MachineConfig(writeback=True, cache_lines=2, hw_prefetch=True),
    )
    execution = machine.run()
    result = check(program, execution)
    assert result.ok, result.explain()


@FAST
@given(config=small_configs, seed=st.integers(0, 10_000))
def test_tso_runs_pass_under_pso(config, seed):
    # PSO is strictly weaker than TSO: every TSO execution is PSO-legal.
    program = generate_program(config, seed=seed)
    execution = TsoMachine(program, seed=seed).run()
    assert check(program, execution, model=PSO).ok


def _corrupt(execution: Execution, seed: int) -> Execution:
    """Swap one load's observed value for another value of the same
    address — a 'plausible' corruption that stays inside the value map."""
    rng = stdlib_random.Random(seed)
    by_addr = {}
    for proc in execution.records:
        for rec in proc:
            if rec.stored is not None:
                addr = rec.instr.addr
                for i, value in enumerate(rec.stored):
                    by_addr.setdefault(addr + 4 * i, []).append(value)
    candidates = []
    for pid, proc in enumerate(execution.records):
        for idx, rec in enumerate(proc):
            if rec.loaded is not None and rec.instr.words() >= 1:
                candidates.append((pid, idx))
    if not candidates:
        return execution
    pid, idx = rng.choice(candidates)
    rec = execution.records[pid][idx]
    word = rng.randrange(len(rec.loaded))
    addr = rec.instr.addr + 4 * word
    pool = [v for v in by_addr.get(addr, [0]) if v != rec.loaded[word]] or [0]
    loaded = list(rec.loaded)
    loaded[word] = rng.choice(pool)
    records = [list(p) for p in execution.records]
    records[pid][idx] = rec.with_loaded(loaded)
    return Execution(records=records)


@FAST
@given(config=small_configs, seed=st.integers(0, 10_000))
def test_engines_agree_on_golden_and_corrupted_runs(config, seed):
    program = generate_program(config, seed=seed)
    execution = TsoMachine(program, seed=seed).run()
    for trace in (execution, _corrupt(execution, seed)):
        _assert_engines_agree(program, trace)


def _verdict(result):
    """The cross-engine comparison key: verdict plus violation kind."""
    kind = result.violation.kind if result.violation is not None else None
    return result.ok, kind


def _strip_engine_header(text):
    return "\n".join(
        line for line in text.splitlines() if "engine=" not in line
    )


def _assert_valid_cycle_witness(result):
    """Every consecutive pair in the reported cycle must be an explicit,
    reasoned edge of the engine's final graph, with a reason the renderer
    can print — the witness is checkable, not just a node list."""
    cycle = result.violation.cycle
    reasons = result.violation.reasons
    assert len(cycle) >= 2
    assert len(reasons) == len(cycle)
    for i, node in enumerate(cycle):
        nxt = cycle[(i + 1) % len(cycle)]
        assert (node, nxt) in result.graph.reasons, (node, nxt)
        assert reasons[i].render()


def _assert_engines_agree(program, trace):
    """Every engine returns the same verdict and violation kind, and
    every cycle it reports is backed by explicit edges in its own final
    graph (the cycles themselves may differ; see the module docstring).

    A pipeline session fed the run (``tests.util.stream_check``) must
    give the same verdict, and a cycle whenever vc reports one.  Where
    vc reports a precheck failure, the session may report a cycle
    instead: it stops at the closing record, before its end-of-stream
    prechecks run.
    """
    results = {
        engine: check(program, trace, engine=engine)
        for engine in sorted(ENGINES)
    }
    verdicts = {engine: _verdict(result) for engine, result in results.items()}
    assert len(set(verdicts.values())) == 1, verdicts
    stream = results["stream"] = stream_check(program, trace)
    ok, kind = verdicts["vc"]
    assert stream.ok == ok
    if kind == ViolationKind.CYCLE:
        assert stream.violation.kind == kind
    for result in results.values():
        if not result.ok and result.violation.cycle:
            _assert_valid_cycle_witness(result)
            assert _strip_engine_header(result.explain())


#: Every shipped fault mechanism except the deliberate-hang scaffolding
#: (which never completes a run, so there is nothing to analyze).
_FAULT_MECHANISMS = sorted(
    {m for ms in MECHANISMS_BY_UNIT.values() for m in ms}
    | {MonitorFalseAlarmFault, TraceCorruptionFault},
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize(
    "mechanism", _FAULT_MECHANISMS, ids=lambda cls: cls.__name__
)
def test_engines_agree_under_fault_injection(mechanism):
    # Every fault configuration, several seeds each: enough runs that
    # most mechanisms produce at least one detected violation, so the
    # agreement below covers the failing path too, not just clean runs.
    config = GeneratorConfig(nprocs=4, ops_per_proc=30, shared_words=3)
    for seed in range(4):
        program = generate_program(config, seed=seed)
        machine = TsoMachine(
            program, seed=seed, faults=[mechanism(rate=0.3)]
        )
        _assert_engines_agree(program, machine.run())


@FAST
@given(config=small_configs, seed=st.integers(0, 10_000))
def test_model_hierarchy_on_corrupted_runs(config, seed):
    # SC-pass implies TSO-pass implies PSO-pass (the models only relax).
    program = generate_program(config, seed=seed)
    trace = _corrupt(TsoMachine(program, seed=seed).run(), seed)
    sc_ok = check(program, trace, model=SC).ok
    tso_ok = check(program, trace, model=TSO).ok
    pso_ok = check(program, trace, model=PSO).ok
    if sc_ok:
        assert tso_ok
    if tso_ok:
        assert pso_ok


tiny_configs = st.builds(
    GeneratorConfig,
    nprocs=st.integers(2, 3),
    ops_per_proc=st.integers(2, 5),
    shared_words=st.integers(1, 3),
    mix=st.just(PLAIN_MIX),
)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=tiny_configs, seed=st.integers(0, 10_000))
def test_polynomial_checker_sound_wrt_complete(config, seed):
    # On tiny corrupted runs: if the polynomial checker flags, the
    # complete procedure must agree the outcome is invalid; if the
    # complete procedure finds a witness, the polynomial checker must
    # have passed it.
    program = generate_program(config, seed=seed)
    trace = _corrupt(TsoMachine(program, seed=seed).run(), seed)
    aprog = expand(trace, initial=program.initial, word_names=program.word_names)
    poly = VectorClockChecker().run(aprog)
    truth = complete_check(aprog, max_states=200_000)
    if not truth.decided:
        return  # budget blown: nothing to compare
    if not poly.ok:
        assert truth.valid is False, "polynomial checker false-positive!"
    if truth.valid is True:
        assert poly.ok


@FAST
@given(config=small_configs, seed=st.integers(0, 10_000))
def test_trace_serialization_round_trips(config, seed):
    program = generate_program(config, seed=seed)
    execution = TsoMachine(program, seed=seed).run()
    reloaded = Execution.load(execution.dump())
    assert reloaded.records == execution.records


@FAST
@given(config=small_configs, seed=st.integers(0, 10_000))
def test_unique_store_values_per_address(config, seed):
    program = generate_program(config, seed=seed)
    execution = TsoMachine(program, seed=seed).run()
    seen = set()
    for proc in execution.records:
        for rec in proc:
            if rec.stored is None:
                continue
            for i, value in enumerate(rec.stored):
                key = (rec.instr.addr + 4 * i, value)
                assert key not in seen
                seen.add(key)


@FAST
@given(seed=st.integers(0, 10_000), nprocs=st.integers(1, 6),
       ops=st.integers(1, 60))
def test_generator_budget_exact_and_deterministic(seed, nprocs, ops):
    config = GeneratorConfig(nprocs=nprocs, ops_per_proc=ops, shared_words=4)
    a = generate_program(config, seed=seed)
    b = generate_program(config, seed=seed)
    assert a.threads == b.threads
    assert all(len(t) == ops for t in a.threads)


@FAST
@given(config=small_configs, seed=st.integers(0, 10_000),
       garbage=st.integers(10**9, 10**10))
def test_unwritten_value_always_flagged(config, seed, garbage):
    # Inject a value that no store could have produced: the analysis
    # must fail, whatever else happens (Sec. 4's up-front check).
    program = generate_program(config, seed=seed)
    execution = TsoMachine(program, seed=seed).run()
    records = [list(p) for p in execution.records]
    for pid, proc in enumerate(records):
        for idx, rec in enumerate(proc):
            if rec.loaded:
                loaded = list(rec.loaded)
                loaded[0] = garbage
                records[pid][idx] = rec.with_loaded(loaded)
                result = check(
                    program, Execution(records=records)
                )
                assert not result.ok
                return
