"""Tests for the pipeline's online checker (``repro.core.stream``).

Three concerns, in rising order of streaming-specificity:

* batch parity — a session fed a finished run processor by processor
  (``tests.util.stream_check``) must agree with the vc engine on the
  verdict, and on the violation kind whenever vc reports a cycle (the
  property suite covers this at scale; here are deterministic spot
  checks including the witness format);
* session semantics — live feeding reports the violation at the record
  that closes the cycle, not at end of run, and pipelining with the
  machine via the observer hook yields the same trace ``run()`` returns;
* closure — the streamed graph has the same transitive closure as the
  vc engine's.
"""

import functools

import pytest

from repro.core.api import check
from repro.core.graph import compute_closure, topological_order
from repro.core.policy import PSO, SC, TSO, MemoryModel
from repro.core.result import ViolationKind
from repro.core.stream import StreamSession, stream_check_machine
from repro.core.vc import VectorClockChecker
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.model.expansion import expand
from repro.model.program import parse_litmus
from repro.sim.machine import MachineConfig, TsoMachine
from tests.core.test_vc import _FAULTS, _run_pairs
from tests.util import golden_run, stream_check


def _session(program, nprocs):
    return StreamSession(
        TSO, sorted(program.addresses()), initial=program.initial,
        word_names=program.word_names, nprocs=nprocs,
    )


class TestBatchParity:
    def test_fig3_violation_matches_vc(self):
        text = """
            P0: S[B]#91 ; S[A]#1 ; L[A]=2
            P1: S[A]#2
            P2: S[B]#92 ; L[A]=2 ; L[B]=92
            P3: L[B]=92 ; L[B]=91
        """
        program, execution = parse_litmus(text)
        stream = stream_check(program, execution)
        vc = check(program, execution, engine="vc")
        assert not stream.ok and not vc.ok
        assert stream.violation.kind == vc.violation.kind == ViolationKind.CYCLE
        # Same witness contract: a closed cycle with per-edge reasons.
        assert len(stream.violation.cycle) >= 2
        assert len(stream.violation.reasons) == len(stream.violation.cycle)
        assert "cycle" in stream.explain()

    def test_unmapped_value_kind_matches_batch(self):
        result = stream_check(*parse_litmus("P0: L[A]=42"))
        assert not result.ok
        assert result.violation.kind == ViolationKind.UNMAPPED_VALUE
        assert "42" in result.violation.message

    def test_golden_runs_pass_under_each_model(self):
        program, execution, _machine = golden_run(seed=21)
        for model in (TSO, PSO):
            result = stream_check(program, execution, model)
            assert result.ok, result.explain()
        # SC machine runs pass the SC stream checker too.
        program, execution, _machine = golden_run(
            seed=22, machine_config=MachineConfig(sc_mode=True)
        )
        assert stream_check(program, execution, SC).ok

    def test_stats_populated(self):
        program, execution, _machine = golden_run(seed=23)
        stats = stream_check(program, execution).stats
        assert stats.nodes > 0 and stats.static_edges > 0
        assert stats.observed_edges > 0
        # A passing session admits every node of the run.
        assert stats.live_peak == stats.nodes

    def test_unsupported_model_rejected_up_front(self):
        rmo_like = MemoryModel(
            "RMOish", load_load=False, load_store=False,
            store_store=False, store_load=False,
        )
        with pytest.raises(ValueError, match="load_load"):
            StreamSession(rmo_like, [0], nprocs=1)


class TestStreamSession:
    def test_violation_reported_at_closing_record(self):
        # The cycle closes at P1's second load; the two trailing records
        # must not be needed to surface it.
        program, execution = parse_litmus("""
            P0: S[A]#1 ; S[A]#2 ; S[B]#7
            P1: L[A]=2 ; L[A]=1 ; L[B]=7 ; L[B]=7
        """)
        session = _session(program, len(execution.records))
        fed = []
        for pid, records in enumerate(execution.records):
            for rec in records:
                fed.append((pid, session.feed(pid, rec)))
        # No verdict while only P0's stores were in.
        assert all(v is None for pid, v in fed if pid == 0)
        p1 = [v for pid, v in fed if pid == 1]
        assert p1[0] is None                      # L[A]=2: consistent so far
        assert p1[1] is not None                  # L[A]=1 closes the cycle
        assert p1[1].kind == ViolationKind.CYCLE
        assert p1[2] is p1[1] and p1[3] is p1[1]  # sticky thereafter
        result = session.finish()
        assert not result.ok
        assert result.violation is p1[1]

    def test_session_verdict_matches_batch_on_golden_run(self):
        program, execution, _machine = golden_run(seed=25)
        session = _session(program, len(execution.records))
        # Round-robin feed: a legal arrival order that stream_check's
        # proc-by-proc replay never exercises.
        cursors = [0] * len(execution.records)
        remaining = sum(len(r) for r in execution.records)
        pid = 0
        while remaining:
            if cursors[pid] < len(execution.records[pid]):
                session.feed(pid, execution.records[pid][cursors[pid]])
                cursors[pid] += 1
                remaining -= 1
            pid = (pid + 1) % len(execution.records)
        result = session.finish()
        assert result.ok, result.explain()

    def test_unresolved_load_is_unmapped_at_finish(self):
        program, execution = parse_litmus("P0: S[A]#1 ; L[A]=1")
        session = _session(program, 1)
        # Feed only the load: its store never arrives.
        assert session.feed(0, execution.records[0][1]) is None
        result = session.finish()
        assert not result.ok
        assert result.violation.kind == ViolationKind.UNMAPPED_VALUE

    def test_record_from_undeclared_processor_is_rejected(self):
        program, execution = parse_litmus("""
            P0: S[A]#1
            P1: L[A]=1
        """)
        session = _session(program, 1)
        assert session.feed(0, execution.records[0][0]) is None
        with pytest.raises(ValueError, match="nprocs=1"):
            session.feed(1, execution.records[1][0])
        empty = _session(program, 0)
        with pytest.raises(ValueError, match="nprocs=0"):
            empty.feed(0, execution.records[0][0])


class TestMachinePipelining:
    def test_stream_check_machine_matches_run(self):
        config = GeneratorConfig(nprocs=4, ops_per_proc=60, shared_words=4)
        program = generate_program(config, seed=26)
        machine = TsoMachine(program, seed=26)
        result, execution = stream_check_machine(machine)
        assert result.ok, result.explain()
        assert execution is not None
        assert result.stats.live_peak == result.stats.nodes
        # The streamed trace is the machine's observed trace: a separate
        # identically-seeded batch run produces exactly the same records.
        batch = TsoMachine(program, seed=26).run()
        assert execution.records == batch.records

    def test_observer_sees_every_record_in_retire_order(self):
        program = generate_program(
            GeneratorConfig(nprocs=2, ops_per_proc=20, shared_words=2), seed=27
        )
        seen = []
        machine = TsoMachine(
            program, seed=27,
            observer=lambda pid, idx, rec: seen.append((pid, idx)),
        )
        execution = machine.run()
        total = sum(len(r) for r in execution.records)
        assert len(seen) == total
        # Per-cpu indices arrive in order 0, 1, 2, ...
        for pid in range(2):
            indices = [i for p, i in seen if p == pid]
            assert indices == list(range(len(indices)))


@functools.lru_cache(maxsize=1)
def _cases():
    """The closure-equality cases, built once for all three models."""
    return list(_random_runs()) + list(_run_pairs())


def _random_runs():
    """Random 4x80 and 3x40 programs, seeds 1-20, each on a golden TSO
    machine, a golden SC-mode machine and with one seed-chosen fault."""
    sizes = (
        GeneratorConfig(nprocs=4, ops_per_proc=80, shared_words=4),
        GeneratorConfig(nprocs=3, ops_per_proc=40, shared_words=3),
    )
    for seed in range(1, 21):
        machines = (
            {},
            {"config": MachineConfig(sc_mode=True)},
            {"faults": [_FAULTS[seed % len(_FAULTS)](rate=0.3)]},
        )
        for config in sizes:
            program = generate_program(config, seed=seed)
            for kwargs in machines:
                yield program, TsoMachine(program, seed=seed, **kwargs).run()


def _closure(graph):
    order = topological_order(graph)
    assert order is not None
    return compute_closure(graph, order)


class TestSameClosureAsVc:
    @pytest.mark.parametrize("model", [TSO, PSO, SC], ids=lambda m: m.name)
    def test_same_verdict_and_closure(self, model):
        passed = failed = 0
        for program, execution in _cases():
            aprog = expand(
                execution, initial=program.initial,
                word_names=program.word_names,
            )
            vc = VectorClockChecker(model).run(aprog)
            stream = stream_check(program, execution, model)
            assert stream.ok == vc.ok
            if not vc.ok:
                if vc.violation.kind == ViolationKind.CYCLE:
                    assert stream.violation.kind == ViolationKind.CYCLE
                failed += 1
                continue
            assert _closure(stream.graph) == _closure(vc.graph)
            passed += 1
        assert passed and failed
