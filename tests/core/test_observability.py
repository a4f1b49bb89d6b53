"""Extra-observability checking (Sec. 3.2): store order closes the gap."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import check
from repro.core.observability import (
    ObservabilityChecker,
    check_with_store_order,
    store_order_edges,
)
from repro.core.policy import TSO
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.generator.litmus import litmus_by_name
from repro.model.program import parse_litmus
from repro.sim.faults import StoreBufferReorderFault
from repro.sim.machine import MachineConfig, TsoMachine
from tests.util import PLAIN_MIX, litmus_aprog


class TestStoreOrderEdges:
    def test_chains_consecutive_commits(self):
        aprog = litmus_aprog("P0: S[A]#1\nP1: S[B]#2")
        s_a = aprog.per_proc[0][0]
        s_b = aprog.per_proc[1][0]
        edges = store_order_edges(aprog, [(0, 1), (4, 2)])
        assert [(u, v) for u, v, _r in edges] == [(s_a, s_b)]
        assert edges[0][2].rule == "obs"

    def test_unknown_events_skipped(self):
        aprog = litmus_aprog("P0: S[A]#1\nP1: S[B]#2")
        edges = store_order_edges(
            aprog, [(0, 1), (0x999, 77), (4, 2)]  # middle event unknown
        )
        assert len(edges) == 1

    def test_empty_order_no_edges(self):
        aprog = litmus_aprog("P0: S[A]#1")
        assert store_order_edges(aprog, []) == []


class TestSoundness:
    @pytest.mark.parametrize("seed", range(5))
    def test_golden_runs_pass_with_their_own_commit_order(self, seed):
        config = GeneratorConfig(nprocs=4, ops_per_proc=60, shared_words=6)
        program = generate_program(config, seed=seed)
        machine = TsoMachine(program, seed=seed)
        execution = machine.run()
        result = check_with_store_order(
            execution, machine.commit_order, initial=program.initial
        )
        assert result.ok, result.explain()

    def test_writeback_mode_commit_order_is_sound_too(self):
        config = GeneratorConfig(nprocs=4, ops_per_proc=60, shared_words=8)
        for seed in range(4):
            program = generate_program(config, seed=seed)
            machine = TsoMachine(
                program, seed=seed,
                config=MachineConfig(writeback=True, cache_lines=2),
            )
            execution = machine.run()
            result = check_with_store_order(
                execution, machine.commit_order, initial=program.initial
            )
            assert result.ok, result.explain()

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_property_golden_plus_observability_passes(self, seed):
        config = GeneratorConfig(
            nprocs=3, ops_per_proc=30, shared_words=4, mix=PLAIN_MIX
        )
        program = generate_program(config, seed=seed)
        machine = TsoMachine(program, seed=seed)
        execution = machine.run()
        assert check_with_store_order(
            execution, machine.commit_order, initial=program.initial
        ).ok


class TestCompletenessUpgrade:
    def test_fig5_mirrored_caught_with_store_order(self):
        # The paper's canonical polynomial miss: once the environment
        # reveals either ordering of the two A-stores, the cycle appears.
        case = litmus_by_name("fig5_mirrored")
        program, execution = parse_litmus(case.text)
        assert check(program, execution, model=TSO).ok  # the documented miss

        aprog = litmus_aprog(case.text)
        s1 = next(op.id for op in aprog.ops
                  if aprog.describe(op.id).endswith("S[A]#1"))
        s2 = next(op.id for op in aprog.ops
                  if aprog.describe(op.id).endswith("S[A]#2"))
        for order in ([(8, 1), (8, 2)], [(8, 2), (8, 1)]):
            # address of A is 8 in this litmus (B=0, D=4, A=8, ...).
            a_addr = aprog.ops[s1].addr
            events = [(a_addr, pair[1]) for pair in order]
            result = check_with_store_order(
                execution, events,
                initial=program.initial, word_names=program.word_names,
            )
            assert not result.ok, f"order {order} should expose the cycle"

    def test_detection_rate_never_drops_with_observability(self):
        # Same faulty runs, checked with and without the commit order:
        # observability can only add detections.
        config = GeneratorConfig(nprocs=4, ops_per_proc=60, shared_words=6)
        plain_hits = obs_hits = 0
        for seed in range(12):
            program = generate_program(config, seed=seed)
            machine = TsoMachine(
                program, seed=seed,
                faults=[StoreBufferReorderFault(rate=0.4)],
            )
            execution = machine.run()
            plain = check(program, execution)
            obs = check_with_store_order(
                execution, machine.commit_order, initial=program.initial
            )
            plain_hits += not plain.ok
            obs_hits += not obs.ok
            if not plain.ok:
                assert not obs.ok  # observability never hides a violation
        assert obs_hits >= plain_hits

    def test_engine_name_reported(self):
        aprog_text = "P0: S[A]#1 ; L[A]=1"
        program, execution = parse_litmus(aprog_text)
        result = check_with_store_order(execution, [], initial=program.initial)
        assert result.engine == "vc+observability"
