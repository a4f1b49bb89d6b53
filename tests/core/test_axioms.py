"""The axiom verifier, and the correctness triangle it closes.

Three independent artifacts must agree:

* the polynomial checker (rules R1–R7),
* the exponential complete search (witness orders),
* this literal axiom verifier (no shared machinery with either).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.axioms import verify_witness
from repro.core.complete import complete_check
from repro.core.policy import PSO, SC, TSO
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.generator.litmus import LITMUS_LIBRARY
from repro.model.expansion import expand
from repro.sim.machine import MachineConfig, TsoMachine
from tests.util import PLAIN_MIX, litmus_aprog


class TestVerifierBasics:
    def test_accepts_a_trivial_valid_order(self):
        aprog = litmus_aprog("P0: S[A]#1 ; L[A]=1")
        # root, store, load — the obvious order.
        order = [aprog.roots[0], aprog.per_proc[0][0], aprog.per_proc[0][1]]
        assert verify_witness(aprog, order) == []

    def test_rejects_non_permutation(self):
        aprog = litmus_aprog("P0: S[A]#1 ; L[A]=1")
        problems = verify_witness(aprog, [0, 0, 1])
        assert problems and "permutation" in problems[0]

    def test_flags_storestore_reversal(self):
        aprog = litmus_aprog("P0: S[A]#1 ; S[B]#2")
        root_a, root_b = aprog.roots[0], aprog.roots[4]
        s1, s2 = aprog.per_proc[0]
        problems = verify_witness(aprog, [root_a, root_b, s2, s1])
        assert any("StoreStore" in p for p in problems)

    def test_storestore_reversal_fine_under_pso(self):
        aprog = litmus_aprog("P0: S[A]#1 ; S[B]#2")
        root_a, root_b = aprog.roots[0], aprog.roots[4]
        s1, s2 = aprog.per_proc[0]
        assert verify_witness(aprog, [root_a, root_b, s2, s1], model=PSO) == []

    def test_flags_value_axiom_break(self):
        aprog = litmus_aprog("P0: S[A]#1\nP1: L[A]=0")
        root = aprog.roots[0]
        store = aprog.per_proc[0][0]
        load = aprog.per_proc[1][0]
        # Load placed after the store, yet it returned the initial value.
        problems = verify_witness(aprog, [root, store, load])
        assert any("Value-axiom" in p for p in problems)
        # Placed before the store, the same outcome is fine.
        assert verify_witness(aprog, [root, load, store]) == []

    def test_store_buffer_term_honoured(self):
        # The load returns its own po-earlier store placed *after* it —
        # legal: the store is in the buffer.
        aprog = litmus_aprog("P0: S[A]#1 ; L[A]=1")
        root = aprog.roots[0]
        store, load = aprog.per_proc[0]
        assert verify_witness(aprog, [root, load, store]) == []

    def test_flags_atomicity_break(self):
        aprog = litmus_aprog("init A=0\nP0: SWAP[A]=0,#1\nP1: S[A]#5")
        root = aprog.roots[0]
        swap_load, swap_store = aprog.per_proc[0]
        foreign = aprog.per_proc[1][0]
        problems = verify_witness(
            aprog, [root, swap_load, foreign, swap_store]
        )
        assert any("Atomicity" in p for p in problems)

    def test_membar_pairs_always_preserved(self):
        aprog = litmus_aprog("P0: S[A]#1 ; M ; L[B]=0")
        root_a, root_b = aprog.roots[0], aprog.roots[4]
        store, membar, load = aprog.per_proc[0]
        problems = verify_witness(aprog, [root_a, root_b, load, membar, store])
        assert any("Membar" in p for p in problems)


class TestTriangle:
    @pytest.mark.parametrize(
        "case",
        [c for c in LITMUS_LIBRARY if c.complete_valid is True],
        ids=lambda c: c.name,
    )
    def test_complete_witnesses_satisfy_the_axioms(self, case):
        aprog = litmus_aprog(case.text)
        result = complete_check(aprog)
        assert result.valid is True
        assert verify_witness(aprog, result.witness) == [], case.name

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_witnesses_of_tiny_golden_runs_verify(self, seed):
        config = GeneratorConfig(
            nprocs=2, ops_per_proc=4, shared_words=2, mix=PLAIN_MIX
        )
        program = generate_program(config, seed=seed)
        execution = TsoMachine(program, seed=seed).run()
        aprog = expand(execution, initial=program.initial)
        result = complete_check(aprog, max_states=200_000)
        if not result.decided:
            return
        assert result.valid is True  # golden machine
        assert verify_witness(aprog, result.witness) == []

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_shuffles_that_verify_imply_polynomial_pass(self, seed):
        # Any random order the verifier accepts is a genuine witness, so
        # the (sound) polynomial checker must accept the outcome too.
        from repro.core.vc import VectorClockChecker

        config = GeneratorConfig(
            nprocs=2, ops_per_proc=4, shared_words=2, mix=PLAIN_MIX
        )
        program = generate_program(config, seed=seed)
        execution = TsoMachine(program, seed=seed).run()
        aprog = expand(execution, initial=program.initial)
        rng = random.Random(seed)
        order = list(range(aprog.n))
        rng.shuffle(order)
        if verify_witness(aprog, order) == []:
            assert VectorClockChecker().run(aprog).ok

    def test_sc_witness_stricter_than_tso(self):
        # An order valid under TSO thanks to the buffer term fails SC.
        aprog = litmus_aprog("P0: S[A]#1 ; L[A]=1")
        root = aprog.roots[0]
        store, load = aprog.per_proc[0]
        buffered = [root, load, store]
        assert verify_witness(aprog, buffered, model=TSO) == []
        assert verify_witness(aprog, buffered, model=SC) != []
