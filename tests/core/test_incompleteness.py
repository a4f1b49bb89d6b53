"""The Fig. 5 incompleteness story and the complete decision procedure.

The polynomial algorithm is sound but incomplete (Sec. 4): it never
enforces the Order axiom.  These tests pin down both halves:

* the base Fig. 5 outcome is legal, and the fixed point indeed leaves
  ``S[A]#1`` / ``S[A]#2`` unordered;
* the mirrored extension is a genuine violation (the complete procedure
  proves it) that the polynomial checker accepts — the documented miss.

A last class holds the complete procedure's pruning constraints, taken
from the vc engine's graph, to the baseline rules' fixed point.
"""

import pytest

from repro.core.checker import BaselineChecker, observed_edges
from repro.core.complete import _closure_constraints, complete_check
from repro.core.graph import ConstraintGraph, compute_closure, topological_order
from repro.core.policy import PSO, SC, TSO, static_edges
from repro.core.result import EdgeReason
from repro.core.vc import VectorClockChecker
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.generator.litmus import LITMUS_LIBRARY, litmus_by_name
from repro.model.expansion import expand
from repro.sim.machine import TsoMachine
from tests.util import PLAIN_MIX, describe_map, litmus_aprog

BASE = litmus_by_name("fig5_base").text
MIRRORED = litmus_by_name("fig5_mirrored").text


def _fixed_point_graph(aprog, model=TSO):
    """Run the baseline rules to fixed point, returning the graph."""
    from repro.core.result import CheckStats

    checker = BaselineChecker(model)
    graph = ConstraintGraph(aprog)
    for u, v, rule in static_edges(aprog, model):
        graph.add_edge(u, v, EdgeReason(rule))
    for u, v, *reason in observed_edges(aprog):
        graph.add_edge(u, v, *reason)
    assert checker._fixed_point(aprog, graph, CheckStats(nodes=aprog.n)) is None
    return graph


class TestFig5Base:
    def test_polynomial_checkers_accept(self):
        for engine in (BaselineChecker, VectorClockChecker):
            assert engine().run(litmus_aprog(BASE)).ok

    def test_complete_procedure_accepts(self):
        result = complete_check(litmus_aprog(BASE))
        assert result.decided and result.valid is True

    def test_a_stores_left_unordered_at_fixed_point(self):
        # The paper's point: S[A]#1 and S[A]#2 stay unordered although
        # the Order axiom implies S[A]#1 <= S[A]#2.
        aprog = litmus_aprog(BASE)
        graph = _fixed_point_graph(aprog)
        ids = describe_map(aprog)
        s1 = ids["P2.0 S[A]#1"]
        s2 = ids["P0.2 S[A]#2"]
        order = topological_order(graph)
        assert order is not None
        reach_from, _ = compute_closure(graph, order)
        assert not (reach_from[s1] >> s2) & 1
        assert not (reach_from[s2] >> s1) & 1

    def test_b_stores_left_unordered_at_fixed_point(self):
        aprog = litmus_aprog(BASE)
        graph = _fixed_point_graph(aprog)
        ids = describe_map(aprog)
        b3 = ids["P1.0 S[B]#3"]
        b4 = ids["P0.0 S[B]#4"]
        order = topological_order(graph)
        reach_from, _ = compute_closure(graph, order)
        assert not (reach_from[b3] >> b4) & 1
        assert not (reach_from[b4] >> b3) & 1

    def test_every_witness_orders_s1_before_s2(self):
        # Ground truth for the paper's reasoning: in any valid total
        # order, S[A]#1 <= S[A]#2.
        aprog = litmus_aprog(BASE)
        result = complete_check(aprog)
        ids = describe_map(aprog)
        s1 = ids["P2.0 S[A]#1"]
        s2 = ids["P0.2 S[A]#2"]
        witness = result.witness
        assert witness.index(s1) < witness.index(s2)


class TestFig5Mirrored:
    def test_polynomial_checkers_miss_the_violation(self):
        for engine in (BaselineChecker, VectorClockChecker):
            assert engine().run(litmus_aprog(MIRRORED)).ok

    def test_complete_procedure_rejects(self):
        result = complete_check(litmus_aprog(MIRRORED))
        assert result.decided and result.valid is False

    def test_incompleteness_gap_is_exactly_the_order_axiom(self):
        # Once either ordering of the two A-stores is pinned down with an
        # observer thread, the polynomial checker finds the cycle: the
        # only missing ingredient was the store total order.
        pinned = MIRRORED + "\nP4: L[A]=1 ; L[A]=2\n"
        result = VectorClockChecker().run(litmus_aprog(pinned))
        assert not result.ok
        pinned_rev = MIRRORED + "\nP4: L[A]=2 ; L[A]=1\n"
        result_rev = VectorClockChecker().run(litmus_aprog(pinned_rev))
        assert not result_rev.ok


class TestCompleteProcedure:
    def test_rejects_what_polynomial_rejects(self):
        # Soundness consistency on the paper's violating examples.
        for name in ("fig3", "fig6", "fig7", "SB+membars", "MP", "IRIW"):
            aprog = litmus_aprog(litmus_by_name(name).text)
            result = complete_check(aprog)
            assert result.decided and result.valid is False, name

    def test_accepts_legal_outcomes_with_witness(self):
        for name in ("SB", "store-forwarding", "CoRR-ok"):
            aprog = litmus_aprog(litmus_by_name(name).text)
            result = complete_check(aprog)
            assert result.decided and result.valid is True, name
            assert result.witness is not None

    def test_witness_is_a_permutation_of_all_ops(self):
        aprog = litmus_aprog(litmus_by_name("SB").text)
        result = complete_check(aprog)
        assert sorted(result.witness) == list(range(aprog.n))

    def test_witness_respects_program_order_constraints(self):
        aprog = litmus_aprog(litmus_by_name("store-forwarding").text)
        result = complete_check(aprog)
        position = {node: i for i, node in enumerate(result.witness)}
        # Load-load program order must hold in the witness.
        for stream in aprog.per_proc:
            loads = [op for op in stream if aprog.ops[op].is_load]
            for earlier, later in zip(loads, loads[1:]):
                assert position[earlier] < position[later]

    def test_budget_exhaustion_reports_undecided(self):
        aprog = litmus_aprog(MIRRORED)
        result = complete_check(aprog, max_states=3)
        assert not result.decided and result.valid is None

    def test_precheck_failure_is_invalid(self):
        aprog = litmus_aprog("P0: L[A]=77")  # value never written
        result = complete_check(aprog)
        assert result.decided and result.valid is False


def _tiny_runs():
    """A few tiny golden runs (3 procs x 4 ops on 2 words)."""
    config = GeneratorConfig(
        nprocs=3, ops_per_proc=4, shared_words=2, mix=PLAIN_MIX
    )
    for seed in range(8):
        program = generate_program(config, seed=seed)
        execution = TsoMachine(program, seed=seed).run()
        yield f"tiny-{seed}", expand(execution, initial=program.initial)


class TestPruningMatchesBaselineFixedPoint:
    """``complete_check`` prunes its search with the ancestor sets of the
    vc engine's final graph; they must be exactly those of the baseline
    rules' fixed point, so a dropped or extra vc edge shows here."""

    @pytest.mark.parametrize("model", [TSO, PSO, SC], ids=lambda m: m.name)
    def test_reach_to_equals_baseline_ancestors(self, model):
        cases = [(c.name, litmus_aprog(c.text)) for c in LITMUS_LIBRARY]
        cases += list(_tiny_runs())
        compared = 0
        for name, aprog in cases:
            flagged, reach_to = _closure_constraints(aprog, model)
            if flagged:
                continue
            graph = _fixed_point_graph(aprog, model)
            _, full = compute_closure(graph, topological_order(graph))
            expected = [mask & ~(1 << node) for node, mask in enumerate(full)]
            assert reach_to == expected, name
            compared += 1
        assert compared >= 10
