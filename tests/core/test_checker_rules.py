"""Rule-level tests of the Fig. 2 algorithm (R4–R7), on hand-built traces.

Each test pins down one inference rule by constructing the smallest
outcome where the rule's edge is the difference between pass and fail.
"""

import pytest

from repro.core.api import check_litmus
from repro.core.checker import BaselineChecker, observed_edges, po_prev_stores
from repro.core.reasons import RULE_NAMES
from repro.core.result import ViolationKind
from repro.core.vc import VectorClockChecker
from tests.util import litmus_aprog

ENGINES = [BaselineChecker, VectorClockChecker]


def _rules_of(text):
    aprog = litmus_aprog(text)
    return aprog, [
        (u, v, RULE_NAMES[code]) for u, v, code, *_ids in observed_edges(aprog)
    ]


class TestR4:
    def test_r4_edge_for_cross_processor_read(self):
        aprog, edges = _rules_of("P0: S[A]#1\nP1: L[A]=1")
        store = aprog.per_proc[0][0]
        load = aprog.per_proc[1][0]
        assert (store, load, "R4") in edges

    def test_no_r4_edge_for_own_earlier_store(self):
        # The Value axiom lets a processor see its own buffered store
        # before it is globally visible, so no S <= L edge may be added.
        aprog, edges = _rules_of("P0: S[A]#1 ; L[A]=1")
        assert all(rule != "R4" for _u, _v, rule in edges)

    def test_r4_edge_for_initial_value_read(self):
        aprog, edges = _rules_of("P0: L[A]=0")
        root = aprog.roots[0]
        load = aprog.per_proc[0][0]
        assert (root, load, "R4") in edges

    def test_r4_edge_for_own_later_store_creates_violation(self):
        # Reading a value one's own *later* store will write: R4 adds the
        # store <= load edge, LoadOp adds load <= store — a cycle.
        for engine in ENGINES:
            result = engine().run(litmus_aprog("P0: L[A]=1 ; S[A]#1"))
            assert not result.ok
            assert result.violation.kind == ViolationKind.CYCLE


class TestR5:
    def test_po_prev_stores_map(self):
        aprog = litmus_aprog("P0: S[A]#1 ; S[A]#2 ; L[A]=2 ; L[B]=0")
        prev = po_prev_stores(aprog)
        load_a = aprog.per_proc[0][2]
        load_b = aprog.per_proc[0][3]
        s2 = aprog.per_proc[0][1]
        assert prev[load_a] == s2
        assert load_b not in prev

    def test_r5_orders_overwritten_store_before_observed(self):
        # P0's load skips its own last store and reads P1's value: the own
        # store must be ordered before the observed one.
        aprog, edges = _rules_of("P0: S[A]#1 ; L[A]=2\nP1: S[A]#2")
        own = aprog.per_proc[0][0]
        other = aprog.per_proc[1][0]
        assert (own, other, "R5") in edges

    def test_r5_detects_lost_own_store(self):
        # A processor that stores and then reads the *initial* value: R5
        # orders its store before the root store, closing a cycle with
        # the init edge.
        for engine in ENGINES:
            result = engine().run(litmus_aprog("P0: S[A]#1 ; L[A]=0"))
            assert not result.ok

    def test_no_r5_edge_when_reading_own_store(self):
        aprog, edges = _rules_of("P0: S[A]#1 ; L[A]=1")
        assert all(rule != "R5" for _u, _v, rule in edges)


class TestR6:
    # R6: any same-address store predecessor of L precedes map(L).
    TEXT = """
        P0: S[A]#1 ; M ; L[A]=2
        P1: S[A]#2
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_r6_outcome_is_legal(self, engine):
        # S1 <= L (membar), L observed S2, so R6 infers S1 <= S2 — which
        # is satisfiable; the run passes.
        assert engine().run(litmus_aprog(self.TEXT)).ok

    @pytest.mark.parametrize("engine", ENGINES)
    def test_r6_cycle_when_observation_contradicts(self, engine):
        # Second observer sees the two stores in the opposite order:
        # R6 derives both S1 <= S2 and S2 <= S1.
        text = """
            P0: S[A]#1
            P1: S[A]#2
            P2: L[A]=1 ; L[A]=2
            P3: L[A]=2 ; L[A]=1
        """
        result = engine().run(litmus_aprog(text))
        assert not result.ok
        if isinstance(engine(), VectorClockChecker):
            # The vc engine's witness is the first closing edge —
            # an R6 inference; the baseline may surface another cycle.
            cycle_rules = {r.rule for r in result.violation.reasons}
            assert "R6" in cycle_rules


class TestR7:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_r7_detects_fenced_store_buffering(self, engine):
        # SB with membars: both loads read the initial value; R7 places
        # each load before the other processor's store, closing the cycle
        # through the membars.
        text = """
            P0: S[A]#1 ; M ; L[B]=0
            P1: S[B]#1 ; M ; L[A]=0
        """
        result = engine().run(litmus_aprog(text))
        assert not result.ok

    @pytest.mark.parametrize("engine", ENGINES)
    def test_r7_spares_unfenced_store_buffering(self, engine):
        text = """
            P0: S[A]#1 ; L[B]=0
            P1: S[B]#1 ; L[A]=0
        """
        assert engine().run(litmus_aprog(text)).ok

    @pytest.mark.parametrize("engine", ENGINES)
    def test_r7_iriw(self, engine):
        # IRIW needs two chained R7 inferences — exercises the fixed point.
        text = """
            P0: S[A]#1
            P1: S[B]#1
            P2: L[A]=1 ; L[B]=0
            P3: L[B]=1 ; L[A]=0
        """
        result = engine().run(litmus_aprog(text))
        assert not result.ok


class TestFixedPoint:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_iteration_count_reported(self, engine):
        result = engine().run(litmus_aprog("P0: S[A]#1 ; L[A]=1"))
        assert result.ok
        assert result.stats.iterations >= 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_stats_edges_partitioned(self, engine):
        result = engine().run(
            litmus_aprog("P0: S[A]#1 ; M ; L[A]=1 ; L[B]=0\nP1: S[B]#9 ; L[A]=1")
        )
        stats = result.stats
        assert stats.static_edges > 0
        assert stats.observed_edges > 0
        assert stats.edges == (
            stats.static_edges + stats.observed_edges + stats.inferred_edges
        )

    def test_inferred_rules_can_be_disabled(self):
        # The rule ablation: without R6/R7 the IRIW violation is missed.
        text = """
            P0: S[A]#1
            P1: S[B]#1
            P2: L[A]=1 ; L[B]=0
            P3: L[B]=1 ; L[A]=0
        """
        full = VectorClockChecker().run(litmus_aprog(text))
        ablated = VectorClockChecker(inferred_rules=False).run(litmus_aprog(text))
        assert not full.ok
        assert ablated.ok  # blind without the inferred edges
