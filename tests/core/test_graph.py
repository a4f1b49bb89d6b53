"""Unit tests for the constraint graph: redirection, cycles, witnesses,
the from-scratch closure helpers and the graph dump."""

import dataclasses

import pytest

from repro.core.api import ENGINES, check_litmus
from repro.core.graph import (
    ConstraintGraph,
    CycleDetected,
    compute_closure,
    topological_order,
)
from repro.core.prep import iter_bits
from repro.core.result import EdgeReason
from tests.util import litmus_aprog

R = EdgeReason("test")


def _graph(text):
    aprog = litmus_aprog(text)
    return aprog, ConstraintGraph(aprog)


class TestAddEdge:
    def test_new_edge_returns_true_duplicate_false(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2")
        assert g.add_edge(1, 2, R) is True
        assert g.add_edge(1, 2, R) is False
        assert g.edge_count == 1

    def test_adjacency_both_directions(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2")
        g.add_edge(1, 2, R)
        assert 2 in g.succ[1]
        assert 1 in g.pred[2]
        assert g.has_edge(1, 2) and not g.has_edge(2, 1)

    def test_reason_recorded(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2")
        reason = EdgeReason("R4", "because")
        g.add_edge(1, 2, reason)
        assert g.reason_of(1, 2) is reason


class TestAtomicRedirection:
    def test_incoming_edge_lands_on_group_first(self):
        # SWAP expands to [load; store] — an atomic group.
        aprog, g = _graph("P0: S[A]#1\nP1: SWAP[A]=1,#2")
        store = aprog.per_proc[0][0]
        swap_load, swap_store = aprog.per_proc[1]
        g.add_edge(store, swap_store, R)
        assert g.has_edge(store, swap_load)
        assert not g.has_edge(store, swap_store)

    def test_outgoing_edge_leaves_from_group_last(self):
        aprog, g = _graph("P0: S[A]#1\nP1: SWAP[A]=1,#2")
        store = aprog.per_proc[0][0]
        swap_load, swap_store = aprog.per_proc[1]
        g.add_edge(swap_load, store, R)
        assert g.has_edge(swap_store, store)

    def test_intra_group_edge_not_redirected(self):
        aprog, g = _graph("P0: SWAP[A]=0,#1")
        swap_load, swap_store = aprog.per_proc[0]
        g.add_edge(swap_load, swap_store, R)
        assert g.has_edge(swap_load, swap_store)

    def test_group_to_group_redirection(self):
        aprog, g = _graph("P0: SWAP[A]=0,#1\nP1: SWAP[B]=0,#2")
        a_load, a_store = aprog.per_proc[0]
        b_load, b_store = aprog.per_proc[1]
        g.add_edge(a_load, b_store, R)
        # source -> last of A's group; dest -> first of B's group
        assert g.has_edge(a_store, b_load)


class TestGrow:
    @pytest.mark.parametrize("step", [1, 2, 3, 100])
    def test_growing_in_steps_matches_construction(self, step):
        # A live program grows op by op (the streaming checker) or in
        # larger steps; chunk boundaries that split an atomic group must
        # still leave every member redirected to the group's ends.
        full = litmus_aprog(
            "P0: S[A]#1 ; SWAP[B]=0,#2 ; L[A]=1\n"
            "P1: SWAP[A]=1,#3 ; S[B]#4 ; SWAP[B]=4,#5"
        )
        live = dataclasses.replace(full, ops=[], groups={})
        g = ConstraintGraph(live)
        for start in range(0, full.n, step):
            for op in full.ops[start:start + step]:
                live.ops.append(op)
                if op.group != -1:
                    live.groups.setdefault(op.group, []).append(op.id)
            g.grow()
        batch = ConstraintGraph(full)
        assert g.n == batch.n == full.n
        assert g._group == batch._group
        assert g._red_src == batch._red_src
        assert g._red_dst == batch._red_dst
        assert any(src != i for i, src in enumerate(batch._red_src))


class TestCycles:
    def test_acyclic_graph_has_no_cycle(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2 ; S[A]#3")
        g.add_edge(0, 2, R)
        g.add_edge(2, 3, R)
        assert g.find_cycle() is None

    def test_two_node_cycle_found(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2")
        g.add_edge(1, 2, R)
        g.add_edge(2, 1, R)
        cycle = g.find_cycle()
        assert cycle is not None and sorted(cycle) == [1, 2]

    def test_longer_cycle_found(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2 ; S[A]#3 ; S[B]#4")
        g.add_edge(1, 2, R)
        g.add_edge(2, 3, R)
        g.add_edge(3, 4, R)
        g.add_edge(4, 1, R)
        cycle = g.find_cycle()
        assert cycle is not None and len(cycle) == 4

    def test_cycle_through_edge_witness(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2 ; S[A]#3")
        g.add_edge(1, 2, R)
        g.add_edge(2, 3, R)
        # Adding 3 -> 1 would close a cycle; build the witness for it.
        cycle = g.cycle_through_edge(3, 1)
        assert cycle == [1, 2, 3]

    def test_cycle_through_edge_requires_path(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2")
        with pytest.raises(ValueError):
            g.cycle_through_edge(1, 2)

    def test_shortest_path(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2 ; S[A]#3 ; S[B]#4")
        g.add_edge(1, 2, R)
        g.add_edge(2, 4, R)
        g.add_edge(1, 3, R)
        g.add_edge(3, 4, R)
        path = g.shortest_path(1, 4)
        assert path is not None and len(path) == 3 and path[0] == 1 and path[-1] == 4

    def test_shortest_path_absent(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2")
        assert g.shortest_path(1, 2) is None

    def test_cycle_reasons_align_with_edges(self):
        _, g = _graph("P0: S[A]#1 ; S[B]#2")
        g.add_edge(1, 2, EdgeReason("R6"))
        g.add_edge(2, 1, EdgeReason("R7"))
        reasons = g.cycle_reasons([1, 2])
        assert [r.rule for r in reasons] == ["R6", "R7"]


class TestIterBits:
    def test_empty(self):
        assert list(iter_bits(0)) == []

    def test_single_bits(self):
        for position in (0, 1, 63, 64, 130):
            assert list(iter_bits(1 << position)) == [position]

    def test_increasing_order(self):
        mask = (1 << 3) | (1 << 70) | (1 << 5) | (1 << 200)
        assert list(iter_bits(mask)) == [3, 5, 70, 200]

    def test_dense_word(self):
        assert list(iter_bits(0b1111)) == [0, 1, 2, 3]


class TestTopologicalOrder:
    def _graph(self, n_text, edges):
        aprog = litmus_aprog(n_text)
        graph = ConstraintGraph(aprog)
        for u, v in edges:
            graph.add_edge(u, v, R)
        return graph

    def test_respects_edges(self):
        graph = self._graph("P0: S[A]#1 ; S[B]#2 ; S[A]#3", [(1, 3), (3, 2)])
        order = topological_order(graph)
        assert order is not None
        position = {node: i for i, node in enumerate(order)}
        assert position[1] < position[3] < position[2]

    def test_cycle_returns_none(self):
        graph = self._graph("P0: S[A]#1 ; S[B]#2", [(1, 2), (2, 1)])
        assert topological_order(graph) is None

    def test_all_nodes_present(self):
        graph = self._graph("P0: S[A]#1 ; S[B]#2", [])
        order = topological_order(graph)
        assert sorted(order) == list(range(graph.n))


class TestComputeClosure:
    def test_reachability_both_directions(self):
        aprog = litmus_aprog("P0: S[A]#1 ; S[B]#2 ; S[A]#3")
        graph = ConstraintGraph(aprog)
        graph.add_edge(1, 2, R)
        graph.add_edge(2, 3, R)
        order = topological_order(graph)
        reach_from, reach_to = compute_closure(graph, order)
        assert (reach_from[1] >> 3) & 1  # 1 reaches 3 transitively
        assert (reach_to[3] >> 1) & 1
        assert not (reach_from[3] >> 1) & 1
        # Reflexive by construction.
        for node in range(graph.n):
            assert (reach_from[node] >> node) & 1
            assert (reach_to[node] >> node) & 1


class TestGraphDump:
    def test_dump_lists_nodes_edges_and_cycle(self):
        result = check_litmus("P0: S[A]#1 ; S[A]#2\nP1: L[A]=2 ; L[A]=1")
        text = result.dump_graph()
        assert text.splitlines()[0].startswith("# tsotool analysis graph")
        assert "verdict=FAIL" in text
        assert "node 0" in text
        assert "edge " in text and "[R" in text
        assert "cycle " in text

    def test_pass_dump_has_no_cycle_line(self):
        result = check_litmus("P0: S[A]#1 ; L[A]=1")
        text = result.dump_graph()
        assert "verdict=PASS" in text
        assert "cycle " not in text

    def test_edge_count_matches_stats(self):
        result = check_litmus("P0: S[A]#1 ; M ; L[B]=0\nP1: S[B]#1")
        text = result.dump_graph()
        edge_lines = [l for l in text.splitlines() if l.startswith("edge ")]
        assert len(edge_lines) == result.stats.edges

    def test_all_engines_attach_graphs(self):
        for engine in sorted(ENGINES):
            result = check_litmus("P0: S[A]#1 ; L[A]=1", engine=engine)
            assert result.graph is not None
            assert "node" in result.dump_graph()
