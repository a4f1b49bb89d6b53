"""Unit tests for the closure engine's building blocks and graph dump."""

import pytest

from repro.core.closure import compute_closure, iter_bits, topological_order
from repro.core.graph import ConstraintGraph
from repro.core.result import EdgeReason
from repro.core.api import ENGINES, check_litmus
from tests.util import litmus_aprog

R = EdgeReason("test")


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
