"""Golden pins for edge-reason text, rendered at the parent of the
lazy-reason change.

The R4–R7 reasons are built deferred (:meth:`EdgeReason.deferred`) and
formatted only when a witness reads them.  These pins hold the rendered
text byte-identical to the eagerly formatted reasons it replaced: the
sha1 of every ``(u, v, reason.render())`` of a paper-scale vc check,
in insertion order, under TSO, PSO and SC, the same sha1 for one
pipeline session (fed proc by proc through ``tests.util.stream_check``),
and the full ``explain()`` witness of the paper's Fig. 3
and Fig. 7 on every engine.
"""

import hashlib
import pickle

import pytest

from repro.core.api import check
from repro.core.checker import r6_reason
from repro.core.policy import PSO, SC, TSO
from repro.core.result import EdgeReason
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.generator.litmus import litmus_by_name
from repro.sim.machine import TsoMachine
from repro.model.program import parse_litmus
from tests.util import check_on, paper_scale_run, stream_check

#: sha1 of vc's edge list at paper seed 1, per model.
PAPER_SEED1_EDGES = {
    "TSO": "582cbeac4838dbb5361867ac0b4e34cb8ea1dd18",
    "PSO": "7e44e82ee7df79f56d6391aa849817d30fc6a1b5",
    "SC": "5c8e7bfc741c29d21b29fb4299a7fb9b811fd257",
}

#: sha1 of a pipeline session's edge list for an 8x200 run (seed 1).
#: The session drains the rows the floods move in the order they
#: were first stamped, so this also pins the floods' visiting order.
STREAM_8X200_EDGES = "34a2ed727075624c8afb998aa82429e9811471dc"

#: ``explain()`` of each (figure, engine) witness under TSO.
WITNESSES = {
    ("fig3", "vc"): "\n".join([
        'TSO check: FAIL (11 nodes, 12 edges, 1 iterations, engine=vc)',
        'violation: the inferred global memory order contains a cycle of 2 operation(s): P0.0 S[B]#91 <= P2.0 S[B]#92 <= P0.0 S[B]#91',
        'cycle in the inferred global memory order:',
        '  P0.0 S[B]#91  <=  P2.0 S[B]#92    [R6: store n2 precedes load n8, which observed store n6 (Value axiom)]',
        '  P2.0 S[B]#92  <=  P0.0 S[B]#91    [R6: store n6 precedes load n10, which observed store n2 (Value axiom)]',
    ]),
    ("fig3", "stream"): "\n".join([
        'TSO check: FAIL (11 nodes, 13 edges, 4 iterations, engine=stream)',
        'violation: the inferred global memory order contains a cycle of 2 operation(s): P0.0 S[B]#91 <= P2.0 S[B]#92 <= P0.0 S[B]#91',
        'cycle in the inferred global memory order:',
        '  P0.0 S[B]#91  <=  P2.0 S[B]#92    [R6: store n2 precedes load n8, which observed store n6 (Value axiom)]',
        '  P2.0 S[B]#92  <=  P0.0 S[B]#91    [R6: store n6 precedes load n10, which observed store n2 (Value axiom)]',
    ]),
    ("fig3", "baseline"): "\n".join([
        'TSO check: FAIL (11 nodes, 17 edges, 1 iterations, engine=baseline)',
        'violation: the inferred global memory order contains a cycle of 5 operation(s): P0.0 S[B]#91 <= P0.1 S[A]#1 <= P1.0 S[A]#2 <= P2.1 L[A]=2 <= P2.2 L[B]=92 <= P0.0 S[B]#91',
        'cycle in the inferred global memory order:',
        '  P0.0 S[B]#91  <=  P0.1 S[A]#1    [R2: program order]',
        '  P0.1 S[A]#1  <=  P1.0 S[A]#2    [R5: P0.2 L[A]=2 observed P1.0 S[A]#2 despite the program-order-earlier P0.1 S[A]#1; by the Value axiom that earlier store must be globally ordered before the observed one]',
        '  P1.0 S[A]#2  <=  P2.1 L[A]=2    [R4: P2.1 L[A]=2 observed the value of P1.0 S[A]#2, which is not an earlier store of the same processor, so the store must be globally visible before the load binds (Value axiom)]',
        '  P2.1 L[A]=2  <=  P2.2 L[B]=92    [R1: program order]',
        '  P2.2 L[B]=92  <=  P0.0 S[B]#91    [R7: P2.2 L[B]=92 observed P2.0 S[B]#92 which precedes P0.0 S[B]#91; had the load bound after the later store it could not have observed the earlier one (Value axiom)]',
    ]),
    ("fig7", "vc"): "\n".join([
        'TSO check: FAIL (10 nodes, 12 edges, 1 iterations, engine=vc)',
        'violation: the inferred global memory order contains a cycle of 6 operation(s): P1.1 L[B]=0 <= P1.2 S[B]#1 <= P1.3 L[A]=0 <= P0.1 L[A]=0 <= P0.2 S[A]#1 <= P0.3 L[B]=0 <= P1.1 L[B]=0',
        'cycle in the inferred global memory order:',
        '  P1.1 L[B]=0  <=  P1.2 S[B]#1    [R1: program order]',
        '  P1.2 S[B]#1  <=  P1.3 L[A]=0    [R1: program order]',
        '  P1.3 L[A]=0  <=  P0.1 L[A]=0    [R7: load n9 observed store n0, which precedes store n4 (Value axiom)]',
        '  P0.1 L[A]=0  <=  P0.2 S[A]#1    [R1: program order]',
        '  P0.2 S[A]#1  <=  P0.3 L[B]=0    [R1: program order]',
        '  P0.3 L[B]=0  <=  P1.1 L[B]=0    [R7: load n5 observed store n1, which precedes store n8 (Value axiom)]',
    ]),
    ("fig7", "stream"): "\n".join([
        'TSO check: FAIL (10 nodes, 13 edges, 5 iterations, engine=stream)',
        'violation: the inferred global memory order contains a cycle of 3 operation(s): init[A]#0 <= P0.1 L[A]=0 <= P0.2 S[A]#1 <= init[A]#0',
        'cycle in the inferred global memory order:',
        '  init[A]#0  <=  P0.1 L[A]=0    [init: program order]',
        '  P0.1 L[A]=0  <=  P0.2 S[A]#1    [R1: program order]',
        '  P0.2 S[A]#1  <=  init[A]#0    [R6: store n4 precedes load n9, which observed store n0 (Value axiom)]',
    ]),
    ("fig7", "baseline"): "\n".join([
        'TSO check: FAIL (10 nodes, 14 edges, 1 iterations, engine=baseline)',
        'violation: the inferred global memory order contains a cycle of 6 operation(s): P0.1 L[A]=0 <= P0.2 S[A]#1 <= P0.3 L[B]=0 <= P1.1 L[B]=0 <= P1.2 S[B]#1 <= P1.3 L[A]=0 <= P0.1 L[A]=0',
        'cycle in the inferred global memory order:',
        '  P0.1 L[A]=0  <=  P0.2 S[A]#1    [R1: program order]',
        '  P0.2 S[A]#1  <=  P0.3 L[B]=0    [R1: program order]',
        '  P0.3 L[B]=0  <=  P1.1 L[B]=0    [R7: P0.3 L[B]=0 observed init[B]#0 which precedes P1.2 S[B]#1; had the load bound after the later store it could not have observed the earlier one (Value axiom)]',
        '  P1.1 L[B]=0  <=  P1.2 S[B]#1    [R1: program order]',
        '  P1.2 S[B]#1  <=  P1.3 L[A]=0    [R1: program order]',
        '  P1.3 L[A]=0  <=  P0.1 L[A]=0    [R7: P1.3 L[A]=0 observed init[A]#0 which precedes P0.2 S[A]#1; had the load bound after the later store it could not have observed the earlier one (Value axiom)]',
    ]),
}


def edge_list_sha1(result) -> str:
    digest = hashlib.sha1()
    for (u, v), reason in result.graph.reasons.items():
        digest.update(f"{u} {v} {reason.render()}\n".encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def paper_seed1():
    return paper_scale_run(1)


@pytest.mark.parametrize("model", [TSO, PSO, SC], ids=lambda m: m.name)
def test_paper_scale_edge_list(paper_seed1, model):
    program, execution = paper_seed1
    result = check(program, execution, model=model, engine="vc")
    assert edge_list_sha1(result) == PAPER_SEED1_EDGES[model.name]


def test_stream_edge_list():
    from repro.analysis.runtime import _MEASURE_MIX

    config = GeneratorConfig(
        nprocs=8, ops_per_proc=200, shared_words=8,
        mix=_MEASURE_MIX, loop_prob=0.0,
    )
    program = generate_program(config, seed=1)
    execution = TsoMachine(program, seed=1).run()
    assert edge_list_sha1(stream_check(program, execution)) == STREAM_8X200_EDGES


@pytest.mark.parametrize("figure, engine", sorted(WITNESSES))
def test_witness_text(figure, engine):
    program, execution = parse_litmus(litmus_by_name(figure).text)
    result = check_on(engine, program, execution)
    assert result.explain() == WITNESSES[figure, engine]


class TestEdgeReasonSurface:
    TEXT = "store n2 precedes load n8, which observed store n6 (Value axiom)"

    def test_deferred_equals_eager(self):
        lazy = r6_reason(2, 8, 6)
        eager = EdgeReason("R6", self.TEXT)
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager) == hash(("R6", self.TEXT))
        assert lazy.rule == "R6"
        assert lazy.detail == self.TEXT
        assert lazy.render() == f"R6: {self.TEXT}"

    def test_inequality(self):
        assert r6_reason(2, 8, 6) != r6_reason(2, 8, 7)
        assert EdgeReason("R6", self.TEXT) != EdgeReason("R7", self.TEXT)
        assert EdgeReason("R4") != ("R4", "")
        assert EdgeReason("R4") == EdgeReason("R4", "")

    def test_repr(self):
        assert repr(r6_reason(2, 8, 6)) == (
            f"EdgeReason(rule='R6', detail={self.TEXT!r})"
        )
        assert repr(EdgeReason("R4")) == "EdgeReason(rule='R4', detail='')"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for reason in (r6_reason(2, 8, 6), EdgeReason("R1", "program order")):
            copy = pickle.loads(pickle.dumps(reason, protocol))
            assert type(copy) is EdgeReason
            assert copy == reason
            assert copy.render() == reason.render()
