"""Pins for the outputs a check's edge reasons feed, and the order in
which a batch check records its edges.

The pins were rendered before the edge log replaced the ``(u, v)``
reason dict: the sha1 of ``dump_graph()`` and of the page
``tsotool check --html`` writes for the paper's Fig. 3 and Fig. 7 under
vc and baseline, and the ``explain()`` witness of Fig. 3 checked with an
observed store order (whose ``obs`` reasons are kept as given).  The
order test holds the log to static edges, then observed edges, then
inferred edges, which the per-rule edge counts are read off, and the
last test reads ``graph.reasons`` as a mapping over the log.
"""

import hashlib

import pytest

from repro.cli import main
from repro.core.api import ENGINES
from repro.core.graph import ConstraintGraph
from repro.core.reasons import R1, R6, STATIC_REASONS, r6_reason
from repro.core.result import EdgeReason
from repro.core.observability import check_with_store_order
from repro.generator.litmus import LITMUS_LIBRARY, litmus_by_name
from repro.model.program import parse_litmus
from tests.util import check_on, litmus_aprog, paper_scale_run

#: sha1 of ``dump_graph()`` per (figure, engine).
DUMP_GRAPH = {
    ("fig3", "baseline"): "9b91a40f049b8000a3d3cac75857236be47f9eb2",
    ("fig3", "vc"): "66e64ba482434c39cd47714c31794a7dc4ecd977",
    ("fig7", "baseline"): "8a09c74723caa4bfcc27a192b20e5c1d1d923cfc",
    ("fig7", "vc"): "1f1d072e3c54b151f2a4f3074d48ea1b92ceb48a",
}

#: sha1 of the ``tsotool check --html`` page per (figure, engine).
HTML_PAGE = {
    ("fig3", "baseline"): "d6ba6d9883a169986cc2498cf9c799671b9248a5",
    ("fig3", "vc"): "fc1e90e46764f9da6160c9b05241e3f627275062",
    ("fig7", "baseline"): "f26da0a67ea76f250c83c86661c45076a88de328",
    ("fig7", "vc"): "48254f08e0480eb3d952051454862d63502bae6b",
}

#: ``explain()`` of Fig. 3 checked with its stores observed in id order.
OBSERVED_FIG3 = "\n".join([
    'TSO check: FAIL (11 nodes, 13 edges, 1 iterations, engine=vc+observability)',
    'violation: the inferred global memory order contains a cycle of 4 operation(s): P0.0 S[B]#91 <= P0.1 S[A]#1 <= P1.0 S[A]#2 <= P2.0 S[B]#92 <= P0.0 S[B]#91',
    'cycle in the inferred global memory order:',
    '  P0.0 S[B]#91  <=  P0.1 S[A]#1    [R2: program order]',
    '  P0.1 S[A]#1  <=  P1.0 S[A]#2    [R5: P0.2 L[A]=2 observed P1.0 S[A]#2 despite the program-order-earlier P0.1 S[A]#1; by the Value axiom that earlier store must be globally ordered before the observed one]',
    '  P1.0 S[A]#2  <=  P2.0 S[B]#92    [obs: commit #3: the environment observed P1.0 S[A]#2 become globally visible before P2.0 S[B]#92]',
    '  P2.0 S[B]#92  <=  P0.0 S[B]#91    [R6: store n6 precedes load n10, which observed store n2 (Value axiom)]',
])

_OBSERVED = ("R4", "R5", "obs")
_INFERRED = ("R6", "R7")


def _sha1(text):
    return hashlib.sha1(text.encode()).hexdigest()


def _figure(name):
    return parse_litmus(litmus_by_name(name).text)


@pytest.mark.parametrize("figure, engine", sorted(DUMP_GRAPH))
def test_dump_graph(figure, engine):
    result = check_on(engine, *_figure(figure))
    assert _sha1(result.dump_graph()) == DUMP_GRAPH[figure, engine]


@pytest.mark.parametrize("figure, engine", sorted(HTML_PAGE))
def test_html_page(figure, engine, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _, execution = _figure(figure)
    (tmp_path / "run.trace").write_text(execution.dump())
    assert main(["check", "run.trace", "--engine", engine,
                 "--html", "page.html"]) == 1
    capsys.readouterr()
    assert _sha1((tmp_path / "page.html").read_text()) == HTML_PAGE[figure, engine]


def test_observed_store_order_witness():
    program, execution = _figure("fig3")
    commits = [
        (op.addr, op.value)
        for op in litmus_aprog(litmus_by_name("fig3").text).ops
        if op.is_store and not op.is_root
    ]
    result = check_with_store_order(
        execution, commits,
        initial=program.initial, word_names=program.word_names,
    )
    assert result.explain() == OBSERVED_FIG3


def _categories(result):
    out = []
    for reason in result.graph.reasons.values():
        if reason.rule in STATIC_REASONS:
            out.append(0)
        elif reason.rule in _OBSERVED:
            out.append(1)
        else:
            assert reason.rule in _INFERRED, reason.rule
            out.append(2)
    return out


def _assert_logged_in_phase_order(result):
    categories = _categories(result)
    assert categories == sorted(categories)
    stats = result.stats
    assert categories.count(0) == stats.static_edges
    assert categories.count(1) == stats.observed_edges
    inferred = categories.count(2)
    if result.ok:
        assert inferred == stats.inferred_edges
    else:
        # A failing pass logs its edges (the closing one for its
        # witness) without counting them.
        assert inferred >= stats.inferred_edges


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("case", LITMUS_LIBRARY, ids=lambda case: case.name)
def test_litmus_edges_logged_in_phase_order(case, engine):
    result = check_on(engine, *parse_litmus(case.text))
    if result.graph is not None:
        _assert_logged_in_phase_order(result)


def test_paper_scale_edges_logged_in_phase_order():
    result = check_on("vc", *paper_scale_run(1))
    assert result.ok
    _assert_logged_in_phase_order(result)


def test_reasons_mapping_over_the_log():
    aprog = litmus_aprog("P0: S[A]#1 ; S[A]#2 ; S[A]#3")
    a1, a2, a3 = aprog.per_proc[0]
    graph = ConstraintGraph(aprog)
    given = EdgeReason("obs", "seen")
    assert graph.add_edge(a2, a3, R1)
    assert graph.add_edge(a1, a3, R6, a1, a2, a3)
    assert graph.add_edge(a1, a2, given)
    assert not graph.add_edge(a1, a2, R1)
    reasons = graph.reasons
    assert list(reasons) == [(a2, a3), (a1, a3), (a1, a2)]
    assert len(reasons) == graph.edge_count == 3
    assert list(reasons.values()) == [
        STATIC_REASONS["R1"], r6_reason(a1, a2, a3), given,
    ]
    assert reasons[(a1, a3)] == r6_reason(a1, a2, a3)
    assert graph.reason_of(a1, a2) is given
    assert (a1, a2) in reasons and (a2, a1) not in reasons
    assert "edge" not in reasons
    with pytest.raises(KeyError):
        reasons[(a3, a1)]
    assert reasons.get((a3, a1)) is None
    assert dict(reasons.items()) == dict(zip(reasons, reasons.values()))
    assert graph.cycle_reasons([a1, a2]) == [
        given, EdgeReason("?", "edge of cycle"),
    ]
