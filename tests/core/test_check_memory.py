"""What a check keeps in memory.

At the paper's operating point (16 processors x 400 instructions on 16
words) the analysis graph is most of what a check allocates.  These
tests hold it to one edge index (``ConstraintGraph.reasons``), reasons
that share their renderers and their static instances, and a
tracemalloc peak that a per-node successor set would overshoot.
"""

import tracemalloc

import pytest

from repro.core.api import check
from repro.core.checker import STATIC_REASONS
from repro.core.vc import VectorClockChecker
from repro.model.expansion import AnalysisProgram, expand
from tests.util import golden_run, paper_scale_run

#: Bound on the tracemalloc peak of a vc check at paper seed 1, in MB.
#: On Python 3.11 the peak is 18.2 MB with one edge index, and 22.5 MB
#: with a successor set per node next to it.
PEAK_MB = 19.5


@pytest.fixture(scope="module")
def paper_aprog():
    program, execution = paper_scale_run(1)
    return expand(
        execution, initial=program.initial, word_names=program.word_names
    )


def test_paper_scale_check_peak(paper_aprog):
    tracemalloc.start()
    try:
        result = VectorClockChecker().run(paper_aprog)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ok
    assert peak / 1e6 < PEAK_MB
    graph = result.graph
    assert len(graph.reasons) == graph.edge_count == sum(map(len, graph.succ))
    assert graph.edge_count == sum(map(len, graph.pred))


@pytest.mark.parametrize("engine", ["baseline", "vc", "stream"])
def test_static_reasons_are_shared(engine):
    program, execution, _ = golden_run(5)
    result = check(program, execution, engine=engine)
    assert result.ok
    shared = set(map(id, STATIC_REASONS.values()))
    static = [r for r in result.graph.reasons.values() if r.rule in STATIC_REASONS]
    assert static and all(id(r) in shared for r in static)


@pytest.mark.parametrize("engine", ["baseline", "vc", "stream"])
def test_passing_check_renders_no_reason(engine, monkeypatch):
    program, execution, _ = golden_run(5)
    described = []
    real_describe = AnalysisProgram.describe

    def describe(aprog, node):
        described.append(node)
        return real_describe(aprog, node)

    monkeypatch.setattr(AnalysisProgram, "describe", describe)
    result = check(program, execution, engine=engine)
    assert result.ok
    assert result.stats.inferred_edges > 0
    assert described == []
