"""What a check keeps in memory.

At the paper's operating point (16 processors x 400 instructions on 16
words) the analysis graph is most of what a check allocates.  These
tests hold it to one edge index (the adjacency lists), a columnar edge
log that holds no per-edge reason object (reasons are built when read,
sharing their renderers and their static instances), and a tracemalloc
peak that a ``(u, v)`` reason dict would overshoot.  The ``stream``
cases run a pipeline session through ``tests.util.stream_check``.  A vc
checker drops its per-check tables when ``run`` returns, so a checker
run again holds one check's tables.
"""

import gc
import tracemalloc

import pytest

from repro.core.reasons import STATIC_REASONS
from repro.core.result import EdgeReason
from repro.core.vc import VectorClockChecker
from repro.model.expansion import AnalysisProgram, expand
from tests.util import check_on, golden_run, paper_scale_run

#: Bound on the tracemalloc peak of a vc check at paper seed 1, in MB.
#: On Python 3.11 the peak is 9.94 MB with the edge log, and 18.2 MB
#: with a ``(u, v)`` -> reason dict as the edge index.
PEAK_MB = 10.9


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


def _live_edge_reasons():
    return sum(1 for obj in gc.get_objects() if obj.__class__ is EdgeReason)


def test_passing_check_holds_no_edge_reason(paper_aprog):
    before = _live_edge_reasons()
    result = VectorClockChecker().run(paper_aprog)
    assert result.ok
    assert result.stats.edges > 40_000
    assert _live_edge_reasons() == before


@pytest.mark.parametrize("engine", ["baseline", "vc", "stream"])
def test_static_reasons_are_shared(engine):
    program, execution, _ = golden_run(5)
    result = check_on(engine, program, execution)
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
    result = check_on(engine, program, execution)
    assert result.ok
    assert result.stats.inferred_edges > 0
    assert described == []


def _check_state(checker):
    return {name for name in VectorClockChecker._CHECK_STATE
            if name in vars(checker)}


def _small_aprog():
    program, execution, _ = golden_run(5)
    return expand(
        execution, initial=program.initial, word_names=program.word_names
    )


def test_vc_run_drops_its_tables():
    checker = VectorClockChecker()
    assert checker.run(_small_aprog()).ok
    assert _check_state(checker) == set()


def test_vc_run_drops_its_tables_on_error(monkeypatch):
    def fail(self, *args):
        assert _check_state(self) == set(VectorClockChecker._CHECK_STATE)
        raise RuntimeError("mid-check")

    monkeypatch.setattr(VectorClockChecker, "_fixed_point", fail)
    checker = VectorClockChecker()
    with pytest.raises(RuntimeError, match="mid-check"):
        checker.run(_small_aprog())
    assert _check_state(checker) == set()
