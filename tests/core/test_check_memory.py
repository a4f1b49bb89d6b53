"""What a check, and a paper-scale test around it, keeps in memory.

At the paper's operating point (16 processors x 400 instructions on 16
words) the analysis graph is most of what a check allocates.  These
tests hold it to one edge index (the adjacency lists), a columnar edge
log that holds no per-edge reason object (reasons are built when read,
sharing their renderers and their static instances), and a tracemalloc
peak that a ``(u, v)`` reason dict or row-major frontier tables would
overshoot.  Around the check, the per-op records of a test (the
instructions, the dynamic records and the analysis ops, ~23k objects at
the paper's operating point) carry no instance ``__dict__``, and a whole
test from generation to verdict has a tracemalloc bound of its own.
The ``stream`` cases run a pipeline session through
``tests.util.stream_check``.  A vc checker drops its per-check tables
when ``run`` returns, so a checker run again holds one check's tables.
"""

import copy
import gc
import pickle
import tracemalloc

import pytest

from repro.core.api import check
from repro.core.reasons import STATIC_REASONS
from repro.core.result import EdgeReason
from repro.core.vc import VectorClockChecker
from repro.model import ops
from repro.model.expansion import AnalysisOp, AnalysisProgram, expand
from repro.model.trace import DynRecord
from tests.util import check_on, golden_run, paper_scale_run

#: Bound on the tracemalloc peak of a vc check at paper seed 1, in MB.
#: On Python 3.11 the peak is 8.15 MB with column-major frontier tables,
#: 9.94 MB with one frontier row per node, and 18.2 MB with a
#: ``(u, v)`` -> reason dict as the edge index.
PEAK_MB = 9.0

#: Bound on the tracemalloc peak of a whole test at paper seed 1
#: (generate, simulate, expand, check), in MB.  On Python 3.11 the peak
#: is 12.5-12.7 MB with slotted per-op records and column-major frontier
#: tables, and 15.8-16.1 MB with an instance ``__dict__`` per record and
#: one frontier row per node.
UNIT_PEAK_MB = 14.0


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


def test_paper_scale_unit_peak(paper_aprog):
    # paper_aprog has made a paper-scale run already, so the modules it
    # imports on first use are not counted here.
    tracemalloc.start()
    try:
        program, execution = paper_scale_run(1)
        result = check(program, execution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ok and result.engine == "vc"
    assert peak / 1e6 < UNIT_PEAK_MB


def test_per_op_records_have_no_instance_dict():
    classes = [
        obj for obj in vars(ops).values()
        if isinstance(obj, type) and issubclass(obj, ops.Instr)
    ]
    assert len(classes) == 14
    for cls in classes + [DynRecord, AnalysisOp]:
        assert cls.__dictoffset__ == 0, cls.__name__
    program, execution, _ = golden_run(5)
    aprog = expand(execution, initial=program.initial)
    records = [rec for stream in execution.records for rec in stream]
    instrs = [rec.instr for rec in records]
    for obj in records + instrs + aprog.ops:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_slotted_records_round_trip():
    # A frozen slotted dataclass has no __dict__ for pickle and copy to
    # fill: it round-trips through the __getstate__/__setstate__ pair
    # that dataclass adds for it.
    program, execution, _ = golden_run(5)
    records = [rec for stream in execution.records for rec in stream]
    instrs = [instr for stream in program.threads for instr in stream]
    assert {type(instr) for instr in instrs} >= {ops.ILoad, ops.IStore}
    for original in (records, instrs, execution):
        assert pickle.loads(pickle.dumps(original)) == original
        assert copy.deepcopy(original) == original


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
