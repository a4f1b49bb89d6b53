"""The vc engine pauses the cyclic garbage collector for a check.

``VectorClockChecker.run`` disables the collector across the analysis
and restores the caller's state afterwards.  The pause is only free if
a check builds no reference cycles: then every collector pass during a
check traverses the heap and frees nothing.  ``TestNoCycles`` holds the
engine to that premise, so a later change that makes a check build
cycles fails here instead of leaking until the next collection.
"""

import gc

import pytest

from repro.core.api import check
from repro.core.policy import PSO, SC, TSO
from repro.core.vc import VectorClockChecker
from repro.generator.litmus import LITMUS_LIBRARY
from repro.model.expansion import expand
from tests.util import golden_run, litmus_aprog, paper_scale_run

MODELS = [TSO, PSO, SC]


@pytest.fixture
def gc_state():
    """Restore the collector's state whatever the test leaves."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(scope="module")
def small_aprog():
    program, execution, _ = golden_run(3)
    return expand(execution, initial=program.initial)


class TestCollectorState:
    def test_enabled_stays_enabled(self, gc_state, small_aprog):
        gc.enable()
        assert VectorClockChecker().run(small_aprog).ok
        assert gc.isenabled()

    def test_disabled_stays_disabled(self, gc_state, small_aprog):
        gc.disable()
        assert VectorClockChecker().run(small_aprog).ok
        assert not gc.isenabled()

    def test_restored_when_the_analysis_raises(
        self, gc_state, small_aprog, monkeypatch
    ):
        def boom(*args, **kwargs):
            assert not gc.isenabled(), "collector ran during the check"
            raise RuntimeError("boom")

        monkeypatch.setattr(VectorClockChecker, "_fixed_point", boom)
        gc.enable()
        with pytest.raises(RuntimeError, match="boom"):
            VectorClockChecker().run(small_aprog)
        assert gc.isenabled()

    def test_no_collection_starts_during_a_check(self, gc_state, small_aprog):
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.enable()
        gc.callbacks.append(count)
        try:
            VectorClockChecker().run(small_aprog)
        finally:
            gc.callbacks.remove(count)
        assert starts == []


def _unreachable_after_check(run):
    """Cyclic garbage a check leaves behind, once its result is dropped."""
    gc.collect()
    gc.disable()
    result = run()
    verdict = result.ok
    del result
    return gc.collect(), verdict


class TestNoCycles:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_litmus_library(self, gc_state, model):
        verdicts = set()
        for case in LITMUS_LIBRARY:
            aprog = litmus_aprog(case.text)
            unreachable, ok = _unreachable_after_check(
                lambda: VectorClockChecker(model).run(aprog)
            )
            assert unreachable == 0, f"{case.name} under {model.name}"
            verdicts.add(ok)
        assert verdicts == {True, False}  # passing and failing checks

    def test_paper_scale(self, gc_state):
        program, execution = paper_scale_run(1)
        unreachable, ok = _unreachable_after_check(
            lambda: check(program, execution, engine="vc")
        )
        assert ok
        assert unreachable == 0
