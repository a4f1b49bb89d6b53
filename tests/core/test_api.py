"""Tests for the public one-call API and result objects."""

import pytest

from repro.core.api import ENGINES, check, check_execution, check_litmus, make_checker
from repro.core.policy import SC, TSO
from repro.core.result import (
    CheckResult,
    CheckStats,
    EdgeReason,
    Violation,
    ViolationKind,
)
from repro.model.trace import Execution
from tests.util import golden_run, stream_check


class TestMakeChecker:
    def test_engines_registered(self):
        assert set(ENGINES) == {"baseline", "vc"}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_checker(TSO, "quantum")

    def test_model_threaded_through(self):
        checker = make_checker(SC, "baseline")
        assert checker.model is SC


class TestCheck:
    def test_check_uses_program_initial_values(self):
        program, execution, _machine = golden_run(seed=11)
        result = check(program, execution)
        assert result.ok
        assert result.model_name == "TSO"

    def test_check_execution_standalone_roundtrip(self):
        # The Sec. 3.3 standalone interface: dump, reload, re-check.
        program, execution, _machine = golden_run(seed=12)
        reloaded = Execution.load(execution.dump())
        result = check_execution(reloaded, initial=program.initial)
        assert result.ok

    def test_what_if_edit_flips_verdict(self):
        # Sec. 3.4: edit one load value in the dumped trace and re-run
        # the analyzer.
        program, execution, _machine = golden_run(seed=13)
        text = execution.dump()
        assert "loaded=" in text
        # Corrupt the first loaded value to one nothing ever wrote.
        import re

        corrupted = re.sub(r"loaded=(-?\d+)", "loaded=999999999", text, count=1)
        result = check_execution(Execution.load(corrupted), initial=program.initial)
        assert not result.ok
        assert result.violation.kind in (
            ViolationKind.UNMAPPED_VALUE,
            ViolationKind.CYCLE,
        )

    def test_check_litmus_parses_and_checks(self):
        assert check_litmus("P0: S[A]#1 ; L[A]=1").ok
        assert not check_litmus("P0: S[A]#1 ; S[A]#2\nP1: L[A]=2 ; L[A]=1").ok


class TestResultObjects:
    def test_stats_edge_total(self):
        stats = CheckStats(static_edges=3, observed_edges=2, inferred_edges=5)
        assert stats.edges == 10

    def test_stats_to_dict_is_json_safe(self):
        import json

        stats = CheckStats(
            nodes=4, static_edges=3, observed_edges=2, inferred_edges=5,
            iterations=2, seconds=0.5, closure_rebuilds=3,
        )
        d = json.loads(json.dumps(stats.to_dict()))
        assert d["nodes"] == 4
        assert d["closure_rebuilds"] == 3
        assert d["seconds"] == 0.5

    def test_closure_rebuilds_counted_by_vc_only(self):
        program, execution, _machine = golden_run(seed=11)
        baseline = check(program, execution, engine="baseline")
        assert baseline.stats.closure_rebuilds == 0
        assert stream_check(program, execution).stats.closure_rebuilds == 0
        # The incremental engine builds its closure exactly once.
        vc = check(program, execution, engine="vc")
        assert vc.stats.closure_rebuilds == 1

    def test_explain_pass_is_one_line(self):
        result = check_litmus("P0: S[A]#1 ; L[A]=1")
        assert "\n" not in result.explain()
        assert "PASS" in result.explain()

    def test_edge_reason_render(self):
        assert EdgeReason("R4").render() == "R4"
        assert EdgeReason("R5", "why").render() == "R5: why"

    def test_to_dot_requires_aprog(self):
        result = CheckResult(ok=False, model_name="TSO", engine="vc")
        with pytest.raises(ValueError):
            result.to_dot()

    def test_precheck_violation_surfaces_messages(self):
        result = check_litmus("P0: L[A]=42")
        assert not result.ok
        assert result.violation.kind == ViolationKind.UNMAPPED_VALUE
        assert "42" in result.violation.message
