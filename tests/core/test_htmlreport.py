"""Tests for the Sec. 3.4 HTML debug report."""

import pytest

from repro.core.api import check_litmus
from repro.core.htmlreport import render_html
from repro.core.result import CheckResult
from repro.generator.litmus import litmus_by_name


class TestRenderHtml:
    @pytest.fixture(scope="class")
    def failing(self):
        return check_litmus(litmus_by_name("fig3").text)

    @pytest.fixture(scope="class")
    def passing(self):
        return check_litmus("P0: S[A]#1 ; L[A]=1\nP1: L[A]=1")

    def test_self_contained_document(self, failing):
        page = render_html(failing)
        assert page.startswith("<!doctype html>")
        assert page.endswith("</html>")
        assert "<script" not in page  # no JS needed
        assert "http" not in page.split("</title>")[1]  # no external assets

    def test_verdict_rendered(self, failing, passing):
        assert "FAIL" in render_html(failing)
        assert "verdict-fail" in render_html(failing)
        assert "PASS" in render_html(passing)
        assert "verdict-pass" in render_html(passing)

    def test_all_operations_listed_per_processor(self, failing):
        page = render_html(failing)
        for desc in ("P0.0 S[B]#91", "P2.2 L[B]=92", "P3.1 L[B]=91"):
            assert desc in page
        assert page.count("<div class='proc'>") == 5  # 4 procs + initials

    def test_cycle_nodes_highlighted(self, failing):
        page = render_html(failing)
        assert "cycle-node" in page
        assert "the cycle" in page

    def test_clickable_edges_carry_reasons(self, failing):
        page = render_html(failing)
        assert "<details class=\"cycle-edge\">" in page
        assert "Value axiom" in page
        assert "<summary>" in page

    def test_region_edges_present(self, failing):
        assert "other edges touching the cycle" in render_html(failing)

    def test_passing_small_graph_lists_all_edges(self, passing):
        page = render_html(passing)
        assert "all inferred edges" in page
        assert "R4" in page

    def test_html_escaping(self, failing):
        page = render_html(failing, title="<bad & title>")
        assert "<bad & title>" not in page
        assert "&lt;bad &amp; title&gt;" in page

    def test_requires_analysis_program(self):
        bare = CheckResult(ok=True, model_name="TSO", engine="vc")
        with pytest.raises(ValueError):
            render_html(bare)
