"""End-to-end telemetry: instrumented layers, CLI flags, worker funneling."""

import json

import pytest

from repro import telemetry
from repro.analysis.pool import run_tasks
from repro.cli import main
from repro.core.api import ENGINES, check
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.sim.machine import TsoMachine
from repro.telemetry import MemorySink, validate_file


@pytest.fixture(autouse=True)
def _reset_global_telemetry():
    yield
    telemetry.reset()


def _square(task):
    return task * task


class TestInstrumentedLayers:
    def test_full_pipeline_records_spans_and_counters(self):
        sink = MemorySink()
        tel = telemetry.configure(sinks=[sink])
        program = generate_program(
            GeneratorConfig(nprocs=2, ops_per_proc=30), seed=3
        )
        execution = TsoMachine(program, seed=3).run()
        result = check(program, execution)
        assert result.ok
        names = {p["name"] for p in sink.of_kind("span")}
        assert {"generate", "simulate", "expand", "check"} <= names
        snap = tel.snapshot()
        assert snap["counters"]["sim.runs"] == 1
        assert snap["counters"]["sim.cycles"] > 0
        assert snap["counters"]["check.runs"] == 1
        assert snap["counters"]["check.engine.vc"] == 1  # the default engine
        assert snap["histograms"]["sim.cycles_per_run"]["count"] == 1

    def test_every_engine_reports(self):
        telemetry.configure()
        program = generate_program(
            GeneratorConfig(nprocs=2, ops_per_proc=20), seed=5
        )
        execution = TsoMachine(program, seed=5).run()
        for engine in sorted(ENGINES):
            check(program, execution, engine=engine)
        counters = telemetry.get_telemetry().snapshot()["counters"]
        for engine in sorted(ENGINES):
            assert counters[f"check.engine.{engine}"] == 1
        assert counters["check.runs"] == len(ENGINES)
        assert counters["check.traversals"] > 0      # baseline
        assert counters["check.closure_rebuilds"] > 0  # vc
        assert counters["check.vc_queries"] > 0        # vc

    def test_disabled_pipeline_records_nothing(self):
        program = generate_program(
            GeneratorConfig(nprocs=2, ops_per_proc=20), seed=5
        )
        execution = TsoMachine(program, seed=5).run()
        check(program, execution)
        assert telemetry.get_telemetry().snapshot()["counters"] == {}

    def test_pool_batch_span_and_task_histogram(self):
        sink = MemorySink()
        tel = telemetry.configure(sinks=[sink])
        run_tasks(_square, [1, 2, 3], workers=1)
        [batch] = [p for p in sink.of_kind("span") if p["name"] == "pool.batch"]
        assert batch["fields"] == {"workers": 1, "tasks": 3}
        assert tel.snapshot()["histograms"]["pool.task_seconds"]["count"] == 3


class TestCliFlags:
    def test_run_writes_schema_valid_metrics(self, tmp_path):
        out = tmp_path / "run.jsonl"
        code = main([
            "run", "--procs", "2", "--ops", "20", "--seed", "1",
            "-o", str(tmp_path / "t.trace"), "--metrics-out", str(out),
        ])
        assert code == 0
        _, spans = validate_file(
            str(out), require_spans=["generate", "simulate", "expand", "check"]
        )
        assert spans["check"] >= 1
        # The CLI resets the global instance on the way out.
        assert not telemetry.get_telemetry().enabled
        assert telemetry.ENV_METRICS_OUT not in __import__("os").environ

    def test_summary_without_metrics_file(self, tmp_path, capsys):
        code = main([
            "run", "--procs", "2", "--ops", "20", "--seed", "1",
            "-o", str(tmp_path / "t.trace"), "--telemetry-summary",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "telemetry summary" in err
        assert "simulate" in err

    def test_campaign_workers_funnel_into_one_file(self, tmp_path, capsys):
        out = tmp_path / "campaign.jsonl"
        code = main([
            "campaign", "--cpu", "CPU1", "--tests-per-bug", "2",
            "--workers", "2", "--seed", "2004",
            "--metrics-out", str(out), "--telemetry-summary",
        ])
        assert code in (0, 1)  # never 2: no hunt may hang here
        nlines, spans = validate_file(str(out), require_spans=[
            "generate", "simulate", "expand", "check", "hunt", "pool.batch",
        ])
        assert nlines > 0
        # Worker-side spans really come from worker processes.
        pids = {
            json.loads(line)["pid"]
            for line in out.read_text().splitlines()
            if json.loads(line)["kind"] == "span"
        }
        assert len(pids) >= 2
        summary = capsys.readouterr().err
        assert "process(es)" in summary
        assert "check.runs" in summary

    def test_no_flags_leaves_telemetry_disabled(self, tmp_path):
        code = main([
            "run", "--procs", "2", "--ops", "20", "--seed", "1",
            "-o", str(tmp_path / "t.trace"),
        ])
        assert code == 0
        assert not telemetry.get_telemetry().enabled
