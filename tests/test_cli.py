"""End-to-end tests of the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestGenerate:
    def test_prints_listing(self, capsys):
        assert main(["generate", "--procs", "2", "--ops", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("init")
        assert "P0:" in out and "P1:" in out

    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "prog.txt"
        assert main(["generate", "--ops", "5", "-o", str(target)]) == 0
        assert target.read_text().strip()


class TestRunAndCheck:
    def test_run_reports_pass(self, tmp_path, capsys):
        trace = tmp_path / "run.trace"
        code = main(
            ["run", "--procs", "2", "--ops", "20", "--seed", "3", "-o", str(trace)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert trace.exists()

    def test_check_accepts_clean_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.trace"
        main(["run", "--procs", "2", "--ops", "20", "--seed", "4", "-o", str(trace)])
        capsys.readouterr()
        assert main(["check", str(trace)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_flags_edited_trace_and_writes_dot(self, tmp_path, capsys):
        # The Sec. 3.4 what-if flow through the CLI.
        trace = tmp_path / "run.trace"
        main(["run", "--procs", "2", "--ops", "20", "--seed", "5", "-o", str(trace)])
        capsys.readouterr()
        import re

        text = trace.read_text()
        text = re.sub(r"loaded=(-?\d+)", "loaded=987654321", text, count=1)
        trace.write_text(text)
        dot = tmp_path / "fail.dot"
        code = main(["check", str(trace), "--dot", str(dot)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert dot.exists() and dot.read_text().startswith("digraph")

    def test_check_with_baseline_engine(self, tmp_path, capsys):
        trace = tmp_path / "run.trace"
        main(["run", "--procs", "2", "--ops", "10", "--seed", "6", "-o", str(trace)])
        capsys.readouterr()
        assert main(["check", str(trace), "--engine", "baseline"]) == 0

    def test_check_rejects_retired_closure_engine(self, tmp_path, capsys):
        # Both retired engine names: the per-pass bitset engine and the
        # stream batch engine (the online checker only runs pipelined).
        trace = tmp_path / "run.trace"
        for engine in ("closure", "stream"):
            with pytest.raises(SystemExit) as excinfo:
                main(["check", str(trace), "--engine", engine])
            assert excinfo.value.code == 2
            assert f"invalid choice: '{engine}'" in capsys.readouterr().err


class TestLitmus:
    def test_list(self, capsys):
        assert main(["litmus", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "SB" in out

    def test_named_case_matches_expectations(self, capsys):
        assert main(["litmus", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "FAIL (expected FAIL) — ok" in out

    def test_explain_flag_prints_cycle(self, capsys):
        assert main(["litmus", "fig6", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "cycle" in out

    def test_unknown_case_raises(self):
        with pytest.raises(KeyError):
            main(["litmus", "not-a-case"])


class TestCampaignAndRuntime:
    def test_campaign_single_cpu_speed_friendly(self, capsys):
        # Restrict to CPU1 to keep the CLI test fast.
        code = main(["campaign", "--table", "1", "--tests-per-bug", "8",
                     "--cpu", "CPU1"])
        assert code == 0  # all of CPU1's bugs detected -> success exit
        out = capsys.readouterr().out
        assert "Table 1" in out and "CPU1" in out
        assert "wall clock" in out and "analysis CPU" in out

    def test_campaign_parallel_workers(self, capsys):
        code = main(["campaign", "--table", "1", "--tests-per-bug", "8",
                     "--cpu", "CPU1", "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tasks" in out and "workers" in out  # throughput line

    def test_campaign_exit_1_when_bugs_missed(self, capsys, monkeypatch):
        # A zero-rate bug can never fire: the campaign completes but the
        # bug goes undetected, which must surface as exit code 1.
        import repro.cli as cli
        from repro.sim.cpus import BugSpec, CpuConfig
        from repro.sim.faults import BugClass, FuncUnit, StaleForwardFault

        dud = CpuConfig(
            name="DUDCPU", description="undetectable roster",
            bugs=(BugSpec(
                name="DUD-bug01", mechanism=StaleForwardFault,
                unit=FuncUnit.LSU, bug_class=BugClass.DESIGN, rate=0.0,
            ),),
        )
        real = cli.run_campaign
        monkeypatch.setattr(
            cli, "run_campaign",
            lambda cpus=None, **kw: real(cpus=[dud], **kw),
        )
        code = main(["campaign", "--tests-per-bug", "2"])
        assert code == 1
        assert "missed: DUD-bug01" in capsys.readouterr().out

    def test_campaign_exit_2_when_hunt_hangs(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.sim.cpus import BugSpec, CpuConfig
        from repro.sim.faults import BugClass, FuncUnit, HangFault

        hang = CpuConfig(
            name="HANGCPU", description="hung roster",
            bugs=(BugSpec(
                name="HANG-bug01", mechanism=HangFault,
                unit=FuncUnit.NONE, bug_class=BugClass.DESIGN, rate=1.0,
            ),),
        )
        real = cli.run_campaign
        monkeypatch.setattr(
            cli, "run_campaign",
            lambda cpus=None, **kw: real(cpus=[hang], **kw),
        )
        code = main(["campaign", "--tests-per-bug", "2", "--workers", "2",
                     "--task-timeout", "1.5"])
        assert code == 2
        assert "hung: HANG-bug01" in capsys.readouterr().out

    def test_task_timeout_without_workers_is_an_error(self, capsys):
        # --task-timeout is enforced by killing worker processes; with
        # the inline default it would be silently ignored, so reject it.
        for argv in (
            ["campaign", "--tests-per-bug", "2", "--task-timeout", "1.0"],
            ["runtime", "--ops-points", "40", "--task-timeout", "1.0"],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "--task-timeout requires --workers" in err

    def test_campaign_exit_2_when_campaign_crashes(self, capsys, monkeypatch):
        import repro.cli as cli

        def boom(**kwargs):
            raise RuntimeError("mid-hunt crash")

        monkeypatch.setattr(cli, "run_campaign", boom)
        assert main(["campaign"]) == 2

    def test_campaign_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "hung" in out

    def test_runtime_figure9(self, capsys):
        assert main(["runtime", "--figure", "9", "--ops-points", "40", "80"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 9" in out
        assert out.count("procs=4") == 6  # 3 word counts x 2 ops points

    def test_runtime_parallel_workers(self, capsys):
        code = main(["runtime", "--figure", "9", "--ops-points", "40",
                     "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 9" in out
        assert "tasks" in out  # throughput line printed for workers > 1


class TestHtmlAndGraphArtifacts:
    def test_check_writes_graph_and_html(self, tmp_path, capsys):
        trace = tmp_path / "run.trace"
        main(["run", "--procs", "2", "--ops", "15", "--seed", "2", "-o", str(trace)])
        capsys.readouterr()
        graph = tmp_path / "g.txt"
        page = tmp_path / "g.html"
        assert main(["check", str(trace), "--graph", str(graph),
                     "--html", str(page)]) == 0
        assert graph.read_text().startswith("# tsotool analysis graph")
        assert page.read_text().startswith("<!doctype html>")


class TestReportCommand:
    def test_report_writes_markdown(self, tmp_path, capsys, monkeypatch):
        # Shrink the report scales so the CLI test stays fast.
        import repro.cli as cli
        from repro.analysis.report import ReportConfig, build_report

        def tiny_report(config):
            return build_report(ReportConfig(
                tests_per_bug=config.tests_per_bug,
                fig8_procs=(2,), fig9_words=(4,), ops_points=(100,),
                ablation_ops=100,
            ))

        monkeypatch.setattr(cli, "build_report", tiny_report)
        out = tmp_path / "REPORT.md"
        assert main(["report", "-o", str(out), "--tests-per-bug", "10"]) == 0
        text = out.read_text()
        assert text.startswith("# TSOtool reproduction report")
        assert "## Litmus conformance" in text


class TestEmitAndCoverage:
    def test_emit_to_stdout(self, capsys):
        assert main(["emit", "--procs", "2", "--ops", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "tsotool_thread_0" in out and ".global" in out

    def test_emit_c11(self, capsys):
        assert main(["emit", "--lang", "c11", "--procs", "2", "--ops", "10"]) == 0
        out = capsys.readouterr().out
        assert "#include <stdatomic.h>" in out
        assert "tsotool trace v1" in out

    def test_emit_to_file(self, tmp_path, capsys):
        target = tmp_path / "test.S"
        assert main(["emit", "--ops", "8", "-o", str(target)]) == 0
        assert "tsotool_thread_3" in target.read_text()

    def test_coverage_report(self, capsys):
        assert main(["coverage", "--procs", "2", "--ops", "30", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "coverage report" in out
        assert "machine.forwards" in out


class TestMinimize:
    def test_minimize_failing_trace(self, tmp_path, capsys):
        # Build a failing trace by corrupting a run, then minimize it.
        import re

        trace = tmp_path / "run.trace"
        main(["run", "--procs", "2", "--ops", "30", "--seed", "9", "-o", str(trace)])
        capsys.readouterr()
        # A CoRR-style corruption: duplicate an observed store value in
        # the wrong order is hard to fabricate textually, so instead swap
        # one load's value for another same-address store value until the
        # checker reports a cycle.
        from repro.model.trace import Execution
        from repro.core.api import check_execution
        from repro.core.result import ViolationKind

        base = Execution.load(trace.read_text())
        by_addr = {}
        for proc in base.records:
            for rec in proc:
                if rec.stored is not None:
                    for i, value in enumerate(rec.stored):
                        by_addr.setdefault(rec.instr.addr + 4 * i, []).append(value)
        found = False
        for pid, proc in enumerate(base.records):
            for idx, rec in enumerate(proc):
                if found or rec.loaded is None:
                    continue
                addr = rec.instr.addr
                for candidate in by_addr.get(addr, []):
                    if candidate == rec.loaded[0]:
                        continue
                    records = [list(p) for p in base.records]
                    records[pid][idx] = rec.with_loaded(
                        [candidate] + list(rec.loaded[1:])
                    )
                    verdict = check_execution(Execution(records=records))
                    if (not verdict.ok
                            and verdict.violation.kind == ViolationKind.CYCLE):
                        trace.write_text(Execution(records=records).dump())
                        found = True
                        break
        if not found:
            pytest.skip("no cycle-inducing corruption found for this seed")
        out_file = tmp_path / "min.trace"
        assert main(["minimize", str(trace), "-o", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "minimal failing core" in out
        assert out_file.exists()

    def test_minimize_rejects_passing_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.trace"
        main(["run", "--procs", "2", "--ops", "10", "--seed", "1", "-o", str(trace)])
        capsys.readouterr()
        assert main(["minimize", str(trace)]) == 2
        assert "cannot minimize" in capsys.readouterr().out


class TestServiceVerbs:
    """submit / serve / status — the campaign-as-a-service flow."""

    @staticmethod
    def _manifest(tmp_path, **kwargs):
        from repro.service import CampaignManifest

        defaults = dict(
            name="cli", seeds=(1,), cpus=("CPU1",), tests_per_bug=4
        )
        defaults.update(kwargs)
        path = tmp_path / "m.json"
        CampaignManifest(**defaults).save(str(path))
        return str(path)

    def test_submit_then_serve_once_then_status(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        manifest = self._manifest(tmp_path)
        assert main(["submit", manifest, "--root", root]) == 0
        out = capsys.readouterr().out
        assert "submitted cli-" in out and "queued" in out

        assert main(["serve", "--root", root, "--once", "--no-http"]) == 0

        capsys.readouterr()
        assert main(["status", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert "hunts 3/3" in out
        assert "exit 0" in out

    def test_submit_rejects_bad_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "name": "no spaces allowed"}\n')
        assert main(["submit", str(bad), "--root", str(tmp_path / "s")]) == 2
        assert "cannot submit" in capsys.readouterr().err

    def test_submit_rejects_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["submit", missing, "--root", str(tmp_path / "s")]) == 2
        assert "cannot submit" in capsys.readouterr().err

    def test_status_json_payload(self, tmp_path, capsys):
        import json

        root = str(tmp_path / "svc")
        manifest = self._manifest(tmp_path)
        main(["submit", manifest, "--root", root])
        main(["serve", "--root", root, "--once", "--no-http"])
        capsys.readouterr()
        assert main(["status", "--root", root, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["service"]["live"] is False
        [job] = payload["jobs"]
        assert job["state"] == "done"
        assert job["exit_code"] == 0

    def test_status_without_root_fails(self, tmp_path, capsys):
        assert main(["status", "--root", str(tmp_path / "absent")]) == 2
        assert "no service root" in capsys.readouterr().err

    def test_serve_timeout_requires_workers(self, tmp_path, capsys):
        code = main([
            "serve", "--root", str(tmp_path / "svc"),
            "--task-timeout", "5", "--once", "--no-http",
        ])
        assert code == 2
        assert "--task-timeout requires" in capsys.readouterr().err

    def test_serve_once_propagates_worst_exit_code(self, tmp_path, capsys):
        # tests_per_bug=1 leaves probabilistic bugs undetected — the
        # job exits 1 and --once must surface it.
        root = str(tmp_path / "svc")
        manifest = self._manifest(tmp_path, name="weak", tests_per_bug=1)
        main(["submit", manifest, "--root", root])
        code = main(["serve", "--root", root, "--once", "--no-http"])
        capsys.readouterr()
        from repro.service import CampaignManifest, ResultStore

        m = CampaignManifest.load(manifest)
        store = ResultStore(str(tmp_path / "svc" / "jobs" / m.job_id))
        summary = store.summary()
        expected = 0 if summary["hunts_detected"] == 3 else 1
        assert code == expected


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_model_choices(self):
        args = build_parser().parse_args(["run", "--model", "SC"])
        assert args.model == "SC"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--model", "XYZ"])
