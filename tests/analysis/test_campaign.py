"""Tests for the Table 1/2 campaign harness."""

import pytest

from repro.analysis.campaign import (
    BugHunt,
    CampaignConfig,
    CampaignResult,
    format_table1,
    format_table2,
    hunt_bug,
    run_campaign,
)
from repro.sim.cpus import CPU_CONFIGS, BugSpec, CpuConfig, cpu_by_name
from repro.sim.faults import (
    BugClass,
    FuncUnit,
    HangFault,
    MonitorFalseAlarmFault,
    StaleForwardFault,
    TraceCorruptionFault,
)

FAST = CampaignConfig(tests_per_bug=8)


class TestHuntBug:
    def test_design_bug_detected_via_tso_failure(self):
        spec = BugSpec(
            name="t-design", mechanism=StaleForwardFault,
            unit=FuncUnit.LSU, bug_class=BugClass.DESIGN,
        )
        hunt = hunt_bug(spec, "CPUX", FAST)
        assert hunt.detected
        assert "TSO violation" in hunt.via
        assert hunt.detected_on_seed is not None
        assert 1 <= hunt.tests_run <= FAST.tests_per_bug

    def test_monitor_bug_detected_via_spurious_alarm(self):
        spec = BugSpec(
            name="t-monitor", mechanism=MonitorFalseAlarmFault,
            unit=FuncUnit.CACHES, bug_class=BugClass.MONITOR,
        )
        hunt = hunt_bug(spec, "CPUX", FAST)
        assert hunt.detected
        assert "alarm" in hunt.via

    def test_environment_bug_detected_via_trace_divergence(self):
        spec = BugSpec(
            name="t-env", mechanism=TraceCorruptionFault,
            unit=FuncUnit.NONE, bug_class=BugClass.ENVIRONMENT,
            rate=0.05,
        )
        hunt = hunt_bug(spec, "CPUX", FAST)
        assert hunt.detected
        assert "true trace passes" in hunt.via

    def test_undetectable_bug_reports_miss(self):
        spec = BugSpec(
            name="t-dud", mechanism=StaleForwardFault,
            unit=FuncUnit.LSU, bug_class=BugClass.DESIGN, rate=0.0,
        )
        hunt = hunt_bug(spec, "CPUX", CampaignConfig(tests_per_bug=2))
        assert not hunt.detected
        assert hunt.tests_run == 2

    def test_reproducible_given_same_config(self):
        spec = cpu_by_name("CPU1").bugs[0]
        a = hunt_bug(spec, "CPU1", FAST, bug_index=0)
        b = hunt_bug(spec, "CPU1", FAST, bug_index=0)
        assert a.detected_on_seed == b.detected_on_seed


class TestCampaignTables:
    @pytest.fixture(scope="class")
    def small_campaign(self):
        return run_campaign(cpus=[cpu_by_name("CPU1"), cpu_by_name("CPU2")], config=FAST)

    def test_cpu1_and_cpu2_rows_match_paper(self, small_campaign):
        rows = dict(small_campaign.table1_rows())
        assert rows["CPU1"][BugClass.DESIGN] == 3
        assert rows["CPU2"][BugClass.DESIGN] == 4
        assert rows["CPU2"][BugClass.MONITOR] == 3

    def test_table2_rows(self, small_campaign):
        rows = dict(small_campaign.table2_rows())
        assert rows["CPU1"][FuncUnit.CACHES] == 3
        assert rows["CPU2"][FuncUnit.PIPE] == 1
        assert rows["CPU2"][FuncUnit.MEM_CNTLR] == 1

    def test_formatting_contains_totals(self, small_campaign):
        t1 = format_table1(small_campaign)
        t2 = format_table2(small_campaign)
        assert "Total" in t1 and "Total" in t2
        assert "Architecture" in t1
        assert "Interconnect" in t2

    def test_no_misses_on_small_campaign(self, small_campaign):
        assert small_campaign.missed() == []

    def test_by_cpu_grouping(self, small_campaign):
        grouped = small_campaign.by_cpu()
        assert set(grouped) == {"CPU1", "CPU2"}
        assert len(grouped["CPU1"]) == 3
        assert len(grouped["CPU2"]) == 7

    def test_wall_and_cpu_seconds_split(self, small_campaign):
        # Sequential campaign: both axes populated.
        assert small_campaign.wall_seconds > 0
        assert small_campaign.cpu_seconds >= 0
        assert small_campaign.stats is not None
        assert small_campaign.stats.completed == len(small_campaign.hunts)


class TestSerialization:
    """Satellite: stable round-trip dicts; derived rows are recomputed."""

    def test_bug_hunt_round_trip(self):
        hunt = hunt_bug(cpu_by_name("CPU1").bugs[0], "CPU1", FAST, 0)
        back = BugHunt.from_dict(hunt.to_dict())
        assert back == hunt
        # Derived properties are recomputed, never stored.
        assert back.unit is hunt.unit
        assert back.bug_class is hunt.bug_class
        assert "unit" not in hunt.to_dict()

    def test_bug_hunt_dict_is_json_safe(self):
        import json

        hunt = hunt_bug(cpu_by_name("CPU1").bugs[0], "CPU1", FAST, 0)
        assert json.loads(json.dumps(hunt.to_dict())) == hunt.to_dict()

    def test_campaign_result_round_trip(self):
        result = run_campaign(cpus=[cpu_by_name("CPU1")], config=FAST)
        back = CampaignResult.from_dict(result.to_dict())
        assert back.hunts == result.hunts
        assert back.wall_seconds == result.wall_seconds
        assert back.cpu_seconds == result.cpu_seconds
        assert back.sched == result.sched
        assert back.stats == result.stats
        # Tables and exit code come out identical because they are
        # derived from the hunts on both sides.
        assert format_table1(back) == format_table1(result)
        assert format_table2(back) == format_table2(result)
        assert back.exit_code() == result.exit_code()
        assert back.detection_line() == result.detection_line()

    def test_campaign_result_without_stats(self):
        result = CampaignResult(hunts=[])
        back = CampaignResult.from_dict(result.to_dict())
        assert back.stats is None


class TestExitCode:
    def test_all_detected_is_zero(self):
        result = run_campaign(cpus=[cpu_by_name("CPU1")], config=FAST)
        assert result.exit_code() == 0

    def test_missed_is_one(self):
        dud = BugSpec(
            name="dud", mechanism=StaleForwardFault,
            unit=FuncUnit.LSU, bug_class=BugClass.DESIGN, rate=0.0,
        )
        hunt = hunt_bug(dud, "CPUX", CampaignConfig(tests_per_bug=1))
        assert CampaignResult(hunts=[hunt]).exit_code() == 1

    def test_hung_is_two_even_with_misses(self):
        dud = BugSpec(
            name="dud", mechanism=StaleForwardFault,
            unit=FuncUnit.LSU, bug_class=BugClass.DESIGN, rate=0.0,
        )
        missed = hunt_bug(dud, "CPUX", CampaignConfig(tests_per_bug=1))
        hung = BugHunt(
            spec=dud, cpu="CPUX", detected=False, tests_run=0,
            via="worker crashed or timed out", hung=True,
        )
        assert CampaignResult(hunts=[missed, hung]).exit_code() == 2


class TestParallelCampaign:
    def test_workers4_hunt_for_hunt_identical_to_sequential(self):
        # The seed-determinism contract: every BugHunt record — spec,
        # detection verdict, tests_run, detecting seed, triage text —
        # must be identical whatever the worker count.
        cpus = [cpu_by_name("CPU1"), cpu_by_name("CPU2")]
        config = CampaignConfig(tests_per_bug=4)
        sequential = run_campaign(cpus=cpus, config=config, workers=1)
        parallel = run_campaign(cpus=cpus, config=config, workers=4)
        assert parallel.hunts == sequential.hunts

    def test_timeout_injection_records_hung_hunt(self):
        # A deliberately hung fault wedges the simulated machine; the
        # pool's per-task timeout must kill the worker (twice: retry
        # once) and record the hunt as hung, never block the campaign.
        hang = BugSpec(
            name="HANG-bug01", mechanism=HangFault,
            unit=FuncUnit.NONE, bug_class=BugClass.DESIGN, rate=1.0,
        )
        live = BugSpec(
            name="HANG-bug02", mechanism=StaleForwardFault,
            unit=FuncUnit.LSU, bug_class=BugClass.DESIGN,
        )
        cpu = CpuConfig(
            name="HANGCPU", description="timeout-injection test roster",
            bugs=(hang, live),
        )
        result = run_campaign(
            cpus=[cpu], config=CampaignConfig(tests_per_bug=4),
            workers=2, task_timeout=2.0,
        )
        hung = result.hung_hunts()
        assert [h.spec.name for h in hung] == ["HANG-bug01"]
        assert not hung[0].detected and hung[0].tests_run == 0
        assert hung[0] in result.missed()
        assert result.stats.hung == 1
        assert result.stats.retries == 1
        # The healthy hunt of the same roster still completes.
        other = next(h for h in result.hunts if h.spec.name == "HANG-bug02")
        assert other.detected
