"""Experiment harnesses and post-run analysis tooling.

* :mod:`~repro.analysis.campaign` — the Table 1/2 bug-hunting campaign.
* :mod:`~repro.analysis.runtime` — the Figure 8/9 runtime measurements.
* :mod:`~repro.analysis.coverage` — Sec. 3.1 test-coverage reporting.
* :mod:`~repro.analysis.tuning` — coverage-guided generator tuning.
* :mod:`~repro.analysis.repro_study` — the Sec. 5.2 failure-reproduction
  experiment.
* :mod:`~repro.analysis.minimize` — failing-trace delta debugging.
* :mod:`~repro.analysis.bringup` — silicon bring-up simulation (all bugs
  live at once, root-caused one by one).
* :mod:`~repro.analysis.pool` — the parallel execution engine behind
  campaigns and sweeps (worker processes, timeouts, retries).
"""

from repro._lazy import lazy_exports

# Eager: importing the submodule later would rebind ``bringup`` to it.
from repro.analysis.bringup import bringup

__getattr__, __dir__ = lazy_exports(__name__, {
    ".bringup": "BringupEvent BringupLog",
    ".campaign": "BugHunt CampaignConfig CampaignResult format_table1 "
                "format_table2 hunt_bug run_campaign",
    ".coverage": "CoverageReport measure_coverage",
    ".minimize": "MinimizationResult minimize_failure render_minimized",
    ".repro_study": "ReproductionPoint reproduction_study sweep_reproduction",
    ".pool": "PoolEvent run_tasks",
    ".report": "ReportConfig build_report",
    ".runtime": "RuntimePoint SweepResult measure_runtime sweep_runtime",
    ".stats": "LatencySummary bootstrap_detection_rate detection_latency "
             "latency_by_mechanism latency_by_unit render_campaign_stats",
    ".tuning": "TuningResult atomic_contention_objective "
              "race_pair_objective tune",
})

__all__ = [
    "BringupEvent",
    "BringupLog",
    "bringup",
    "BugHunt",
    "CampaignConfig",
    "CampaignResult",
    "format_table1",
    "format_table2",
    "hunt_bug",
    "run_campaign",
    "CoverageReport",
    "measure_coverage",
    "MinimizationResult",
    "minimize_failure",
    "render_minimized",
    "ReproductionPoint",
    "reproduction_study",
    "sweep_reproduction",
    "ReportConfig",
    "build_report",
    "PoolEvent",
    "run_tasks",
    "RuntimePoint",
    "SweepResult",
    "measure_runtime",
    "sweep_runtime",
    "LatencySummary",
    "bootstrap_detection_rate",
    "detection_latency",
    "latency_by_mechanism",
    "latency_by_unit",
    "render_campaign_stats",
    "TuningResult",
    "atomic_contention_objective",
    "race_pair_objective",
    "tune",
]
