"""Per-layer metrics from a traced run.

Times are self times (a span's duration minus its children's) averaged
per traced unit; counts are per traced unit too.  Rates divide a
layer's work by that layer's own self time.  The pool metrics come from
the ``PoolStats`` of an untraced run at ``workers = nproc`` on the same
inputs, because a traced run must stay in one process.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q * 100) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, traced, untraced, pooled, pool_stats, window: float,
              workers: int) -> Tuple[Dict[str, dict], dict]:
    """Return ``(metrics, table)`` for the result line and the report."""
    units = len(traced)
    tests = sum(u.tests for u in traced)
    hunts = sum(u.hunts for u in traced)
    counts: Dict[str, int] = {}
    for unit_counts in tracer.unit_counts:
        for key, value in unit_counts.items():
            counts[key] = counts.get(key, 0) + value
    self_s = tracer.self_s

    def own(name: str) -> float:
        return self_s.get(name, 0.0) / units

    def per_unit(key: str) -> float:
        return counts.get(key, 0) / units

    sim_time = self_s.get("sim.run", 0.0) + self_s.get("sched.record", 0.0)
    hunt_times = tracer.durations.get("campaign.hunt", [])
    resume_times = tracer.durations.get("service.resume", [])
    pool_wall = sum(s.wall_seconds for s in pool_stats)
    pool_cpu = sum(s.cpu_seconds for s in pool_stats)
    pool_units = max(1, len(pooled))
    traced_wall = statistics.fmean(u.wall for u in traced)
    untraced_wall = statistics.fmean(u.wall for u in untraced)
    roots = sum(
        end - start for _, start, end, parent, _ in tracer.spans if parent == -1
    )

    values = {
        "generator.self_s": (own("generator"), "s"),
        "generator.calls_per_test": (_ratio(counts.get("generator.calls", 0), tests), "ratio"),
        "sim.self_s": (own("sim.run"), "s"),
        "sim.arm_s": (own("sim.arm"), "s"),
        "sim.runs_per_test": (_ratio(counts.get("sim.runs", 0), tests), "ratio"),
        "sim.records_per_s": (_ratio(counts.get("sim.records", 0), sim_time), "1/s"),
        "sim.cycles": (per_unit("sim.cycles"), "count"),
        "sim.records": (per_unit("sim.records"), "count"),
        "model.expand_s": (own("model.expand"), "s"),
        "model.nodes_per_s": (
            _ratio(counts.get("model.nodes", 0), self_s.get("model.expand", 0.0)), "1/s"),
        "core.api_s": (own("core.api"), "s"),
        "core.check_s": (own("core.check"), "s"),
        "core.check_pass_s": (tracer.values.get("core.check_pass_s", 0.0) / units, "s"),
        "core.check_fail_s": (tracer.values.get("core.check_fail_s", 0.0) / units, "s"),
        "core.checks": (per_unit("core.checks"), "count"),
        "core.nodes": (per_unit("core.nodes"), "count"),
        "core.edges": (per_unit("core.edges"), "count"),
        "core.iterations": (per_unit("core.iterations"), "count"),
        "core.closure_rebuilds": (per_unit("core.closure_rebuilds"), "count"),
        "core.nodes_per_s": (
            _ratio(counts.get("core.nodes", 0), self_s.get("core.check", 0.0)), "1/s"),
        "stream.feed_s": (own("stream.feed"), "s"),
        "stream.session_s": (own("stream.check"), "s"),
        "stream.sessions": (per_unit("stream.sessions"), "count"),
        "stream.flagged": (per_unit("stream.flagged"), "count"),
        "stream.live_peak": (float(tracer.peaks.get("stream.live_peak", 0)), "count"),
        "sched.record_s": (own("sched.record"), "s"),
        "sched.record_runs": (per_unit("sched.record_runs"), "count"),
        "campaign.run_s": (own("campaign.run"), "s"),
        "campaign.hunt_s": (own("campaign.hunt"), "s"),
        "campaign.hunt_p50_s": (_quantile(hunt_times, 0.5), "s"),
        "campaign.hunt_p90_s": (_quantile(hunt_times, 0.9), "s"),
        "campaign.hunt_samples": (float(len(hunt_times)), "count"),
        "campaign.triage_s": (own("campaign.triage"), "s"),
        "campaign.record_s": (own("campaign.record"), "s"),
        "campaign.tests_per_hunt": (_ratio(tests, hunts), "ratio"),
        "pool.self_s": (own("pool.run_tasks"), "s"),
        "pool.wall_s": (pool_wall / pool_units, "s"),
        "pool.cpu_s": (pool_cpu / pool_units, "s"),
        "pool.utilization": (_ratio(pool_cpu, pool_wall * workers), "ratio"),
        "pool.tasks": (sum(s.tasks for s in pool_stats) / pool_units, "count"),
        "pool.starts": (len(pool_stats) / pool_units, "count"),
        "pool.retries": (float(sum(s.retries for s in pool_stats)), "count"),
        "pool.hung": (float(sum(s.hung for s in pool_stats)), "count"),
        "pool.respawns": (float(sum(s.respawns for s in pool_stats)), "count"),
        "pool.stale_results": (float(sum(s.stale_results for s in pool_stats)), "count"),
        "service.open_s": (own("service.open"), "s"),
        "service.run_s": (own("service.run"), "s"),
        "service.record_hunt_s": (own("service.record_hunt"), "s"),
        "service.mark_done_s": (own("service.mark_done"), "s"),
        "service.store_bytes_per_hunt": (
            _ratio(sum(u.extra.get("store_bytes", 0.0) for u in traced), hunts), "B"),
        "service.refresh_s": (own("service.refresh"), "s"),
        "service.claim_s": (own("service.claim"), "s"),
        "service.merge_s": (own("service.merge"), "s"),
        "service.resume_s": (_ratio(sum(resume_times), len(resume_times)), "s"),
        "bench.unit_s": (own("bench.unit"), "s"),
        "trace.units": (float(units), "count"),
        "trace.wall_s": (window, "s"),
        "trace.residual_s": (window - roots, "s"),
        "trace.overhead": (traced_wall / untraced_wall - 1.0, "ratio"),
    }
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    spans = {
        name: {
            "calls": tracer.calls[name],
            "self_s": total,
            "share": total / window,
        }
        for name, total in sorted(self_s.items(), key=lambda kv: -kv[1])
    }
    table = {
        "spans": spans,
        "residual_s": window - roots,
        "wall_s": window,
        "overhead": traced_wall / untraced_wall - 1.0,
        "untraced_unit_s": untraced_wall,
        "traced_unit_s": traced_wall,
    }
    return metrics, table
