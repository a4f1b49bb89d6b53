"""Command-line interface — the Fig. 1 three-phase flow as commands.

::

    tsotool generate --procs 4 --ops 100 --words 16 --seed 1 -o test.trace
    tsotool run      --procs 4 --ops 100 --seed 1 -o run.trace
    tsotool check    run.trace                  # standalone analysis
    tsotool litmus   fig3                       # paper examples by name
    tsotool campaign --table 1                  # regenerate Table 1
    tsotool runtime  --figure 8                 # regenerate Fig. 8 series
    tsotool emit     --procs 4 --ops 100 -o test.S   # SPARC V9 assembly
    tsotool coverage --procs 4 --ops 200        # Sec. 3.1 coverage report

``generate`` emits the program listing; ``run`` generates, executes on
the simulated TSO machine, and writes the observed trace in the
standalone-analysis text format; ``check`` re-analyzes such a trace
(after optional hand edits — the Sec. 3.4 what-if flow).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import urllib.request
import warnings
from typing import List, Optional

from repro import telemetry
from repro.analysis.campaign import (
    CampaignConfig,
    format_table1,
    format_table2,
    run_campaign,
)
from repro.analysis.coverage import measure_coverage
from repro.analysis.minimize import (
    minimize_failure,
    minimize_recorded,
    render_minimized,
)
from repro.analysis.replay import (
    generator_from_meta,
    machine_config_from_meta,
    replay_hunt,
)
from repro.analysis.report import ReportConfig, build_report
from repro.analysis.runtime import format_series, sweep_runtime
from repro.emit.c11 import c11_generator_config, emit_c11
from repro.emit.sparc import emit_sparc
from repro.core.api import DEFAULT_ENGINE, ENGINES, check, check_execution, check_litmus
from repro.core.htmlreport import render_html
from repro.core.policy import PSO, SC, TSO
from repro.generator.config import GeneratorConfig
from repro.generator.generator import generate_program
from repro.generator.litmus import LITMUS_LIBRARY, litmus_by_name
from repro.model.program import format_program, parse_litmus
from repro.model.trace import Execution
from repro.sched import (
    RecordingPolicy,
    ReplayPolicy,
    ScheduleTrace,
    SchedSpec,
    make_policy,
    sweep_program,
)
from repro.service import (
    CampaignManifest,
    CampaignService,
    ResultStore,
    ServiceConfig,
)
from repro.sim.cpus import cpu_by_name, CPU_CONFIGS
from repro.sim.machine import MachineConfig, TsoMachine

_MODELS = {"TSO": TSO, "SC": SC, "PSO": PSO}


def _add_generation_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--procs", type=int, default=4, help="processor count")
    parser.add_argument("--ops", type=int, default=100, help="instructions per processor")
    parser.add_argument("--words", type=int, default=16, help="shared 4-byte words")
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed")


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", metavar="FILE.jsonl",
        help="stream telemetry (spans, pool events, per-process snapshots) "
             "as JSON lines to this file; pool workers append to the same "
             "file (see docs/telemetry.md)",
    )
    parser.add_argument(
        "--telemetry-summary", action="store_true",
        help="print an end-of-run telemetry summary to stderr",
    )


def _generator_config(args: argparse.Namespace) -> GeneratorConfig:
    return GeneratorConfig(
        nprocs=args.procs, ops_per_proc=args.ops, shared_words=args.words
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    program = generate_program(_generator_config(args), seed=args.seed)
    text = format_program(program)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _sched_spec(args: argparse.Namespace) -> SchedSpec:
    return SchedSpec(
        kind=args.sched,
        pct_depth=args.pct_depth,
        sweep_budget=args.sweep_budget,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.replay_schedule:
        return _run_replay(args)
    if args.sched == "sweep":
        return _run_sweep(args)
    gen_config = _generator_config(args)
    program = generate_program(gen_config, seed=args.seed)
    policy = make_policy(_sched_spec(args), seed=args.seed)
    if args.record_schedule:
        policy = RecordingPolicy(policy)
        machine_dict = dataclasses.asdict(MachineConfig())
        machine_dict.pop("sched", None)
        policy.trace.meta.update({
            "kind": "run",
            "seed": args.seed,
            "model": args.model,
            "generator": dataclasses.asdict(gen_config),
            "machine": machine_dict,
        })
    machine = TsoMachine(
        program, seed=args.seed, config=MachineConfig(), policy=policy
    )
    execution = machine.run()
    trace = execution.dump()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(trace)
        print(f"wrote {execution.total_records()} records to {args.output}")
    else:
        sys.stdout.write(trace)
    if args.record_schedule:
        policy.trace.save(args.record_schedule)
        print(
            f"recorded {len(policy.trace)} schedule choices to "
            f"{args.record_schedule}"
        )
    result = check(program, execution, model=_MODELS[args.model])
    print(result.explain())
    return 0 if result.ok else 1


def _run_sweep(args: argparse.Namespace) -> int:
    """Systematic mode: enumerate schedules and check every outcome."""
    program = generate_program(_generator_config(args), seed=args.seed)
    sweep = sweep_program(program, seed=args.seed, budget=args.sweep_budget)
    print(sweep.stats.render())
    exit_code = 0
    for outcome in sweep.outcomes.values():
        result = check(program, outcome.execution, model=_MODELS[args.model])
        if result.ok:
            status = "ok"
        else:
            status = f"VIOLATION ({result.violation.kind.value})"
            exit_code = 1
        print(f"  outcome {outcome.key} x{outcome.count}: {status}")
    return exit_code


def _run_replay(args: argparse.Namespace) -> int:
    """Replay a recorded schedule exactly; generation args are ignored."""
    trace = ScheduleTrace.load(args.replay_schedule)
    if "fault" in trace.meta:
        replayed = replay_hunt(trace)
        verdict = "reproduced" if replayed.detected else "NOT reproduced"
        print(
            f"replayed hunt {trace.meta.get('bug', '?')} "
            f"({len(trace)} choices): detection {verdict}"
        )
        if replayed.via:
            print(f"  via: {replayed.via}")
        return 0 if replayed.detected else 1
    gen_config = generator_from_meta(trace.meta["generator"])
    machine_config = machine_config_from_meta(trace.meta["machine"])
    seed = int(trace.meta["seed"])
    model = _MODELS[str(trace.meta.get("model", args.model))]
    program = generate_program(gen_config, seed=seed)
    machine = TsoMachine(
        program, seed=seed, config=machine_config, policy=ReplayPolicy(trace)
    )
    execution = machine.run()
    print(f"replayed {len(trace)} schedule choices from {args.replay_schedule}")
    result = check(program, execution, model=model)
    print(result.explain())
    return 0 if result.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    with open(args.trace) as fh:
        execution = Execution.load(fh.read())
    result = check_execution(
        execution, model=_MODELS[args.model], engine=args.engine
    )
    print(result.explain())
    if args.dot and result.violation is not None:
        with open(args.dot, "w") as fh:
            fh.write(result.to_dot())
        print(f"wrote violation graph to {args.dot}")
    if args.graph:
        with open(args.graph, "w") as fh:
            fh.write(result.dump_graph())
        print(f"wrote analysis graph to {args.graph}")
    if args.html:
        with open(args.html, "w") as fh:
            fh.write(render_html(result, title=f"tsotool check {args.trace}"))
        print(f"wrote interactive debug report to {args.html}")
    return 0 if result.ok else 1


def _cmd_minimize(args: argparse.Namespace) -> int:
    try:
        if args.replay_schedule:
            minimized = minimize_recorded(
                ScheduleTrace.load(args.replay_schedule),
                max_checks=args.max_checks,
            )
        else:
            if not args.trace:
                print("cannot minimize: give a trace file or --replay-schedule")
                return 2
            with open(args.trace) as fh:
                execution = Execution.load(fh.read())
            minimized = minimize_failure(
                execution, model=_MODELS[args.model], max_checks=args.max_checks
            )
    except ValueError as exc:
        print(f"cannot minimize: {exc}")
        return 2
    print(render_minimized(minimized))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(minimized.execution.dump())
        print(f"wrote minimized trace to {args.output}")
    return 0


def _cmd_emit(args: argparse.Namespace) -> int:
    if args.lang == "c11":
        config = c11_generator_config(
            nprocs=args.procs, ops_per_proc=args.ops, shared_words=args.words
        )
        program = generate_program(config, seed=args.seed)
        text = emit_c11(program)
    else:
        program = generate_program(_generator_config(args), seed=args.seed)
        text = emit_sparc(program)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {len(text.splitlines())} lines of {args.lang} to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    program = generate_program(_generator_config(args), seed=args.seed)
    machine = TsoMachine(program, seed=args.seed, config=MachineConfig())
    execution = machine.run()
    report = measure_coverage(program, execution, machine)
    print(report.render())
    return 0


def _cmd_litmus(args: argparse.Namespace) -> int:
    if args.name == "list":
        for case in LITMUS_LIBRARY:
            marks = ", ".join(
                f"{m}:{'pass' if ok else 'FAIL'}" for m, ok in case.expect.items()
            )
            print(f"{case.name:20s} [{marks}] {case.paper_ref}")
        return 0
    case = litmus_by_name(args.name)
    print(f"# {case.name} ({case.paper_ref or 'classic'})")
    print(case.description)
    exit_code = 0
    for model_name in case.expect:
        result = check_litmus(case.text, model=_MODELS[model_name])
        verdict = "PASS" if result.ok else "FAIL"
        expected = "PASS" if case.expect[model_name] else "FAIL"
        status = "ok" if result.ok == case.expect[model_name] else "UNEXPECTED"
        print(f"[{model_name}] {verdict} (expected {expected}) — {status}")
        if not result.ok and args.explain:
            print(result.explain())
        if result.ok != case.expect[model_name]:
            exit_code = 2
    return exit_code


def _pool_progress(event) -> None:
    """Per-task progress line on stderr (parallel runs only)."""
    print(event.render(), file=sys.stderr)


def _require_workers_for_timeout(args: argparse.Namespace) -> bool:
    """``--task-timeout`` is enforced by killing worker processes, which
    the inline ``--workers 1`` path does not have; reject the combination
    instead of silently running without a timeout."""
    if args.task_timeout is not None and args.workers <= 1:
        print(
            "error: --task-timeout requires --workers >= 2 (the inline "
            "path cannot kill an overdue task, so the timeout would be "
            "ignored)",
            file=sys.stderr,
        )
        return False
    return True


def _cmd_campaign(args: argparse.Namespace) -> int:
    if not _require_workers_for_timeout(args):
        return 2
    if args.batch < 1:
        print("--batch must be >= 1", file=sys.stderr)
        return 2
    config = CampaignConfig(
        tests_per_bug=args.tests_per_bug,
        seed=args.seed,
        sched=SchedSpec(kind=args.sched, pct_depth=args.pct_depth),
        engine=args.engine,
        batch=args.batch,
        pipeline=args.pipeline,
    )
    kwargs = {}
    if args.cpu:
        kwargs["cpus"] = [cpu_by_name(name) for name in args.cpu]
    try:
        result = run_campaign(
            config=config,
            workers=args.workers,
            task_timeout=args.task_timeout,
            progress=_pool_progress if args.workers > 1 else None,
            record_dir=args.record_schedule,
            **kwargs,
        )
    except Exception as exc:  # noqa: BLE001 - campaign crashed mid-hunt
        print(f"campaign crashed mid-hunt: {exc}", file=sys.stderr)
        return 2
    if args.table in (0, 1):
        print("Table 1: bugs found, by class")
        print(format_table1(result))
        print()
    if args.table in (0, 2):
        print("Table 2: bugs found, by functional unit")
        print(format_table2(result))
        print()
    missed = result.missed()
    hung = result.hung_hunts()
    print(
        f"{len(result.hunts) - len(missed)}/{len(result.hunts)} seeded bugs "
        f"detected in {result.wall_seconds:.1f}s wall clock "
        f"({result.cpu_seconds:.1f}s analysis CPU)"
    )
    if result.stats is not None:
        print(result.stats.throughput_line())
    print(result.detection_line())
    if args.record_schedule:
        recorded = sum(1 for h in result.hunts if h.schedule is not None)
        print(f"wrote {recorded} schedule trace(s) to {args.record_schedule}/")
    for hunt in missed:
        tag = "hung" if hunt.hung else "missed"
        print(f"  {tag}: {hunt.spec.name} ({hunt.spec.mechanism.__name__})")
    return result.exit_code()


def _cmd_submit(args: argparse.Namespace) -> int:
    try:
        manifest = CampaignManifest.load(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"cannot submit: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"cannot submit: {args.manifest} is not JSON: {exc}",
              file=sys.stderr)
        return 2
    service = CampaignService(ServiceConfig(root=args.root, http_port=None))
    job_id = service.submit(manifest)
    state = (
        "already finished" if service.job_done(job_id) else "queued"
    )
    print(
        f"submitted {job_id}: {len(manifest.shards())} shard(s), "
        f"{manifest.hunt_count()} hunt(s), {state}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if not _require_workers_for_timeout(args):
        return 2
    if args.lease_seconds <= 0:
        print("--lease-seconds must be positive", file=sys.stderr)
        return 2
    if args.batch is not None and args.batch < 1:
        print("--batch must be >= 1", file=sys.stderr)
        return 2
    config = ServiceConfig(
        root=args.root,
        workers=args.workers,
        task_timeout=args.task_timeout,
        poll_seconds=args.poll_seconds,
        http_host=args.http_host,
        http_port=None if args.no_http else args.http_port,
        once=args.once,
        owner=args.owner,
        lease_seconds=args.lease_seconds,
        batch=args.batch,
    )
    service = CampaignService(
        config, progress=_pool_progress if args.workers > 1 else None
    )
    return service.serve()


def _status_payload(root: str) -> dict:
    """Live payload from the daemon's endpoint when one is up; otherwise
    an offline scan of the same stores (identical shape)."""
    address_path = os.path.join(root, "status.address")
    try:
        with open(address_path) as fh:
            host, port = fh.read().split()
        url = f"http://{host}:{port}/status"
        with urllib.request.urlopen(url, timeout=5) as resp:
            payload = json.load(resp)
        payload["service"]["live"] = True
        return payload
    except (OSError, ValueError):
        pass
    service = CampaignService(ServiceConfig(root=root, http_port=None))
    payload = service.status()
    payload["service"]["live"] = False
    return payload


def _cmd_status(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.root):
        print(f"no service root at {args.root}", file=sys.stderr)
        return 2
    payload = _status_payload(args.root)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    info = payload["service"]
    source = (
        f"live daemon, pid {info['pid']}" if info.get("live")
        else "offline scan"
    )
    print(f"service root {info['root']} ({source})")
    jobs = payload.get("jobs", [])
    if not jobs:
        print("no jobs submitted")
        return 0
    for job in jobs:
        shards, hunts = job["shards"], job["hunts"]
        line = (
            f"  {job['id']}: {job['state']}, "
            f"shards {shards['done']}/{shards['total']}, "
            f"hunts {hunts['recorded']}/{hunts['total']} "
            f"({hunts['detected']} detected, {hunts['hung']} hung)"
        )
        if job.get("dedup_buckets"):
            line += f", {job['dedup_buckets']} failure bucket(s)"
        if job.get("exit_code") is not None:
            line += f", exit {job['exit_code']}"
        if job.get("error"):
            line += f", {job['error']}"
        print(line)
        owners = job.get("owners") or {}
        for owner in sorted(owners):
            stats = owners[owner]
            if not isinstance(stats, dict):
                # Payload from a pre-throughput daemon: plain counts.
                print(f"    leased by {owner}: {stats} shard(s)")
                continue
            line = (
                f"    {owner}: {stats.get('active_shards', 0)} active "
                f"shard(s), {stats.get('hunts', 0)} hunt(s)"
            )
            if stats.get("hunts_per_s"):
                line += (
                    f", {stats['hunts_per_s']} hunts/s, "
                    f"{stats.get('ops_per_s', 0.0)} ops/s"
                )
            print(line)
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.root):
        print(f"no service root at {args.root}", file=sys.stderr)
        return 2
    service = CampaignService(ServiceConfig(root=args.root, http_port=None))
    report = service.gc(
        min_age_seconds=args.older_than, compact=not args.no_compact
    )
    removed = report["removed_spool"]
    print(
        f"gc: removed {len(removed)} finished spool entr"
        f"{'y' if len(removed) == 1 else 'ies'}, "
        f"{len(report['removed_tmp'])} tmp file(s), "
        f"compacted {report['compacted_shards']} shard(s)"
    )
    for job_id in removed:
        print(f"  retired {job_id}")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.root):
        print(f"no service root at {args.root}", file=sys.stderr)
        return 2
    service = CampaignService(ServiceConfig(root=args.root, http_port=None))
    total_before = total_after = shards = 0
    for job_id, _manifest, _error in service.spooled():
        job_dir = service.job_dir(job_id)
        if not os.path.isdir(job_dir):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            store = ResultStore(job_dir)
            try:
                for _shard_id, (before, after) in store.compact().items():
                    shards += 1
                    total_before += before
                    total_after += after
            finally:
                store.close()
    print(
        f"compacted {shards} done shard(s): "
        f"{total_before} -> {total_after} line(s)"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    text = build_report(ReportConfig(tests_per_bug=args.tests_per_bug))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote reproduction report to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_runtime(args: argparse.Namespace) -> int:
    if not _require_workers_for_timeout(args):
        return 2
    pool_kwargs = dict(
        workers=args.workers,
        task_timeout=args.task_timeout,
        progress=_pool_progress if args.workers > 1 else None,
    )
    if args.figure == 8:
        points = sweep_runtime(
            proc_counts=[2, 4, 8, 16], word_counts=[16],
            ops_points=args.ops_points, seed=args.seed, engine=args.engine,
            **pool_kwargs,
        )
        print(format_series(points, "Fig. 8: analysis time vs ops, by processor count"))
    else:
        points = sweep_runtime(
            proc_counts=[4], word_counts=[4, 16, 64],
            ops_points=args.ops_points, seed=args.seed, engine=args.engine,
            **pool_kwargs,
        )
        print(format_series(points, "Fig. 9: analysis time vs ops, by shared addresses"))
    if points.stats is not None and args.workers > 1:
        print(points.stats.throughput_line())
    if points.stats is not None and points.stats.hung:
        print(
            f"{points.stats.hung} sweep point(s) hung and were dropped",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="tsotool", description="TSOtool reproduction (ISCA 2004)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a racy test program")
    _add_generation_args(p)
    p.add_argument("-o", "--output", help="write listing to a file")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="generate, simulate, and check a test")
    _add_generation_args(p)
    p.add_argument("-o", "--output", help="write the trace to a file")
    p.add_argument("--model", choices=sorted(_MODELS), default="TSO")
    p.add_argument("--sched", choices=["random", "pct", "sweep"],
                   default="random",
                   help="schedule-exploration policy (see docs/schedulers.md)")
    p.add_argument("--pct-depth", type=int, default=3,
                   help="PCT bug-depth parameter (--sched pct)")
    p.add_argument("--sweep-budget", type=int, default=256,
                   help="max schedules to enumerate (--sched sweep)")
    p.add_argument("--record-schedule", metavar="FILE",
                   help="save the run's ScheduleTrace JSON here")
    p.add_argument("--replay-schedule", metavar="FILE",
                   help="re-execute a recorded ScheduleTrace exactly "
                        "(generation args are ignored)")
    p.add_argument("--profile-out", metavar="FILE",
                   help="profile the command under cProfile and dump "
                        "pstats data here (see docs/performance.md)")
    _add_telemetry_args(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("check", help="analyze a trace file (what-if friendly)")
    p.add_argument("trace", help="trace file from 'run' (optionally edited)")
    p.add_argument("--model", choices=sorted(_MODELS), default="TSO")
    p.add_argument("--engine", choices=sorted(ENGINES),
                   default=DEFAULT_ENGINE)
    p.add_argument("--dot", help="write the violation region as Graphviz DOT")
    p.add_argument("--graph", help="write the full analysis graph as text")
    p.add_argument("--html", help="write a clickable HTML debug report")
    p.add_argument("--profile-out", metavar="FILE",
                   help="profile the command under cProfile and dump "
                        "pstats data here (see docs/performance.md)")
    _add_telemetry_args(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("minimize", help="shrink a failing trace to its core")
    p.add_argument("trace", nargs="?",
                   help="failing trace file from 'run' (omit with "
                        "--replay-schedule)")
    p.add_argument("--model", choices=sorted(_MODELS), default="TSO")
    p.add_argument("--max-checks", type=int, default=5000)
    p.add_argument("--replay-schedule", metavar="FILE",
                   help="replay this recorded hunt schedule and shrink "
                        "the exact failing execution it reproduces")
    p.add_argument("-o", "--output", help="write the minimized trace")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser(
        "emit", help="emit a test as SPARC V9 assembly or a C11 program"
    )
    _add_generation_args(p)
    p.add_argument("--lang", choices=["sparc", "c11"], default="sparc")
    p.add_argument("-o", "--output", help="write the emitted source to a file")
    p.set_defaults(func=_cmd_emit)

    p = sub.add_parser("coverage", help="run a test and report its coverage")
    _add_generation_args(p)
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("litmus", help="run a named litmus case ('list' to list)")
    p.add_argument("name")
    p.add_argument("--explain", action="store_true", help="print violation chains")
    p.set_defaults(func=_cmd_litmus)

    p = sub.add_parser(
        "campaign",
        help="regenerate Tables 1 and 2",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  campaign completed and every seeded bug was detected\n"
            "  1  campaign completed but some seeded bugs went undetected\n"
            "  2  a hunt hung (worker timeout/crash after retry) or the\n"
            "     campaign crashed mid-hunt\n"
            "\n"
            "Results are hunt-for-hunt identical for any --workers value\n"
            "given the same --seed (see docs/parallel-campaigns.md)."
        ),
    )
    p.add_argument("--table", type=int, choices=[0, 1, 2], default=0,
                   help="which table (0 = both)")
    p.add_argument("--tests-per-bug", type=int, default=10)
    p.add_argument("--seed", type=int, default=2004)
    p.add_argument("--cpu", action="append",
                   choices=[c.name for c in CPU_CONFIGS],
                   help="restrict to this CPU (repeatable; default: all six)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the hunts (default: 1, sequential)")
    p.add_argument("--task-timeout", type=float, default=None,
                   help="hard per-hunt timeout in seconds (workers > 1 only)")
    p.add_argument("--sched", choices=["random", "pct"], default="random",
                   help="schedule policy for every hunt (sweep does not "
                        "fit per-attempt hunts; see docs/schedulers.md)")
    p.add_argument("--pct-depth", type=int, default=3,
                   help="PCT bug-depth parameter (--sched pct)")
    p.add_argument("--record-schedule", metavar="DIR",
                   help="persist every detected hunt's ScheduleTrace as "
                        "DIR/<bug>.schedule.json")
    p.add_argument("--engine", choices=sorted(ENGINES),
                   default=DEFAULT_ENGINE,
                   help="checker engine for hunt triage")
    p.add_argument("--batch", type=int, default=1,
                   help="hunts dispatched per pool task (default: 1); "
                        "batching amortizes task round-trips and reuses "
                        "warm machine/checker state — results are "
                        "identical for any value (docs/performance.md). "
                        "Note --task-timeout then covers a whole batch")
    p.add_argument("--pipeline", action="store_true",
                   help="overlap checking with simulation per attempt "
                        "(online checker over the whole run; violating "
                        "seeds abort at the closing record) — verdicts "
                        "identical to the conventional path")
    _add_telemetry_args(p)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "submit",
        help="spool a campaign manifest for the service daemon",
    )
    p.add_argument("manifest", help="campaign manifest JSON file "
                   "(see docs/campaign-service.md)")
    p.add_argument("--root", default="service",
                   help="service root directory (default: ./service)")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "serve",
        help="run the campaign service daemon",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes (--once):\n"
            "  0  every job's seeded bugs were all detected\n"
            "  1  some job left seeded bugs undetected\n"
            "  2  some job had a hung hunt or crashed mid-hunt\n"
            "i.e. the worst 'tsotool campaign' exit code across jobs.\n"
            "Without --once the daemon serves until SIGINT/SIGTERM\n"
            "and exits 0 on clean shutdown."
        ),
    )
    p.add_argument("--root", default="service",
                   help="service root directory (default: ./service)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes per job (default: 1, sequential)")
    p.add_argument("--task-timeout", type=float, default=None,
                   help="hard per-hunt timeout in seconds (workers > 1 only)")
    p.add_argument("--once", action="store_true",
                   help="drain the spool once and exit instead of serving")
    p.add_argument("--poll-seconds", type=float, default=0.5,
                   help="spool re-scan interval while idle")
    p.add_argument("--http-host", default="127.0.0.1",
                   help="status endpoint bind host")
    p.add_argument("--http-port", type=int, default=0,
                   help="status endpoint port (default: 0 = OS-assigned; "
                        "the bound address is written to ROOT/status.address)")
    p.add_argument("--no-http", action="store_true",
                   help="run without the status endpoint")
    p.add_argument("--owner", default=None,
                   help="lease owner id for this daemon (default: "
                        "<hostname>-<pid>); give each daemon of a fleet "
                        "a distinct name")
    p.add_argument("--lease-seconds", type=float, default=30.0,
                   help="shard lease lifetime in seconds (default: 30); "
                        "a killed daemon's shards are taken over by a "
                        "peer after one expiry window")
    p.add_argument("--batch", type=int, default=None,
                   help="hunts per pool task, overriding each "
                        "manifest's batch setting (default: the "
                        "manifest decides); drains are digest-identical "
                        "for any value")
    _add_telemetry_args(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "status",
        help="show service job progress (live endpoint or offline scan)",
    )
    p.add_argument("--root", default="service",
                   help="service root directory (default: ./service)")
    p.add_argument("--json", action="store_true",
                   help="print the raw status payload as JSON")
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser(
        "gc",
        help="reclaim a service root: retire finished jobs' spool "
             "entries, sweep tmp litter, compact done shards",
    )
    p.add_argument("--root", default="service",
                   help="service root directory (default: ./service)")
    p.add_argument("--older-than", type=float, default=0.0,
                   metavar="SECONDS",
                   help="only retire jobs whose result.json is at least "
                        "this old (default: 0, any finished job)")
    p.add_argument("--no-compact", action="store_true",
                   help="skip shard compaction while collecting")
    p.set_defaults(func=_cmd_gc)

    p = sub.add_parser(
        "compact",
        help="rewrite every done shard's store file to its canonical "
             "record set (drops superseded records and lease history)",
    )
    p.add_argument("--root", default="service",
                   help="service root directory (default: ./service)")
    p.set_defaults(func=_cmd_compact)

    p = sub.add_parser(
        "report", help="run the whole evaluation and write one report"
    )
    p.add_argument("-o", "--output", help="write the markdown report here")
    p.add_argument("--tests-per-bug", type=int, default=10)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("runtime", help="regenerate the Fig. 8/9 series")
    p.add_argument("--figure", type=int, choices=[8, 9], default=8)
    p.add_argument("--ops-points", type=int, nargs="+",
                   default=[400, 800, 1600, 3200])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", choices=sorted(ENGINES),
                   default=DEFAULT_ENGINE)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the sweep points (default: 1); "
                        "parallel points contend for cores, so keep 1 when "
                        "publishing timing numbers")
    p.add_argument("--task-timeout", type=float, default=None,
                   help="hard per-point timeout in seconds (workers > 1 only)")
    _add_telemetry_args(p)
    p.set_defaults(func=_cmd_runtime)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    want_summary = bool(getattr(args, "telemetry_summary", False))
    if metrics_out or want_summary:
        telemetry.configure(metrics_out=metrics_out)
    try:
        profile_out = getattr(args, "profile_out", None)
        if profile_out:
            import cProfile

            profiler = cProfile.Profile()
            try:
                return profiler.runcall(args.func, args)
            finally:
                profiler.dump_stats(profile_out)
                print(f"profile written to {profile_out} "
                      "(inspect with python -m pstats)", file=sys.stderr)
        return args.func(args)
    finally:
        tel = telemetry.get_telemetry()
        if tel.enabled:
            tel.flush()
            tel.close()
            if want_summary:
                if metrics_out:
                    print(telemetry.summarize_file(metrics_out),
                          file=sys.stderr)
                else:
                    print(tel.summary(), file=sys.stderr)
            telemetry.reset()


if __name__ == "__main__":
    sys.exit(main())
