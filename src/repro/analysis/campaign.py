"""Randomized bug-hunting campaigns — the harness behind Tables 1 and 2.

For every seeded bug of a :class:`~repro.sim.cpus.CpuConfig`, the
campaign runs freshly generated racy tests on a machine with exactly that
fault active until the bug is *found* or the test budget runs out.
"Found" depends on the bug class, mirroring how the paper's users triaged
failures:

* **architecture / design** — the TSOtool analysis of the observed run
  fails: the machine genuinely violated the memory model.
* **monitor** — a runtime-checker alarm fired on a run whose TSOtool
  analysis passes: the design was fine, the checker is buggy.
* **environment** — the observed trace fails analysis but the machine's
  true trace passes: the observation path corrupted the results.

The campaign then reports detected-bug counts grouped by class (Table 1)
and by functional unit (Table 2).
"""

from __future__ import annotations

import os
import zlib
from itertools import accumulate
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.analysis.pool import ProgressFn, run_tasks
from repro.analysis.replay import bug_spec_from_meta, hunt_trace_meta
from repro.core.api import DEFAULT_ENGINE, check
from repro.core.policy import TSO, MemoryModel
from repro.core.stream import stream_check_machine
from repro.core.result import PoolStats
from repro.generator.config import GeneratorConfig, InstructionMix
from repro.generator.generator import generate_program
from repro.sched.spec import SchedSpec, make_policy
from repro.sched.trace import RecordingPolicy
from repro.sim.cpus import CPU_CONFIGS, BugSpec, CpuConfig
from repro.sim.faults import BugClass, FuncUnit
from repro.sim.machine import MachineConfig, TsoMachine


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign-wide knobs.

    Attributes:
        tests_per_bug: test budget per seeded bug.
        generator: base test-generator configuration; the campaign's
            tests are intentionally short with intense sharing ("a
            relatively short test with intense sharing", Sec. 3.1).
        machine: machine tunables for every run.
        model: memory model checked against.
        seed: campaign master seed (everything derives from it).
        sched: schedule-exploration strategy for every run
            (:class:`~repro.sched.spec.SchedSpec`).  The spec — not a
            live policy — is what gets pickled to pool workers; each
            attempt instantiates a fresh policy from it, so parallel and
            sequential campaigns stay hunt-for-hunt identical.
        engine: checker engine used to triage every run (any key of
            :data:`repro.core.api.ENGINES`); the engines agree on
            verdicts, so this only changes triage speed.
        batch: hunts dispatched per pool task (``>= 1``).  Batching
            amortizes the per-task fixed costs — task pickling and pipe
            round-trips, worker telemetry flushes — and lets the hunts
            of a batch share warm state (a reset :class:`TsoMachine`)
            via :class:`HuntScratch`.  Every
            hunt's seed stream is derived from (campaign seed, cpu, bug
            index) alone, so results are hunt-for-hunt identical for
            any batch size.
        pipeline: overlap checking with simulation per attempt using
            the online checker (:mod:`repro.core.stream`;
            architecture/design hunts only): the run is checked as
            records retire, keeping the whole run, and a violating seed
            aborts at the closing record, then that one attempt is
            re-run conventionally for the canonical verdict — hunts
            stay identical to the non-pipelined path at any program
            size.  Monitor and environment hunts always triage
            conventionally (their verdicts consult post-run machine
            state, and the observer hook changes where observation
            faults draw their RNG).
    """

    tests_per_bug: int = 10
    generator: GeneratorConfig = field(
        default_factory=lambda: GeneratorConfig(
            nprocs=4,
            ops_per_proc=80,
            shared_words=6,
            mix=InstructionMix(
                load=30.0, store=30.0, swap=6.0, cas=6.0, membar=8.0,
                block_load=1.0, block_store=1.0, nonfaulting_load=1.0,
                prefetch=1.0, flush=1.0, branch=1.0, interrupt=0.5,
            ),
        )
    )
    machine: MachineConfig = field(default_factory=MachineConfig)
    model: MemoryModel = TSO
    seed: int = 2004
    sched: SchedSpec = field(default_factory=SchedSpec)
    engine: str = DEFAULT_ENGINE
    batch: int = 1
    pipeline: bool = False

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ValueError("batch must be >= 1")


@dataclass
class BugHunt:
    """The outcome of hunting one seeded bug.

    ``hung`` marks a hunt whose worker crashed or exceeded the per-task
    timeout on every attempt (see :mod:`repro.analysis.pool`); such a
    hunt ran no conclusive tests and is counted as undetected *and*
    reported separately — never silently dropped.

    ``schedule`` holds the complete JSON :class:`ScheduleTrace` of the
    detecting run (None for undetected hunts): every scheduler decision
    plus the reconstruction metadata, so the failure can be re-executed
    exactly with :func:`repro.analysis.replay.replay_hunt` — even from a
    different process than the pool worker that found it.

    ``ops`` counts the dynamic operations this hunt simulated across
    its attempts — throughput accounting for the fleet status endpoint.
    Like ``schedule`` it is excluded from the hunt digest: a pipelined
    hunt aborts violating runs early and so simulates fewer ops than
    the conventional path while reaching the identical verdict.
    """

    spec: BugSpec
    cpu: str
    detected: bool
    tests_run: int
    detected_on_seed: Optional[int] = None
    via: str = ""
    hung: bool = False
    schedule: Optional[str] = None
    ops: int = 0

    @property
    def unit(self) -> FuncUnit:
        """Functional unit of the hunted bug."""
        return self.spec.unit

    @property
    def bug_class(self) -> BugClass:
        """Bug class of the hunted bug."""
        return self.spec.bug_class

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation, stable across processes.

        Only primary fields are stored; derived properties (``unit``,
        ``bug_class``) are recomputed from the spec on load.  The spec
        itself uses the same field layout as a hunt trace's ``fault``
        meta, so :func:`repro.analysis.replay.bug_spec_from_meta` is the
        shared decoder.
        """
        return {
            "spec": {
                "name": self.spec.name,
                "mechanism": self.spec.mechanism.__name__,
                "unit": self.spec.unit.value,
                "bug_class": self.spec.bug_class.value,
                "rate": self.spec.rate,
            },
            "cpu": self.cpu,
            "detected": self.detected,
            "tests_run": self.tests_run,
            "detected_on_seed": self.detected_on_seed,
            "via": self.via,
            "hung": self.hung,
            "schedule": self.schedule,
            "ops": self.ops,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BugHunt":
        """Inverse of :meth:`to_dict`."""
        seed = data.get("detected_on_seed")
        return cls(
            spec=bug_spec_from_meta(dict(data["spec"])),  # type: ignore[arg-type]
            cpu=str(data["cpu"]),
            detected=bool(data["detected"]),
            tests_run=int(data["tests_run"]),  # type: ignore[arg-type]
            detected_on_seed=None if seed is None else int(seed),  # type: ignore[arg-type]
            via=str(data.get("via", "")),
            hung=bool(data.get("hung", False)),
            schedule=None if data.get("schedule") is None else str(data["schedule"]),
            ops=int(data.get("ops", 0)),  # type: ignore[arg-type]
        )


@dataclass
class CampaignResult:
    """All hunts of a campaign plus derived table rows.

    Timing is reported on two axes that must not be conflated:
    ``wall_seconds`` is elapsed time around the whole campaign, while
    ``cpu_seconds`` sums per-hunt compute time across all workers.  With
    one worker they are nearly equal; with N workers ``cpu_seconds`` can
    approach ``N * wall_seconds``.
    """

    hunts: List[BugHunt]
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    stats: Optional[PoolStats] = None
    #: Human-readable scheduler description (``SchedSpec.describe()``)
    #: of the campaign that produced these hunts.
    sched: str = "random"

    def by_cpu(self) -> Dict[str, List[BugHunt]]:
        """Hunts grouped by CPU name."""
        grouped: Dict[str, List[BugHunt]] = {}
        for hunt in self.hunts:
            grouped.setdefault(hunt.cpu, []).append(hunt)
        return grouped

    def table1_rows(self) -> List[Tuple[str, Dict[BugClass, int]]]:
        """Detected-bug counts by class per CPU (the rows of Table 1)."""
        rows = []
        for cpu, hunts in self.by_cpu().items():
            counts = {cls: 0 for cls in BugClass}
            for hunt in hunts:
                if hunt.detected:
                    counts[hunt.bug_class] += 1
            rows.append((cpu, counts))
        return rows

    def table2_rows(self) -> List[Tuple[str, Dict[FuncUnit, int]]]:
        """Detected-bug counts by unit per CPU (the rows of Table 2).

        Environment bugs and unit-less bugs are excluded, matching how
        the paper's Table 2 reconciles with Table 1 (see
        :mod:`repro.sim.cpus`).
        """
        rows = []
        for cpu, hunts in self.by_cpu().items():
            counts = {u: 0 for u in FuncUnit if u != FuncUnit.NONE}
            for hunt in hunts:
                if (
                    hunt.detected
                    and hunt.bug_class != BugClass.ENVIRONMENT
                    and hunt.unit != FuncUnit.NONE
                ):
                    counts[hunt.unit] += 1
            rows.append((cpu, counts))
        return rows

    def detection_rate(self) -> float:
        """Fraction of seeded bugs detected (0.0 with no hunts)."""
        if not self.hunts:
            return 0.0
        return sum(1 for h in self.hunts if h.detected) / len(self.hunts)

    def detection_line(self) -> str:
        """One-line per-policy effectiveness summary for reports."""
        detected = sum(1 for h in self.hunts if h.detected)
        tests = sum(h.tests_run for h in self.hunts)
        return (
            f"sched={self.sched}: {detected}/{len(self.hunts)} bugs detected "
            f"({100.0 * self.detection_rate():.1f}%) in {tests} tests"
        )

    def missed(self) -> List[BugHunt]:
        """Hunts that ended without a detection (including hung ones)."""
        return [h for h in self.hunts if not h.detected]

    def hung_hunts(self) -> List[BugHunt]:
        """Hunts abandoned after worker crashes/timeouts (never silent)."""
        return [h for h in self.hunts if h.hung]

    def exit_code(self) -> int:
        """The documented campaign exit-code contract, derived from hunts.

        0 = every seeded bug detected, 1 = some bugs undetected, 2 = at
        least one hunt hung.  Shared by ``tsotool campaign`` and the
        campaign service so a resumed job reports exactly what a
        from-scratch campaign would.
        """
        if self.hung_hunts():
            return 2
        if self.missed():
            return 1
        return 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation for archived/merged campaign results.

        Derived rows (``table1_rows``, ``detection_rate``, …) are never
        stored — they are recomputed from the hunts on load, so stored
        results cannot drift from their own tables.
        """
        return {
            "hunts": [h.to_dict() for h in self.hunts],
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "stats": None if self.stats is None else self.stats.to_dict(),
            "sched": self.sched,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignResult":
        """Inverse of :meth:`to_dict`."""
        stats = data.get("stats")
        return cls(
            hunts=[BugHunt.from_dict(h) for h in data.get("hunts", [])],  # type: ignore[union-attr]
            wall_seconds=float(data.get("wall_seconds", 0.0)),  # type: ignore[arg-type]
            cpu_seconds=float(data.get("cpu_seconds", 0.0)),  # type: ignore[arg-type]
            stats=None if stats is None else PoolStats.from_dict(dict(stats)),  # type: ignore[arg-type]
            sched=str(data.get("sched", "random")),
        )


class HuntScratch:
    """Reusable per-worker state shared by the hunts of a batch.

    Holds one :class:`TsoMachine` slot, reset between attempts instead
    of re-constructed.  Single-process scratch: a scratch never crosses
    a pool-task boundary, so batched and unbatched campaigns stay
    hunt-for-hunt identical.
    """

    def __init__(self) -> None:
        self.machine: Optional[TsoMachine] = None

    def arm_machine(
        self, program, seed: int, machine_config: MachineConfig,
        faults, policy,
    ) -> TsoMachine:
        """A machine armed for this attempt: reset when possible."""
        machine = self.machine
        if machine is None or machine.config != machine_config:
            machine = TsoMachine(
                program, seed=seed, config=machine_config, faults=faults,
                policy=policy,
            )
            self.machine = machine
            return machine
        return machine.reset(
            program, seed=seed, faults=faults, policy=policy
        )


def _pipeline_applies(spec: BugSpec, config: CampaignConfig) -> bool:
    """Whether an attempt may stream-check instead of run-then-check.

    Only architecture/design hunts qualify: their triage is exactly
    "does the observed run pass analysis", their faults never corrupt
    the observation path (so the observer hook sees the same records
    the batch path would), and the verdict carries no post-run machine
    state.
    """
    return config.pipeline and spec.bug_class in (
        BugClass.ARCHITECTURE, BugClass.DESIGN
    )


def hunt_bug(
    spec: BugSpec,
    cpu_name: str,
    config: CampaignConfig,
    bug_index: int = 0,
    scratch: Optional[HuntScratch] = None,
) -> BugHunt:
    """Hunt one seeded bug with freshly generated tests.

    One fault is active per run (the paper root-causes failures one at a
    time); the seed stream is derived from the campaign seed, the CPU
    name and the bug index so campaigns are exactly reproducible —
    independent of batching, workers, ``scratch`` reuse and pipeline
    mode, all of which only change *how* the identical runs execute.
    """
    # zlib.crc32 rather than hash(): str hashing is randomized per
    # process, which would make campaigns unreproducible across runs.
    base = (
        config.seed * 1_000_003
        + (zlib.crc32(cpu_name.encode()) % 1_000_003) * 101
        + bug_index * 7_919
    )
    pipelined = _pipeline_applies(spec, config)

    def arm(seed: int) -> TsoMachine:
        fault = spec.instantiate()
        policy = make_policy(config.sched, seed=seed)
        if scratch is None:
            return TsoMachine(
                program, seed=seed, config=config.machine, faults=[fault],
                policy=policy,
            )
        return scratch.arm_machine(
            program, seed, config.machine, [fault], policy
        )

    ops = 0
    with telemetry.span("hunt", bug=spec.name, cpu=cpu_name):
        for attempt in range(config.tests_per_bug):
            seed = base + attempt
            program = generate_program(config.generator, seed=seed)
            machine = arm(seed)
            if pipelined:
                # Check as records retire; a violating seed aborts at
                # the closing record instead of finishing the program.
                stream_result, _ = stream_check_machine(
                    machine, model=config.model, stop_on_violation=True
                )
                ops += sum(len(cpu.records) for cpu in machine.cpus)
                if stream_result.ok:
                    continue
                # Flagged: re-run this one attempt conventionally so
                # verdict, via string and witness match the unbatched
                # path exactly (one extra simulation per detection,
                # the _record_detection trade).
                machine = arm(seed)
            observed = machine.run()
            ops += sum(len(cpu.records) for cpu in machine.cpus)
            detected, via = _triage(
                spec, program, machine, observed, config.model, config.engine
            )
            if detected:
                return BugHunt(
                    spec=spec, cpu=cpu_name, detected=True,
                    tests_run=attempt + 1, detected_on_seed=seed, via=via,
                    schedule=_record_detection(
                        spec, cpu_name, config, seed, via
                    ),
                    ops=ops,
                )
        return BugHunt(
            spec=spec, cpu=cpu_name, detected=False,
            tests_run=config.tests_per_bug, ops=ops,
        )


def hunt_batch(
    hunts: Sequence[Tuple[BugSpec, str, int]],
    config: CampaignConfig,
    scratch: Optional[HuntScratch] = None,
) -> List[BugHunt]:
    """Hunt several seeded bugs in one call, sharing warm state.

    The unit of every :func:`dispatch_hunts` pool task: a task carrying B
    ``(spec, cpu name, bug index)`` hunts pays one task round-trip and
    one worker telemetry flush for all of them, and the hunts share one
    :class:`HuntScratch` (machine resets).  Each
    hunt's outcome is identical to :func:`hunt_bug` run alone.
    """
    scratch = scratch or HuntScratch()
    telemetry.record("pool.batch_size", len(hunts))
    return [
        hunt_bug(spec, cpu_name, config, bug_index=index, scratch=scratch)
        for spec, cpu_name, index in hunts
    ]


def _record_detection(
    spec: BugSpec, cpu_name: str, config: CampaignConfig, seed: int, via: str
) -> str:
    """Re-run the detecting attempt under a recorder; return the trace JSON.

    Program, fault and policy are all rebuilt from the same seeds, so the
    recorded run is the detected run.  The extra simulation per detected
    bug is not cheap: a campaign hunt usually detects on its first or
    second attempt, so a full roster makes 106 recording runs next to
    about 125-135 attempts, and ``sched.record`` takes 16-19% of a
    campaign unit's self time.  ROADMAP.md (item 1) removes it by
    recording every attempt and keeping the detecting attempt's trace.
    """
    recorder = RecordingPolicy(make_policy(config.sched, seed=seed))
    recorder.trace.meta.update(
        hunt_trace_meta(
            spec, cpu_name, config.generator, config.machine, config.model,
            seed, via,
        )
    )
    program = generate_program(config.generator, seed=seed)
    TsoMachine(
        program, seed=seed, config=config.machine,
        faults=[spec.instantiate()], policy=recorder,
    ).run()
    return recorder.trace.to_json()


def _triage(
    spec: BugSpec,
    program,
    machine: TsoMachine,
    observed,
    model: MemoryModel,
    engine: str = DEFAULT_ENGINE,
) -> Tuple[bool, str]:
    """Classify one run's outcome against the hunted bug's class."""
    if spec.bug_class == BugClass.MONITOR:
        if machine.monitor_alarms and check(
            program, observed, model=model, engine=engine
        ).ok:
            return True, "spurious monitor alarm on a TSO-clean run"
        return False, ""
    if spec.bug_class == BugClass.ENVIRONMENT:
        if not check(program, observed, model=model, engine=engine).ok:
            true_result = check(
                program, machine.true_execution, model=model, engine=engine
            )
            if true_result.ok:
                return True, "observed trace fails analysis, true trace passes"
        return False, ""
    # Architecture / design: the machine itself misbehaved.
    result = check(program, observed, model=model, engine=engine)
    if not result.ok:
        return True, f"TSO violation ({result.violation.kind.value})"
    return False, ""


def _hunt_batch_task(
    task: Tuple[Sequence[Tuple[BugSpec, str, int]], CampaignConfig],
) -> List[BugHunt]:
    """Picklable pool entry point: hunt a batch of seeded bugs in a worker."""
    hunts, config = task
    return hunt_batch(hunts, config)


HuntGroup = Tuple[str, CampaignConfig, Sequence[Tuple[BugSpec, str, int]]]


def dispatch_hunts(
    groups: Sequence[HuntGroup],
    batch: int,
    *,
    workers: int = 1,
    task_timeout: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
    on_hunt: Optional[Callable[[int, BugHunt], None]] = None,
) -> Tuple[List[BugHunt], PoolStats]:
    """Run the hunts of ``groups`` as one pool batch; return them in order.

    A group is ``(label prefix, config, [(spec, cpu, bug index), …])``.
    Each is cut into chunks of up to ``batch`` hunts that never cross a
    group boundary; each chunk is one :func:`hunt_batch` pool task,
    labelled with its first bug's name (``+n`` for the rest) after the
    prefix.  ``on_hunt(i, hunt)`` runs in this process as each hunt
    lands, ``i`` being its position in the concatenated work.  A chunk
    that hung on every attempt gives each member a ``hung=True``
    tombstone; ``task_timeout`` covers a whole chunk.
    """
    tasks: List[Tuple[List[Tuple[BugSpec, str, int]], CampaignConfig]] = []
    labels: List[str] = []
    for prefix, config, work in groups:
        for i in range(0, len(work), batch):
            chunk = list(work[i : i + batch])
            tasks.append((chunk, config))
            suffix = f" (+{len(chunk) - 1})" if len(chunk) > 1 else ""
            labels.append(f"{prefix}{chunk[0][0].name}{suffix}")
    # Position of each chunk's first hunt in the concatenated work.
    starts = [0, *accumulate(len(chunk) for chunk, _ in tasks)]

    def land(task_index: int, hunts: List[BugHunt]) -> None:
        if on_hunt is not None:
            for offset, hunt in enumerate(hunts):
                on_hunt(starts[task_index] + offset, hunt)

    results, stats = run_tasks(
        _hunt_batch_task,
        tasks,
        workers=workers,
        task_timeout=task_timeout,
        labels=labels,
        progress=progress,
        on_result=land,
    )
    hunts: List[BugHunt] = []
    for task_index, ((chunk, _), value) in enumerate(zip(tasks, results)):
        if value is None:
            value = [
                BugHunt(
                    spec=spec, cpu=cpu_name, detected=False, tests_run=0,
                    via="worker crashed or timed out", hung=True,
                )
                for spec, cpu_name, _ in chunk
            ]
            land(task_index, value)
        hunts.extend(value)
    return hunts, stats


def run_campaign(
    cpus: Sequence[CpuConfig] = CPU_CONFIGS,
    config: Optional[CampaignConfig] = None,
    workers: int = 1,
    task_timeout: Optional[float] = None,
    progress: Optional[ProgressFn] = None,
    record_dir: Optional[str] = None,
) -> CampaignResult:
    """Hunt every seeded bug of every CPU; return the full result.

    The hunts go to :func:`dispatch_hunts` as one group, ``config.batch``
    per pool task, sharded across a process pool when ``workers > 1``
    (:mod:`repro.analysis.pool`).  Each hunt's seed stream comes from
    ``(campaign seed, cpu name, bug index)`` inside :func:`hunt_bug`, so
    the hunts do not depend on scheduling, batching or workers.  A task
    whose worker crashes or exceeds ``task_timeout`` (which covers a
    whole batch) twice tombstones its hunts with ``hung=True``; they
    count as undetected.

    With ``record_dir`` set, every detected hunt's
    :class:`~repro.sched.trace.ScheduleTrace` is persisted there as
    ``<bug-name>.schedule.json`` — each file replayable on its own with
    ``tsotool replay`` / :func:`repro.analysis.replay.replay_hunt`.
    """
    config = config or CampaignConfig()
    work: List[Tuple[BugSpec, str, int]] = []
    for cpu in cpus:
        for index, spec in enumerate(cpu.bugs):
            work.append((spec, cpu.name, index))
    hunts, stats = dispatch_hunts(
        [("", config, work)],
        config.batch,
        workers=workers,
        task_timeout=task_timeout,
        progress=progress,
    )
    if record_dir is not None:
        os.makedirs(record_dir, exist_ok=True)
        for hunt in hunts:
            if hunt.schedule is None:
                continue
            path = os.path.join(record_dir, f"{hunt.spec.name}.schedule.json")
            with open(path, "w") as fh:
                fh.write(hunt.schedule + "\n")
    return CampaignResult(
        hunts=hunts,
        wall_seconds=stats.wall_seconds,
        cpu_seconds=stats.cpu_seconds,
        stats=stats,
        sched=config.sched.describe(),
    )


# ---------------------------------------------------------------------------
# Table rendering
# ---------------------------------------------------------------------------

_T1_COLS = [
    BugClass.ARCHITECTURE, BugClass.DESIGN, BugClass.MONITOR, BugClass.ENVIRONMENT,
]
_T2_COLS = [
    FuncUnit.PIPE, FuncUnit.CACHES, FuncUnit.TLB, FuncUnit.LSU,
    FuncUnit.MEM_CNTLR, FuncUnit.INTERCONNECT,
]


def format_table1(result: CampaignResult) -> str:
    """Render detected-bug counts by class — the shape of Table 1."""
    header = ["CPU"] + [c.value for c in _T1_COLS]
    rows = [header]
    totals = {c: 0 for c in _T1_COLS}
    for cpu, counts in result.table1_rows():
        rows.append([cpu] + [str(counts[c]) for c in _T1_COLS])
        for c in _T1_COLS:
            totals[c] += counts[c]
    rows.append(["Total"] + [str(totals[c]) for c in _T1_COLS])
    return _render(rows)


def format_table2(result: CampaignResult) -> str:
    """Render detected-bug counts by unit — the shape of Table 2."""
    header = ["CPU"] + [u.value for u in _T2_COLS]
    rows = [header]
    totals = {u: 0 for u in _T2_COLS}
    for cpu, counts in result.table2_rows():
        rows.append([cpu] + [str(counts[u]) for u in _T2_COLS])
        for u in _T2_COLS:
            totals[u] += counts[u]
    rows.append(["Total"] + [str(totals[u]) for u in _T2_COLS])
    return _render(rows)


def _render(rows: List[List[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for idx, row in enumerate(rows):
        line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        lines.append(line.rstrip())
        if idx == 0:
            lines.append("-" * len(line))
    return "\n".join(lines)
