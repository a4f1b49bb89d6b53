"""Check results, violation witnesses, and debug rendering (Sec. 3.4).

When TSOtool detects a violation it "emits a graphical representation of
the relevant area in the analysis graph" where "the user can click on each
edge ... to understand the reason for its existence".  This module is the
reproduction of that debug story: every edge carries an
:class:`EdgeReason` (which rule added it and why), a :class:`Violation`
carries the offending cycle with those reasons, and :meth:`CheckResult.explain`
renders the full chain of inference as text.  :meth:`CheckResult.to_dot`
emits Graphviz DOT for the graphical view.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.model.expansion import AnalysisProgram


class EdgeReason:
    """Why an edge exists in the analysis graph.

    Attributes:
        rule: the rule id: ``R1``–``R7`` from Fig. 2, plus ``atomic``
            (intra-group chain), ``init`` (root-store edges).
        detail: human-readable justification, e.g. which load's value
            binding forced the edge.

    The engines infer tens of thousands of edges per paper-scale check
    but only a witness (Sec. 3.4) ever reads their text, so a reason
    built by :meth:`deferred` formats ``detail`` the first time it is
    read.  Equality, hashing, ``repr`` and pickling see the rendered
    text, so a deferred reason and an eager one with the same text are
    indistinguishable.  Instances are treated as immutable.
    """

    __slots__ = ("rule", "_detail", "_render", "_args")

    def __init__(self, rule: str, detail: str = "") -> None:
        self.rule = rule
        self._detail = detail

    @classmethod
    def deferred(
        cls, rule: str, render: Callable[..., str], *args: object
    ) -> "EdgeReason":
        """A reason whose ``detail`` is ``render(*args)``, formatted on
        first read."""
        reason = cls.__new__(cls)
        reason.rule = rule
        reason._detail = None
        reason._render = render
        reason._args = args
        return reason

    @property
    def detail(self) -> str:
        detail = self._detail
        if detail is None:
            detail = self._detail = self._render(*self._args)
            self._render = self._args = None
        return detail

    def render(self) -> str:
        """One-line rendering: ``R5: <detail>``."""
        detail = self.detail
        return f"{self.rule}: {detail}" if detail else self.rule

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rule, self.detail) == (other.rule, other.detail)

    def __hash__(self) -> int:
        return hash((self.rule, self.detail))

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}"
            f"(rule={self.rule!r}, detail={self.detail!r})"
        )

    def __reduce__(self):
        return (self.__class__, (self.rule, self.detail))


class ViolationKind(enum.Enum):
    """How the check failed."""

    #: A cycle in the inferred global order — the paper's TSO violation.
    CYCLE = "cycle"
    #: A load observed a value never written to its address (Sec. 4: "a
    #: load reading a value never written ... signaled as a failure at the
    #: outset").
    UNMAPPED_VALUE = "unmapped-value"
    #: A non-faulting load to a faulting address returned nonzero (Sec. 3.3).
    PRECHECK = "precheck"


@dataclass
class Violation:
    """A memory-model violation witness.

    For ``CYCLE`` violations, ``cycle`` holds the node ids of the cycle in
    order (the edge ``cycle[i] -> cycle[i+1]`` exists, wrapping around)
    and ``reasons`` the per-edge justification.
    """

    kind: ViolationKind
    message: str
    cycle: List[int] = field(default_factory=list)
    reasons: List[EdgeReason] = field(default_factory=list)


@dataclass
class PoolStats:
    """Execution accounting for a batch of analysis tasks.

    Produced by :func:`repro.analysis.pool.run_tasks` for campaign hunts
    and runtime-sweep points; rendered by the CLI and by
    :mod:`repro.analysis.report`.  ``wall_seconds`` is elapsed time
    around the whole batch; ``cpu_seconds`` is the *sum* of per-task
    compute time across all workers — with one worker the two are nearly
    equal, with N workers ``cpu_seconds`` may approach
    ``N * wall_seconds``.  The two must never be conflated as "analysis
    time".

    The object is JSON-serializable via :meth:`to_dict` /
    :meth:`from_dict` so batch results can be archived next to the
    benchmark artifacts.
    """

    tasks: int = 0
    completed: int = 0
    hung: int = 0
    retries: int = 0
    #: Worker processes spawned as *replacements* for dead, overdue or
    #: unreachable workers (the initial pool is not counted).  Mirrored
    #: into the ``pool.respawns`` telemetry counter; before this field a
    #: respawn-after-death left no trace in stats or metrics.
    respawns: int = 0
    #: Worker messages dropped because they did not belong to the
    #: worker's current task — the late reply of a timed-out-then-
    #: retried task, or a duplicate send.  Mirrored into the
    #: ``pool.stale_results`` telemetry counter; before this field a
    #: stale reply was silently misattributed to the wrong task.
    stale_results: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    #: tasks completed per worker id — the per-worker progress summary.
    per_worker: Dict[int, int] = field(default_factory=dict)

    @property
    def tasks_per_second(self) -> float:
        """Completed-task throughput against wall-clock time."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.completed / self.wall_seconds

    def throughput_line(self) -> str:
        """One-line summary: the final line the campaign CLI prints."""
        return (
            f"{self.completed}/{self.tasks} tasks in "
            f"{self.wall_seconds:.1f}s wall ({self.cpu_seconds:.1f}s CPU, "
            f"{self.workers} worker{'s' if self.workers != 1 else ''}, "
            f"{self.tasks_per_second:.2f} tasks/s, "
            f"{self.hung} hung, {self.retries} retries"
            + (f", {self.respawns} respawns" if self.respawns else "")
            + ")"
        )

    def worker_lines(self) -> List[str]:
        """Per-worker completion counts, one line per worker."""
        return [
            f"worker {wid}: {count} task{'s' if count != 1 else ''}"
            for wid, count in sorted(self.per_worker.items())
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (per-worker keys become strings)."""
        return {
            "tasks": self.tasks,
            "completed": self.completed,
            "hung": self.hung,
            "retries": self.retries,
            "respawns": self.respawns,
            "stale_results": self.stale_results,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "per_worker": {str(k): v for k, v in self.per_worker.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PoolStats":
        """Inverse of :meth:`to_dict`."""
        per_worker = {
            int(k): int(v)
            for k, v in dict(data.get("per_worker", {})).items()  # type: ignore[arg-type]
        }
        return cls(
            tasks=int(data.get("tasks", 0)),  # type: ignore[arg-type]
            completed=int(data.get("completed", 0)),  # type: ignore[arg-type]
            hung=int(data.get("hung", 0)),  # type: ignore[arg-type]
            retries=int(data.get("retries", 0)),  # type: ignore[arg-type]
            respawns=int(data.get("respawns", 0)),  # type: ignore[arg-type]
            stale_results=int(data.get("stale_results", 0)),  # type: ignore[arg-type]
            workers=int(data.get("workers", 1)),  # type: ignore[arg-type]
            wall_seconds=float(data.get("wall_seconds", 0.0)),  # type: ignore[arg-type]
            cpu_seconds=float(data.get("cpu_seconds", 0.0)),  # type: ignore[arg-type]
            per_worker=per_worker,
        )


@dataclass
class SweepStats:
    """Accounting for one systematic schedule sweep.

    Produced by :func:`repro.sched.sweep.sweep_program`.  ``complete``
    distinguishes "the whole schedule tree was walked" from "the budget
    ran out" — a sweep that claims full enumeration must have it True.
    """

    budget: int = 0
    schedules_run: int = 0
    distinct_outcomes: int = 0
    complete: bool = False

    def render(self) -> str:
        """One-line summary for the CLI sweep report."""
        status = "complete" if self.complete else f"budget ({self.budget}) exhausted"
        return (
            f"{self.schedules_run} schedule(s) explored, "
            f"{self.distinct_outcomes} distinct outcome(s), {status}"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation for archived sweep artifacts."""
        return {
            "budget": self.budget,
            "schedules_run": self.schedules_run,
            "distinct_outcomes": self.distinct_outcomes,
            "complete": self.complete,
        }


@dataclass
class CheckStats:
    """Bookkeeping about one analysis run (feeds the Fig. 8/9 harness).

    Every engine fills the shared fields; ``traversals``/
    ``traversal_visits`` are traversal-engine specific,
    ``closure_rebuilds`` vc-engine specific, and
    ``vc_queries``/``reorder_visits`` frontier-engine (vc and the
    pipeline's online checker) specific.  The per-run
    stats also feed :func:`repro.telemetry.record_check`, which folds
    them into the process-wide ``check.*`` counters.
    """

    nodes: int = 0
    static_edges: int = 0
    observed_edges: int = 0
    #: R6/R7 edges added.  On a failing vc check this leaves out the
    #: edges of the pass that closed the cycle, the closing edge
    #: included: vc counts a pass's edges when the pass completes, so
    #: :attr:`edges` is then below the graph's ``edge_count`` (Fig. 3
    #: and Fig. 7 count 12 edges and log 14).  Counting them would move
    #: the ``core.edges`` counts perfbench pins for its campaign
    #: workloads, so it waits for a re-pin of those counts.
    inferred_edges: int = 0
    iterations: int = 0
    seconds: float = 0.0
    #: Traversal-engine only: number of R6/R7 subgraph traversals and the
    #: total nodes they visited — the quantity the paper's Fig. 9
    #: explanation is about ("a larger number of nodes to be visited
    #: during the traversal of predecessor/successor subgraphs").
    traversals: int = 0
    traversal_visits: int = 0
    #: Vc engine only: how many times the transitive closure (its
    #: frontier tables) was built from scratch — exactly once, after
    #: which insertions propagate deltas.
    closure_rebuilds: int = 0
    #: Vc engine only: frontier-vector lookups — one per chain probed
    #: by R6/R7 candidate discovery, plus one per O(1) R7 observer
    #: test behind implied-edge suppression — counted for the R6/R7
    #: items a fixed-point pass rescans (vc skips items whose frontier
    #: has not moved since their last scan) and, within an R7 chain
    #: scan, for the candidates before the scan stops at the first one
    #: every observer already reaches.
    vc_queries: int = 0
    #: Vc engine only: nodes visited by Pearce–Kelly local reordering —
    #: the affected-region cost of keeping the topological order (and
    #: with it cycle detection) current across edge insertions.
    reorder_visits: int = 0
    #: Pipeline sessions only: the nodes the session admitted (roots
    #: included; a cycle stops admission at the op that closes it).
    live_peak: int = 0

    @property
    def edges(self) -> int:
        """Total explicit edges added to the graph."""
        return self.static_edges + self.observed_edges + self.inferred_edges

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (archived metrics and reports)."""
        return {
            "nodes": self.nodes,
            "static_edges": self.static_edges,
            "observed_edges": self.observed_edges,
            "inferred_edges": self.inferred_edges,
            "iterations": self.iterations,
            "seconds": self.seconds,
            "traversals": self.traversals,
            "traversal_visits": self.traversal_visits,
            "closure_rebuilds": self.closure_rebuilds,
            "vc_queries": self.vc_queries,
            "reorder_visits": self.reorder_visits,
            "live_peak": self.live_peak,
        }


@dataclass
class CheckResult:
    """The outcome of checking one execution against a memory model.

    Attributes:
        ok: True iff no violation was detected.  The algorithm is sound
            but incomplete (Sec. 4): ``ok=False`` proves a violation;
            ``ok=True`` does not prove compliance.
        model_name: the memory model the execution was checked against.
        engine: the checker engine used (``baseline`` or ``vc``), or
            ``stream`` for a pipeline session
            (:class:`repro.core.stream.StreamSession`).
        violation: the witness, when ``ok`` is False.
        stats: analysis-size and runtime bookkeeping.
        aprog: the analysis program, retained for rendering.
        graph: the final constraint graph (a
            :class:`repro.core.graph.ConstraintGraph`), retained for the
            Sec. 3.4 debug artifacts — the full-graph text dump and DOT.
    """

    ok: bool
    model_name: str
    engine: str
    violation: Optional[Violation] = None
    stats: CheckStats = field(default_factory=CheckStats)
    aprog: Optional[AnalysisProgram] = None
    graph: Optional[object] = None

    def explain(self) -> str:
        """Render the verdict — and for failures, the chain of reasoning.

        For a cycle, prints each node and the rule that created each edge,
        the textual equivalent of the paper's clickable edge view.
        """
        header = (
            f"{self.model_name} check: {'PASS' if self.ok else 'FAIL'} "
            f"({self.stats.nodes} nodes, {self.stats.edges} edges, "
            f"{self.stats.iterations} iterations, engine={self.engine})"
        )
        if self.ok or self.violation is None:
            return header
        lines = [header, f"violation: {self.violation.message}"]
        if self.violation.kind == ViolationKind.CYCLE and self.aprog is not None:
            cycle = self.violation.cycle
            reasons = self.violation.reasons
            lines.append("cycle in the inferred global memory order:")
            for i, node in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                reason = reasons[i].render() if i < len(reasons) else "?"
                lines.append(
                    f"  {self.aprog.describe(node)}  <=  "
                    f"{self.aprog.describe(nxt)}    [{reason}]"
                )
        return "\n".join(lines)

    def dump_graph(self) -> str:
        """Emit the whole analysis graph as text (Sec. 3.4).

        "TSOtool also emits the analysis graph to a text file in a
        format comprehensible to users."  One line per node and per
        explicit edge, each edge annotated with the rule that created it
        and its justification; the violation cycle, if any, is listed at
        the end.
        """
        if self.aprog is None or self.graph is None:
            raise ValueError("result has no analysis graph attached")
        lines = [
            f"# tsotool analysis graph: model={self.model_name} "
            f"engine={self.engine} verdict={'PASS' if self.ok else 'FAIL'}",
            f"# {self.stats.nodes} nodes, {self.stats.edges} explicit edges",
        ]
        for op in self.aprog.ops:
            lines.append(f"node {op.id:<6d} {self.aprog.describe(op.id)}")
        for (u, v), reason in sorted(self.graph.edge_reasons()):
            lines.append(f"edge {u} -> {v}  [{reason.render()}]")
        if self.violation is not None and self.violation.cycle:
            lines.append(
                "cycle " + " ".join(str(n) for n in self.violation.cycle)
            )
        return "\n".join(lines) + "\n"

    def to_dot(
        self,
        edges: Optional[Mapping[Tuple[int, int], EdgeReason]] = None,
        focus_only: bool = True,
    ) -> str:
        """Emit Graphviz DOT of the analysis graph region around the failure.

        Args:
            edges: explicit edges and their reasons, such as
                ``graph.reasons`` (read in one scan); when omitted, only
                the violation cycle is drawn.
            focus_only: when a cycle exists, restrict to nodes within the
                cycle plus their direct neighbours (the paper's "relevant
                area in the analysis graph").
        """
        if self.aprog is None:
            raise ValueError("result has no analysis program attached")
        cycle_nodes = set(self.violation.cycle) if self.violation else set()
        cycle_edges = set()
        if self.violation and self.violation.kind == ViolationKind.CYCLE:
            seq = self.violation.cycle
            cycle_edges = {
                (seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))
            }

        draw_edges: Dict[Tuple[int, int], EdgeReason] = {}
        if edges:
            draw_edges.update(edges.items())
        if self.violation:
            seq = self.violation.cycle
            for i in range(len(seq)):
                key = (seq[i], seq[(i + 1) % len(seq)])
                reason = (
                    self.violation.reasons[i]
                    if i < len(self.violation.reasons)
                    else EdgeReason("?")
                )
                draw_edges.setdefault(key, reason)

        nodes = set()
        if focus_only and cycle_nodes:
            for (u, v) in draw_edges:
                if u in cycle_nodes or v in cycle_nodes:
                    nodes.add(u)
                    nodes.add(v)
        else:
            for (u, v) in draw_edges:
                nodes.update((u, v))

        lines = ["digraph tsotool {", "  rankdir=TB;", '  node [shape=box, fontname="monospace"];']
        for node in sorted(nodes):
            label = self.aprog.describe(node).replace('"', "'")
            style = ', color=red, penwidth=2' if node in cycle_nodes else ""
            lines.append(f'  n{node} [label="{label}"{style}];')
        for (u, v), reason in sorted(draw_edges.items()):
            if u not in nodes or v not in nodes:
                continue
            style = ", color=red, penwidth=2" if (u, v) in cycle_edges else ""
            lines.append(f'  n{u} -> n{v} [label="{reason.rule}"{style}];')
        lines.append("}")
        return "\n".join(lines)
