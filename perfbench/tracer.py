"""In-memory span tracer that wraps the library's layer boundaries.

Nothing in the library is changed: :meth:`Tracer.install` replaces the
public entry points of each layer (and the two private campaign steps
that have no public name, triage and detection recording) with thin
wrappers that open a span, call the original and close the span, and
:meth:`Tracer.uninstall` puts every original back.

A span's *self time* is its duration minus the time its child spans
cover, so nested layers are taken apart: the simulation inside
``stream_check_machine`` or inside a recording re-run is booked to the
simulator, and the streaming checker's per-record work inside the
machine's observer is booked to ``stream.feed``, not to the simulator.

Only the main thread is traced (the service's lease heartbeat thread
calls through untraced), and the traced workloads run with one worker,
so every span lands in this process.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _Frame:
    __slots__ = ("name", "start", "child", "index")

    def __init__(self, name: str, start: float, index: int) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index


class Tracer:
    """Spans and counters for one traced run.

    ``spans`` keeps every closed span as ``(name, start, end, parent,
    unit)`` — parent is the index of the enclosing span or -1 — so the
    whole trace can be written out when the benchmark ends.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: Deterministic counts, per unit (see :meth:`begin_unit`).
        self.unit_counts: List[Counter] = []
        self.values: Dict[str, float] = defaultdict(float)
        self.peaks: Dict[str, int] = defaultdict(int)
        self._stack: List[_Frame] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        self._main = threading.get_ident()

    # -- spans ---------------------------------------------------------

    def begin_unit(self) -> None:
        self.unit_counts.append(Counter())

    def count(self, key: str, n: int = 1) -> None:
        self.unit_counts[-1][key] += n

    def open(self, name: str) -> _Frame:
        parent = self._stack[-1].index if self._stack else -1
        frame = _Frame(name, time.perf_counter(), len(self.spans))
        # Reserve the slot now so children can name their parent.
        self.spans.append((name, frame.start, frame.start, parent, len(self.unit_counts) - 1))
        self._stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> float:
        """Close the innermost span; return its self time."""
        end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "spans must close innermost-first"
        duration = end - frame.start
        own = duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        name, start, _, parent, unit = self.spans[frame.index]
        self.spans[frame.index] = (name, start, end, parent, unit)
        self.self_s[name] += own
        self.calls[name] += 1
        self.durations[name].append(duration)
        return own

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: Any,
        after: Optional[Callable[[tuple, Any, float], None]] = None,
    ) -> Callable:
        """A traced stand-in for ``fn``.

        ``name`` is a span name or a function of the call's positional
        arguments returning one.  ``after(args, result, self_s)`` runs
        once the span is closed; ``result`` is None when the call raised.
        A call made while a span of the same name is innermost (an
        engine's ``run`` delegating to its base class) is not traced
        again.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            if tracer._stack and tracer._stack[-1].name == span_name:
                return fn(*args, **kwargs)
            frame = tracer.open(span_name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                own = tracer.close(frame)
                if after is not None:
                    after(args, result, own)

        return traced

    def patch_function(self, fn: Callable, name: Any, after=None) -> None:
        self._undo.extend(rebind(fn, self.wrap(fn, name, after)))

    def patch_method(self, cls: type, attr: str, name: Any, after=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, after))

    def uninstall(self) -> None:
        restore(self._undo)

    # -- the layer map -------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        from repro.analysis import campaign, pool
        from repro.core import api, stream
        from repro.generator.generator import generate_program
        from repro.model.expansion import expand
        from repro.sched.trace import RecordingPolicy
        from repro.service.lease import LeaseManager
        from repro.service.queue import JobRunner
        from repro.service.store import ResultStore
        from repro.sim.machine import TsoMachine

        self.patch_function(
            generate_program, "generator",
            lambda a, r, s: self.count("generator.calls"),
        )

        def machine_name(args) -> str:
            recording = isinstance(args[0].policy, RecordingPolicy)
            return "sched.record" if recording else "sim.run"

        def machine_ran(args, result, own) -> None:
            machine = args[0]
            self.count("sim.runs")
            self.count("sim.cycles", machine.tick)
            self.count("sim.records", sum(len(c.records) for c in machine.cpus))
            if isinstance(machine.policy, RecordingPolicy):
                self.count("sched.record_runs")

        self.patch_method(TsoMachine, "__init__", "sim.arm")
        self.patch_method(TsoMachine, "reset", "sim.arm")
        self.patch_method(TsoMachine, "run", machine_name, machine_ran)

        def expanded(args, aprog, own) -> None:
            if aprog is not None:
                self.count("model.nodes", aprog.n)

        self.patch_function(expand, "model.expand", expanded)
        self.patch_function(api.check_execution, "core.api")

        def checked(args, result, own) -> None:
            if result is None:
                return
            stats = result.stats
            self.count("core.checks")
            self.count("core.nodes", stats.nodes)
            self.count("core.edges", stats.edges)
            self.count("core.iterations", stats.iterations)
            self.count("core.closure_rebuilds", stats.closure_rebuilds)
            self.values["core.check_pass_s" if result.ok else "core.check_fail_s"] += own

        seen = set()
        for engine in api.ENGINES.values():
            for klass in engine.__mro__:
                if "run" in klass.__dict__ and klass not in seen:
                    seen.add(klass)
                    self.patch_method(klass, "run", "core.check", checked)

        def streamed(args, out, own) -> None:
            if out is None:
                return
            result = out[0]
            self.count("stream.sessions")
            if not result.ok:
                self.count("stream.flagged")
            self.peaks["stream.live_peak"] = max(
                self.peaks["stream.live_peak"], result.stats.live_peak
            )

        self.patch_function(stream.stream_check_machine, "stream.check", streamed)
        self.patch_method(stream.StreamSession, "feed", "stream.feed")

        self.patch_function(campaign.run_campaign, "campaign.run")
        self.patch_function(campaign.hunt_bug, "campaign.hunt")
        self.patch_function(campaign._triage, "campaign.triage")
        self.patch_function(campaign._record_detection, "campaign.record")
        self.patch_function(
            pool.run_tasks, "pool.run_tasks",
            lambda a, r, s: self.count("pool.starts"),
        )

        self.patch_method(ResultStore, "__init__", "service.open")
        self.patch_method(ResultStore, "record_hunt", "service.record_hunt")
        self.patch_method(ResultStore, "refresh", "service.refresh")
        self.patch_method(ResultStore, "mark_shard_done", "service.mark_done")
        self.patch_method(LeaseManager, "claim", "service.claim")
        self.patch_method(JobRunner, "run", "service.run")
        self.patch_method(JobRunner, "merged", "service.merge")


def rebind(original: Callable, replacement: Callable) -> List[Tuple[Any, str, Any]]:
    """Replace ``original`` in every loaded module of this repository
    that binds it (``from x import f`` copies the reference); return
    the undo list for :func:`restore`."""
    undo = []
    for module in list(sys.modules.values()):
        path = getattr(module, "__file__", None) or ""
        if not path.startswith(ROOT):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)
    return undo


def restore(undo: List[Tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


class PoolTap:
    """Collects the :class:`PoolStats` of every ``run_tasks`` call.

    Not a span: one call per pool start, so the untraced runs it taps
    stay untraced.
    """

    def __init__(self) -> None:
        self.stats: List[Any] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        from repro.analysis import pool

        original = pool.run_tasks

        @functools.wraps(original)
        def tapped(*args, **kwargs):
            results, stats = original(*args, **kwargs)
            self.stats.append(stats)
            return results, stats

        self._undo = rebind(original, tapped)

    def uninstall(self) -> None:
        restore(self._undo)
