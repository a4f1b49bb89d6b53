"""The telemetry registry: counters, timers, histograms and spans.

One :class:`Telemetry` object aggregates everything a process records
and forwards the streamable part (spans, discrete events, end-of-run
snapshots) to its :class:`~repro.telemetry.sinks.Sink` list.  The
module-level accessors (:func:`get_telemetry`, :func:`configure`,
:func:`span`, …) manage the process-global instance that the
instrumented layers — simulator, checker engines, pool, CLI — talk to.

Design constraints, in priority order:

* **Disabled is free.**  The default instance is disabled; every
  instrumentation site either checks ``telemetry.enabled`` once or calls
  :func:`span`, which returns a shared no-op context manager without
  allocating.  The cost of a dark instrumentation point is one attribute
  load and one branch — under the noise floor of
  ``benchmarks/test_engine_scaling.py`` (pinned by
  ``benchmarks/test_telemetry_overhead.py``).
* **Zero dependencies.**  Pure stdlib; importable from anywhere in the
  package without cycles (this package imports nothing from ``repro``).
* **Campaign-scale.**  Pool worker *processes* inherit the JSONL sink
  path through the environment (:data:`ENV_METRICS_OUT`) and append to
  the same file with atomic single-``write`` lines, so one
  ``--metrics-out run.jsonl`` covers the parent and every worker.

Naming note: this package is ``repro.telemetry`` — *instrumentation* of
the tool itself — not to be confused with ``repro.core.observability``,
which implements the paper's Sec. 3.2 notion of extra *machine*
observability (environment-captured store order) fed to the checker.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry.sinks import JsonlSink, Sink

#: Environment variable naming the shared JSONL file; worker processes
#: (both fork and spawn start methods inherit the environment) configure
#: an appending sink from it via :func:`init_worker`.
ENV_METRICS_OUT = "TSOTOOL_METRICS_OUT"

#: Histogram bucket key for zero/negative observations.
_ZERO_BUCKET = "zero"


class Histogram:
    """A decade (power-of-ten) histogram plus count/sum/min/max.

    Buckets are keyed by ``floor(log10(value))`` as a string (so the
    whole structure serializes to JSON unchanged); a value ``v`` lands in
    bucket ``e`` when ``10**e <= v < 10**(e+1)``.  Decades are plenty for
    the quantities recorded here (task seconds, tick counts) and keep the
    snapshot payload tiny.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[str, int] = {}

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        key = _ZERO_BUCKET if value <= 0.0 else str(math.floor(math.log10(value)))
        self.buckets[key] = self.buckets.get(key, 0) + 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": dict(self.buckets),
        }


class _SpanHandle:
    """Live span context manager: times the block, then records it."""

    __slots__ = ("_telemetry", "name", "fields", "_start", "seconds")

    def __init__(self, telemetry: "Telemetry", name: str, fields: Dict[str, Any]):
        self._telemetry = telemetry
        self.name = name
        self.fields = fields
        self._start = 0.0
        #: Duration of the finished span (populated on exit).
        self.seconds = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._start
        if exc_type is not None:
            self.fields = dict(self.fields, error=exc_type.__name__)
        self._telemetry.record_span(self.name, self.seconds, self.fields)


class _NullSpan:
    """Shared no-op span for disabled telemetry (allocation-free path)."""

    __slots__ = ()
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Telemetry:
    """Aggregating registry plus sink fan-out for one process.

    All mutation goes through a lock: the hot layers are single-threaded,
    but progress callbacks and future async callers must not be able to
    corrupt the dicts.  The lock is only ever taken when ``enabled``.
    """

    def __init__(self, enabled: bool = False, sinks: Sequence[Sink] = ()) -> None:
        self.enabled = enabled
        self.sinks: List[Sink] = list(sinks)
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = {}
        #: name -> [count, total_seconds]
        self.timers: Dict[str, List[float]] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.events_seen: Dict[str, int] = {}

    # -- recording -----------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration under the timer ``name``."""
        if not self.enabled:
            return
        with self._lock:
            timer = self.timers.setdefault(name, [0, 0.0])
            timer[0] += 1
            timer[1] += seconds

    def record(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        if not self.enabled:
            return
        with self._lock:
            self.histograms.setdefault(name, Histogram()).record(value)

    def span(self, name: str, **fields: Any):
        """Context manager timing a block; emits a ``span`` sink event."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanHandle(self, name, fields)

    def record_span(self, name: str, seconds: float, fields: Dict[str, Any]) -> None:
        """Finish a span: aggregate its duration and stream it to sinks."""
        if not self.enabled:
            return
        self.observe(name, seconds)
        self._emit({
            "kind": "span",
            "name": name,
            "seconds": seconds,
            "fields": fields,
        })

    def event(self, name: str, **fields: Any) -> None:
        """Emit a discrete event (retry, hang, …) to the sinks."""
        if not self.enabled:
            return
        with self._lock:
            self.events_seen[name] = self.events_seen.get(name, 0) + 1
        self._emit({"kind": "event", "name": name, "fields": fields})

    # -- output --------------------------------------------------------

    def _emit(self, payload: Dict[str, Any]) -> None:
        payload.setdefault("v", 1)
        payload.setdefault("ts", time.time())
        payload.setdefault("pid", os.getpid())
        for sink in self.sinks:
            sink.emit(payload)

    def snapshot(self) -> Dict[str, Any]:
        """The current aggregate state as one JSON-safe dict."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "timers": {
                    name: {"count": int(t[0]), "seconds": t[1]}
                    for name, t in self.timers.items()
                },
                "histograms": {
                    name: h.to_dict() for name, h in self.histograms.items()
                },
            }

    def flush(self) -> None:
        """Stream a cumulative ``snapshot`` event to the sinks.

        Called after every pool task in workers (a killed worker cannot
        run ``atexit`` hooks) and once at CLI exit; snapshots are
        cumulative per process, so consumers keep the *last* one per pid.
        """
        if not self.enabled:
            return
        payload: Dict[str, Any] = {"kind": "snapshot", "name": "snapshot"}
        payload.update(self.snapshot())
        self._emit(payload)

    def close(self) -> None:
        """Flush and close every sink."""
        for sink in self.sinks:
            sink.close()

    def summary(self) -> str:
        """End-of-run text summary of everything this process recorded."""
        return render_summary(self.snapshot(), events=dict(self.events_seen))


# ---------------------------------------------------------------------------
# Process-global instance and conveniences
# ---------------------------------------------------------------------------

_ACTIVE = Telemetry(enabled=False)


def get_telemetry() -> Telemetry:
    """The process-global telemetry instance (disabled by default)."""
    return _ACTIVE


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Replace the process-global instance; returns it."""
    global _ACTIVE
    _ACTIVE = telemetry
    return _ACTIVE


def configure(
    metrics_out: Optional[str] = None,
    sinks: Sequence[Sink] = (),
    propagate_env: bool = True,
) -> Telemetry:
    """Enable telemetry for this process (and, via env, its workers).

    Args:
        metrics_out: path of a JSONL event file; truncated here, appended
            to by pool workers.
        sinks: extra sinks (e.g. a :class:`~repro.telemetry.sinks.MemorySink`).
        propagate_env: export ``metrics_out`` as :data:`ENV_METRICS_OUT`
            so pool worker processes attach to the same file.
    """
    sink_list: List[Sink] = list(sinks)
    if metrics_out:
        path = os.path.abspath(metrics_out)
        sink_list.append(JsonlSink(path, truncate=True))
        if propagate_env:
            os.environ[ENV_METRICS_OUT] = path
    return set_telemetry(Telemetry(enabled=True, sinks=sink_list))


def reset() -> Telemetry:
    """Back to the disabled default; clears the worker env propagation."""
    os.environ.pop(ENV_METRICS_OUT, None)
    return set_telemetry(Telemetry(enabled=False))


def init_worker() -> Telemetry:
    """Attach a pool worker process to the campaign's JSONL file.

    Idempotent: with the ``fork`` start method the worker inherits the
    parent's already-enabled instance (and its O_APPEND fd, which is
    safe to share) and nothing happens; with ``spawn`` the instance is
    the disabled default and the sink is rebuilt from the environment.
    """
    if _ACTIVE.enabled:
        return _ACTIVE
    path = os.environ.get(ENV_METRICS_OUT)
    if not path:
        return _ACTIVE
    return set_telemetry(
        Telemetry(enabled=True, sinks=[JsonlSink(path, truncate=False)])
    )


def span(name: str, **fields: Any):
    """``with span("check"): ...`` against the process-global instance."""
    active = _ACTIVE
    if not active.enabled:
        return _NULL_SPAN
    return _SpanHandle(active, name, fields)


def count(name: str, value: float = 1) -> None:
    """Module-level :meth:`Telemetry.count` on the global instance."""
    _ACTIVE.count(name, value)


def observe(name: str, seconds: float) -> None:
    """Module-level :meth:`Telemetry.observe` on the global instance."""
    _ACTIVE.observe(name, seconds)


def record(name: str, value: float) -> None:
    """Module-level :meth:`Telemetry.record` on the global instance."""
    _ACTIVE.record(name, value)


def event(name: str, **fields: Any) -> None:
    """Module-level :meth:`Telemetry.event` on the global instance."""
    _ACTIVE.event(name, **fields)


def record_check(stats: Any, engine: str) -> None:
    """Fold one checker run's ``CheckStats`` into the global registry.

    Called by every engine at the end of ``run()``; duck-typed so this
    package stays import-free of :mod:`repro.core`.  One branch when
    telemetry is disabled.
    """
    active = _ACTIVE
    if not active.enabled:
        return
    active.count("check.runs")
    active.count(f"check.engine.{engine}")
    active.count("check.edges.static", stats.static_edges)
    active.count("check.edges.observed", stats.observed_edges)
    active.count("check.edges.inferred", stats.inferred_edges)
    active.count("check.iterations", stats.iterations)
    active.count("check.closure_rebuilds", stats.closure_rebuilds)
    active.count("check.traversals", stats.traversals)
    active.count("check.vc_queries", stats.vc_queries)
    active.count("check.reorder_visits", stats.reorder_visits)
    if stats.live_peak:
        active.record("check.live_peak", stats.live_peak)
    active.record("check.seconds", stats.seconds)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def render_summary(
    snapshot: Dict[str, Any], events: Optional[Dict[str, int]] = None
) -> str:
    """Render one snapshot dict as the end-of-run text summary."""
    lines = ["telemetry summary"]
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(n) for n in counters)
        for name in sorted(counters):
            value = counters[name]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"  {name:<{width}}  {shown}")
    timers = snapshot.get("timers", {})
    if timers:
        lines.append("timers:")
        width = max(len(n) for n in timers)
        for name in sorted(timers):
            t = timers[name]
            n, total = int(t["count"]), float(t["seconds"])
            mean = total / n if n else 0.0
            lines.append(
                f"  {name:<{width}}  count={n} total={total:.3f}s mean={mean * 1e3:.2f}ms"
            )
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        width = max(len(n) for n in histograms)
        for name in sorted(histograms):
            h = histograms[name]
            lines.append(
                f"  {name:<{width}}  count={h['count']} min={h['min']} "
                f"max={h['max']} total={h['total']:.3f}"
            )
    if events:
        lines.append("events:")
        width = max(len(n) for n in events)
        for name in sorted(events):
            lines.append(f"  {name:<{width}}  {events[name]}")
    if len(lines) == 1:
        lines.append("  (nothing recorded)")
    return "\n".join(lines)


def _merge_snapshot(
    into: Dict[str, Any], snapshot: Dict[str, Any]
) -> None:
    for name, value in snapshot.get("counters", {}).items():
        into["counters"][name] = into["counters"].get(name, 0) + value
    for name, timer in snapshot.get("timers", {}).items():
        acc = into["timers"].setdefault(name, {"count": 0, "seconds": 0.0})
        acc["count"] += timer["count"]
        acc["seconds"] += timer["seconds"]
    for name, hist in snapshot.get("histograms", {}).items():
        acc = into["histograms"].setdefault(
            name,
            {"count": 0, "total": 0.0, "min": None, "max": None, "buckets": {}},
        )
        acc["count"] += hist["count"]
        acc["total"] += hist["total"]
        for bound in ("min", "max"):
            value = hist.get(bound)
            if value is None:
                continue
            best = min if bound == "min" else max
            acc[bound] = value if acc[bound] is None else best(acc[bound], value)
        for key, n in hist.get("buckets", {}).items():
            acc["buckets"][key] = acc["buckets"].get(key, 0) + n


def summarize_file(path: str) -> str:
    """Merge a JSONL metrics file into one cross-process text summary.

    Snapshots are cumulative per pid, so only the *last* snapshot of each
    pid is summed; span and event lines are tallied directly (spans are
    already aggregated into each process's snapshot timers, so span lines
    only contribute the per-name event counts shown under ``events:``).
    """
    import json

    last_by_pid: Dict[int, Dict[str, Any]] = {}
    events: Dict[str, int] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("kind") == "snapshot":
                last_by_pid[obj.get("pid", 0)] = obj
            elif obj.get("kind") == "event":
                name = obj.get("name", "?")
                events[name] = events.get(name, 0) + 1
    merged: Dict[str, Any] = {"counters": {}, "timers": {}, "histograms": {}}
    for snap in last_by_pid.values():
        _merge_snapshot(merged, snap)
    header = f"telemetry summary ({len(last_by_pid)} process(es), {path})"
    body_lines = render_summary(merged, events=events or None).split("\n")
    return "\n".join([header] + body_lines[1:])
