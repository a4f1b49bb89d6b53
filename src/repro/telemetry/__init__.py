"""repro.telemetry — zero-dependency instrumentation for campaign-scale runs.

Counters, timers, histograms and a span API feeding pluggable sinks:
an in-memory registry, a multi-process-safe JSONL event stream
(``tsotool … --metrics-out run.jsonl``) and an end-of-run text summary
(``--telemetry-summary``).  Disabled by default with near-zero overhead;
see ``docs/telemetry.md`` for the event schema and the sink API.

Typical library use::

    from repro import telemetry
    from repro.telemetry import MemorySink

    tel = telemetry.configure(sinks=[MemorySink()])
    with telemetry.span("check", engine="vc"):
        ...
    print(tel.summary())
    telemetry.reset()

Not to be confused with :mod:`repro.core.observability`, which models
the paper's Sec. 3.2 *machine* observability (environment-captured
store order); this package instruments the tool itself — where the
paper's Sec. 5 runtime accounting comes from.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".registry": "ENV_METRICS_OUT Histogram Telemetry configure count event "
                "get_telemetry init_worker observe record record_check "
                "render_summary reset set_telemetry span summarize_file",
    ".schema": "SCHEMA_VERSION SchemaError validate_event validate_file",
    ".sinks": "JsonlSink MemorySink NullSink Sink",
})

__all__ = [
    "ENV_METRICS_OUT",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "SCHEMA_VERSION",
    "SchemaError",
    "Sink",
    "Telemetry",
    "configure",
    "count",
    "event",
    "get_telemetry",
    "init_worker",
    "observe",
    "record",
    "record_check",
    "render_summary",
    "reset",
    "set_telemetry",
    "span",
    "summarize_file",
    "validate_event",
    "validate_file",
]
