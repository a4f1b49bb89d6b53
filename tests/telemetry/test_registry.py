"""Tests for the telemetry registry: aggregation, spans, global wiring."""

import json
import os

import pytest

from repro import telemetry
from repro.core.result import CheckStats
from repro.telemetry import Histogram, MemorySink, Telemetry


@pytest.fixture(autouse=True)
def _reset_global_telemetry():
    """Every test leaves the process-global instance disabled."""
    yield
    telemetry.reset()


class TestHistogram:
    def test_decade_buckets(self):
        h = Histogram()
        for value in (0.5, 5.0, 50.0, 55.0, 0.0):
            h.record(value)
        d = h.to_dict()
        assert d["count"] == 5
        assert d["min"] == 0.0 and d["max"] == 55.0
        assert d["buckets"] == {"-1": 1, "0": 1, "1": 2, "zero": 1}
        assert d["total"] == pytest.approx(110.5)

    def test_empty(self):
        d = Histogram().to_dict()
        assert d["count"] == 0 and d["min"] is None and d["max"] is None


class TestTelemetryRegistry:
    def test_counters_timers_histograms_aggregate(self):
        tel = Telemetry(enabled=True)
        tel.count("a")
        tel.count("a", 4)
        tel.observe("t", 0.25)
        tel.observe("t", 0.75)
        tel.record("h", 3.0)
        snap = tel.snapshot()
        assert snap["counters"] == {"a": 5}
        assert snap["timers"] == {"t": {"count": 2, "seconds": 1.0}}
        assert snap["histograms"]["h"]["count"] == 1

    def test_disabled_records_nothing(self):
        tel = Telemetry(enabled=False)
        tel.count("a")
        tel.observe("t", 1.0)
        tel.record("h", 1.0)
        tel.event("e")
        snap = tel.snapshot()
        assert snap == {"counters": {}, "timers": {}, "histograms": {}}
        assert tel.events_seen == {}

    def test_disabled_span_is_shared_noop(self):
        tel = Telemetry(enabled=False)
        assert tel.span("x") is tel.span("y")  # allocation-free path

    def test_span_times_and_streams(self):
        sink = MemorySink()
        tel = Telemetry(enabled=True, sinks=[sink])
        with tel.span("check", engine="vc") as handle:
            pass
        assert handle.seconds >= 0
        assert tel.snapshot()["timers"]["check"]["count"] == 1
        [payload] = sink.of_kind("span")
        assert payload["name"] == "check"
        assert payload["fields"] == {"engine": "vc"}
        assert payload["v"] == 1
        assert payload["pid"] == os.getpid()

    def test_span_records_error_field(self):
        sink = MemorySink()
        tel = Telemetry(enabled=True, sinks=[sink])
        with pytest.raises(ValueError):
            with tel.span("check"):
                raise ValueError("boom")
        [payload] = sink.of_kind("span")
        assert payload["fields"]["error"] == "ValueError"

    def test_event_stream_and_tally(self):
        sink = MemorySink()
        tel = Telemetry(enabled=True, sinks=[sink])
        tel.event("pool.retry", index=3)
        tel.event("pool.retry", index=4)
        assert tel.events_seen == {"pool.retry": 2}
        assert [p["fields"]["index"] for p in sink.of_kind("event")] == [3, 4]

    def test_flush_emits_cumulative_snapshot(self):
        sink = MemorySink()
        tel = Telemetry(enabled=True, sinks=[sink])
        tel.count("a")
        tel.flush()
        tel.count("a")
        tel.flush()
        snaps = sink.of_kind("snapshot")
        assert [s["counters"]["a"] for s in snaps] == [1, 2]

    def test_summary_lists_everything(self):
        tel = Telemetry(enabled=True)
        tel.count("sim.runs", 2)
        tel.observe("check", 0.5)
        tel.record("h", 2.0)
        tel.event("pool.retry")
        text = tel.summary()
        for needle in ("sim.runs", "check", "pool.retry", "count=1"):
            assert needle in text

    def test_empty_summary(self):
        assert "(nothing recorded)" in Telemetry(enabled=True).summary()


class TestGlobalInstance:
    def test_default_is_disabled(self):
        assert not telemetry.get_telemetry().enabled
        # Module-level helpers are no-ops against the disabled default.
        telemetry.count("x")
        telemetry.observe("x", 1.0)
        telemetry.record("x", 1.0)
        telemetry.event("x")
        with telemetry.span("x"):
            pass
        assert telemetry.get_telemetry().snapshot()["counters"] == {}

    def test_configure_and_reset(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        tel = telemetry.configure(metrics_out=path)
        assert tel.enabled
        assert telemetry.get_telemetry() is tel
        assert os.environ[telemetry.ENV_METRICS_OUT] == os.path.abspath(path)
        telemetry.reset()
        assert not telemetry.get_telemetry().enabled
        assert telemetry.ENV_METRICS_OUT not in os.environ

    def test_configure_without_env_propagation(self, tmp_path):
        telemetry.configure(
            metrics_out=str(tmp_path / "m.jsonl"), propagate_env=False
        )
        assert telemetry.ENV_METRICS_OUT not in os.environ

    def test_init_worker_attaches_from_env(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        os.environ[telemetry.ENV_METRICS_OUT] = path
        try:
            telemetry.set_telemetry(Telemetry(enabled=False))
            tel = telemetry.init_worker()
            assert tel.enabled
            with telemetry.span("w"):
                pass
            tel.close()
            lines = open(path).read().splitlines()
            assert json.loads(lines[0])["name"] == "w"
        finally:
            os.environ.pop(telemetry.ENV_METRICS_OUT, None)

    def test_init_worker_without_env_stays_disabled(self):
        os.environ.pop(telemetry.ENV_METRICS_OUT, None)
        telemetry.set_telemetry(Telemetry(enabled=False))
        assert not telemetry.init_worker().enabled

    def test_init_worker_idempotent_when_enabled(self):
        tel = telemetry.configure()
        assert telemetry.init_worker() is tel


class TestRecordCheck:
    def test_folds_check_stats(self):
        telemetry.configure()
        stats = CheckStats(
            nodes=10, static_edges=5, observed_edges=3, inferred_edges=2,
            iterations=2, seconds=0.5, closure_rebuilds=2,
        )
        telemetry.record_check(stats, "vc")
        snap = telemetry.get_telemetry().snapshot()
        assert snap["counters"]["check.runs"] == 1
        assert snap["counters"]["check.engine.vc"] == 1
        assert snap["counters"]["check.edges.static"] == 5
        assert snap["counters"]["check.closure_rebuilds"] == 2
        assert snap["histograms"]["check.seconds"]["count"] == 1

    def test_noop_when_disabled(self):
        telemetry.record_check(CheckStats(nodes=1), "vc")
        assert telemetry.get_telemetry().snapshot()["counters"] == {}


class TestSummarizeFile:
    def test_keeps_last_snapshot_per_pid(self, tmp_path):
        path = tmp_path / "m.jsonl"
        lines = [
            # Two cumulative snapshots from pid 1: only the last counts.
            {"v": 1, "kind": "snapshot", "name": "snapshot", "ts": 1.0,
             "pid": 1, "counters": {"a": 1}, "timers": {}, "histograms": {}},
            {"v": 1, "kind": "snapshot", "name": "snapshot", "ts": 2.0,
             "pid": 1, "counters": {"a": 5}, "timers": {}, "histograms": {}},
            {"v": 1, "kind": "snapshot", "name": "snapshot", "ts": 2.0,
             "pid": 2, "counters": {"a": 2}, "timers": {}, "histograms": {}},
            {"v": 1, "kind": "event", "name": "pool.retry", "ts": 2.5,
             "pid": 2, "fields": {}},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        text = telemetry.summarize_file(str(path))
        assert "2 process(es)" in text
        assert "a" in text and "7" in text  # 5 + 2, not 1 + 5 + 2
        assert "pool.retry" in text

    def test_merges_timers_and_histograms(self, tmp_path):
        path = tmp_path / "m.jsonl"
        snap = {
            "v": 1, "kind": "snapshot", "name": "snapshot", "ts": 1.0,
            "counters": {},
            "timers": {"t": {"count": 2, "seconds": 1.0}},
            "histograms": {"h": {"count": 1, "total": 3.0, "min": 3.0,
                                 "max": 3.0, "buckets": {"0": 1}}},
        }
        lines = [dict(snap, pid=1), dict(snap, pid=2)]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        text = telemetry.summarize_file(str(path))
        assert "count=4" in text       # merged timer count
        assert "total=2.000s" in text  # merged timer seconds
        assert "count=2" in text       # merged histogram count
