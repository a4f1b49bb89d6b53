"""Tests for the versioned metrics schema and its CI validator."""

import json

import pytest

from repro.telemetry import SCHEMA_VERSION, SchemaError, validate_event, validate_file
from repro.telemetry.schema import main, validate_lines


def _span(**over):
    obj = {"v": SCHEMA_VERSION, "kind": "span", "name": "check",
           "ts": 1.0, "pid": 7, "seconds": 0.5, "fields": {"engine": "vc"}}
    obj.update(over)
    return obj


def _event(**over):
    obj = {"v": SCHEMA_VERSION, "kind": "event", "name": "pool.retry",
           "ts": 1.0, "pid": 7, "fields": {}}
    obj.update(over)
    return obj


def _snapshot(**over):
    obj = {"v": SCHEMA_VERSION, "kind": "snapshot", "name": "snapshot",
           "ts": 1.0, "pid": 7, "counters": {"a": 1},
           "timers": {"t": {"count": 1, "seconds": 0.5}},
           "histograms": {"h": {"count": 1, "total": 2.0, "min": 2.0,
                                "max": 2.0, "buckets": {"0": 1}}}}
    obj.update(over)
    return obj


class TestValidateEvent:
    def test_accepts_all_kinds(self):
        for obj in (_span(), _event(), _snapshot()):
            validate_event(obj)

    @pytest.mark.parametrize("bad", [
        _span(v=0),
        _span(v=None),
        _span(kind="metric"),
        _span(name=""),
        _span(ts="yesterday"),
        _span(pid="7"),
        _span(seconds=-1.0),
        _span(seconds=None),
        _span(fields=[]),
        _event(fields=None),
        _snapshot(counters=[]),
        _snapshot(timers={"t": {"count": 1}}),
        _snapshot(histograms={"h": {"count": 1}}),
        _snapshot(counters={"a": "lots"}),
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(SchemaError):
            validate_event(bad)


class TestValidateLines:
    def test_reports_line_numbers(self):
        lines = [json.dumps(_span()), "not json"]
        with pytest.raises(SchemaError, match="line 2"):
            validate_lines(lines)

    def test_skips_blank_lines(self):
        assert len(validate_lines([json.dumps(_span()), "", "  "])) == 1


class TestValidateFile:
    def test_counts_spans(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([
            json.dumps(_span(name="check")),
            json.dumps(_span(name="check")),
            json.dumps(_span(name="simulate")),
            json.dumps(_event()),
        ]) + "\n")
        nlines, spans = validate_file(str(path))
        assert nlines == 4
        assert spans == {"check": 2, "simulate": 1}

    def test_require_spans_missing(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(_span(name="check")) + "\n")
        with pytest.raises(SchemaError, match="generate"):
            validate_file(str(path), require_spans=["check", "generate"])


class TestCli:
    def test_ok_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(_span()) + "\n")
        assert main([str(path), "--require-spans", "check"]) == 0
        assert "1 event(s) ok" in capsys.readouterr().out

    def test_invalid_exit_one(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        path.write_text('{"v":99}\n')
        assert main([str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path):
        assert main([str(tmp_path / "absent.jsonl")]) == 1
