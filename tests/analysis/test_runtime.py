"""Tests for the Fig. 8/9 runtime-measurement harness."""

import pytest

import repro.analysis.runtime as runtime_mod
from repro.analysis.runtime import (
    RuntimePoint,
    SweepResult,
    format_series,
    measure_runtime,
    sweep_runtime,
)


class TestMeasureRuntime:
    def test_point_fields(self):
        point = measure_runtime(nprocs=2, shared_words=8, total_ops=80, seed=1)
        assert point.nprocs == 2
        assert point.shared_words == 8
        assert point.total_ops == 80
        assert point.nodes > 80  # expansion splits multi-word ops, adds roots
        assert point.edges > 0
        assert point.iterations >= 1
        assert point.seconds > 0

    def test_ops_split_across_processors(self):
        point = measure_runtime(nprocs=4, shared_words=8, total_ops=100, seed=1)
        # 25 instructions per CPU, each at least one node.
        assert point.nodes >= 100

    def test_baseline_engine_supported(self):
        point = measure_runtime(
            nprocs=2, shared_words=4, total_ops=60, seed=2, engine="baseline"
        )
        assert point.seconds > 0

    def test_repeats_take_minimum(self):
        a = measure_runtime(nprocs=2, shared_words=4, total_ops=60, seed=3, repeats=3)
        assert a.seconds > 0

    def test_failing_runs_capped_not_unbounded(self, monkeypatch):
        # Force every analysis to fail: generation must be retried a
        # bounded number of times, then raise an error naming the
        # generator config — never loop forever.
        calls = []
        real = runtime_mod.make_checker

        class _AlwaysFail:
            def run(self, aprog):
                calls.append(1)
                result = real(runtime_mod.TSO, "vc").run(aprog)
                result.ok = False
                if result.violation is None:
                    from repro.core.result import Violation, ViolationKind

                    result.violation = Violation(
                        kind=ViolationKind.PRECHECK, message="injected failure"
                    )
                return result

        monkeypatch.setattr(
            runtime_mod, "make_checker", lambda model, engine: _AlwaysFail()
        )
        with pytest.raises(RuntimeError) as excinfo:
            measure_runtime(
                nprocs=2, shared_words=4, total_ops=40, seed=1, max_attempts=3
            )
        message = str(excinfo.value)
        assert "3 attempt(s)" in message
        assert "GeneratorConfig" in message  # names the offending config
        assert len(calls) == 3  # capped, one checker run per attempt

    def test_retry_uses_derived_seed_then_succeeds(self, monkeypatch):
        # First attempt "fails", second runs the real checker: the
        # measurement must come back from a retried, derived seed.
        real = runtime_mod.make_checker
        state = {"attempt": 0}

        class _FailOnce:
            def __init__(self, model, engine):
                self.inner = real(model, engine)

            def run(self, aprog):
                result = self.inner.run(aprog)
                state["attempt"] += 1
                if state["attempt"] == 1:
                    result.ok = False
                    from repro.core.result import Violation, ViolationKind

                    result.violation = Violation(
                        kind=ViolationKind.PRECHECK, message="injected failure"
                    )
                return result

        monkeypatch.setattr(runtime_mod, "make_checker", _FailOnce)
        point = measure_runtime(
            nprocs=2, shared_words=4, total_ops=40, seed=1, max_attempts=3
        )
        assert state["attempt"] == 2
        assert point.total_ops == 40

    def test_row_rendering(self):
        point = RuntimePoint(
            nprocs=4, shared_words=16, total_ops=1000, nodes=1200,
            edges=3000, iterations=3, seconds=0.5,
        )
        row = point.row()
        assert "procs=4" in row and "ops=1000" in row and "ms" in row


class TestSweep:
    def test_cartesian_sweep_shape(self):
        points = sweep_runtime(
            proc_counts=[2, 4], word_counts=[4], ops_points=[40, 80], seed=0
        )
        assert len(points) == 4
        assert {(p.nprocs, p.total_ops) for p in points} == {
            (2, 40), (2, 80), (4, 40), (4, 80),
        }

    def test_runtime_grows_with_ops(self):
        points = sweep_runtime(
            proc_counts=[4], word_counts=[8], ops_points=[100, 800], seed=1
        )
        assert points[1].seconds > points[0].seconds

    def test_format_series(self):
        points = sweep_runtime(
            proc_counts=[2], word_counts=[4], ops_points=[40], seed=0
        )
        text = format_series(points, "title")
        assert text.splitlines()[0] == "title"
        assert len(text.splitlines()) == 2

    def test_sweep_result_is_sequence_like_with_stats(self):
        result = sweep_runtime(
            proc_counts=[2], word_counts=[4], ops_points=[40, 80], seed=0
        )
        assert isinstance(result, SweepResult)
        assert len(result) == 2
        assert result[0].total_ops == 40
        assert [p.total_ops for p in result] == [40, 80]
        assert result.stats is not None
        assert result.stats.completed == 2
        assert result.stats.wall_seconds > 0

    def test_parallel_sweep_same_series_as_sequential(self):
        kwargs = dict(
            proc_counts=[2, 4], word_counts=[4], ops_points=[40, 80], seed=3
        )
        sequential = sweep_runtime(**kwargs, workers=1)
        parallel = sweep_runtime(**kwargs, workers=3)
        # Graph shape is deterministic per point seed; only wall-clock
        # timing may differ between the two runs.
        shape = lambda p: (p.nprocs, p.shared_words, p.total_ops,
                           p.nodes, p.edges, p.iterations)
        assert [shape(p) for p in parallel] == [shape(p) for p in sequential]
