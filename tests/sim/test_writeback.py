"""Tests for the write-back cache mode.

Historical note worth keeping: while this mode was being built, the
TSOtool checker itself caught two genuine coherence bugs in the cache
implementation — a dirty-line write-back that resurrected stale clean
snapshot words, and prefetch fills that bypassed the dirty-line snoop.
Both are pinned as regression tests here; EXPERIMENTS.md tells the story.
"""

import pytest

from repro.core.api import check
from repro.generator.config import GeneratorConfig, InstructionMix
from repro.generator.generator import generate_program
from repro.model.ops import IFlushCache, ILoad, IMembar, IPrefetch, IStore
from repro.model.program import Program, Thread
from repro.sim.cache import CpuCache
from repro.sim.machine import MachineConfig, TsoMachine
from tests.util import count_hw_prefetches

WB = MachineConfig(writeback=True)
WB_TINY = MachineConfig(writeback=True, cache_lines=1)


def _run(threads, seed=0, config=WB, initial=None):
    program = Program(threads=[Thread(t) for t in threads], initial=initial or {})
    machine = TsoMachine(program, seed=seed, config=config)
    return program, machine.run(), machine


class TestCacheDirtyTracking:
    def test_per_word_dirty(self):
        cache = CpuCache()
        cache.install(0, 5, dirty=True)
        cache.install(4, 9)  # clean snapshot in the same line
        line = cache.line(0)
        assert line.dirty
        assert line.dirty_words == {0}
        assert line.dirty_items() == [(0, 5)]
        assert cache.dirty_value(0) == 5
        assert cache.dirty_value(4) is None

    def test_eviction_returns_victim(self):
        cache = CpuCache(capacity=1)
        cache.install(0, 1, dirty=True)
        cache.install(64, 2)
        assert cache.needs_eviction()
        addr, line = cache.evict_victim()
        assert addr == 0 and line.dirty
        assert not cache.needs_eviction()


class TestWritebackSemantics:
    def test_commit_dirties_cache_not_memory(self):
        program, execution, machine = _run(
            [[IStore(addr=0), IMembar(), ILoad(addr=4)] + [ILoad(addr=4)] * 20]
        )
        stored = execution.records[0][0].stored[0]
        assert machine.caches[0].dirty_value(0) == stored
        assert machine.memory.read(0) != stored  # memory lags the dirty line

    def test_other_cpu_snoops_dirty_data(self):
        # P0 commits (dirty); P1 must still read the new value.
        program, execution, machine = _run(
            [
                [IStore(addr=0), IMembar()] + [ILoad(addr=4)] * 10,
                [ILoad(addr=0)] * 10,
            ],
            seed=3,
        )
        stored = execution.records[0][0].stored[0]
        assert execution.records[1][-1].loaded == (stored,)
        assert machine.stats.snoop_hits > 0

    def test_eviction_writes_back(self):
        # Capacity 1: a second line evicts the first, flushing its data.
        program, execution, machine = _run(
            [[IStore(addr=0), IMembar(), IStore(addr=64), IMembar()]],
            config=MachineConfig(writeback=True, cache_lines=1),
        )
        first = execution.records[0][0].stored[0]
        assert machine.memory.read(0) == first
        assert machine.stats.writebacks >= 1

    def test_flush_writes_back_dirty_line(self):
        program, execution, machine = _run(
            [[IStore(addr=0), IMembar(), IFlushCache(addr=0)]]
        )
        stored = execution.records[0][0].stored[0]
        assert machine.memory.read(0) == stored
        assert machine.caches[0].line(0) is None

    def test_ownership_transfer_preserves_other_words(self):
        # P0 dirties word 0; P1 then commits to word 4 of the same line:
        # P0's data must survive via write-back, and a third CPU must see
        # both final values.
        program, execution, machine = _run(
            [
                [IStore(addr=0), IMembar()],
                [IStore(addr=4), IMembar()],
                [IMembar()] * 6 + [ILoad(addr=0), ILoad(addr=4)],
            ],
            seed=9,
        )
        v0 = execution.records[0][0].stored[0]
        v4 = execution.records[1][0].stored[0]
        got0 = execution.records[2][-2].loaded[0]
        got4 = execution.records[2][-1].loaded[0]
        assert got0 in (0, v0) and got4 in (0, v4)
        result = check(program, execution)
        assert result.ok, result.explain()


class TestRegressions:
    """The two coherence bugs the checker itself caught during bring-up."""

    def test_stale_clean_words_never_written_back(self):
        # A dirty line carrying a clean snapshot word must not write that
        # word back (it may be older than memory).  Reproduced by: P0
        # reads word 4 (clean snapshot) into the line it dirties at word
        # 0; P1 meanwhile advances word 4; P0's eviction must not undo it.
        program, execution, machine = _run(
            [
                [IStore(addr=0), IMembar(), ILoad(addr=4),
                 IStore(addr=64), IMembar(), IStore(addr=128), IMembar()],
                [IStore(addr=4), IMembar()] + [ILoad(addr=4)] * 4,
            ],
            config=MachineConfig(writeback=True, cache_lines=1),
            seed=5,
        )
        assert check(program, execution).ok
        # P1's store must survive in memory or P1's dirty line.
        v4 = execution.records[1][0].stored[0]
        assert (
            machine.memory.read(4) == v4
            or machine.caches[1].dirty_value(4) == v4
        )

    def test_prefetch_fills_snoop_dirty_owners(self):
        # A prefetch while another CPU holds the word dirty must install
        # the dirty data, not stale memory.
        program, execution, machine = _run(
            [
                [IStore(addr=0), IMembar()] + [ILoad(addr=64)] * 6,
                [IPrefetch(addr=0)] * 6 + [ILoad(addr=0)] * 2,
            ],
            seed=2,
        )
        assert check(program, execution).ok
        stored = execution.records[0][0].stored[0]
        final = execution.records[1][-1].loaded[0]
        assert final in (0, stored)
        if machine.caches[1].lookup(0) is not None:
            assert machine.caches[1].lookup(0) in (0, stored)

    @pytest.mark.parametrize("seed", [15, 25])
    def test_original_failing_seeds_now_pass(self, seed, monkeypatch):
        # The exact configurations that exposed both bugs.
        cfg_a = GeneratorConfig(nprocs=4, ops_per_proc=60, shared_words=16,
                                stride_words=16)
        program = generate_program(cfg_a, seed=seed)
        machine = TsoMachine(
            program, seed=seed,
            config=MachineConfig(writeback=True, cache_lines=2),
        )
        assert check(program, machine.run()).ok
        # Words on separate lines, so the prefetcher's sequential-line
        # trigger can fire (with all 8 words on one line it never does).
        cfg_b = GeneratorConfig(nprocs=4, ops_per_proc=60, shared_words=8,
                                stride_words=8)
        program = generate_program(cfg_b, seed=seed)
        machine = TsoMachine(
            program, seed=seed,
            config=MachineConfig(writeback=True, cache_lines=1,
                                 hw_prefetch=True),
        )
        prefetches = count_hw_prefetches(monkeypatch)
        assert check(program, machine.run()).ok
        assert prefetches


class TestGoldenSoundness:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_writeback_runs_pass(self, seed, monkeypatch):
        # Words on separate lines, so the prefetcher fires.
        config = GeneratorConfig(nprocs=4, ops_per_proc=60, shared_words=8,
                                 stride_words=8)
        program = generate_program(config, seed=seed)
        machine = TsoMachine(
            program, seed=seed,
            config=MachineConfig(writeback=True, cache_lines=2,
                                 hw_prefetch=True, enable_monitor=True),
        )
        prefetches = count_hw_prefetches(monkeypatch)
        execution = machine.run()
        assert check(program, execution).ok
        assert machine.monitor_alarms == []
        assert prefetches

    def test_cache_faults_still_detectable_in_writeback_mode(self):
        from repro.sim.faults import DroppedInvalidateFault

        config = GeneratorConfig(nprocs=4, ops_per_proc=80, shared_words=6)
        for seed in range(15):
            program = generate_program(config, seed=seed)
            machine = TsoMachine(
                program, seed=seed, config=WB,
                faults=[DroppedInvalidateFault(rate=0.7)],
            )
            if not check(program, machine.run()).ok:
                return
        pytest.fail("dropped invalidate undetectable in write-back mode")
