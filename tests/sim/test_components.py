"""Unit tests for the machine's building blocks: memory, store buffer,
cache, interconnect."""

import pytest

from repro.sim.cache import LINE_SIZE, CpuCache, line_of
from repro.sim.interconnect import DELAY, DELIVER, DROP, Interconnect
from repro.sim.memory import Memory
from repro.sim.storebuffer import BufferedStore, StoreBuffer


class TestMemory:
    def test_unwritten_words_read_zero(self):
        assert Memory().read(4) == 0

    def test_write_then_read(self):
        mem = Memory()
        mem.write(8, 42)
        assert mem.read(8) == 42

    def test_initial_contents(self):
        mem = Memory(initial={0: 7})
        assert mem.read(0) == 7

    def test_unaligned_access_rejected(self):
        mem = Memory()
        with pytest.raises(ValueError):
            mem.read(2)
        with pytest.raises(ValueError):
            mem.write(6, 1)

    def test_previous_value_tracks_overwrites(self):
        mem = Memory(initial={0: 1})
        mem.write(0, 2)
        assert mem.previous_value(0) == 1
        mem.write(0, 3)
        assert mem.previous_value(0) == 2

    def test_previous_value_before_any_write(self):
        mem = Memory(initial={0: 9})
        assert mem.previous_value(0) == 9

    def test_page_validity(self):
        mem = Memory(initial={0: 0})
        assert mem.is_valid(0x10)        # same page as a known word
        assert not mem.is_valid(0x5000)  # untouched page
        mem.register_valid([0x5000])
        assert mem.is_valid(0x5FFC)

    def test_snapshot_is_a_copy(self):
        mem = Memory(initial={0: 1})
        snap = mem.snapshot()
        mem.write(0, 2)
        assert snap[0] == 1


class TestStoreBuffer:
    def _entry(self, addr, value, tag=""):
        return BufferedStore(words=((addr, value),), tag=tag)

    def test_fifo_order(self):
        buf = StoreBuffer(capacity=4)
        buf.push(self._entry(0, 1))
        buf.push(self._entry(4, 2))
        assert buf.pop().words[0] == (0, 1)
        assert buf.pop().words[0] == (4, 2)

    def test_capacity_enforced(self):
        buf = StoreBuffer(capacity=1)
        buf.push(self._entry(0, 1))
        assert buf.full
        with pytest.raises(OverflowError):
            buf.push(self._entry(4, 2))

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            StoreBuffer(capacity=0)

    def test_forward_returns_newest_match(self):
        buf = StoreBuffer()
        buf.push(self._entry(0, 1))
        buf.push(self._entry(0, 2))
        assert buf.forward(0) == 2

    def test_forward_oldest_first_mode(self):
        buf = StoreBuffer()
        buf.push(self._entry(0, 1))
        buf.push(self._entry(0, 2))
        assert buf.forward(0, newest_first=False) == 1

    def test_forward_miss(self):
        buf = StoreBuffer()
        buf.push(self._entry(0, 1))
        assert buf.forward(8) is None

    def test_forward_multiword_entry(self):
        buf = StoreBuffer()
        buf.push(BufferedStore(words=((0, 1), (4, 2))))
        assert buf.forward(4) == 2

    def test_out_of_order_pop(self):
        buf = StoreBuffer()
        buf.push(self._entry(0, 1))
        buf.push(self._entry(4, 2))
        assert buf.pop(1).words[0] == (4, 2)
        assert buf.pop().words[0] == (0, 1)

    def test_swap_entries(self):
        buf = StoreBuffer()
        buf.push(self._entry(0, 1))
        buf.push(self._entry(4, 2))
        buf.swap(-1, -2)
        assert buf.pop().words[0] == (4, 2)


class TestCache:
    def test_line_of(self):
        assert line_of(0) == 0
        assert line_of(63) == 0
        assert line_of(64) == 64
        assert line_of(130) == 128

    def test_install_and_lookup(self):
        cache = CpuCache()
        cache.install(4, 9)
        assert cache.lookup(4) == 9
        assert cache.lookup(8) is None  # same line, word not snapshotted

    def test_invalidate_drops_whole_line(self):
        cache = CpuCache()
        cache.install(0, 1)
        cache.install(60, 2)  # same 64-byte line
        assert cache.invalidate(32)
        assert cache.lookup(0) is None and cache.lookup(60) is None

    def test_invalidate_miss_returns_false(self):
        assert not CpuCache().invalidate(0)

    def test_update_if_resident(self):
        cache = CpuCache()
        cache.update_if_resident(0, 5)  # not resident: no-op
        assert cache.lookup(0) is None
        cache.install(0, 1)
        cache.update_if_resident(0, 5)
        assert cache.lookup(0) == 5

    def test_ttl_expiry_drops_line(self):
        cache = CpuCache()
        cache.install(0, 1)
        cache.line(0).ttl = 2
        assert cache.lookup(0) == 1
        assert cache.lookup(0) == 1
        assert cache.lookup(0) is None  # expired and dropped

    def test_install_on_a_resident_line_keeps_the_line(self):
        cache = CpuCache()
        cache.install(0, 1)
        line = cache.line(0)
        cache.install(4, 2, dirty=True)
        assert cache.line(4) is line
        assert line.words == {0: 1, 4: 2} and line.dirty_words == {4}

    def test_clear(self):
        cache = CpuCache()
        cache.install(0, 1)
        cache.clear()
        assert cache.lookup(0) is None


class TestInterconnect:
    def test_immediate_delivery(self):
        ic = Interconnect(3)
        delivered = []
        ic.broadcast(
            src=0, addr=4, tick=0,
            deliver=lambda v, a: delivered.append((v, a)),
            verdict=lambda s, v, a: (DELIVER, 0),
        )
        assert delivered == [(1, 4), (2, 4)]

    def test_drop_skips_victim(self):
        ic = Interconnect(2)
        delivered = []
        ic.broadcast(
            src=0, addr=4, tick=0,
            deliver=lambda v, a: delivered.append(v),
            verdict=lambda s, v, a: (DROP, 0),
        )
        assert delivered == [] and ic.pending == []

    def test_delay_queues_until_due(self):
        ic = Interconnect(2)
        delivered = []
        ic.broadcast(
            src=0, addr=4, tick=10,
            deliver=lambda v, a: delivered.append(v),
            verdict=lambda s, v, a: (DELAY, 5),
        )
        assert delivered == []
        assert ic.deliver_due(14, lambda v, a: delivered.append(v)) == 0
        assert ic.deliver_due(15, lambda v, a: delivered.append(v)) == 1
        assert delivered == [1]

    def test_no_verdict_delivers_to_every_other_cpu(self):
        ic = Interconnect(4)
        delivered = []
        ic.broadcast(
            src=2, addr=8, tick=0,
            deliver=lambda v, a: delivered.append((v, a)),
        )
        assert delivered == [(0, 8), (1, 8), (3, 8)] and ic.pending == []

    def test_no_verdict_still_draws_jitter_per_victim(self):
        class Delays:
            def __init__(self):
                self.calls = []

            def pick_delay(self, lo, hi):
                self.calls.append((lo, hi))
                return len(self.calls) % 2  # 1, 0, 1

        policy = Delays()
        ic = Interconnect(4, policy=policy, jitter=3)
        delivered = []
        ic.broadcast(
            src=0, addr=4, tick=10,
            deliver=lambda v, a: delivered.append(v),
        )
        assert policy.calls == [(0, 3)] * 3
        assert delivered == [2]
        assert [(p.due_tick, p.victim) for p in ic.pending] == [(11, 1), (11, 3)]

    def test_flush_delivers_everything(self):
        ic = Interconnect(2)
        delivered = []
        ic.broadcast(
            src=0, addr=4, tick=0,
            deliver=lambda v, a: delivered.append(v),
            verdict=lambda s, v, a: (DELAY, 100),
        )
        ic.flush(lambda v, a: delivered.append(v))
        assert delivered == [1] and ic.pending == []
