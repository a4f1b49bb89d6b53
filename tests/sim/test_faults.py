"""Fault-injection tests: every bug mechanism is detectable end to end.

For each fault class the test runs generated racy tests on a machine
with exactly that fault active, until the TSOtool analysis (or the
class-appropriate triage) flags it — the Sec. 5 story in miniature.
"""

import pytest

from repro.core.api import check
from repro.generator.config import GeneratorConfig, InstructionMix
from repro.generator.generator import generate_program
from repro.sim.faults import (
    AtomicityHoleFault,
    BugClass,
    DroppedInvalidateFault,
    DroppedSpeculativeLoadFault,
    Fault,
    FuncUnit,
    InterconnectDelayFault,
    LostDirtyBitFault,
    MembarSkipFault,
    MonitorFalseAlarmFault,
    StaleForwardFault,
    StoreBufferReorderFault,
    TlbAliasFault,
    TraceCorruptionFault,
    WritebackReorderFault,
)
from repro.sim.machine import MachineConfig, TsoMachine

RACY = GeneratorConfig(
    nprocs=4,
    ops_per_proc=80,
    shared_words=6,
    mix=InstructionMix(
        load=30.0, store=30.0, swap=6.0, cas=6.0, membar=8.0,
        block_load=1.0, block_store=1.0, nonfaulting_load=1.0,
        prefetch=1.0, flush=1.0, branch=1.0,
    ),
)

MAX_TESTS = 15


def _hunt(fault_factory, predicate, config=RACY):
    """Run tests until the predicate triages a detection; return info."""
    for seed in range(MAX_TESTS):
        program = generate_program(config, seed=seed)
        fault = fault_factory()
        machine = TsoMachine(program, seed=seed, faults=[fault])
        observed = machine.run()
        if predicate(program, machine, observed, fault):
            return seed, fault
    return None, None


def _tso_fails(program, machine, observed, fault):
    return fault.activations > 0 and not check(program, observed).ok


DETECTABLE_FAULTS = [
    StoreBufferReorderFault,
    StaleForwardFault,
    AtomicityHoleFault,
    MembarSkipFault,
    LostDirtyBitFault,
    DroppedInvalidateFault,
    InterconnectDelayFault,
    WritebackReorderFault,
    DroppedSpeculativeLoadFault,
    TlbAliasFault,
]


@pytest.mark.parametrize("mechanism", DETECTABLE_FAULTS, ids=lambda f: f.__name__)
def test_hardware_fault_detected_by_tso_analysis(mechanism):
    from repro.sim.cpus import _RATES

    seed, fault = _hunt(
        lambda: mechanism(rate=_RATES[mechanism]), _tso_fails
    )
    assert seed is not None, f"{mechanism.__name__} never caught in {MAX_TESTS} tests"


class TestGoldenBaseline:
    def test_zero_rate_faults_change_nothing(self):
        program = generate_program(RACY, seed=3)
        golden = TsoMachine(program, seed=3).run()
        nulled = TsoMachine(
            program, seed=3,
            faults=[StoreBufferReorderFault(rate=0.0), TlbAliasFault(rate=0.0)],
        ).run()
        assert golden.records == nulled.records

    def test_fault_rate_validation(self):
        with pytest.raises(ValueError):
            Fault(rate=1.5)

    def test_report_carries_identity(self):
        fault = LostDirtyBitFault(
            rate=0.1, unit=FuncUnit.CACHES, bug_class=BugClass.ARCHITECTURE,
            name="bug-x",
        )
        report = fault.report()
        assert report.name == "bug-x"
        assert report.unit == FuncUnit.CACHES
        assert report.bug_class == BugClass.ARCHITECTURE
        assert report.activations == 0

    def test_attach_resets_activations(self):
        fault = MembarSkipFault(rate=1.0)
        fault.activations = 7
        program = generate_program(RACY, seed=0)
        TsoMachine(program, seed=0, faults=[fault])
        assert fault.activations == 0


class TestMonitorBug:
    def test_spurious_alarm_on_clean_run(self):
        def triage(program, machine, observed, fault):
            return bool(machine.monitor_alarms) and check(program, observed).ok

        seed, fault = _hunt(lambda: MonitorFalseAlarmFault(rate=0.05), triage)
        assert seed is not None

    def test_alarm_fires_at_most_once_per_run(self):
        program = generate_program(RACY, seed=1)
        fault = MonitorFalseAlarmFault(rate=1.0)
        machine = TsoMachine(program, seed=1, faults=[fault])
        machine.run()
        assert len(machine.monitor_alarms) == 1


class TestEnvironmentBug:
    def test_observed_fails_but_true_trace_passes(self):
        def triage(program, machine, observed, fault):
            if fault.activations == 0:
                return False
            if check(program, observed).ok:
                return False
            return check(program, machine.true_execution).ok

        seed, fault = _hunt(lambda: TraceCorruptionFault(rate=0.05), triage)
        assert seed is not None

    def test_corruption_leaves_machine_state_alone(self):
        program = generate_program(RACY, seed=2)
        fault = TraceCorruptionFault(rate=0.5)
        machine = TsoMachine(program, seed=2, faults=[fault])
        observed = machine.run()
        # The true trace is the machine's honest record.
        assert check(program, machine.true_execution).ok
        assert fault.activations > 0
        assert observed.records != machine.true_execution.records


class TestMechanismSpecifics:
    def test_stale_forward_makes_load_miss_own_store(self):
        # Single CPU, no drains: the load must see the buffered store —
        # unless the fault makes it read memory.
        from repro.model.ops import ILoad, IStore
        from repro.model.program import Program, Thread

        program = Program(
            threads=[Thread([IStore(addr=0), ILoad(addr=0)])]
        )
        fault = StaleForwardFault(rate=1.0)
        machine = TsoMachine(
            program, seed=0, config=MachineConfig(drain_bias=0.0), faults=[fault]
        )
        execution = machine.run()
        assert execution.records[0][1].loaded == (0,)  # initial value
        assert not check(program, execution).ok

    def test_lost_dirty_bit_never_reaches_memory(self):
        from repro.model.ops import IMembar, IStore
        from repro.model.program import Program, Thread

        program = Program(threads=[Thread([IStore(addr=0), IMembar()])])
        fault = LostDirtyBitFault(rate=1.0)
        machine = TsoMachine(program, seed=0, faults=[fault])
        machine.run()
        assert machine.memory.read(0) == 0  # the store vanished

    def test_tlb_alias_returns_other_words_value(self):
        def triage(program, machine, observed, fault):
            result = check(program, observed)
            return fault.activations > 0 and not result.ok

        seed, _fault = _hunt(lambda: TlbAliasFault(rate=0.3), triage)
        assert seed is not None

    def test_atomicity_hole_opens_write_window(self):
        from repro.model.ops import ISwap
        from repro.model.program import Program, Thread

        program = Program(threads=[Thread([ISwap(addr=0)])])
        fault = AtomicityHoleFault(rate=1.0)
        machine = TsoMachine(program, seed=0, faults=[fault])
        machine.run()
        # Even split across ticks, the lone swap still completes.
        assert machine.memory.read(0) != 0


class TestDrainIndexZeroRegression:
    """``Fault.pick_drain_index`` returning 0 means "force the FIFO head",
    which is distinct from ``None`` ("no opinion").  A truthiness check in
    ``TsoMachine._drain_one`` used to conflate the two and hand index 0
    over to the scheduling policy instead."""

    class _HeadPinningFault(Fault):
        """Always forces the FIFO head to drain."""

        def pick_drain_index(self, pid, buffer):
            self.activations += 1
            return 0

    class _TailPickingPolicy:
        """Policy that always drains the *last* eligible entry — the
        opposite of what a head-pinning fault demands, so any fall-through
        from the fault to the policy is visible."""

        name = "tail"
        drain_bias = 1.0

        def bind(self, machine):
            pass

        def pick_cpu(self, runnable):
            return runnable[0]

        def should_drain(self, pid, buffer):
            return True

        def pick_drain_index(self, eligible):
            return eligible[-1]

        def pick_delay(self, lo, hi):
            return lo

    def _machine(self, faults):
        from repro.model.ops import IStore
        from repro.model.program import Program, Thread

        program = Program(threads=[Thread([IStore(addr=0)])])
        return TsoMachine(
            program,
            seed=0,
            config=MachineConfig(pso_mode=True),
            faults=faults,
            policy=self._TailPickingPolicy(),
        )

    def _load_buffer(self, machine):
        from repro.sim.storebuffer import BufferedStore

        buffer = machine.buffers[0]
        buffer.push(BufferedStore(words=((0, 11),), tag="head"))
        buffer.push(BufferedStore(words=((8, 22),), tag="tail"))
        return buffer

    def test_fault_index_zero_forces_fifo_head(self):
        fault = self._HeadPinningFault(rate=1.0)
        machine = self._machine([fault])
        buffer = self._load_buffer(machine)
        machine._drain_one(machine.cpus[0])
        # The head entry (addr 0) must be gone; the tail must remain.
        assert fault.activations == 1
        assert len(buffer) == 1
        assert buffer.peek(0).tag == "tail"
        assert machine.commit_order[-1] == (0, 11)

    def test_no_fault_defers_to_policy(self):
        """Sanity for the same setup: with no fault opinion, the PSO
        policy's pick (the tail) wins — proving the previous test really
        exercises the fault override and not a policy coincidence."""
        machine = self._machine([])
        buffer = self._load_buffer(machine)
        machine._drain_one(machine.cpus[0])
        assert buffer.peek(0).tag == "head"
        assert machine.commit_order[-1] == (8, 22)


class TestHookDispatch:
    """The machine calls a hook only on the faults that override it."""

    def test_every_fault_hook_is_listed(self):
        from repro.sim.faults import FAULT_HOOKS

        housekeeping = {"attach", "fire", "report"}
        hooks = {
            name for name, value in vars(Fault).items()
            if callable(value) and not name.startswith("_")
        } - housekeeping
        assert hooks == set(FAULT_HOOKS)

    def test_roster_mechanisms_each_override_one_hook(self):
        from repro.sim.cpus import CPU_CONFIGS
        from repro.sim.faults import FAULT_HOOKS, overrides

        for cpu in CPU_CONFIGS:
            for spec in cpu.bugs:
                fault = spec.instantiate()
                assert sum(overrides(fault, h) for h in FAULT_HOOKS) == 1

    def test_tables_hold_only_overriders_and_are_rebuilt_on_reset(self):
        program = generate_program(GeneratorConfig(nprocs=2, ops_per_proc=20))
        stale, alarm = StaleForwardFault(rate=0.5), MonitorFalseAlarmFault()
        machine = TsoMachine(program, seed=1, faults=[stale, alarm])
        assert machine._hooks.skip_forwarding == [stale.skip_forwarding]
        assert machine._hooks.monitor_alarm == [alarm.monitor_alarm]
        assert machine._hooks.translate_load == []
        machine.reset(program, seed=1, faults=[])
        assert machine._hooks.skip_forwarding == []
        assert machine._hooks.monitor_alarm == []

    def test_hook_set_on_the_instance_is_dispatched(self):
        program = generate_program(GeneratorConfig(nprocs=2, ops_per_proc=20))
        fault = Fault()
        seen = []
        fault.corrupt_record = lambda cpu, rec: seen.append(cpu) or rec
        machine = TsoMachine(program, seed=1, faults=[fault])
        machine.run()
        assert len(seen) == sum(len(cpu.records) for cpu in machine.cpus)

    def test_base_fault_changes_nothing(self):
        """A fault overriding no hook is never called and leaves the run
        byte-identical to the golden one."""
        program = generate_program(GeneratorConfig(nprocs=3, ops_per_proc=60))
        golden = TsoMachine(program, seed=4)
        with_noop = TsoMachine(program, seed=4, faults=[Fault(rate=1.0)])
        assert with_noop.run().dump() == golden.run().dump()
        assert with_noop.commit_order == golden.commit_order
        assert with_noop.tick == golden.tick
