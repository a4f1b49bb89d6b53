"""Tests for the C11/pthreads backend — including, when a compiler is
available, the full loop: emit → compile → run on the host (x86 = TSO)
→ parse the printed trace → check."""

import os
import platform
import shutil
import subprocess
import time

import pytest

from repro.core.api import check_execution
from repro.emit.c11 import (
    C11_MIX,
    UnsupportedForC11,
    c11_generator_config,
    emit_c11,
)
from repro.generator.generator import generate_program
from repro.model.ops import (
    IBlockStore,
    IBranch,
    ICas,
    ILoad,
    IMembar,
    INonFaultingLoad,
    IPrefetch,
    IStore,
    ISwap,
)
from repro.model.program import Program, Thread
from repro.model.trace import Execution


def _emit(threads, initial=None):
    program = Program(threads=[Thread(t) for t in threads], initial=initial or {})
    return emit_c11(program)


class TestStructure:
    def test_one_function_per_thread_plus_main(self):
        src = _emit([[ILoad(addr=0)], [IStore(addr=0)]])
        assert "static void *thread_0(" in src
        assert "static void *thread_1(" in src
        assert "int main(void)" in src
        assert "pthread_create" in src

    def test_trace_header_printed(self):
        src = _emit([[ILoad(addr=0)]])
        assert 'printf("# tsotool trace v1' in src

    def test_initial_values_installed(self):
        src = _emit([[ILoad(addr=8)]], initial={8: 42})
        assert "atomic_store_explicit(&shared_mem[2], 42u" in src

    def test_store_uses_unique_counter_with_thread_id(self):
        src = _emit([[IStore(addr=0)], [IStore(addr=0)]])
        assert "(++counter << 8) | 1u" in src
        assert "(++counter << 8) | 2u" in src

    def test_membar_is_seq_cst_fence(self):
        src = _emit([[IMembar(), ILoad(addr=0)]])
        assert "atomic_thread_fence(memory_order_seq_cst)" in src

    def test_swap_is_atomic_exchange(self):
        src = _emit([[ISwap(addr=4)]])
        assert "atomic_exchange_explicit(&shared_mem[1]" in src

    def test_cas_references_companion_load_slot(self):
        thread = [ILoad(addr=0), ICas(addr=0, size=4, compare_from=0)]
        src = _emit([thread])
        assert "expect = rec[0].loaded;" in src
        assert "atomic_compare_exchange_strong_explicit" in src

    def test_branch_emits_label_and_lfsr(self):
        thread = [IBranch(skip=1), ILoad(addr=0), ILoad(addr=0)]
        src = _emit([thread])
        assert "lfsr_next(&lfsr)" in src
        assert "goto op_0_2;" in src
        assert "op_0_2: ;" in src

    def test_faulting_nonfaulting_load_is_constant_zero(self):
        src = _emit([[INonFaultingLoad(addr=0x5000, faulting=True)]],
                    initial={0: 0})
        assert "rec[0].loaded = 0; rec[0].flag = 1;" in src

    def test_compiler_order_fences_between_ops(self):
        src = _emit([[ILoad(addr=0), IStore(addr=0)]])
        assert src.count("PO();") == 2


class TestRejections:
    @pytest.mark.parametrize(
        "instr",
        [
            ILoad(addr=0, size=8),
            IStore(addr=0, size=16),
            ISwap(addr=0, size=8),
            IBlockStore(addr=0),
            IPrefetch(addr=0),
        ],
        ids=lambda i: type(i).__name__ + str(getattr(i, "size", "")),
    )
    def test_unsupported_instructions_rejected(self, instr):
        with pytest.raises(UnsupportedForC11):
            _emit([[instr]])

    def test_c11_config_generates_only_supported_programs(self):
        for seed in range(5):
            program = generate_program(
                c11_generator_config(nprocs=4, ops_per_proc=60), seed=seed
            )
            emit_c11(program)  # must not raise


_CC = shutil.which("cc") or shutil.which("gcc")
_X86 = platform.machine() in ("x86_64", "AMD64", "i686", "i386")
_NCPU = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)


@pytest.mark.skipif(
    _CC is None or not _X86,
    reason="needs a C compiler and TSO (x86) hardware",
)
class TestRealHardwareLoop:
    """The full Fig. 1 loop with the host machine as the platform."""

    def test_compile_run_check(self, tmp_path):
        program = generate_program(
            c11_generator_config(nprocs=4, ops_per_proc=60, shared_words=6),
            seed=7,
        )
        source = tmp_path / "test.c"
        binary = tmp_path / "test"
        source.write_text(emit_c11(program))
        subprocess.run(
            [_CC, "-O2", "-pthread", "-Wall", "-Werror", str(source),
             "-o", str(binary)],
            check=True, capture_output=True,
        )
        for run in range(3):
            output = subprocess.run(
                [str(binary)], check=True, capture_output=True, text=True,
                timeout=60,
            ).stdout
            execution = Execution.load(output)
            assert execution.nprocs == 4
            result = check_execution(execution, initial=program.initial)
            assert result.ok, (
                "real x86 hardware flagged as TSO-violating?!\n"
                + result.explain()
            )

    @pytest.mark.skipif(
        _NCPU < 2,
        reason="needs two CPUs for the threads to run at the same time",
    )
    def test_run_has_real_concurrency_effects(self, tmp_path):
        # The emitted threads meet at a start barrier, so their racy
        # sequences overlap; runs of the binary then interleave
        # differently.  Run it until two traces differ, within a bound.
        program = generate_program(
            c11_generator_config(nprocs=4, ops_per_proc=400, shared_words=4),
            seed=8,
        )
        source = tmp_path / "test.c"
        binary = tmp_path / "test"
        source.write_text(emit_c11(program))
        subprocess.run(
            [_CC, "-O2", "-pthread", str(source), "-o", str(binary)],
            check=True, capture_output=True,
        )
        outputs = set()
        deadline = time.monotonic() + 30.0
        for _ in range(50):
            outputs.add(subprocess.run(
                [str(binary)], check=True, capture_output=True, text=True,
                timeout=60,
            ).stdout)
            if len(outputs) > 1 or time.monotonic() > deadline:
                break
        assert len(outputs) > 1
