"""Test-program emission backends (Sec. 3.1).

"This program sequence is then mapped to either a set of assembler
instructions, or a series of instructions in some other language
suitable for the test environment."  The simulator substrate executes
the internal representation directly; this subpackage provides the
assembler mapping for environments that need source text —
:mod:`repro.emit.sparc` emits SPARC V9 assembly with the paper's
unique-store-value counters, load-result buffering and software LFSR,
and :mod:`repro.emit.c11` emits a compilable C11/pthreads program whose
output pipes straight back into the checker — Step 2 on real (x86 = TSO)
hardware.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".sparc": "EmitConfig emit_sparc",
    ".c11": "C11_MIX EmitC11Config c11_generator_config emit_c11",
})

__all__ = [
    "EmitConfig",
    "emit_sparc",
    "C11_MIX",
    "EmitC11Config",
    "c11_generator_config",
    "emit_c11",
]
