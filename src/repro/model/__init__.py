"""Program representation, execution traces, and analysis-graph expansion.

This subpackage models the *test program* side of TSOtool (Sec. 3 of the
paper): the instruction set the generator emits (:mod:`repro.model.ops`),
whole multithreaded programs (:mod:`repro.model.program`), the dynamic
execution record produced by a test run (:mod:`repro.model.trace`), and the
expansion of a (program, execution) pair into the uniform word-sized
operation stream that the analysis algorithm consumes
(:mod:`repro.model.expansion`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".ops": "WORD_SIZE Instr ILoad IStore ISwap ICas IMembar IBlockLoad "
           "IBlockStore IPrefetch INonFaultingLoad IFlushCache IFlushPipe "
           "IBranch PrefetchVariant",
    ".program": "Program Thread parse_litmus format_program",
    ".trace": "DynRecord Execution",
    ".expansion": "AnalysisOp AnalysisProgram ExpansionError "
                 "UnmappedValueError expand",
})

__all__ = [
    "WORD_SIZE",
    "Instr",
    "ILoad",
    "IStore",
    "ISwap",
    "ICas",
    "IMembar",
    "IBlockLoad",
    "IBlockStore",
    "IPrefetch",
    "INonFaultingLoad",
    "IFlushCache",
    "IFlushPipe",
    "IBranch",
    "PrefetchVariant",
    "Program",
    "Thread",
    "parse_litmus",
    "format_program",
    "DynRecord",
    "Execution",
    "AnalysisOp",
    "AnalysisProgram",
    "ExpansionError",
    "UnmappedValueError",
    "expand",
]
