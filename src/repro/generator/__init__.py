"""Pseudo-random racy test-program generation (Sec. 3.1, Step 1 of Fig. 1).

* :class:`~repro.generator.config.GeneratorConfig` — the user-controllable
  knobs the paper describes: processor count, shared-location count and
  layout, instruction-type mix, loop characteristics.
* :func:`~repro.generator.generator.generate_program` — the generator.
* :data:`~repro.generator.litmus.LITMUS_LIBRARY` — the paper's Fig. 3/5/6/7
  examples plus classic TSO litmus outcomes, as parsed litmus texts.
* :class:`~repro.generator.lfsr.Lfsr` — the per-processor software LFSR
  used for run-time randomization (branch directions).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".config": "GeneratorConfig InstructionMix",
    ".generator": "generate_program",
    ".lfsr": "Lfsr",
    ".litmus": "LITMUS_LIBRARY LitmusCase",
})

__all__ = [
    "GeneratorConfig",
    "InstructionMix",
    "generate_program",
    "Lfsr",
    "LITMUS_LIBRARY",
    "LitmusCase",
]
