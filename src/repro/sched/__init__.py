"""repro.sched — pluggable schedule exploration for the TSO machine.

Owns every nondeterministic decision the simulator makes, behind the
:class:`~repro.sched.policy.SchedulePolicy` interface:

* :class:`~repro.sched.policy.RandomPolicy` — flat seeded randomness,
  bit-for-bit compatible with the pre-refactor inline scheduler;
* :class:`~repro.sched.pct.PctPolicy` — priority-based probabilistic
  concurrency testing (concentrates on low-depth ordering bugs);
* :class:`~repro.sched.sweep.SweepPolicy` — bounded systematic DFS for
  litmus-sized programs (:func:`~repro.sched.sweep.sweep_program`);
* :class:`~repro.sched.trace.RecordingPolicy` /
  :class:`~repro.sched.trace.ReplayPolicy` — exact record-and-replay
  via the :class:`~repro.sched.trace.ScheduleTrace` JSON format.

See ``docs/schedulers.md`` for when to use each.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".pct": "PctPolicy",
    ".policy": "RandomPolicy SchedulePolicy",
    ".spec": "KINDS SchedSpec make_policy",
    ".sweep": "SweepOutcome SweepPolicy SweepResult outcome_key sweep_program",
    ".trace": "RecordingPolicy ReplayPolicy ScheduleDivergence ScheduleTrace",
})

__all__ = [
    "KINDS",
    "PctPolicy",
    "RandomPolicy",
    "RecordingPolicy",
    "ReplayPolicy",
    "SchedSpec",
    "ScheduleDivergence",
    "ScheduleTrace",
    "SchedulePolicy",
    "SweepOutcome",
    "SweepPolicy",
    "SweepResult",
    "make_policy",
    "outcome_key",
    "sweep_program",
]
