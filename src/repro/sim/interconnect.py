"""Invalidation broadcast between CPUs.

In the golden machine a commit's invalidations are delivered in the same
simulation step, making global visibility atomic (which is what the TSO
axioms mean by a store being "effectively visible to all processors").
Fault models can intercept delivery per destination: drop an invalidate
entirely (the Sec. 5.1 prefetch-cache bug) or delay it a bounded number
of steps (in-flight invalidates, the window behind the Fig. 6 bug).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sched.policy import SchedulePolicy

#: Verdict a fault returns for one invalidate delivery.
DELIVER = "deliver"
DROP = "drop"
DELAY = "delay"


@dataclass
class PendingInvalidate:
    """An invalidate in flight: deliver to ``victim`` at ``due_tick``."""

    due_tick: int
    victim: int
    addr: int


class Interconnect:
    """Broadcasts invalidations, honouring fault drop/delay verdicts."""

    def __init__(
        self,
        ncpus: int,
        policy: Optional["SchedulePolicy"] = None,
        jitter: int = 0,
    ) -> None:
        """Args:
            ncpus: number of CPUs on the bus.
            policy: schedule policy consulted for delivery jitter.  Only
                used when ``jitter > 0``, so the default healthy machine
                makes no extra policy calls (keeping the random decision
                stream — and thus old seeds — stable).
            jitter: maximum extra delivery delay, in ticks, the policy
                may inject on an otherwise immediate DELIVER verdict.
        """
        self.ncpus = ncpus
        self.policy = policy
        self.jitter = jitter
        self.pending: List[PendingInvalidate] = []

    def broadcast(
        self,
        src: int,
        addr: int,
        tick: int,
        deliver: Callable[[int, int], None],
        verdict: Optional[Callable[[int, int, int], Tuple[str, int]]] = None,
    ) -> None:
        """Invalidate ``addr``'s line in every other CPU's cache.

        Args:
            src: committing CPU (skipped).
            addr: a word address inside the line being invalidated.
            tick: current simulation tick.
            deliver: callback ``(victim, addr)`` that performs the
                invalidation.
            verdict: fault hook ``(src, victim, addr) -> (action, delay)``
                where action is DELIVER, DROP or DELAY; ``None`` when no
                fault intercepts invalidates, which makes every verdict
                DELIVER without a call per victim.
        """
        jitter = self.jitter if self.policy is not None else 0
        for victim in range(self.ncpus):
            if victim == src:
                continue
            if verdict is None:
                action, delay = DELIVER, 0
            else:
                action, delay = verdict(src, victim, addr)
            if action == DELIVER and jitter:
                # The policy may stretch an immediate delivery into a
                # short in-flight window — a legal reordering axis the
                # exploration policies can probe without a fault model.
                extra = self.policy.pick_delay(0, jitter)
                if extra > 0:
                    action, delay = DELAY, extra
            if action == DELIVER:
                deliver(victim, addr)
            elif action == DELAY:
                self.pending.append(
                    PendingInvalidate(due_tick=tick + delay, victim=victim, addr=addr)
                )
            # DROP: nothing — the victim keeps its stale line.

    def deliver_due(self, tick: int, deliver: Callable[[int, int], None]) -> int:
        """Deliver every pending invalidate whose time has come.

        Returns the number delivered.
        """
        due = [p for p in self.pending if p.due_tick <= tick]
        if not due:
            return 0
        self.pending = [p for p in self.pending if p.due_tick > tick]
        for item in due:
            deliver(item.victim, item.addr)
        return len(due)

    def flush(self, deliver: Callable[[int, int], None]) -> None:
        """Deliver everything still in flight (end of run)."""
        for item in self.pending:
            deliver(item.victim, item.addr)
        self.pending.clear()
