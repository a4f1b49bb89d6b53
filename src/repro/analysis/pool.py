"""Parallel execution engine for campaign hunts and runtime sweeps.

TSOtool's value comes from running *many* pseudo-random racy tests
against a machine (Sec. 3); each (cpu, bug, seed) hunt and each
runtime-sweep point is independent and deterministic given its seed, so
the workload is embarrassingly parallel.  :func:`run_tasks` shards a
list of picklable task specs across a pool of worker *processes* with:

* a hard per-task timeout — a wedged simulation (or a genuinely hung
  analysis) cannot stall the batch; the worker is killed and replaced;
* retry-once on worker crash, task exception, broken pipe or timeout —
  a task that fails twice is recorded as **hung** in the
  :class:`~repro.core.result.PoolStats` (never silently dropped) and its
  result slot stays ``None``;
* deterministic results — every task carries its own derived seed, so
  results are identical to the sequential path regardless of worker
  count or scheduling order (results are returned in task order).

Workers are fed one task at a time over per-worker pipes, so the parent
always knows exactly which task a dead or overdue worker was running —
there is no window in which a task can be lost between a shared queue
and a crash.  A pipe that fails mid-task is treated exactly like a
worker death (the process may well still be alive with the fd gone):
the worker is killed, the task retried or recorded hung, and a
replacement spawned — never polled again.

With ``workers <= 1`` everything runs inline in the parent process (no
multiprocessing at all), which is the default.  The inline path applies
the *same* retry/hung accounting to a task that raises as the pool path
does for a task that raises in a worker, and emits the same
``retry``/``hung`` :class:`PoolEvent` stream — batch semantics do not
depend on the worker count.  Only timeout enforcement needs real
worker processes.

When :mod:`repro.telemetry` is enabled, the batch runs under a
``pool.batch`` span, queue wait time is accumulated in the
``pool.queue_wait`` timer, per-task compute time lands in the
``pool.task_seconds`` histogram, every retry/hang emits a
``pool.retry``/``pool.hung`` event, and every replacement worker spawned
for a dead/overdue one bumps the ``pool.respawns`` counter (also
tracked in :attr:`~repro.core.result.PoolStats.respawns`).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import sys
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.core.result import PoolStats

#: How often (seconds) the parent scans for overdue / dead workers.
_POLL_INTERVAL = 0.05

#: Grace period for workers to exit after the shutdown sentinel.
_SHUTDOWN_GRACE = 2.0


@dataclass(frozen=True)
class PoolEvent:
    """One progress notification from :func:`run_tasks`.

    Attributes:
        kind: ``done`` (task finished), ``retry`` (task re-queued after a
            crash or timeout), or ``hung`` (task abandoned after its
            retry budget).
        index: position of the task in the input sequence.
        label: the task's display label.
        worker: id of the worker that ran (or was killed running) it.
        seconds: wall time of this attempt as measured where it ran —
            the worker for pooled tasks, the parent for inline ones.
            0.0 only when no measurement could be taken (the worker was
            killed or crashed before reporting).
        attempt: 1-based attempt number that produced this event.
        completed: tasks finally resolved so far (done + hung).
        total: total number of tasks in the batch.
    """

    kind: str
    index: int
    label: str
    worker: int
    seconds: float
    attempt: int
    completed: int
    total: int

    def render(self) -> str:
        """One-line progress rendering for the CLI."""
        base = f"[worker {self.worker}] {self.completed}/{self.total} {self.label}"
        if self.kind == "done":
            return f"{base} done in {self.seconds:.2f}s"
        if self.kind == "retry":
            return f"{base} timed out/crashed on attempt {self.attempt}, retrying"
        return f"{base} HUNG after {self.attempt} attempts"


#: Progress callback type.
ProgressFn = Callable[[PoolEvent], None]

#: Streaming-result callback type: ``(task index, result value)``.
ResultFn = Callable[[int, Any], None]


def _emit(
    progress: Optional[ProgressFn],
    stats: PoolStats,
    kind: str,
    index: int,
    label: str,
    worker: int,
    seconds: float,
    attempt: int,
) -> None:
    """Report one pool event to the progress callback and to telemetry.

    The single emission point for both execution paths, called only
    *after* ``stats`` reflects the event, so ``PoolEvent.completed``
    (resolved tasks: done + hung) always includes the event being
    reported — identically inline and pooled.
    """
    tel = telemetry.get_telemetry()
    if tel.enabled:
        # A failed attempt that ran (and was measured) still burned that
        # time; only unmeasured deaths (kill, crash) are left out of the
        # histogram, identically inline and pooled.
        if kind == "done" or seconds > 0.0:
            tel.record("pool.task_seconds", seconds)
        if kind != "done":
            fields = dict(
                index=index, label=label, worker=worker, attempt=attempt,
                seconds=seconds,
            )
            # Literal names, so the docs drift test holds each to the docs.
            if kind == "retry":
                tel.event("pool.retry", **fields)
            else:
                tel.event("pool.hung", **fields)
    if progress is not None:
        progress(PoolEvent(
            kind=kind, index=index, label=label, worker=worker,
            seconds=seconds, attempt=attempt,
            completed=stats.completed + stats.hung, total=stats.tasks,
        ))


def _mp_context() -> multiprocessing.context.BaseContext:
    """Pick a start method: ``fork`` where safe (fast), else ``spawn``.

    macOS nominally offers ``fork`` but system frameworks abort in
    forked children, so it gets ``spawn`` like Windows does.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and sys.platform != "darwin":
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def _worker_main(
    worker_id: int,
    fn: Callable[[Any], Any],
    conn: "multiprocessing.connection.Connection",
) -> None:
    """Worker loop: receive one task at a time, run it, send the result.

    Messages to the parent are ``(index, "done", seconds, cpu_seconds,
    value)`` or ``(index, "error", seconds, cpu_seconds, repr)``; a
    ``None`` task is the shutdown sentinel.  The echoed task index is
    the parent's staleness check: a reply that does not name the task
    the parent believes this worker is running (a late or duplicate
    send) is dropped, never misattributed to whatever task the worker
    holds now.

    Telemetry: the worker attaches to the campaign's JSONL sink (path
    inherited through the environment) and flushes its cumulative
    snapshot after every task — a worker killed by the parent gets no
    ``atexit``, so per-task flushes are the durability story.
    """
    telemetry.init_worker()
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        index, task = item
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            value = fn(task)
        except BaseException as exc:  # noqa: BLE001 - report, parent decides
            telemetry.get_telemetry().flush()
            conn.send((
                index, "error", time.perf_counter() - start,
                time.process_time() - cpu_start, repr(exc),
            ))
        else:
            telemetry.get_telemetry().flush()
            conn.send((
                index, "done", time.perf_counter() - start,
                time.process_time() - cpu_start, value,
            ))


class _Worker:
    """Parent-side handle: process, pipe, and the task it is running."""

    def __init__(self, worker_id: int, ctx, fn: Callable[[Any], Any]) -> None:
        self.id = worker_id
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, fn, child_conn),
            daemon=True,
            name=f"tsotool-pool-{worker_id}",
        )
        self.process.start()
        # The parent's copy of the child end must close so worker death
        # surfaces as EOF on self.conn.
        child_conn.close()
        #: (task index, attempt, monotonic start) while busy, else None.
        self.busy: Optional[Tuple[int, int, float]] = None

    def assign(self, index: int, attempt: int, task: Any) -> None:
        self.conn.send((index, task))
        self.busy = (index, attempt, time.monotonic())

    def kill(self) -> None:
        """Terminate immediately (timeout path) and reap the process."""
        self.process.terminate()
        self.process.join(timeout=_SHUTDOWN_GRACE)
        if self.process.is_alive():  # pragma: no cover - stubborn child
            self.process.kill()
            self.process.join(timeout=_SHUTDOWN_GRACE)
        self.conn.close()

    def shutdown(self) -> None:
        """Polite shutdown (sentinel), escalating to terminate."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=_SHUTDOWN_GRACE)
        if self.process.is_alive():
            self.kill()
        else:
            self.conn.close()


def run_tasks(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    workers: int = 1,
    task_timeout: Optional[float] = None,
    retries: int = 1,
    labels: Optional[Sequence[str]] = None,
    progress: Optional[ProgressFn] = None,
    on_result: Optional[ResultFn] = None,
) -> Tuple[List[Optional[Any]], PoolStats]:
    """Run ``fn`` over ``tasks``, optionally sharded across processes.

    Args:
        fn: a picklable (module-level) function of one task.
        tasks: picklable task specs; each must fully determine its own
            result (carry its own seed) so ordering cannot matter.
        workers: process count; ``<= 1`` runs inline with no
            multiprocessing (and therefore no timeout enforcement —
            exception retry/hung accounting still applies).
        task_timeout: hard per-task wall-clock limit in seconds; an
            overdue worker is killed and the task retried or recorded
            hung.  ``None`` disables the limit.  Only real worker
            processes can be killed, so a timeout with ``workers <= 1``
            cannot be enforced and raises a :class:`RuntimeWarning`.
        retries: how many *additional* attempts a crashed, raising or
            timed-out task gets before being recorded as hung
            (default: one); applied identically inline and pooled.
        labels: display names for progress events (defaults to
            ``task[i]``'s ``str``).
        progress: optional callback receiving a :class:`PoolEvent` per
            completion, retry, and hang.
        on_result: optional callback invoked in the *parent* process the
            moment a task resolves successfully, with ``(index, value)``
            — before the batch finishes.  This is what lets a caller
            persist results incrementally (the campaign service's
            crash-safe store depends on it); hung tasks never reach it.
            An exception raised by the callback aborts the batch.

    Returns:
        ``(results, stats)`` where ``results[i]`` is ``fn(tasks[i])`` or
        ``None`` for a hung task, in input order, and ``stats`` is the
        batch :class:`~repro.core.result.PoolStats`.
    """
    tasks = list(tasks)
    names = [str(t) for t in tasks] if labels is None else list(labels)
    if len(names) != len(tasks):
        raise ValueError("labels must match tasks one-to-one")
    if workers <= 1 and task_timeout is not None:
        warnings.warn(
            f"task_timeout={task_timeout} has no effect with "
            f"workers={workers}: the inline path cannot kill an overdue "
            "task; use workers >= 2 to enforce a timeout",
            RuntimeWarning,
            stacklevel=2,
        )
    stats = PoolStats(tasks=len(tasks), workers=max(1, workers))
    results: List[Optional[Any]] = [None] * len(tasks)
    start = time.perf_counter()
    with telemetry.span(
        "pool.batch", workers=stats.workers, tasks=len(tasks)
    ):
        if workers <= 1:
            _run_inline(
                fn, tasks, names, results, stats, retries, progress, on_result
            )
        else:
            _run_pool(
                fn, tasks, names, results, stats,
                workers=workers, task_timeout=task_timeout,
                retries=retries, progress=progress, on_result=on_result,
            )
    stats.wall_seconds = time.perf_counter() - start
    return results, stats


def _run_inline(
    fn: Callable[[Any], Any],
    tasks: List[Any],
    names: List[str],
    results: List[Optional[Any]],
    stats: PoolStats,
    retries: int,
    progress: Optional[ProgressFn],
    on_result: Optional[ResultFn] = None,
) -> None:
    """The sequential path: a plain loop over ``fn``, pool semantics.

    A raising task must not crash the batch — ``workers=1`` gets the
    same retry budget, the same ``hung`` accounting and the same
    ``retry``/``hung`` events as a raising task under ``workers>1``
    (where the worker reports ``error`` and the parent retries).  Only
    ``Exception`` is caught: KeyboardInterrupt and friends still abort
    the batch, matching what they do to the pool parent.
    """
    for index, task in enumerate(tasks):
        for attempt in range(1, max(0, retries) + 2):
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                value = fn(task)
            except Exception:  # noqa: BLE001 - same contract as the pool
                elapsed = time.perf_counter() - t0
                stats.cpu_seconds += time.process_time() - c0
                if attempt <= retries:
                    stats.retries += 1
                    _emit(progress, stats, "retry", index, names[index],
                          0, elapsed, attempt)
                    continue
                stats.hung += 1
                _emit(progress, stats, "hung", index, names[index],
                      0, elapsed, attempt)
                break
            results[index] = value
            elapsed = time.perf_counter() - t0
            stats.completed += 1
            stats.cpu_seconds += time.process_time() - c0
            stats.per_worker[0] = stats.per_worker.get(0, 0) + 1
            if on_result is not None:
                on_result(index, value)
            _emit(progress, stats, "done", index, names[index],
                  0, elapsed, attempt)
            break


def _run_pool(
    fn: Callable[[Any], Any],
    tasks: List[Any],
    names: List[str],
    results: List[Optional[Any]],
    stats: PoolStats,
    *,
    workers: int,
    task_timeout: Optional[float],
    retries: int,
    progress: Optional[ProgressFn],
    on_result: Optional[ResultFn] = None,
) -> None:
    """The multiprocessing path of :func:`run_tasks`."""
    ctx = _mp_context()
    nworkers = min(workers, len(tasks)) or 1
    tel = telemetry.get_telemetry()
    #: FIFO of (index, attempt, enqueue time) still to dispatch; retries
    #: re-enter at the tail, behind every not-yet-attempted task.  A
    #: deque so popping the head is O(1) — with a list, a large campaign
    #: batch pays O(n^2) in head pops alone.
    queue: Deque[Tuple[int, int, float]] = deque(
        (i, 1, time.monotonic()) for i in range(len(tasks))
    )
    resolved = 0  # done + hung
    #: Per-task resolution ledger: once a slot is True the task's fate
    #: is final, and any further message naming it (a duplicate send, a
    #: reply that limped in after its worker was written off) is
    #: dropped — delivered-at-most-once is what lets ``on_result``
    #: persist results without its own dedup.
    resolved_flags: List[bool] = [False] * len(tasks)
    pool: Dict[int, _Worker] = {}
    next_id = 0

    def spawn() -> _Worker:
        nonlocal next_id
        worker = _Worker(next_id, ctx, fn)
        pool[worker.id] = worker
        next_id += 1
        return worker

    def respawn() -> _Worker:
        """Replace a dead/overdue/unreachable worker — and leave a trace:
        every replacement is counted in ``stats.respawns`` and the
        ``pool.respawns`` telemetry counter."""
        stats.respawns += 1
        if tel.enabled:
            tel.count("pool.respawns")
        return spawn()

    def retry_or_hang(
        index: int, attempt: int, worker_id: int, seconds: float = 0.0
    ) -> None:
        """A task's attempt died (crash, broken pipe or timeout):
        requeue or give up.  ``seconds`` is the attempt's measured wall
        time when the worker lived to report it, else 0.0."""
        nonlocal resolved
        if resolved_flags[index]:  # pragma: no cover - defensive
            return
        if attempt <= retries:
            stats.retries += 1
            queue.append((index, attempt + 1, time.monotonic()))
            _emit(progress, stats, "retry", index, names[index],
                  worker_id, seconds, attempt)
        else:
            stats.hung += 1
            resolved += 1
            resolved_flags[index] = True
            _emit(progress, stats, "hung", index, names[index],
                  worker_id, seconds, attempt)

    def reap(worker: _Worker, index: int, attempt: int) -> None:
        """Kill a dead/overdue/unreachable worker and replace it."""
        del pool[worker.id]
        worker.kill()
        retry_or_hang(index, attempt, worker.id)
        respawn()

    def dispatch() -> None:
        """Hand queued tasks to idle workers."""
        for worker in pool.values():
            if not queue:
                return
            if worker.busy is None:
                index, attempt, enqueued = queue.popleft()
                worker.assign(index, attempt, tasks[index])
                if tel.enabled:
                    tel.observe(
                        "pool.queue_wait", time.monotonic() - enqueued
                    )

    for _ in range(nworkers):
        spawn()
    try:
        while resolved < len(tasks):
            dispatch()
            ready = multiprocessing.connection.wait(
                [w.conn for w in pool.values() if w.busy is not None],
                timeout=_POLL_INTERVAL,
            )
            for conn in ready:
                worker = next(w for w in pool.values() if w.conn is conn)
                assert worker.busy is not None
                index, attempt, _started = worker.busy
                try:
                    msg_index, kind, seconds, cpu_seconds, payload = conn.recv()
                except (EOFError, OSError):
                    # The pipe failed mid-task.  The process may still be
                    # alive (e.g. the task closed its own fds), in which
                    # case `wait` would report this dead conn ready on
                    # every poll forever — a busy-loop with no timeout to
                    # break it.  Treat a failed recv as worker death:
                    # kill, account, respawn; never poll this conn again.
                    reap(worker, index, attempt)
                    continue
                if msg_index != index or resolved_flags[msg_index]:
                    # A reply for a task this worker is *not* currently
                    # running, or for a task whose fate is already
                    # sealed: the late echo of a timed-out-then-retried
                    # task, or an outright duplicate send.  Before the
                    # index rode along in the message, this reply was
                    # silently credited to the worker's current task —
                    # the double-``on_result`` bug.  Drop it; the
                    # worker's real reply (if any) is still coming.
                    stats.stale_results += 1
                    if tel.enabled:
                        tel.count("pool.stale_results")
                    continue
                worker.busy = None
                if kind == "done":
                    results[index] = payload
                    stats.completed += 1
                    stats.cpu_seconds += cpu_seconds
                    stats.per_worker[worker.id] = (
                        stats.per_worker.get(worker.id, 0) + 1
                    )
                    resolved += 1
                    resolved_flags[index] = True
                    if on_result is not None:
                        on_result(index, payload)
                    _emit(progress, stats, "done", index, names[index],
                          worker.id, seconds, attempt)
                else:  # "error": the task raised inside the worker.
                    # The worker measured the failed attempt; account its
                    # compute time just like the inline path does.
                    stats.cpu_seconds += cpu_seconds
                    retry_or_hang(index, attempt, worker.id, seconds)
            now = time.monotonic()
            for worker in list(pool.values()):
                if worker.busy is None:
                    if not worker.process.is_alive():
                        # Idle worker died (should not happen): replace it.
                        del pool[worker.id]
                        worker.kill()
                        respawn()
                    continue
                index, attempt, started = worker.busy
                overdue = (
                    task_timeout is not None and now - started > task_timeout
                )
                if overdue or not worker.process.is_alive():
                    del pool[worker.id]
                    worker.kill()
                    retry_or_hang(index, attempt, worker.id)
                    respawn()
    finally:
        for worker in pool.values():
            worker.shutdown()
