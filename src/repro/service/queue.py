"""The shard scheduler: lease-gated pending-work computation + dispatch.

A :class:`JobRunner` turns one manifest + store pair into pool work:
it asks the store which hunts are still unrecorded (whole shards, the
tail of a shard torn by a crash, or ``hung`` tombstones due a retry),
**claims** each shard through a :class:`~repro.service.lease.LeaseManager`
before touching it, dispatches exactly those hunts through
:func:`repro.analysis.campaign.dispatch_hunts` — the one dispatch path
a one-shot ``run_campaign`` uses too, so chunking, task labels, hung
tombstones and per-hunt seed derivation cannot differ — and persists
every hunt the moment it lands via its ``on_hunt`` callback.  A
shard's completion marker is appended as soon as its last hunt lands
(after a from-disk ownership re-check), so the crash-loss window is
only the hunts literally in flight; everything recorded before a
``SIGKILL`` is reused on resume.

The lease layer is what makes N runners on N hosts safe on one store:
each round a runner claims up to ``max(1, workers)`` unclaimed-or-
expired shards — so concurrent daemons naturally split a job — runs
them as one pool batch, and loops.  Shards a live peer holds are left
alone (the runner polls until they resolve or their lease expires);
because hunts are deterministic functions of (manifest, seed, bug) and
:meth:`~repro.service.store.ResultStore.record_hunt` is idempotent on
identical digests, even a stalled peer overlapping a takeover cannot
corrupt the store.

The merged :class:`~repro.analysis.campaign.CampaignResult` is
assembled from the store in manifest shard order (seed-major, then CPU,
then bug index), which for a single-seed manifest is exactly
``run_campaign``'s hunt order — tables, detection rate and exit code
match a from-scratch campaign of the same settings, whether one runner
drained the job or five.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from repro import telemetry
from repro.analysis.campaign import (
    BugHunt,
    CampaignResult,
    HuntGroup,
    dispatch_hunts,
)
from repro.analysis.pool import PoolStats, ProgressFn
from repro.service.lease import DEFAULT_LEASE_SECONDS, LeaseManager
from repro.service.manifest import CampaignManifest, Shard
from repro.service.store import ResultStore
from repro.sim.cpus import cpu_by_name


def _merge_stats(total: Optional[PoolStats], batch: PoolStats) -> PoolStats:
    """Fold one batch's PoolStats into the job's running total."""
    if total is None:
        return batch
    per_worker = dict(total.per_worker)
    for wid, count in batch.per_worker.items():
        per_worker[wid] = per_worker.get(wid, 0) + count
    return PoolStats(
        tasks=total.tasks + batch.tasks,
        completed=total.completed + batch.completed,
        hung=total.hung + batch.hung,
        retries=total.retries + batch.retries,
        respawns=total.respawns + batch.respawns,
        stale_results=total.stale_results + batch.stale_results,
        workers=max(total.workers, batch.workers),
        wall_seconds=total.wall_seconds + batch.wall_seconds,
        cpu_seconds=total.cpu_seconds + batch.cpu_seconds,
        per_worker=per_worker,
    )


class JobRunner:
    """Run (or resume) one job: manifest in, persisted hunts out.

    ``owner`` names this runner in the store's lease records (defaults
    to ``<hostname>-<pid>``); ``lease_seconds`` is how long a claim
    survives without a heartbeat renewal; ``poll_seconds`` is how often
    the runner re-checks shards a live peer currently holds.  ``batch``
    overrides the manifest's hunts-per-pool-task granularity (see
    :attr:`CampaignManifest.batch`); each claimed shard is its own
    :func:`~repro.analysis.campaign.dispatch_hunts` group, so chunks
    never span shards and claiming, completion markers and persisted
    records do not depend on it — a drain at any batch size is
    digest-identical to one at any other.
    """

    def __init__(
        self,
        manifest: CampaignManifest,
        store: ResultStore,
        *,
        workers: int = 1,
        task_timeout: Optional[float] = None,
        progress: Optional[ProgressFn] = None,
        owner: Optional[str] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        poll_seconds: float = 0.2,
        batch: Optional[int] = None,
    ) -> None:
        self.manifest = manifest
        self.store = store
        self.workers = workers
        self.task_timeout = task_timeout
        self.batch = manifest.batch if batch is None else batch
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        self.progress = progress
        self.poll_seconds = poll_seconds
        self.lease = LeaseManager(
            store, owner, lease_seconds=lease_seconds
        )
        #: (shard_id, bug_index) pairs dispatched this session — the
        #: retry fuse: a hunt that hangs again after its in-session
        #: retry keeps its tombstone instead of looping forever.
        self._attempted: Set[Tuple[str, int]] = set()
        store.save_manifest(manifest)

    @property
    def owner(self) -> str:
        return self.lease.owner

    # -- scheduling ----------------------------------------------------

    def pending(self) -> List[Tuple[Shard, List[int]]]:
        """Shards not conclusively done, with their missing hunts."""
        return self.store.pending(self.manifest)

    def complete(self) -> bool:
        """True when every shard's completion marker is on disk."""
        return not self.pending()

    def _unresolved(self) -> List[Tuple[Shard, List[int]]]:
        """Pending work this session can still make progress on.

        A done shard whose only missing hunts are tombstones this
        session already retried is *resolved for this session*: the
        tombstone stands (exit code 2), and a future resume gets its
        own fresh retry.  Filtering these here is what terminates the
        claim loop on a permanently-hanging hunt.
        """
        out: List[Tuple[Shard, List[int]]] = []
        for shard, missing in self.pending():
            if (
                missing
                and self.store.shard_done(shard.shard_id)
                and all(
                    (shard.shard_id, i) in self._attempted for i in missing
                )
            ):
                continue
            out.append((shard, missing))
        return out

    def _finish_shard(self, shard_id: str) -> None:
        """Append the completion marker — after an ownership re-check.

        If our lease was taken over (we stalled past expiry and a peer
        claimed the shard), the peer owns completion now; appending our
        marker anyway could mark the shard done under the peer's feet
        with the peer's in-flight hunts unrecorded.
        """
        if self.lease.owns(shard_id):
            self.store.mark_shard_done(shard_id)
        else:
            telemetry.count("service.lease_lost")
        self.lease.release(shard_id)

    def run(self) -> CampaignResult:
        """Execute all pending hunts; return the merged job result.

        Safe to call on a fresh store (runs everything), a torn store
        (runs only what is missing), a complete store (runs nothing and
        just merges), and concurrently with other runners on other
        hosts (each claims disjoint shards; this call returns once
        every shard is done, whoever ran it).  A hunt whose worker hung
        is recorded as a ``hung=True`` tombstone — the session reports
        exit code 2, and the next resume retries it.
        """
        stats: Optional[PoolStats] = None
        with self.lease:
            while True:
                self.store.refresh()
                unresolved = self._unresolved()
                if not unresolved:
                    break
                claimed, contended = self._claim_round(unresolved)
                if not claimed:
                    if not contended:
                        # Nothing claimable and nobody holds a lease:
                        # re-read and re-decide (a peer just released,
                        # or a marker landed between refresh and claim).
                        continue
                    time.sleep(self.poll_seconds)
                    continue
                stats = _merge_stats(stats, self._run_batch(claimed))
            self.store.refresh()
        return self.merged(stats=stats)

    def _claim_round(
        self, unresolved: List[Tuple[Shard, List[int]]]
    ) -> Tuple[List[Tuple[Shard, List[int]]], bool]:
        """Claim up to ``max(1, workers)`` shards; returns (claimed,
        any-contended).  Marker-only shards (every hunt recorded, the
        marker itself torn away) are finished on the spot."""
        claimed: List[Tuple[Shard, List[int]]] = []
        contended = False
        for shard, missing in unresolved:
            if len(claimed) >= max(1, self.workers):
                break
            if not self.lease.claim(shard.shard_id):
                contended = True
                continue
            if not missing:
                self._finish_shard(shard.shard_id)
                continue
            todo = [
                i for i in missing
                if (shard.shard_id, i) not in self._attempted
            ]
            claimed.append((shard, todo or missing))
        return claimed, contended

    def _run_batch(
        self, claimed: List[Tuple[Shard, List[int]]]
    ) -> PoolStats:
        """One pool batch over the claimed shards, one dispatch group per
        shard (chunks never span shards), persisting each hunt — a hung
        one as its tombstone, so this session exits 2 and the next
        resume retries it — as it lands, and marking each shard done at
        its last hunt."""
        groups: List[HuntGroup] = []
        refs: List[Tuple[Shard, int]] = []
        remaining: Dict[str, int] = {}
        for shard, todo in claimed:
            remaining[shard.shard_id] = len(todo)
            bugs = cpu_by_name(shard.cpu).bugs
            groups.append((
                f"{shard.shard_id[:8]}:",
                self.manifest.campaign_config(shard.seed),
                [(bugs[i], shard.cpu, i) for i in todo],
            ))
            for index in todo:
                self._attempted.add((shard.shard_id, index))
                refs.append((shard, index))

        def persist(position: int, hunt: BugHunt) -> None:
            shard, bug_index = refs[position]
            self.store.record_hunt(
                shard.shard_id, bug_index, hunt, owner=self.owner
            )
            remaining[shard.shard_id] -= 1
            if remaining[shard.shard_id] == 0:
                self._finish_shard(shard.shard_id)

        with telemetry.span(
            "service.job", job=self.manifest.job_id, hunts=len(refs)
        ):
            _, stats = dispatch_hunts(
                groups,
                self.batch,
                workers=self.workers,
                task_timeout=self.task_timeout,
                progress=self.progress,
                on_hunt=persist,
            )
        return stats

    # -- merging -------------------------------------------------------

    def merged(self, stats: Optional[PoolStats] = None) -> CampaignResult:
        """Assemble the job's result from the store, in manifest order.

        Raises ``ValueError`` while hunts are still missing — a partial
        merge would silently understate the tables.  Timing fields
        reflect only the session that ran last (a resumed job's earlier
        sessions are gone with their processes); the tables, detection
        rate and exit code depend only on the persisted hunts.
        """
        hunts: List[BugHunt] = []
        for shard in self.manifest.shards():
            recorded = self.store.completed_hunts(shard.shard_id)
            for index in range(shard.hunt_count()):
                hunt = recorded.get(index)
                if hunt is None:
                    raise ValueError(
                        f"shard {shard.shard_id} hunt {index} is not "
                        "recorded yet; run() the job before merging"
                    )
                hunts.append(hunt)
        return CampaignResult(
            hunts=hunts,
            wall_seconds=stats.wall_seconds if stats else 0.0,
            cpu_seconds=stats.cpu_seconds if stats else 0.0,
            stats=stats,
            sched=self.manifest.sched.describe(),
        )
