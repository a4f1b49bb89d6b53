"""The campaign service daemon: spool, serve loop, signals, status.

Layout under the service root::

    <root>/spool/<job_id>.manifest.json   # submissions, FIFO by mtime
    <root>/jobs/<job_id>/                 # one ResultStore per job
    <root>/jobs/<job_id>/result.json      # merged CampaignResult + exit code
    <root>/status.address                 # "host port" of the live endpoint

``submit`` writes the manifest into the spool atomically; because the
job id is a content digest, re-submitting the same manifest attaches to
the existing job instead of spending its budget twice.  ``serve`` drains
the spool oldest-first, runs each unfinished job through a
:class:`~repro.service.queue.JobRunner` (which persists every hunt as it
completes), and writes ``result.json`` when the job's merged result is
ready.  A job whose ``result.json`` already exists is never re-run — the
restart-after-SIGKILL path re-runs only hunts the store has no record
of, then merges.

Exit-code contract (``--once`` mode): the maximum campaign exit code
across all spooled jobs — 0 all bugs detected, 1 some undetected, 2 a
hunt hung or crashed — i.e. exactly what ``tsotool campaign`` would
have returned for the worst job.  A spooled manifest that no longer
validates finishes with exit code 2 and its error in ``result.json``;
the other jobs still drain.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.analysis.pool import ProgressFn
from repro.service.lease import DEFAULT_LEASE_SECONDS, default_owner
from repro.service.manifest import CampaignManifest
from repro.service.queue import JobRunner
from repro.service.status import StatusServer
from repro.service.store import ResultStore, atomic_write

#: Store-file signature: (relative path, size, mtime ns) per file — the
#: cache key for a job's summary.  Any append changes the signature.
_StoreSignature = Tuple[Tuple[str, int, int], ...]


@dataclass(frozen=True)
class ServiceConfig:
    """How a :class:`CampaignService` runs (root dir + knobs)."""

    #: Service root; spool, job stores and the address file live here.
    root: str
    #: Pool workers per job (``run_tasks`` semantics; 1 = inline).
    workers: int = 1
    #: Per-hunt timeout in seconds (requires ``workers >= 1`` pool mode).
    task_timeout: Optional[float] = None
    #: Spool re-scan interval while idle, seconds.
    poll_seconds: float = 0.5
    #: Status endpoint bind host.
    http_host: str = "127.0.0.1"
    #: Status endpoint port; 0 = OS-assigned, ``None`` = no endpoint.
    http_port: Optional[int] = 0
    #: Drain the spool once and exit instead of serving forever.
    once: bool = False
    #: This daemon's lease owner id (``None`` = ``<hostname>-<pid>``).
    #: Give each daemon of a fleet a distinct, stable-ish name.
    owner: Optional[str] = None
    #: Shard lease lifetime, seconds; a SIGKILL'd daemon's shards are
    #: taken over by a peer one expiry window after its last heartbeat.
    lease_seconds: float = DEFAULT_LEASE_SECONDS
    #: Hunts per pool task (``None`` = each job's manifest decides).
    #: A daemon-level override for heterogeneous fleets — see
    #: :attr:`repro.service.queue.JobRunner.batch`.
    batch: Optional[int] = None


class CampaignService:
    """The daemon: accepts manifests, runs jobs, reports progress."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        self.config = config
        self.progress = progress
        self.spool_dir = os.path.join(config.root, "spool")
        self.jobs_dir = os.path.join(config.root, "jobs")
        os.makedirs(self.spool_dir, exist_ok=True)
        os.makedirs(self.jobs_dir, exist_ok=True)
        self._started = time.time()
        self._active_job: Optional[str] = None
        self.owner = config.owner or default_owner()
        #: Per-job summary cache: store-file signature -> summary dict.
        #: A status probe on an idle spool is O(stat calls), not
        #: O(total store lines) — the signature changes on any append.
        self._summary_cache: Dict[str, Tuple[_StoreSignature, Dict[str, object]]] = {}
        #: Probes answered from the cache (a deterministic benchmark
        #: hook; not a public counter).
        self._summary_cache_hits = 0

    # -- paths ---------------------------------------------------------

    def _spool_path(self, job_id: str) -> str:
        return os.path.join(self.spool_dir, f"{job_id}.manifest.json")

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_id)

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "result.json")

    @property
    def address_path(self) -> str:
        return os.path.join(self.config.root, "status.address")

    # -- submission ----------------------------------------------------

    def submit(self, manifest: CampaignManifest) -> str:
        """Spool a manifest; returns its job id.  Idempotent — the job
        id digests the manifest content, so a duplicate submission maps
        to the already-spooled job."""
        job_id = manifest.job_id
        path = self._spool_path(job_id)
        if not os.path.exists(path):
            atomic_write(path, manifest.to_json() + "\n")
            telemetry.count("service.submissions")
        return job_id

    def spooled(
        self,
    ) -> List[Tuple[str, Optional[CampaignManifest], Optional[str]]]:
        """Spooled jobs as ``(job_id, manifest, error)``, oldest
        submission first (FIFO by mtime).

        A manifest that no longer loads (malformed JSON, or a setting
        this build rejects, such as a retired engine name) comes back
        as ``(job_id, None, message)`` instead of raising, so one bad
        submission cannot stall every other job.
        """
        entries: List[Tuple[float, str, str]] = []
        for name in os.listdir(self.spool_dir):
            if not name.endswith(".manifest.json"):
                continue
            path = os.path.join(self.spool_dir, name)
            job_id = name[: -len(".manifest.json")]
            try:
                entries.append((os.path.getmtime(path), job_id, path))
            except FileNotFoundError:
                continue
        out: List[Tuple[str, Optional[CampaignManifest], Optional[str]]] = []
        for _, job_id, path in sorted(entries):
            try:
                out.append((job_id, CampaignManifest.load(path), None))
            except FileNotFoundError:
                continue
            except (ValueError, KeyError, TypeError) as exc:
                out.append((job_id, None, f"invalid manifest: {exc}"))
        return out

    # -- running -------------------------------------------------------

    def job_done(self, job_id: str) -> bool:
        return os.path.exists(self.result_path(job_id))

    def _write_result(self, job_id: str, doc: Dict[str, object]) -> None:
        """Atomically write a job's ``result.json`` (marks it done)."""
        os.makedirs(self.job_dir(job_id), exist_ok=True)
        atomic_write(
            self.result_path(job_id), json.dumps(doc, sort_keys=True) + "\n"
        )

    def _fail_job(self, job_id: str, error: str) -> int:
        """Finish a job that cannot run with exit code 2 and the reason."""
        self._write_result(
            job_id, {"v": 1, "job": job_id, "exit_code": 2, "error": error}
        )
        return 2

    def run_job(self, job_id: str, manifest: CampaignManifest) -> int:
        """Run (or resume) one job to completion; returns its exit code.

        Crash-safe by construction: hunts persist as they complete, and
        ``result.json`` is the last artifact written — its presence
        marks the job done, its absence means "resume from the store".
        """
        store = ResultStore(self.job_dir(job_id))
        try:
            runner = JobRunner(
                manifest,
                store,
                workers=self.config.workers,
                task_timeout=self.config.task_timeout,
                progress=self.progress,
                owner=self.owner,
                lease_seconds=self.config.lease_seconds,
                batch=self.config.batch,
            )
            self._active_job = job_id
            result = runner.run()
            code = result.exit_code()
            self._write_result(job_id, {
                "v": 1,
                "job": job_id,
                "exit_code": code,
                "result": result.to_dict(),
            })
            return code
        finally:
            self._active_job = None
            store.close()

    def stored_exit_code(self, job_id: str) -> Optional[int]:
        """Exit code of a finished job, from its ``result.json``."""
        try:
            with open(self.result_path(job_id)) as fh:
                return int(json.load(fh)["exit_code"])
        except (OSError, ValueError, KeyError):
            return None

    def _drain(self) -> Optional[int]:
        """One spool pass; returns the worst exit code seen, or ``None``
        when the spool was empty."""
        worst: Optional[int] = None
        for job_id, manifest, error in self.spooled():
            if self.job_done(job_id):
                code = self.stored_exit_code(job_id)
            elif manifest is None:
                code = self._fail_job(job_id, error or "invalid manifest")
            else:
                code = self.run_job(job_id, manifest)
            if code is not None:
                worst = code if worst is None else max(worst, code)
        return worst

    def serve(self) -> int:
        """The serve loop.  ``--once``: drain the spool and return the
        worst job exit code (0 for an empty spool).  Otherwise: serve
        until SIGINT/SIGTERM, then return 0 on clean shutdown."""
        self._install_signal_handlers()
        server: Optional[StatusServer] = None
        if self.config.http_port is not None:
            server = StatusServer(
                self.status,
                host=self.config.http_host,
                port=self.config.http_port,
            ).start()
            host, port = server.address
            atomic_write(self.address_path, f"{host} {port}\n")
            print(
                f"status endpoint: http://{host}:{port}/status "
                f"(also in {self.address_path})",
                file=sys.stderr,
            )
        try:
            if self.config.once:
                worst = self._drain()
                return 0 if worst is None else worst
            while True:
                try:
                    self._drain()
                    time.sleep(self.config.poll_seconds)
                except KeyboardInterrupt:
                    return 0
        finally:
            if server is not None:
                server.close()
            try:
                os.unlink(self.address_path)
            except OSError:
                pass

    def _install_signal_handlers(self) -> None:
        """SIGTERM behaves like SIGINT (clean shutdown) when we own the
        main thread; under a test harness's worker thread, skip."""
        if threading.current_thread() is not threading.main_thread():
            return
        def _terminate(signum: int, frame: object) -> None:
            raise KeyboardInterrupt
        signal.signal(signal.SIGTERM, _terminate)

    # -- status --------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """The live status payload (served at ``GET /status``).

        Re-reads every job's store from disk so a poller sees hunts the
        moment their lines land, not when the job finishes.  Store-load
        warnings (a torn tail mid-campaign) are suppressed here — the
        *runner* owns reporting them; a status probe must stay silent.
        """
        jobs: List[Dict[str, object]] = []
        for job_id, manifest, error in self.spooled():
            jobs.append(self._job_entry(job_id, manifest, error))
        return {
            "v": 1,
            "service": {
                "root": self.config.root,
                "workers": self.config.workers,
                "pid": os.getpid(),
                "owner": self.owner,
                "lease_seconds": self.config.lease_seconds,
                "uptime_seconds": round(time.time() - self._started, 3),
                "active_job": self._active_job,
            },
            "jobs": jobs,
            "telemetry": telemetry.get_telemetry().snapshot(),
        }

    def _store_signature(self, job_id: str) -> _StoreSignature:
        """Fingerprint of every store file a summary depends on."""
        job_dir = self.job_dir(job_id)
        sig: List[Tuple[str, int, int]] = []
        shards_dir = os.path.join(job_dir, "shards")
        try:
            names = sorted(os.listdir(shards_dir))
        except FileNotFoundError:
            names = []
        for name in names:
            if not name.endswith(".jsonl"):
                continue
            try:
                st = os.stat(os.path.join(shards_dir, name))
            except FileNotFoundError:
                continue
            sig.append((f"shards/{name}", st.st_size, st.st_mtime_ns))
        try:
            st = os.stat(os.path.join(job_dir, "buckets.jsonl"))
            sig.append(("buckets.jsonl", st.st_size, st.st_mtime_ns))
        except FileNotFoundError:
            pass
        return tuple(sig)

    def _job_summary(self, job_id: str) -> Dict[str, object]:
        """The job's ``store.summary()``, cached by file signature.

        Re-parsing every job's full JSONL on each HTTP probe is
        O(total store lines) per poll — on a long-lived spool a status
        poller was costing more than the campaigns.  A summary only
        changes when a store file does, so the (path, size, mtime)
        signature decides staleness in a handful of ``stat`` calls.
        """
        if not os.path.isdir(self.job_dir(job_id)):
            return {}
        sig = self._store_signature(job_id)
        cached = self._summary_cache.get(job_id)
        if cached is not None and cached[0] == sig:
            self._summary_cache_hits += 1
            return cached[1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            store = ResultStore(self.job_dir(job_id))
            try:
                summary = store.summary()
            finally:
                store.close()
        self._summary_cache[job_id] = (sig, summary)
        return summary

    def _job_entry(
        self,
        job_id: str,
        manifest: Optional[CampaignManifest],
        error: Optional[str] = None,
    ) -> Dict[str, object]:
        if job_id == self._active_job:
            state = "running"
        elif self.job_done(job_id):
            state = "done"
        else:
            state = "queued"
        summary = self._job_summary(job_id)
        entry: Dict[str, object] = {
            "id": job_id,
            "name": None if manifest is None else manifest.name,
            "state": state,
            "shards": {
                "total": 0 if manifest is None else len(manifest.shards()),
                "done": summary.get("shards_done", 0),
            },
            "hunts": {
                "total": 0 if manifest is None else manifest.hunt_count(),
                "recorded": summary.get("hunts_recorded", 0),
                "detected": summary.get("hunts_detected", 0),
                "hung": summary.get("hunts_hung", 0),
            },
            "owners": summary.get("owners", {}),
            "dedup_buckets": summary.get("dedup_buckets", 0),
            "exit_code": self.stored_exit_code(job_id),
        }
        if error is not None:
            entry["error"] = error
        return entry

    # -- maintenance ---------------------------------------------------

    def gc(
        self, *, min_age_seconds: float = 0.0, compact: bool = True
    ) -> Dict[str, object]:
        """Reclaim a long-lived root: drop finished jobs' spool entries,
        sweep ``.tmp`` litter, compact done shards.

        ``result.json``-aware by design: a spool manifest is removed
        only when its job's ``result.json`` exists (and is at least
        ``min_age_seconds`` old) — the job is finished and its result
        durable, so nothing is left for a serve loop to pick up.  An
        unfinished job's spool entry and store are never touched.
        """
        now = time.time()
        removed_spool: List[str] = []
        removed_tmp: List[str] = []
        compacted: Dict[str, Tuple[int, int]] = {}
        for job_id, _manifest, _error in self.spooled():
            result = self.result_path(job_id)
            try:
                age = now - os.path.getmtime(result)
            except OSError:
                continue  # unfinished: keep the spool entry
            if age < min_age_seconds:
                continue
            if compact:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    store = ResultStore(self.job_dir(job_id))
                    try:
                        for shard_id, delta in store.compact().items():
                            compacted[shard_id] = delta
                    finally:
                        store.close()
            os.unlink(self._spool_path(job_id))
            removed_spool.append(job_id)
            self._summary_cache.pop(job_id, None)
        for base in (self.spool_dir, self.jobs_dir):
            for dirpath, _dirnames, filenames in os.walk(base):
                for name in filenames:
                    if name.endswith(".tmp"):
                        path = os.path.join(dirpath, name)
                        try:
                            os.unlink(path)
                        except OSError:
                            continue
                        removed_tmp.append(path)
        telemetry.count("service.gc_runs")
        return {
            "removed_spool": removed_spool,
            "removed_tmp": removed_tmp,
            "compacted_shards": len(compacted),
            "compacted_lines": {
                "before": sum(b for b, _ in compacted.values()),
                "after": sum(a for _, a in compacted.values()),
            },
        }
