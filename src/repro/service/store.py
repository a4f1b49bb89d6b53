"""The persistent result store: append-only, crash-safe, resumable.

One store holds one job's results, as **JSONL-per-shard** under the job
directory::

    <job>/manifest.json             # the job's manifest document
    <job>/shards/<shard_id>.jsonl   # hunt + marker + lease lines
    <job>/buckets.jsonl             # failure-dedup bucket records

Every line is appended with a single ``write(2)`` on an ``O_APPEND``
descriptor (the :class:`repro.telemetry.sinks.JsonlSink` discipline), so
a ``SIGKILL`` can at worst tear the *trailing* line of a file; the
loader skips an undecodable line with a warning and the affected hunt is
simply re-run on resume.  Nothing is ever rewritten in place while a
job runs — a restarted daemon re-reads the store and resumes exactly at
the first unfinished shard, never re-spending budget on a recorded
hunt.  (The one rewrite is :meth:`ResultStore.compact_shard`, an atomic
whole-file replace of a *done* shard.)

Line kinds::

    {"v":1,"kind":"hunt","shard":id,"bug":name,"bug_index":i,
     "digest":<hunt digest>,"dedup":<failure digest or null>,
     "owner":<runner name or absent>,"ts":<append time or absent>,
     "hunt":{...BugHunt.to_dict()...}}
    {"v":1,"kind":"shard-done","shard":id,"hunts":n}
    {"v":1,"kind":"bucket","digest":d,"shard":id,"bug":name,
     "bug_index":i,"first":bool}
    {"v":1,"kind":"lease","op":"claim|renew|release","shard":id,
     "owner":o,"time":t,"expires":t2}

Replay rules (what makes N appenders safe):

* a later ``hunt`` line for the same bug index supersedes an earlier
  one — how a re-run hunt replaces a ``hung`` tombstone;
* a ``shard-done`` marker only counts when at least as many hunt
  records as its ``hunts`` field survive the reload — a marker that
  outlived a torn mid-file hunt line demotes the shard back to
  not-done instead of wedging every future resume (see
  :meth:`_finalize_shard`);
* ``lease`` lines replay through
  :func:`repro.service.lease.apply_lease_line` — append order
  arbitrates racing claims (see :mod:`repro.service.lease`).

**Failure dedup** (Bui et al.'s reads-from equivalence, applied at the
detection level): a detected hunt is keyed by :func:`failure_digest` —
a digest of its schedule trace (policy + every recorded choice), the
triage verdict string (which names the violation kind and witness
shape) and the fault mechanism/unit.  The first detection with a given
digest keeps its full schedule trace; behaviorally identical later
detections are *bucketed*: their hunt line stores ``schedule: null``
plus the digest, and :meth:`ResultStore.schedule_for` resolves the
canonical trace, so a fleet never re-triages the same failure twice.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro import telemetry
from repro.analysis.campaign import BugHunt
from repro.service.lease import Lease, apply_lease_line
from repro.service.manifest import CampaignManifest, Shard

STORE_VERSION = 1


def atomic_write(path: str, text: str) -> None:
    """Replace ``path`` with ``text``: write a ``.tmp`` sibling, flush
    and fsync it, then ``os.replace`` it over ``path``.  A crash leaves
    the old file or the complete new one, never an empty or torn file
    (a leftover ``.tmp`` is never read).  Every atomic rewrite in the
    service goes through here."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _canonical(data: object) -> str:
    return json.dumps(data, separators=(",", ":"), sort_keys=True)


def hunt_digest(hunt: BugHunt) -> str:
    """Stable identity+outcome digest of one hunt (schedule excluded).

    Excluding the schedule keeps the digest equal between a stored hunt
    whose duplicate schedule was bucketed away and the identical hunt of
    a from-scratch campaign — the property the resume tests assert by
    digest-set equality.  ``ops`` is excluded for the same reason: a
    pipelined hunt aborts violating runs early, so it simulates fewer
    ops than the conventional path on its way to the identical verdict.
    """
    doc = hunt.to_dict()
    doc.pop("schedule", None)
    doc.pop("ops", None)
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()[:16]


def failure_digest(hunt: BugHunt) -> Optional[str]:
    """Behavioral digest of a detection; ``None`` for undetected hunts.

    Keyed on (schedule trace, violation kind / witness shape via the
    triage verdict string, fault mechanism and unit): two detections
    that replayed the same choices into the same verdict are the same
    failure, whatever seed found them.
    """
    if not hunt.detected or hunt.schedule is None:
        return None
    doc = json.loads(hunt.schedule)
    meta = doc.get("meta") or {}
    fault = meta.get("fault") or {}
    payload = {
        "policy": doc.get("policy"),
        "choices": doc.get("choices", []),
        "via": hunt.via,
        "mechanism": fault.get("mechanism"),
        "unit": fault.get("unit"),
    }
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()[:16]


@dataclass
class _ShardState:
    """In-memory view of one shard's JSONL file."""

    hunts: Dict[int, BugHunt] = field(default_factory=dict)
    digests: Dict[int, str] = field(default_factory=dict)
    #: Per-index dedup bucket reference as stored on the hunt line
    #: (kept so compaction can rewrite lines byte-faithfully).
    dedup: Dict[int, Optional[str]] = field(default_factory=dict)
    done: bool = False
    #: ``hunts`` count of the last surviving shard-done marker.
    marker_hunts: Optional[int] = None
    #: Per-index recording metadata as stored on the hunt line: the
    #: runner that recorded it (``owner``) and the append timestamp
    #: (``ts``) — the per-owner throughput inputs, kept so compaction
    #: can rewrite lines byte-faithfully.
    meta: Dict[int, Dict[str, object]] = field(default_factory=dict)
    #: Replayed lease state (see repro.service.lease).
    lease: Optional[Lease] = None
    #: True once any lease line was seen — distinguishes a takeover of
    #: an expired lease from a first claim of a virgin shard.
    lease_seen: bool = False


@dataclass
class _Bucket:
    """One failure-dedup bucket: where the canonical trace lives."""

    shard_id: str
    bug_index: int
    count: int = 1


class ResultStore:
    """One job's persistent results (see module doc for the layout).

    ``requeue_hung`` (default True) makes resume treat a ``hung=True``
    record as a *tombstone*, not a completion: the shard is offered back
    to :meth:`pending` so a transient host stall cannot pin the job at
    exit code 2 across every future resume.  Pass False to keep
    tombstones final (the pre-fleet behavior).
    """

    def __init__(self, root: str, *, requeue_hung: bool = True) -> None:
        self.root = root
        self.requeue_hung = requeue_hung
        self.shards_dir = os.path.join(root, "shards")
        os.makedirs(self.shards_dir, exist_ok=True)
        self._shards: Dict[str, _ShardState] = {}
        self._buckets: Dict[str, _Bucket] = {}
        self._fds: Dict[str, int] = {}
        self._load()

    # -- paths and I/O -------------------------------------------------

    def _shard_path(self, shard_id: str) -> str:
        return os.path.join(self.shards_dir, f"{shard_id}.jsonl")

    @property
    def _buckets_path(self) -> str:
        return os.path.join(self.root, "buckets.jsonl")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, "manifest.json")

    def _append(self, path: str, doc: Dict[str, object]) -> None:
        """One line, one ``write(2)``, ``O_APPEND`` — the crash-safety
        contract: a kill can tear only the trailing line."""
        fd = self._fds.get(path)
        if fd is None:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            self._fds[path] = fd
        doc.setdefault("v", STORE_VERSION)
        os.write(fd, (_canonical(doc) + "\n").encode("utf-8"))

    def _drop_fd(self, path: str) -> None:
        """Close a cached append descriptor (before an atomic replace —
        the old fd would keep appending to the unlinked inode)."""
        fd = self._fds.pop(path, None)
        if fd is not None:
            os.close(fd)

    def close(self) -> None:
        for fd in self._fds.values():
            os.close(fd)
        self._fds.clear()

    @staticmethod
    def _read_jsonl(path: str) -> Iterable[Dict[str, object]]:
        """Yield decodable lines; a truncated/corrupt line (a torn tail
        from a killed writer) is skipped with a warning, never fatal."""
        try:
            with open(path) as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        doc = json.loads(line)
                    except json.JSONDecodeError:
                        warnings.warn(
                            f"{path}:{lineno}: skipping corrupt store line "
                            "(torn append from a killed writer?); the "
                            "affected hunt will be re-run on resume",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        continue
                    if isinstance(doc, dict):
                        yield doc
        except FileNotFoundError:
            return

    # -- loading -------------------------------------------------------

    def _load(self) -> None:
        try:
            names = sorted(os.listdir(self.shards_dir))
        except FileNotFoundError:
            names = []
        for name in names:
            if not name.endswith(".jsonl"):
                continue
            self._load_shard(name[: -len(".jsonl")])
        self._load_buckets()

    def _load_shard(self, shard_id: str) -> _ShardState:
        """(Re-)read one shard file into a fresh in-memory state."""
        state = _ShardState()
        self._shards[shard_id] = state
        for doc in self._read_jsonl(self._shard_path(shard_id)):
            kind = doc.get("kind")
            if kind == "hunt":
                try:
                    hunt = BugHunt.from_dict(doc["hunt"])  # type: ignore[arg-type]
                    index = int(doc["bug_index"])  # type: ignore[arg-type]
                except (KeyError, TypeError, ValueError) as exc:
                    warnings.warn(
                        f"{self._shard_path(shard_id)}: undecodable "
                        f"hunt record ({exc}); it will be re-run",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                state.hunts[index] = hunt
                state.digests[index] = str(doc.get("digest", ""))
                dedup = doc.get("dedup")
                state.dedup[index] = None if dedup is None else str(dedup)
                meta: Dict[str, object] = {}
                if doc.get("owner") is not None:
                    meta["owner"] = str(doc["owner"])
                if doc.get("ts") is not None:
                    try:
                        meta["ts"] = float(doc["ts"])  # type: ignore[arg-type]
                    except (TypeError, ValueError):
                        pass
                state.meta[index] = meta
            elif kind == "shard-done":
                state.done = True
                try:
                    state.marker_hunts = int(doc.get("hunts"))  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    state.marker_hunts = None
            elif kind == "lease":
                state.lease = apply_lease_line(state.lease, doc)
                state.lease_seen = True
        self._finalize_shard(shard_id, state)
        return state

    def _finalize_shard(self, shard_id: str, state: _ShardState) -> None:
        """Validate the shard's done marker against what actually loaded.

        A ``shard-done`` marker records how many hunts existed when it
        was appended.  If fewer survive the reload — a mid-file line was
        torn or corrupted while the marker itself lived on — honoring
        the marker would wedge the job forever: ``pending()`` skips the
        shard while ``merged()`` raises on the missing hunt, on every
        resume.  Demote the shard to not-done so the missing hunts
        simply re-run.
        """
        if state.done and state.marker_hunts is not None:
            if len(state.hunts) < state.marker_hunts:
                warnings.warn(
                    f"{self._shard_path(shard_id)}: shard-done marker "
                    f"records {state.marker_hunts} hunt(s) but only "
                    f"{len(state.hunts)} loaded; demoting the shard to "
                    "not-done so the missing hunts re-run",
                    RuntimeWarning,
                    stacklevel=3,
                )
                state.done = False

    def _load_buckets(self) -> None:
        self._buckets.clear()
        for doc in self._read_jsonl(self._buckets_path):
            if doc.get("kind") != "bucket":
                continue
            digest = str(doc.get("digest", ""))
            bucket = self._buckets.get(digest)
            if bucket is None:
                self._buckets[digest] = _Bucket(
                    shard_id=str(doc.get("shard", "")),
                    bug_index=int(doc.get("bug_index", -1)),  # type: ignore[arg-type]
                )
            else:
                bucket.count += 1

    def refresh_shard(self, shard_id: str) -> None:
        """Re-read one shard's file, picking up peers' appended lines.

        With N daemons appending to the same store, the in-memory view
        goes stale the moment a peer writes; lease arbitration and
        takeover both re-read before deciding anything.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            self._load_shard(shard_id)

    def refresh(self) -> None:
        """Re-read every shard file and the bucket log from disk."""
        self._shards.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            self._load()

    # -- manifest ------------------------------------------------------

    def save_manifest(self, manifest: CampaignManifest) -> None:
        """Persist the job's manifest (idempotent; atomic replace)."""
        atomic_write(self.manifest_path, manifest.to_json() + "\n")

    def load_manifest(self) -> CampaignManifest:
        return CampaignManifest.load(self.manifest_path)

    # -- leases --------------------------------------------------------

    def append_lease(
        self, shard_id: str, op: str, owner: str, *,
        time: float, expires: float,
    ) -> None:
        """Append one lease line and fold it into the in-memory state."""
        doc = {
            "kind": "lease", "op": op, "shard": shard_id,
            "owner": owner, "time": time, "expires": expires,
        }
        self._append(self._shard_path(shard_id), dict(doc))
        state = self._shards.setdefault(shard_id, _ShardState())
        state.lease = apply_lease_line(state.lease, doc)
        state.lease_seen = True

    def lease_state(self, shard_id: str) -> Optional[Lease]:
        """The shard's replayed lease (may be expired; caller checks)."""
        state = self._shards.get(shard_id)
        return state.lease if state else None

    def lease_history(self, shard_id: str) -> bool:
        """True once any lease line was ever seen for the shard."""
        state = self._shards.get(shard_id)
        return bool(state and state.lease_seen)

    # -- recording -----------------------------------------------------

    def record_hunt(
        self, shard_id: str, bug_index: int, hunt: BugHunt,
        owner: Optional[str] = None,
    ) -> Tuple[str, Optional[str]]:
        """Append one completed hunt; returns ``(hunt digest, dedup)``.

        ``owner`` names the runner recording the hunt; it is stored on
        the hunt *line* (with an append timestamp) rather than in the
        hunt document, so it feeds per-owner throughput on the status
        endpoint without perturbing hunt digests.

        A detected hunt whose :func:`failure_digest` is already
        bucketed is stored *without* its schedule trace (``dedup``
        names the bucket instead) — the canonical trace stays with the
        bucket's first occurrence.

        Recording over an existing record is governed by what each side
        is:

        * identical digest (or a late ``hung`` tombstone for a hunt a
          peer already completed): **idempotent no-op** — the fleet's
          duplicate-delivery guard; returns the stored record's digest;
        * a real result over a ``hung`` tombstone: **supersedes** it
          (the tombstone marks a transient stall, not a completion);
        * anything else — two *different* real results for one (shard,
          bug) — is a scheduler bug and raises: the store never
          silently double-spends campaign budget.
        """
        state = self._shards.setdefault(shard_id, _ShardState())
        existing = state.hunts.get(bug_index)
        if existing is not None:
            if not (existing.hung and not hunt.hung):
                if hunt.hung or hunt_digest(hunt) == state.digests[bug_index]:
                    telemetry.count("service.duplicate_hunts")
                    return state.digests[bug_index], state.dedup.get(bug_index)
                raise ValueError(
                    f"hunt {bug_index} of shard {shard_id} is already "
                    "recorded with a different outcome; refusing to "
                    "re-record a completed hunt"
                )
            # A real result supersedes the hung tombstone: the later
            # line wins on replay, so a plain append is the rewrite.
            telemetry.count("service.hung_retried")
        digest = hunt_digest(hunt)
        dedup = failure_digest(hunt)
        stored = hunt
        if dedup is not None:
            bucket = self._buckets.get(dedup)
            if bucket is None:
                self._buckets[dedup] = _Bucket(
                    shard_id=shard_id, bug_index=bug_index
                )
            else:
                bucket.count += 1
                stored = BugHunt(
                    spec=hunt.spec, cpu=hunt.cpu, detected=hunt.detected,
                    tests_run=hunt.tests_run,
                    detected_on_seed=hunt.detected_on_seed,
                    via=hunt.via, hung=hunt.hung, schedule=None,
                    ops=hunt.ops,
                )
                telemetry.count("service.dedup_hits")
            self._append(self._buckets_path, {
                "kind": "bucket", "digest": dedup, "shard": shard_id,
                "bug": hunt.spec.name, "bug_index": bug_index,
                "first": stored is hunt,
            })
        meta: Dict[str, object] = {}
        line: Dict[str, object] = {
            "kind": "hunt", "shard": shard_id, "bug": hunt.spec.name,
            "bug_index": bug_index, "digest": digest,
            "dedup": None if stored is hunt else dedup,
            "hunt": stored.to_dict(),
        }
        if owner is not None:
            meta = {"owner": owner, "ts": time.time()}
            line.update(meta)
        self._append(self._shard_path(shard_id), line)
        state.hunts[bug_index] = stored
        state.digests[bug_index] = digest
        state.dedup[bug_index] = None if stored is hunt else dedup
        state.meta[bug_index] = meta
        telemetry.count("service.hunts")
        if hunt.detected:
            telemetry.count("service.detections")
        return digest, None if stored is hunt else dedup

    def mark_shard_done(self, shard_id: str) -> None:
        """Append the completion marker — the resume boundary."""
        state = self._shards.setdefault(shard_id, _ShardState())
        self._append(self._shard_path(shard_id), {
            "kind": "shard-done", "shard": shard_id,
            "hunts": len(state.hunts),
        })
        state.done = True
        state.marker_hunts = len(state.hunts)
        telemetry.count("service.shards_completed")

    # -- compaction ----------------------------------------------------

    def compact_shard(self, shard_id: str) -> Tuple[int, int]:
        """Rewrite a *done* shard's JSONL to its canonical record set.

        One hunt line per bug index (the replay winners, byte-faithful
        to what :meth:`record_hunt` stored — digests, dedup references
        and canonical schedule traces all survive), then one
        ``shard-done`` marker.  Superseded tombstones, duplicate
        markers and the whole lease history are dropped.  The rewrite
        is an atomic ``os.replace``; a crash leaves either the old file
        or the new one, never a mix.

        Returns ``(lines before, lines after)``.
        """
        state = self._shards.get(shard_id)
        if state is None or not state.done:
            raise ValueError(
                f"shard {shard_id} is not done; only completed shards "
                "compact (a live shard's file is the coordination medium)"
            )
        path = self._shard_path(shard_id)
        before = 0
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    before += 1
        lines: List[str] = []
        for index in sorted(state.hunts):
            hunt = state.hunts[index]
            doc: Dict[str, object] = {
                "kind": "hunt", "shard": shard_id, "bug": hunt.spec.name,
                "bug_index": index, "digest": state.digests[index],
                "dedup": state.dedup.get(index),
                "hunt": hunt.to_dict(), "v": STORE_VERSION,
            }
            doc.update(state.meta.get(index, {}))
            lines.append(_canonical(doc))
        lines.append(_canonical({
            "kind": "shard-done", "shard": shard_id,
            "hunts": len(state.hunts), "v": STORE_VERSION,
        }))
        self._drop_fd(path)
        atomic_write(path, "\n".join(lines) + "\n")
        state.lease = None
        state.lease_seen = False
        telemetry.count("service.shards_compacted")
        return before, len(lines)

    def compact(self) -> Dict[str, Tuple[int, int]]:
        """Compact every done shard; returns per-shard (before, after)."""
        out: Dict[str, Tuple[int, int]] = {}
        for shard_id in sorted(self._shards):
            if self._shards[shard_id].done:
                out[shard_id] = self.compact_shard(shard_id)
        return out

    # -- queries -------------------------------------------------------

    def completed_hunts(self, shard_id: str) -> Dict[int, BugHunt]:
        """Recorded hunts of one shard, keyed by bug index."""
        state = self._shards.get(shard_id)
        return dict(state.hunts) if state else {}

    def shard_done(self, shard_id: str) -> bool:
        """True once the shard's completion marker is on disk (and its
        record count backs it up — see :meth:`_finalize_shard`)."""
        state = self._shards.get(shard_id)
        return bool(state and state.done)

    def hunt_digests(self) -> Set[str]:
        """Every recorded hunt's digest — the resume-equality witness."""
        out: Set[str] = set()
        for state in self._shards.values():
            out.update(state.digests.values())
        return out

    def buckets(self) -> Dict[str, int]:
        """Failure-dedup bucket sizes, keyed by failure digest."""
        return {d: b.count for d, b in self._buckets.items()}

    def schedule_for(self, digest: str) -> Optional[str]:
        """The canonical schedule trace of a dedup bucket, if stored."""
        bucket = self._buckets.get(digest)
        if bucket is None:
            return None
        hunt = self._shards.get(bucket.shard_id, _ShardState()).hunts.get(
            bucket.bug_index
        )
        return None if hunt is None else hunt.schedule

    def pending(
        self, manifest: CampaignManifest
    ) -> List[Tuple[Shard, List[int]]]:
        """Work left to run: shards not conclusively done, with exactly
        the bug indices needing a run.

        A shard is conclusively done only when its marker is honored
        *and* its records cover the manifest's hunt count — a marker
        whose shard lost records (however it happened) never hides
        missing work.  With ``requeue_hung``, a ``hung`` tombstone
        counts as needing a run: it records a transient stall, not a
        completion.  Completed hunts of a torn shard are reused, never
        re-run.
        """
        out: List[Tuple[Shard, List[int]]] = []
        for shard in manifest.shards():
            recorded = self.completed_hunts(shard.shard_id)
            missing = [
                i for i in range(shard.hunt_count())
                if i not in recorded
                or (self.requeue_hung and recorded[i].hung)
            ]
            if self.shard_done(shard.shard_id) and not missing:
                continue
            out.append((shard, missing))
        return out

    def summary(self) -> Dict[str, object]:
        """JSON-safe progress summary (feeds the status endpoint).

        The ``owners`` map carries per-owner throughput alongside the
        live lease count: every hunt line a runner recorded contributes
        its hunt (and the hunt's ``ops``) to that owner, and the rates
        divide by the owner's recording span (first to last append
        timestamp; ``0.0`` until a second hunt lands).  Hunts recorded
        without an owner (pre-fleet stores, direct ``record_hunt``
        callers) simply don't appear here.
        """
        recorded = detected = hung = shards_done = 0
        per_shard: Dict[str, object] = {}
        owners: Dict[str, Dict[str, object]] = {}

        def owner_entry(name: str) -> Dict[str, object]:
            return owners.setdefault(name, {
                "active_shards": 0, "hunts": 0, "ops": 0,
                "hunts_per_s": 0.0, "ops_per_s": 0.0,
            })

        spans: Dict[str, Tuple[float, float]] = {}
        for shard_id in sorted(self._shards):
            state = self._shards[shard_id]
            n_det = sum(1 for h in state.hunts.values() if h.detected)
            n_hung = sum(1 for h in state.hunts.values() if h.hung)
            recorded += len(state.hunts)
            detected += n_det
            hung += n_hung
            shards_done += int(state.done)
            entry: Dict[str, object] = {
                "recorded": len(state.hunts),
                "detected": n_det,
                "hung": n_hung,
                "done": state.done,
            }
            if state.lease is not None and not state.done:
                entry["owner"] = state.lease.owner
                entry["lease_expires"] = state.lease.expires
                holder = owner_entry(state.lease.owner)
                holder["active_shards"] = int(holder["active_shards"]) + 1
            for index, hunt in state.hunts.items():
                meta = state.meta.get(index) or {}
                name = meta.get("owner")
                if name is None:
                    continue
                stats = owner_entry(str(name))
                stats["hunts"] = int(stats["hunts"]) + 1
                stats["ops"] = int(stats["ops"]) + hunt.ops
                ts = meta.get("ts")
                if isinstance(ts, float):
                    lo, hi = spans.get(str(name), (ts, ts))
                    spans[str(name)] = (min(lo, ts), max(hi, ts))
            per_shard[shard_id] = entry
        for name, (lo, hi) in spans.items():
            span = hi - lo
            if span > 0:
                stats = owners[name]
                stats["hunts_per_s"] = round(int(stats["hunts"]) / span, 3)
                stats["ops_per_s"] = round(int(stats["ops"]) / span, 3)
        return {
            "shards": per_shard,
            "shards_done": shards_done,
            "hunts_recorded": recorded,
            "hunts_detected": detected,
            "hunts_hung": hung,
            "owners": owners,
            "dedup_buckets": len(self._buckets),
            "dedup_hits": sum(
                b.count - 1 for b in self._buckets.values()
            ),
        }
