"""repro.service — campaign-as-a-service: sharded, queued, resumable.

TSOtool's value at Sun came from running huge pseudo-random campaigns
*continuously* against silicon, not one-shot CLI invocations.  This
package is that framing for the reproduction: a daemon that accepts
campaign *manifests* (seeds × CPU configs × generator/scheduler/engine
settings, split into deterministic shards), dispatches their hunts to
the existing :mod:`repro.analysis.pool` workers, records every
completed :class:`~repro.analysis.campaign.BugHunt` in an append-only
crash-safe store, deduplicates behaviorally identical detections, and
reports live progress over a stdlib HTTP JSON API.

The layers, bottom-up:

* :mod:`repro.service.manifest` — the versioned manifest document and
  its deterministic shard expansion.
* :mod:`repro.service.store` — the persistent result store
  (JSONL-per-shard, append-only); a restarted daemon resumes exactly at
  the first unfinished shard and never re-runs a completed hunt.
* :mod:`repro.service.lease` — shard claim/renew/release records in
  the same per-shard JSONL, arbitrated by append order: what lets N
  daemons on N hosts drain one job concurrently, with heartbeat
  renewal and expiry takeover after a killed peer.
* :mod:`repro.service.queue` — the shard scheduler: lease-gated
  pending-work computation plus pool dispatch with incremental
  persistence.
* :mod:`repro.service.status` — the live status endpoint.
* :mod:`repro.service.daemon` — the service itself: a spool of
  submitted manifests, the serve loop, and signal handling.

CLI verbs: ``tsotool submit <manifest>``, ``tsotool serve``,
``tsotool status`` (see ``docs/campaign-service.md``).  The one-shot
``tsotool campaign`` contract (exit codes 0/1/2) is untouched; a
service job's merged result reports the same tables, detection rate
and exit code as a from-scratch ``run_campaign`` of the same manifest.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".daemon": "CampaignService ServiceConfig",
    ".lease": "Lease LeaseManager default_owner",
    ".manifest": "CampaignManifest Shard",
    ".queue": "JobRunner",
    ".status": "StatusServer",
    ".store": "ResultStore failure_digest hunt_digest",
})

__all__ = [
    "CampaignManifest",
    "CampaignService",
    "JobRunner",
    "Lease",
    "LeaseManager",
    "ResultStore",
    "ServiceConfig",
    "Shard",
    "StatusServer",
    "default_owner",
    "failure_digest",
    "hunt_digest",
]
