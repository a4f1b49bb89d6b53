"""Tests for the status HTTP endpoint and the daemon's status payload."""

import json
import os
import urllib.error
import urllib.request

import pytest

from repro.service.daemon import CampaignService, ServiceConfig
from repro.service.manifest import CampaignManifest
from repro.service.status import StatusServer
from repro.telemetry import validate_event


def fetch(address, route):
    host, port = address
    with urllib.request.urlopen(
        f"http://{host}:{port}{route}", timeout=10
    ) as resp:
        return resp.status, json.load(resp)


@pytest.fixture()
def server():
    state = {
        "v": 1,
        "service": {"root": "/tmp/x"},
        "jobs": [{"id": "job-1", "state": "running"}],
    }
    srv = StatusServer(lambda: state).start()
    yield srv
    srv.close()


class TestRoutes:
    def test_healthz(self, server):
        status, body = fetch(server.address, "/healthz")
        assert (status, body) == (200, {"ok": True})

    def test_status_serves_state_fn(self, server):
        status, body = fetch(server.address, "/status")
        assert status == 200
        assert body["jobs"][0]["id"] == "job-1"

    def test_jobs_listing_and_lookup(self, server):
        _, body = fetch(server.address, "/jobs")
        assert [j["id"] for j in body["jobs"]] == ["job-1"]
        _, body = fetch(server.address, "/jobs/job-1")
        assert body["state"] == "running"

    def test_unknown_job_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(server.address, "/jobs/nope")
        assert err.value.code == 404

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(server.address, "/bogus")
        assert err.value.code == 404

    def test_metrics_is_a_valid_v1_snapshot(self, server):
        _, body = fetch(server.address, "/metrics")
        assert body["kind"] == "snapshot"
        validate_event(body)  # v1 telemetry schema

    def test_port_zero_resolves_to_real_port(self, server):
        host, port = server.address
        assert host == "127.0.0.1"
        assert port > 0


class TestServiceStatusPayload:
    def test_payload_tracks_store_progress(self, tmp_path):
        m = CampaignManifest(
            name="st", seeds=(1,), cpus=("CPU1",), tests_per_bug=4
        )
        service = CampaignService(
            ServiceConfig(root=str(tmp_path), http_port=None, once=True)
        )
        service.submit(m)
        before = service.status()
        [job] = before["jobs"]
        assert job["state"] == "queued"
        assert job["hunts"]["recorded"] == 0
        assert job["exit_code"] is None

        assert service.serve() == 0
        after = service.status()
        [job] = after["jobs"]
        assert job["state"] == "done"
        assert job["shards"] == {"total": 1, "done": 1}
        assert job["hunts"]["recorded"] == job["hunts"]["total"] == 3
        assert job["exit_code"] == 0
        # The whole payload must be JSON-serializable for the endpoint.
        assert json.loads(json.dumps(after)) == after

    def test_submit_is_idempotent(self, tmp_path):
        m = CampaignManifest(name="idem", seeds=(1,), cpus=("CPU1",))
        service = CampaignService(
            ServiceConfig(root=str(tmp_path), http_port=None)
        )
        assert service.submit(m) == service.submit(m)
        assert len(service.spooled()) == 1

    def test_empty_spool_serves_exit_zero(self, tmp_path):
        service = CampaignService(
            ServiceConfig(root=str(tmp_path), http_port=None, once=True)
        )
        assert service.serve() == 0

    def test_bad_spooled_manifest_does_not_stall_the_spool(self, tmp_path):
        """A spooled manifest that no longer validates (here: a retired
        engine name) finishes with exit 2 and its error; the valid job
        queued behind it still runs, and status lists both."""
        for engine in ("matrix", "closure", "stream"):
            root = tmp_path / engine
            service = CampaignService(
                ServiceConfig(root=str(root), http_port=None, once=True)
            )
            good = CampaignManifest(
                name="good", seeds=(1,), cpus=("CPU1",), tests_per_bug=4
            )
            doc = dict(good.to_dict(), name="bad", engine=engine)
            bad_path = root / "spool" / "bad-job.manifest.json"
            bad_path.write_text(json.dumps(doc) + "\n")
            good_id = service.submit(good)
            # The bad job is the oldest, so it is drained first.
            os.utime(bad_path, (1, 1))

            queued = {job["id"]: job for job in service.status()["jobs"]}
            assert set(queued) == {"bad-job", good_id}
            assert engine in queued["bad-job"]["error"]

            assert service.serve() == 2
            jobs = {job["id"]: job for job in service.status()["jobs"]}
            assert jobs[good_id]["state"] == "done"
            assert jobs[good_id]["exit_code"] == 0
            assert jobs[good_id]["hunts"]["recorded"] == 3
            assert jobs["bad-job"]["state"] == "done"
            assert jobs["bad-job"]["exit_code"] == 2
            with open(service.result_path("bad-job")) as fh:
                result = json.load(fh)
            assert result["exit_code"] == 2
            assert engine in result["error"]
