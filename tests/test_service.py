"""Tests for the fingerprinting HTTP service (``repro.service``).

One in-thread server (ephemeral port) backs the whole module; each test
that cares about warm/cold behaviour uses a uniquely named design so the
shared artifact store cannot leak warmth between tests.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.service import (
    Server,
    ServiceClient,
    ServiceHttpError,
    TenantQuota,
    run_service_job,
)
from repro.service.jobs import ServiceJobFailed
from repro.store import deactivate_store


def blif(name: str) -> str:
    """A small unique-by-name BLIF design (fig1 with an extra output)."""
    return f"""\
.model {name}
.inputs a b c d
.outputs f
.names a b x
11 1
.names c d y
1- 1
-1 1
.names x y f
11 1
.end
"""


@pytest.fixture(scope="module")
def server():
    srv = Server(
        port=0,
        quotas={"limited": TenantQuota(max_pending=0)},
    )
    srv.start_in_thread()
    yield srv
    srv.stop_thread()
    deactivate_store()
    telemetry.disable()
    telemetry.get_tracer().reset()
    telemetry.get_registry().reset()


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(port=server.port, retry_429=0)


class TestEndpoints:
    def test_health(self, client):
        from repro import __version__

        body = client.health()
        assert body["status"] == "ok"
        assert body["version"] == __version__
        assert body["uptime_s"] >= 0

    def test_stats_is_an_envelope(self, client):
        stats = client.stats()
        assert stats["tool"] == "repro-fp"
        assert stats["command"] == "stats"
        assert "telemetry" in stats and "cache" in stats
        assert set(stats["result"]["jobs"]) == {
            "submitted", "rejected", "done", "failed", "requeued",
        }
        assert "queue_depth" in stats["result"]
        executor = stats["result"]["executor"]
        assert executor["backend"] == "process"
        assert executor["workers"] == 1
        assert executor["crashes"] == 0

    def test_unknown_command_is_400(self, client):
        with pytest.raises(ServiceHttpError) as excinfo:
            client.submit("frobnicate", design=blif("x"))
        assert excinfo.value.status == 400
        assert excinfo.value.code == "unknown_command"
        assert "frobnicate" in str(excinfo.value.payload["error"])
        assert "batch" in excinfo.value.payload["commands"]

    def test_mistyped_field_is_structured_400(self, client):
        with pytest.raises(ServiceHttpError) as excinfo:
            client.submit("locate", design=123)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_field"
        assert excinfo.value.payload["field"] == "design"

    def test_bad_json_is_400(self, client):
        import http.client

        connection = http.client.HTTPConnection(client.host, client.port)
        try:
            connection.request(
                "POST", "/v1/jobs", body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceHttpError) as excinfo:
            client.job("no-such-job")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_job"

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceHttpError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"

    def test_method_not_allowed_is_405(self, client):
        with pytest.raises(ServiceHttpError) as excinfo:
            client._request("DELETE", "/jobs")
        assert excinfo.value.status == 405
        assert excinfo.value.code == "method_not_allowed"

    def test_quota_exhausted_is_429(self, client):
        with pytest.raises(ServiceHttpError) as excinfo:
            client.submit("locate", design=blif("q"), tenant="limited")
        assert excinfo.value.status == 429
        assert excinfo.value.code == "quota_exceeded"


class TestJobExecution:
    def test_locate_round_trip(self, client):
        envelope = client.run("locate", design=blif("rt"), format="blif")
        assert envelope["ok"] is True
        assert envelope["command"] == "locate"
        assert envelope["result"]["n_locations"] >= 1
        # The CLI envelope shape, plus the service's cache section.
        assert list(envelope)[:4] == ["tool", "version", "command", "telemetry"]
        assert "cache" in envelope

    def test_warm_resubmission_skips_all_derivation(self, client):
        """The PR 7 acceptance criterion: an identical resubmission is
        served from the store (no IR compile, CNF encode, or catalog
        build of its own) with a bit-identical verdict."""
        text = blif("warmpair")
        cold = client.run("batch", design=text, n_copies=2,
                          options={"seed": 7})
        warm = client.run("batch", design=text, n_copies=2,
                          options={"seed": 7})
        assert cold["cache"]["misses"] > 0
        assert warm["cache"]["misses"] == 0
        assert warm["cache"]["warm"] == {
            "ir": True, "cnf": True, "catalog": True, "session": True,
        }
        # Per-job telemetry: the warm job did no compile/encode work.
        counters = warm["telemetry"]["metrics"]["counters"]
        assert counters.get("ir.compile", 0) == 0
        assert counters.get("tseitin.encodings", 0) == 0

        def verdicts(envelope):
            return [
                {k: v for k, v in record.items() if k != "seconds"}
                for record in envelope["result"]["records"]
            ]

        assert verdicts(cold) == verdicts(warm)
        assert all(r["equivalent"] for r in verdicts(cold))

    def test_failed_job_returns_error_envelope(self, client):
        submitted = client.submit("locate", design="this is not blif",
                                  format="blif")
        with pytest.raises(ServiceHttpError) as excinfo:
            client.wait(submitted["job_id"])
        assert excinfo.value.status == 500
        envelope = excinfo.value.payload
        assert envelope["ok"] is False
        assert "error" in envelope["result"]

    def test_failed_job_status_carries_error_code(self, client):
        submitted = client.submit("locate", design="also not blif",
                                  format="blif")
        with pytest.raises(ServiceHttpError):
            client.wait(submitted["job_id"])
        status = client.job(submitted["job_id"])
        assert status["status"] == "failed"
        assert status["error_code"] == "job_error"
        assert status["attempts"] == 0

    def test_events_stream_ends_with_result(self, client):
        submitted = client.submit("locate", design=blif("sse"), format="blif")
        events = list(client.events(submitted["job_id"]))
        assert events, "stream yielded nothing"
        assert events[-1]["event"] == "result"
        payload = events[-1]["data"]
        assert payload["status"] == "done"
        assert payload["envelope"]["ok"] is True

    def test_verify_command(self, client):
        text = blif("verifyme")
        envelope = client.run("verify", design=text, suspect=text)
        assert envelope["result"]["equivalent"] is True

    def test_prepare_command(self, client):
        envelope = client.run("prepare", design=blif("prep"))
        assert envelope["ok"] is True
        assert len(envelope["result"]["digest"]) == 64
        assert envelope["result"]["prepared"] is True

    def test_job_listing_paginates(self, client):
        tenant = "pager"
        for i in range(3):
            client.run("prepare", design=blif(f"{tenant}_{i}"), tenant=tenant)
        listing = client.jobs(tenant=tenant, limit=2, offset=0)
        assert listing["total"] == 3
        assert len(listing["jobs"]) == 2
        rest = client.jobs(tenant=tenant, limit=2, offset=2)
        assert len(rest["jobs"]) == 1
        ids = [j["job_id"] for j in listing["jobs"] + rest["jobs"]]
        assert len(set(ids)) == 3
        # Submission order, oldest first; statuses all terminal.
        assert all(j["status"] == "done" for j in listing["jobs"])
        # Listings never inline envelopes.
        assert all("envelope" not in j for j in listing["jobs"])


class TestRunServiceJob:
    """The executor, without HTTP (runs on this thread)."""

    @pytest.fixture(autouse=True)
    def clean(self):
        """Run store-less (the module server may have one active)."""
        from repro.store import activate_store, active_store

        previous = active_store()
        deactivate_store()
        yield
        telemetry.get_tracer().reset()
        telemetry.get_registry().reset()
        if previous is not None:
            activate_store(previous)
        else:
            deactivate_store()

    def test_envelope_shape(self):
        envelope = run_service_job("locate", {"design": blif("direct")})
        assert envelope["ok"] is True
        assert envelope["command"] == "locate"
        assert envelope.get("cache") is None  # no store active here

    def test_failure_raises_with_envelope(self):
        with pytest.raises(ServiceJobFailed) as excinfo:
            run_service_job("locate", {"design": ""})
        envelope = excinfo.value.envelope
        assert envelope["ok"] is False
        assert envelope["result"]["error_type"] == "DesignLoadError"

    def test_unknown_command_fails_cleanly(self):
        with pytest.raises(ServiceJobFailed) as excinfo:
            run_service_job("nonsense", {"design": blif("u")})
        assert "nonsense" in excinfo.value.envelope["result"]["error"]
