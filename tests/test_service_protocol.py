"""Tests for the typed ``/v1`` protocol.

Covers protocol validation units, the 404 on unversioned paths (removed
in 2.0), listing pagination validation, and :class:`ServiceClient`
(keyword-only constructor, ``submit_many``, 429 retry-with-backoff).
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro import telemetry
from repro.service import (
    ERROR_CODES,
    ErrorBody,
    JobStatus,
    ProtocolError,
    Server,
    ServiceClient,
    ServiceHttpError,
    SubmitRequest,
    TenantQuota,
)
from repro.service.queue import ServiceJob
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
    return ServiceClient(port=server.port)


def raw_get(server, path):
    """``(status, headers, body_bytes)`` of a GET, no client sugar."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestProtocolUnits:
    def test_submit_request_requires_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            SubmitRequest.parse(["not", "an", "object"])
        assert excinfo.value.code == "invalid_body"
        assert excinfo.value.body.status == 400

    def test_submit_request_type_checks_fields(self):
        with pytest.raises(ProtocolError) as excinfo:
            SubmitRequest.parse({"command": "locate", "n_copies": "four"})
        assert excinfo.value.code == "invalid_field"
        assert excinfo.value.details["field"] == "n_copies"

    def test_submit_request_rejects_unknown_command(self):
        with pytest.raises(ProtocolError) as excinfo:
            SubmitRequest.parse({"command": "frobnicate"})
        assert excinfo.value.code == "unknown_command"
        assert "locate" in excinfo.value.details["commands"]

    def test_submit_request_tenant_fallbacks(self):
        body = {"command": "locate", "design": "x"}
        assert SubmitRequest.parse(dict(body)).tenant == "anonymous"
        assert SubmitRequest.parse(
            dict(body), headers={"x-tenant": "acme"}
        ).tenant == "acme"
        assert SubmitRequest.parse(
            dict(body, tenant="inline"), headers={"x-tenant": "acme"}
        ).tenant == "inline"

    def test_error_body_keeps_legacy_keys(self):
        body = ErrorBody(
            "unknown command", "unknown_command", {"commands": ["locate"]}
        )
        assert body.status == 400
        assert body.as_dict() == {
            "error": "unknown command",
            "code": "unknown_command",
            "commands": ["locate"],
        }

    def test_error_codes_map_to_http_statuses(self):
        assert ERROR_CODES["quota_exceeded"] == 429
        assert ERROR_CODES["worker_crashed"] == 500
        assert ErrorBody("x", "no_such_code").status == 500

    def test_job_status_matches_describe(self):
        job = ServiceJob(job_id="j1", tenant="t", command="locate",
                         payload={}, serial=1)
        status = JobStatus.from_job(job)
        assert status.as_dict() == job.describe()
        job.envelope = {"ok": True}
        assert JobStatus.from_job(job).as_dict()["envelope"] == {"ok": True}
        listed = JobStatus.from_job(job, include_envelope=False)
        assert "envelope" not in listed.as_dict()


class TestUnversionedRoutesRemoved:
    """Only ``/v1`` paths route; the unversioned aliases are gone."""

    def test_unversioned_health_is_404(self, server, client):
        status, headers, body = raw_get(server, "/health")
        assert status == 404
        assert json.loads(body)["code"] == "not_found"
        assert "Deprecation" not in headers
        assert "deprecated" not in client.stats()["result"]

    def test_unversioned_job_is_404(self, server, client):
        submitted = client.submit("prepare", design=blif("unversioned"))
        client.wait(submitted["job_id"])
        path = f"/jobs/{submitted['job_id']}"
        assert raw_get(server, "/v1" + path)[0] == 200
        status, headers, body = raw_get(server, path)
        assert status == 404
        assert json.loads(body)["code"] == "not_found"
        assert "Deprecation" not in headers


class TestListingValidation:
    def test_limit_bounds(self, client):
        with pytest.raises(ServiceHttpError) as excinfo:
            client.jobs(limit=0)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_field"
        with pytest.raises(ServiceHttpError):
            client.jobs(limit=10_000)
        with pytest.raises(ServiceHttpError):
            client.jobs(offset=-1)

    def test_non_integer_limit_is_400(self, server):
        status, _, body = raw_get(server, "/v1/jobs?limit=lots")
        assert status == 400
        assert json.loads(body)["code"] == "invalid_field"

    def test_tenant_filter(self, client):
        client.run("prepare", design=blif("filter_a"), tenant="filter-a")
        client.run("prepare", design=blif("filter_b"), tenant="filter-b")
        only_a = client.jobs(tenant="filter-a")
        assert only_a["total"] == 1
        assert only_a["jobs"][0]["tenant"] == "filter-a"
        assert only_a["tenant"] == "filter-a"


class TestClientRework:
    def test_too_many_positionals_is_type_error(self, server):
        # The constructor is keyword-only: any positional is one too many.
        with pytest.raises(TypeError):
            ServiceClient("127.0.0.1", server.port)
        with pytest.raises(TypeError):
            ServiceClient("127.0.0.1", 1, 1.0, "extra")

    def test_submit_many(self, client):
        accepted = client.submit_many([
            ("prepare", {"design": blif("many_a")}),
            ("prepare", {"design": blif("many_b")}),
        ])
        assert len(accepted) == 2
        for body in accepted:
            envelope = client.wait(body["job_id"])
            assert envelope["ok"] is True

    def test_429_is_retried_with_backoff(self, server):
        retrying = ServiceClient(
            port=server.port, retry_429=2, backoff_s=0.05
        )
        started = time.monotonic()
        with pytest.raises(ServiceHttpError) as excinfo:
            retrying.submit("locate", design=blif("r429"), tenant="limited")
        elapsed = time.monotonic() - started
        assert excinfo.value.status == 429
        # Two retries: sleeps of 0.05 and 0.10 before the final raise.
        assert elapsed >= 0.15

    def test_429_not_retried_when_disabled(self, server):
        impatient = ServiceClient(port=server.port, retry_429=0)
        started = time.monotonic()
        with pytest.raises(ServiceHttpError):
            impatient.submit("locate", design=blif("nr429"), tenant="limited")
        assert time.monotonic() - started < 0.1
