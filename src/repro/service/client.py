"""Minimal stdlib client for the fingerprinting service's ``/v1`` API.

Wraps ``http.client`` so tests, the smoke script, the load harness and
the store benchmark can talk to a running
:class:`~repro.service.server.Server` without any HTTP dependency::

    client = ServiceClient(port=port)
    submitted = client.submit("batch", design=c17_verilog,
                              format="verilog", n_copies=4)
    envelope = client.wait(submitted["job_id"])
    assert envelope["cache"]["warm"]["catalog"]

The constructor is keyword-only, and every request goes to a ``/v1``
path.

Quota rejections (HTTP 429, code ``quota_exceeded``) are retried with
exponential backoff up to ``retry_429`` times before the error is
re-raised — a load shedder's 429 is an invitation to come back, not a
failure.  Every other non-2xx response raises
:class:`ServiceHttpError` immediately, with the decoded error payload
attached (machine-readable ``code`` included).
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Path prefix of every request.
_PREFIX = "/v1"


class ServiceHttpError(RuntimeError):
    """A non-2xx service response (status + decoded body).

    ``payload`` is the decoded error body; for ``/v1`` errors it carries
    the machine-readable ``code`` clients should dispatch on.
    """

    def __init__(self, status: int, payload: Any) -> None:
        super().__init__(f"HTTP {status}: {payload}")
        self.status = status
        self.payload = payload

    @property
    def code(self) -> Optional[str]:
        """The machine-readable error code, when the body carries one."""
        if isinstance(self.payload, dict):
            return self.payload.get("code")
        return None


class ServiceClient:
    """Blocking JSON client for one service endpoint (see module doc).

    Args:
        host/port: Service address.
        timeout: Socket timeout per request, seconds.
        retry_429: How many times a quota-rejected submission is retried
            (exponential backoff, ``backoff_s`` base) before the 429 is
            raised.  0 disables retrying.
        backoff_s: Base sleep of the 429 backoff; attempt *n* sleeps
            ``backoff_s * 2**n``.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float = 120.0,
        retry_429: int = 3,
        backoff_s: float = 0.05,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry_429 = retry_429
        self.backoff_s = backoff_s

    # ------------------------------------------------------------------ #

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        ok: tuple = (200, 202),
    ) -> Any:
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(
                method, _PREFIX + path, body=payload, headers=headers
            )
            response = connection.getresponse()
            raw = response.read().decode("utf-8")
            decoded = json.loads(raw) if raw else None
            if response.status not in ok:
                raise ServiceHttpError(response.status, decoded)
            return decoded
        finally:
            connection.close()

    # ------------------------------------------------------------------ #

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def submit(self, command: str, **payload: Any) -> Dict[str, Any]:
        """POST a job; returns the 202 body (``job_id``, ``stream`` …).

        A 429 (tenant quota) is retried up to ``retry_429`` times with
        exponential backoff before being raised.
        """
        payload["command"] = command
        attempt = 0
        while True:
            try:
                return self._request("POST", "/jobs", body=payload)
            except ServiceHttpError as exc:
                if exc.status != 429 or attempt >= self.retry_429:
                    raise
                time.sleep(self.backoff_s * (2 ** attempt))
                attempt += 1

    def submit_many(
        self, submissions: Sequence[Tuple[str, Dict[str, Any]]]
    ) -> List[Dict[str, Any]]:
        """Submit ``(command, payload)`` pairs; returns the 202 bodies.

        Sequential (the service itself provides the concurrency); each
        submission gets the same 429 retry treatment as :meth:`submit`.
        """
        return [
            self.submit(command, **dict(payload))
            for command, payload in submissions
        ]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(
        self,
        tenant: Optional[str] = None,
        limit: int = 50,
        offset: int = 0,
    ) -> Dict[str, Any]:
        """``GET /v1/jobs`` — paginated listing, optionally per tenant."""
        query = f"?limit={limit}&offset={offset}"
        if tenant is not None:
            from urllib.parse import quote

            query += f"&tenant={quote(tenant)}"
        return self._request("GET", f"/jobs{query}")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll_s: float = 0.05) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its result envelope.

        Raises :class:`ServiceHttpError` (status 500) when the job
        failed, with the error envelope as the payload.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if status["status"] == "done":
                return status["envelope"]
            if status["status"] == "failed":
                raise ServiceHttpError(500, status.get("envelope") or status)
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {status['status']!r} "
                                   f"after {timeout}s")
            time.sleep(poll_s)

    def run(self, command: str, **payload: Any) -> Dict[str, Any]:
        """Submit and wait — one warm/cold submission round trip."""
        submitted = self.submit(command, **payload)
        return self.wait(submitted["job_id"])

    def shutdown(self) -> Dict[str, Any]:
        """``POST /v1/shutdown`` — ask the service to drain and stop."""
        return self._request("POST", "/shutdown")

    def events(self, job_id: str, timeout: float = 300.0
               ) -> Iterator[Dict[str, Any]]:
        """Stream the job's server-sent events until its result frame.

        Yields ``{"event": <name>, "data": <decoded JSON>}`` dicts,
        ending with (and including) the ``result`` event.
        """
        connection = HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            connection.request("GET", f"{_PREFIX}/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status != 200:
                raw = response.read().decode("utf-8")
                raise ServiceHttpError(
                    response.status, json.loads(raw) if raw else None
                )
            event: Dict[str, Any] = {}
            for raw_line in response:
                line = raw_line.decode("utf-8").rstrip("\n")
                if line.startswith("event: "):
                    event["event"] = line[len("event: "):]
                elif line.startswith("data: "):
                    event["data"] = json.loads(line[len("data: "):])
                elif not line and event:
                    yield dict(event)
                    if event.get("event") == "result":
                        return
                    event = {}
        finally:
            connection.close()


__all__ = ["ServiceClient", "ServiceHttpError"]
