"""Fingerprinting-as-a-service: the async HTTP layer over ``repro.api``.

::

    from repro.service import Server, ServiceClient, TenantQuota

    server = Server(port=0, workers=4).start_in_thread()  # or repro-fp serve
    client = ServiceClient(port=server.port)
    envelope = client.run("batch", design=text, format="verilog")
    server.stop_thread()

See :mod:`repro.service.server` for the endpoint reference,
:mod:`repro.service.protocol` for the typed ``/v1`` request/response
contract, :mod:`repro.pool` for the worker pool jobs run on,
:mod:`repro.service.queue` for tenancy/quotas/fair scheduling,
and :mod:`repro.service.jobs` for the command set.
"""

from .client import ServiceClient, ServiceHttpError
from .jobs import SERVICE_COMMANDS, run_service_job
from .protocol import (
    API_PREFIX,
    ERROR_CODES,
    ErrorBody,
    JobListing,
    JobStatus,
    ProtocolError,
    StatsResponse,
    SubmitAccepted,
    SubmitRequest,
)
from .queue import (
    JobQueue,
    QuotaExceededError,
    ServiceError,
    ServiceJob,
    TenantQuota,
    UnknownJobError,
)
from .server import Server, serve

__all__ = [
    "API_PREFIX",
    "ERROR_CODES",
    "ErrorBody",
    "JobListing",
    "JobQueue",
    "JobStatus",
    "ProtocolError",
    "QuotaExceededError",
    "SERVICE_COMMANDS",
    "Server",
    "ServiceClient",
    "ServiceError",
    "ServiceHttpError",
    "ServiceJob",
    "StatsResponse",
    "SubmitAccepted",
    "SubmitRequest",
    "TenantQuota",
    "UnknownJobError",
    "run_service_job",
    "serve",
]
