"""The typed-query service: the paper's decision problems as a daemon.

A stdlib-only HTTP/JSON server (:class:`TypedQueryService` /
:func:`serve`) over a concurrent, fingerprint-keyed
:class:`SchemaRegistry` that keeps one pre-warmed compilation
:class:`~repro.engine.Engine` per registered schema — so satisfiability,
type checking, inference, feedback, classification, conformance, and
evaluation requests pay schema parsing and automata construction once
per schema, not once per request.  See ``docs/service.md``.
"""

from .client import ServiceClient, ServiceResponseError
from .daemon import ServiceState, TypedQueryService, serve
from .envelope import (
    ENVELOPE_VERSION,
    ERROR_CODES,
    ServiceError,
    as_service_error,
    error_envelope,
    ok_envelope,
)
from .limits import (
    DeadlineExceeded,
    DeadlineRunner,
    PayloadTooLarge,
    ServiceBusy,
    ServiceLimits,
)
from .metrics import LATENCY_BUCKETS_MS, ServiceMetrics
from .registry import RegisteredSchema, SchemaRegistry, UnknownSchemaError, prewarm

__all__ = [
    "ENVELOPE_VERSION",
    "ERROR_CODES",
    "DeadlineExceeded",
    "DeadlineRunner",
    "LATENCY_BUCKETS_MS",
    "PayloadTooLarge",
    "RegisteredSchema",
    "SchemaRegistry",
    "ServiceBusy",
    "ServiceClient",
    "ServiceError",
    "ServiceLimits",
    "ServiceMetrics",
    "ServiceResponseError",
    "ServiceState",
    "TypedQueryService",
    "UnknownSchemaError",
    "as_service_error",
    "error_envelope",
    "ok_envelope",
    "prewarm",
    "serve",
]
