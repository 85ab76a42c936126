"""The wire format shared by the daemon and the CLI's ``--json`` mode.

Every response — from an HTTP endpoint or from ``repro <cmd> --json`` —
is one *envelope*: a JSON object with a fixed top-level shape, so that
clients can dispatch on ``ok`` without knowing which operation ran::

    {"ok": true,  "command": "satisfiable", "result": {...}, "error": null,
     "meta": {"elapsed_ms": 1.8}}
    {"ok": false, "command": "satisfiable", "result": null,
     "error": {"code": "timeout", "status": 503, "message": "..."},
     "meta": {"elapsed_ms": 1001.2}}

``error.code`` is a short stable machine string (see ``ERROR_CODES``);
``error.status`` is the HTTP status the daemon answered with (the CLI
reuses it in the envelope but maps outcomes to exit codes 0/1/2).

:class:`ServiceError` is the exception face of an error envelope: service
handlers raise it (or a subclass) and the transport layer renders it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: Envelope schema version, bumped on incompatible shape changes.
ENVELOPE_VERSION = 1

#: The stable error codes an envelope may carry.
ERROR_CODES = (
    "bad-request",      # malformed JSON body / missing or ill-typed field
    "parse-error",      # schema / query / data text failed to parse
    "unknown-schema",   # fingerprint not (or no longer) registered
    "not-found",        # no such endpoint
    "method-not-allowed",
    "payload-too-large",
    "timeout",          # per-request deadline exceeded
    "busy",             # no worker slot free within the deadline
    "unsupported",      # operation undefined for this input (e.g. joins)
    "internal",
)


class ServiceError(Exception):
    """An error that renders as a structured error envelope.

    Args:
        message: human-readable description.
        code: one of :data:`ERROR_CODES`.
        status: the HTTP status to answer with.
        detail: optional JSON-able extras (offending field, limit, ...).
    """

    def __init__(
        self,
        message: str,
        code: str = "bad-request",
        status: int = 400,
        detail: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(message)
        self.message = message
        self.code = code
        self.status = status
        self.detail = detail

    def to_error(self) -> Dict[str, Any]:
        error: Dict[str, Any] = {
            "code": self.code,
            "status": self.status,
            "message": self.message,
        }
        if self.detail:
            error["detail"] = self.detail
        return error


def positive_int_field(body: Dict[str, Any], field: str) -> Optional[int]:
    """The optional positive-integer field ``field`` of a JSON body.

    JSON booleans satisfy ``isinstance(value, int)`` in Python
    (``True == 1``), so a naive integer check silently accepts ``true``
    as ``1``.  Every optional numeric field in the service routes through
    here so that hole is closed in one place.

    Returns ``None`` when the field is absent or ``null``.

    Raises:
        ServiceError: 400 ``bad-request`` for booleans, non-integers, and
            non-positive values.
    """
    value = body.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ServiceError(
            f"{field!r} must be a positive integer", code="bad-request"
        )
    return value


def bool_field(body: Dict[str, Any], field: str) -> bool:
    """The optional boolean field ``field`` of a JSON body.

    Only JSON ``true`` and ``false`` are accepted: taking the truth value
    of whatever was sent would read the string ``"false"`` as true.

    Returns ``False`` when the field is absent or ``null``.

    Raises:
        ServiceError: 400 ``bad-request`` for any other value.
    """
    value = body.get(field)
    if value is None:
        return False
    if not isinstance(value, bool):
        raise ServiceError(f"{field!r} must be a boolean", code="bad-request")
    return value


def ok_envelope(
    command: str,
    result: Any,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A success envelope for ``command`` carrying ``result``."""
    return {
        "version": ENVELOPE_VERSION,
        "ok": True,
        "command": command,
        "result": result,
        "error": None,
        "meta": meta or {},
    }


def error_envelope(
    command: str,
    error: ServiceError,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """An error envelope for ``command`` describing ``error``."""
    return {
        "version": ENVELOPE_VERSION,
        "ok": False,
        "command": command,
        "result": None,
        "error": error.to_error(),
        "meta": meta or {},
    }


def as_service_error(exc: BaseException) -> ServiceError:
    """Map an arbitrary exception to the :class:`ServiceError` it renders as.

    Parse-layer failures (lexer, schema, DTD, XML, query, data syntax —
    ``ValueError`` subclasses or builtin ``SyntaxError`` in this package)
    become 400 ``parse-error``; anything else is a 500 ``internal``.
    """
    if isinstance(exc, ServiceError):
        return exc
    if isinstance(exc, (ValueError, SyntaxError)):
        return ServiceError(str(exc), code="parse-error", status=400)
    return ServiceError(
        f"{type(exc).__name__}: {exc}", code="internal", status=500
    )
