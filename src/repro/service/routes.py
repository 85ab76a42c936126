"""The routes the daemon dispatches, and the metrics keys it records.

:func:`resolve` maps a request's method and path to a :class:`Route`:
its template — ``POST /satisfiable``, ``DELETE /schemas/{fp}`` — and,
for the per-schema routes, the fingerprint taken from the path.  The
daemon dispatches on the template and records its metrics under it, so
what a request is counted as cannot drift from where it was sent, and
the per-endpoint table stays bounded however many distinct paths
clients send: every request that matches no route resolves to
:data:`UNMATCHED`, answered by :func:`unmatched_error`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .envelope import ServiceError

#: Routes on a fixed path, as ``METHOD /path``.  Each POST route but
#: ``POST /schemas`` takes a JSON body naming a registered fingerprint.
FIXED_ROUTES = frozenset((
    "GET /healthz",
    "GET /stats",
    "GET /schemas",
    "POST /schemas",
    "POST /satisfiable",
    "POST /check",
    "POST /infer",
    "POST /feedback",
    "POST /classify",
    "POST /validate",
    "POST /evaluate",
    "POST /batch",
))

#: Routes on one registered schema; ``{fp}`` is its fingerprint.
DELETE_SCHEMA = "DELETE /schemas/{fp}"
SCHEMA_HISTORY = "GET /schemas/{fp}/history"
SCHEMA_MIGRATE = "POST /schemas/{fp}/migrate"

_SCHEMA_ACTIONS = {
    ("DELETE", ""): DELETE_SCHEMA,
    ("GET", "history"): SCHEMA_HISTORY,
    ("POST", "migrate"): SCHEMA_MIGRATE,
}

#: The template of every request that matches no route.
UNMATCHED = "unmatched"

_METHODS = ("GET", "POST", "DELETE")


class Route(NamedTuple):
    """A resolved request: its route template and path fingerprint."""

    template: str
    fingerprint: Optional[str] = None


def request_path(target: str) -> str:
    """A request target's path: no query string, no trailing slash."""
    return target.split("?", 1)[0].rstrip("/") or "/"


def resolve(method: str, path: str) -> Route:
    """The route a request to ``path`` (see :func:`request_path`) takes."""
    command = f"{method} {path}"
    if command in FIXED_ROUTES:
        return Route(command)
    if path.startswith("/schemas/"):
        fingerprint, _, action = path[len("/schemas/"):].partition("/")
        template = _SCHEMA_ACTIONS.get((method, action))
        if fingerprint and template is not None:
            return Route(template, fingerprint)
    return Route(UNMATCHED)


def unmatched_error(method: str, path: str) -> ServiceError:
    """The 405 (path routed for another method) or 404 for a request."""
    allowed = [m for m in _METHODS if resolve(m, path).template != UNMATCHED]
    if allowed:
        return ServiceError(
            f"{path} only supports {' or '.join(allowed)}",
            code="method-not-allowed",
            status=405,
        )
    return ServiceError(f"no such endpoint: {path}", code="not-found", status=404)
