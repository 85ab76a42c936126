"""The typed-query daemon: the paper's decision problems over HTTP/JSON.

Stdlib only.  :class:`ServiceState` is the transport-independent core —
``handle(method, path, body)`` maps a request to ``(status, envelope)``
— and :class:`TypedQueryService` serves it from a
``socketserver.ThreadingTCPServer`` (one daemon thread per connection,
so a hung computation never blocks ``/healthz``) whose handler runs a
keep-alive loop over the HTTP/1.1 framing of :mod:`repro.service.framing`:
request lines are read off a buffered socket file, and each response
goes out in one send.

Endpoints (all bodies and responses are JSON envelopes, see
``docs/service.md`` for the full reference):

====================  =====================================================
``POST /schemas``     register ScmDL/DTD text; returns the fingerprint
                      handle and pre-warms the schema's engine
``GET /schemas``      list resident schemas
``DELETE /schemas/F`` unregister fingerprint ``F`` (registry entry and
                      stored artifact)
``POST /schemas/F/migrate``  analyze a candidate schema against ``F``'s
                      registered queries-of-record and atomically swap
                      the entry when the report meets ``policy``
``GET /schemas/F/history``   the entry's bounded version chain
``POST /satisfiable`` Section 3.1 type correctness
``POST /check``       Section 3.2/3.3 partial (or total) type checking
``POST /infer``       Section 3.3 type inference
``POST /feedback``    Section 4.1 feedback query
``POST /classify``    Table-2 complexity cell
``POST /validate``    Definition 2.1 conformance of a data graph
``POST /evaluate``    Definition 2.3 query evaluation on a data graph
``POST /batch``       one operation over many items under one
                      fingerprint, decided in order over the schema's
                      engine (see :mod:`repro.batch`)
``GET /healthz``      liveness (never touches the registry lock)
``GET /stats``        service metrics + registry + engine cache counters
====================  =====================================================

Every decision endpoint accepts a registered ``fingerprint`` plus the
query/data payload and an optional per-request ``deadline`` in seconds;
the computation runs on the connection thread and unwinds at its first
poll point past the deadline, answering a structured 503 ``timeout``
envelope (see :mod:`repro.service.limits`).  ``/satisfiable``,
``/check``, ``/infer``, ``/classify`` and ``/validate`` hand their body
to the ``/batch`` operation table (:func:`repro.batch.plan.run_item`)
as one item, so a request and the same batch item get one answer.
Requests are dispatched on, and their metrics keyed by, the route
template :func:`repro.service.routes.resolve` gives
(``DELETE /schemas/{fp}``), never the raw path.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

# The operation table, bound once at import: an import statement per
# call costs microseconds on the memo-hit path.  ``from ..batch import
# plan`` and not ``from ..batch.plan import run_item``: plan imports
# repro.service.envelope, so when repro.batch is imported first this
# module runs while plan is still initializing, and only the module
# object can be bound then.
from ..batch import plan
from ..data import data_to_string
from ..query import evaluate, query_to_string
from ..schema import find_type_assignment
from ..typing import WitnessError, find_witness

# perfbench/launcher.py rebinds these names in this module to time them;
# the decisions themselves run through repro.batch.plan's bindings.
from ..data import parse_data  # noqa: F401
from ..query import parse_query  # noqa: F401
from ..typing import check_total_types, check_types, is_satisfiable  # noqa: F401
from ..typing.inference import iterate_inferred_types  # noqa: F401
from .envelope import (
    ServiceError,
    as_service_error,
    bool_field,
    error_envelope,
    ok_envelope,
    positive_int_field,
)
from .framing import (
    CONTINUE,
    LISTEN_BACKLOG,
    MAX_LINE_BYTES,
    ConnectionClosed,
    RequestHead,
    encode,
)
from .limits import DeadlineExceeded, DeadlineRunner, ServiceLimits
from .metrics import ServiceMetrics
from .registry import RegisteredSchema, SchemaRegistry
from .routes import (
    DELETE_SCHEMA,
    SCHEMA_HISTORY,
    SCHEMA_MIGRATE,
    UNMATCHED,
    Route,
    request_path,
    resolve,
    unmatched_error,
)


class ServiceState:
    """Registry + limits + metrics, and the endpoint dispatch over them."""

    def __init__(
        self,
        registry: Optional[SchemaRegistry] = None,
        limits: Optional[ServiceLimits] = None,
        metrics: Optional[ServiceMetrics] = None,
    ):
        self.registry = registry if registry is not None else SchemaRegistry()
        self.limits = limits if limits is not None else ServiceLimits()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.runner = DeadlineRunner(self.limits)
        self.metrics.mark_started(time.time())

    # ------------------------------------------------------------------
    # Transport-independent dispatch
    # ------------------------------------------------------------------

    def handle(self, method: str, path: str, body: bytes) -> Tuple[int, dict]:
        """One request in, ``(http_status, envelope)`` out.

        Never raises: every failure is rendered as an error envelope.
        Also records the request in the service metrics.
        """
        path = request_path(path)
        route = resolve(method, path)
        command = f"{method} {path}"
        started = time.perf_counter()
        try:
            if route.template == UNMATCHED:
                raise unmatched_error(method, path)
            status, envelope = self._dispatch(route, command, body)
        except ServiceError as error:
            status, envelope = error.status, error_envelope(command, error)
        except Exception as error:  # noqa: BLE001 — daemon must not die
            mapped = as_service_error(error)
            status, envelope = mapped.status, error_envelope(command, mapped)
        elapsed = time.perf_counter() - started
        envelope.setdefault("meta", {})["elapsed_ms"] = round(elapsed * 1000.0, 3)
        self.metrics.observe(route.template, status, elapsed)
        return status, envelope

    def _dispatch(self, route: Route, command: str, body: bytes) -> Tuple[int, dict]:
        template, fingerprint = route
        if template == "GET /healthz":
            return 200, ok_envelope(command, self.healthz_payload())
        if template == "GET /stats":
            return 200, ok_envelope(command, self.stats_payload())
        if template == "GET /schemas":
            return 200, ok_envelope(
                command,
                {"schemas": [entry.describe() for entry in self.registry.entries()]},
            )
        if template == SCHEMA_MIGRATE:
            payload = self._decode_body(body)
            return 200, ok_envelope(command, self.do_migrate(fingerprint, payload))
        if template == SCHEMA_HISTORY:
            entry = self.registry.get(fingerprint)
            return 200, ok_envelope(command, entry.describe_history())
        if template == DELETE_SCHEMA:
            if not self.registry.evict(fingerprint, purge_store=True):
                raise ServiceError(
                    f"fingerprint {fingerprint!r} is not registered",
                    code="unknown-schema",
                    status=404,
                )
            return 200, ok_envelope(command, {"evicted": fingerprint})
        # A POST route on a fixed path: "POST /infer" -> do_infer.
        handler: Callable[[Dict[str, Any]], dict] = getattr(
            self, "do_" + template[len("POST /"):]
        )
        return 200, ok_envelope(command, handler(self._decode_body(body)))

    def _decode_body(self, body: bytes) -> Dict[str, Any]:
        self.limits.check_body_size(len(body))
        if not body:
            raise ServiceError("request body must be a JSON object", code="bad-request")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(
                f"request body is not valid JSON: {error}", code="bad-request"
            ) from None
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object", code="bad-request")
        return payload

    # ------------------------------------------------------------------
    # Shared request plumbing
    # ------------------------------------------------------------------

    def _entry(self, body: Dict[str, Any]) -> RegisteredSchema:
        return self.registry.get(body.get("fingerprint"))

    def _deadline(self, body: Dict[str, Any]) -> float:
        return self.limits.clamp_deadline(body.get("deadline"))

    def _deadlined(self, body: Dict[str, Any], fn: Callable[[], Any]) -> Any:
        return self.runner.call(fn, self._deadline(body))

    def _decide(
        self,
        operation: str,
        entry: RegisteredSchema,
        body: Dict[str, Any],
        deadline: float,
        key: Optional[tuple] = None,
    ) -> dict:
        """``body`` decided by the batch table's ``operation`` handler.

        It runs under the deadline runner over the entry's engine and,
        given a ``key``, through the entry's decision memo: the result is
        a pure function of the key's fields, and the entry is immutable
        for the fingerprint's lifetime, so a repeated warm request is one
        dict lookup instead of a walk re-entering the engine cache
        hundreds of times.  A hit returns a copy.
        """

        def run() -> dict:
            return self.runner.call(
                lambda: plan.run_item(operation, entry.schema, entry.engine, body),
                deadline,
            )

        result = run() if key is None else dict(entry.cached_decision(key, run))
        result["fingerprint"] = entry.fingerprint
        return result

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def do_schemas(self, body: Dict[str, Any]) -> dict:
        text = plan.string_field(body, "schema")
        syntax = body.get("syntax", "scmdl")
        if not isinstance(syntax, str):
            raise ServiceError("'syntax' must be a string", code="bad-request")
        wrap = bool_field(body, "wrap")
        entry = self._deadlined(
            body, lambda: self.registry.register(text, syntax=syntax, wrap=wrap)
        )
        description = entry.describe()
        description["resident"] = len(self.registry)
        return description

    def do_satisfiable(self, body: Dict[str, Any]) -> dict:
        entry = self._entry(body)
        # The key's fields, the witness flag and the deadline are checked
        # even when the memo will answer: request validation must not
        # depend on what earlier requests cached, or on the verdict.
        key = plan.decision_key("satisfiable", body)
        witness = bool_field(body, "witness")
        deadline = self._deadline(body)
        expires = time.monotonic() + deadline
        result = self._decide("satisfiable", entry, body, deadline, key)
        if witness and result["satisfiable"]:

            def search() -> dict:
                query = plan.query_field(body)
                try:
                    found = find_witness(query, entry.schema, entry.engine)
                except WitnessError as error:
                    return {"witness": None, "witness_error": str(error)}
                return {"witness": data_to_string(found) if found else None}

            # The search gets what is left of the request's deadline.
            try:
                result.update(self.runner.call(search, expires - time.monotonic()))
            except DeadlineExceeded:
                raise DeadlineExceeded(deadline) from None
        return result

    def do_check(self, body: Dict[str, Any]) -> dict:
        return self._decide("check", self._entry(body), body, self._deadline(body))

    def do_infer(self, body: Dict[str, Any]) -> dict:
        entry = self._entry(body)
        # Inference enumerates |select| x |domain| satisfiability calls,
        # so its memo saves far more than one walk.
        key = plan.decision_key("infer", body)
        return self._decide("infer", entry, body, self._deadline(body), key)

    def do_feedback(self, body: Dict[str, Any]) -> dict:
        from ..apps import UnsatisfiableQueryError, feedback_query

        entry = self._entry(body)

        def run() -> dict:
            query = plan.query_field(body)
            try:
                tightened = feedback_query(query, entry.schema, entry.engine)
            except UnsatisfiableQueryError as error:
                return {"satisfiable": False, "query": None, "reason": str(error)}
            except ValueError as error:
                raise ServiceError(str(error), code="unsupported", status=422) from None
            return {"satisfiable": True, "query": query_to_string(tightened)}

        result = self._deadlined(body, run)
        result["fingerprint"] = entry.fingerprint
        return result

    def do_classify(self, body: Dict[str, Any]) -> dict:
        return self._decide("classify", self._entry(body), body, self._deadline(body))

    def do_validate(self, body: Dict[str, Any]) -> dict:
        return self._decide("conforms", self._entry(body), body, self._deadline(body))

    def do_evaluate(self, body: Dict[str, Any]) -> dict:
        entry = None
        if body.get("fingerprint") is not None:
            entry = self._entry(body)

        def run() -> dict:
            # Decoded under the deadline, like the table's operations: a
            # graph near the body cap takes seconds to parse.
            query = plan.query_field(body)
            graph = plan.graph_field(body)
            limit = positive_int_field(body, "limit")
            engine = entry.engine if entry is not None else None
            result: Dict[str, Any] = {
                "bindings": evaluate(query, graph, limit=limit, engine=engine),
            }
            if entry is not None:
                result["conforms"] = (
                    find_type_assignment(graph, entry.schema, entry.engine) is not None
                )
                result["fingerprint"] = entry.fingerprint
            return result

        result = self._deadlined(body, run)
        result["count"] = len(result["bindings"])
        return result

    def do_batch(self, body: Dict[str, Any]) -> dict:
        # Looked up per call: perfbench/launcher.py times /batch by
        # rebinding repro.batch.run_items_shared.
        from ..batch import run_items_shared

        entry = self._entry(body)
        operation = plan.string_field(body, "operation")
        if operation not in plan.OPERATIONS:
            raise ServiceError(
                f"unknown batch operation {operation!r} "
                f"(expected one of {', '.join(plan.OPERATIONS)})",
                code="bad-request",
            )
        items = body.get("items")
        if not isinstance(items, list) or not items:
            raise ServiceError(
                "'items' must be a non-empty JSON array", code="bad-request"
            )
        if len(items) > self.limits.max_batch_items:
            raise ServiceError(
                f"batch of {len(items)} items exceeds the "
                f"{self.limits.max_batch_items}-item cap",
                code="payload-too-large",
                status=413,
                detail={"items": len(items), "limit": self.limits.max_batch_items},
            )
        started = time.perf_counter()
        # The whole batch runs under ONE deadline and occupies ONE
        # computation slot; its items are decided in order on this
        # connection thread over the registry entry's engine.
        results = self._deadlined(
            body,
            lambda: run_items_shared(operation, entry.schema, entry.engine, items),
        )
        elapsed = time.perf_counter() - started
        summary = plan.summarize(operation, "sequential", results, elapsed)
        self.metrics.record_batch(len(results), summary["errors"], elapsed)
        return {
            "results": results,
            "summary": summary,
            "fingerprint": entry.fingerprint,
        }

    def do_migrate(self, fingerprint: str, body: Dict[str, Any]) -> dict:
        """Analyze (and, when the policy accepts, apply) a migration.

        Always answers 200 with ``accepted`` plus the full compatibility
        report — a rejected migration is a successful *analysis*, and the
        caller needs the structured report either way.
        """
        from ..schema.migrate import POLICIES

        text = plan.string_field(body, "schema")
        syntax = body.get("syntax", "scmdl")
        if not isinstance(syntax, str):
            raise ServiceError("'syntax' must be a string", code="bad-request")
        wrap = bool_field(body, "wrap")
        policy = body.get("policy", "compatible")
        if policy not in POLICIES:
            raise ServiceError(
                f"unknown policy {policy!r} "
                f"(expected one of {', '.join(POLICIES)})",
                code="bad-request",
            )
        queries = body.get("queries") or []
        if not isinstance(queries, list) or not all(
            isinstance(query, str) for query in queries
        ):
            raise ServiceError(
                "'queries' must be a JSON array of query strings",
                code="bad-request",
            )
        entry, report = self._deadlined(
            body,
            lambda: self.registry.migrate(
                fingerprint,
                text,
                syntax=syntax,
                wrap=wrap,
                queries=tuple(queries),
                policy=policy,
            ),
        )
        self.metrics.record_migration(
            len(report.queries), report.counts.get("breaks", 0)
        )
        return {
            "accepted": report.accepted,
            "fingerprint": fingerprint,
            "new_fingerprint": entry.fingerprint,
            "version": entry.version,
            "compatibility": report.compatibility,
            "report": report.to_dict(),
            "resident": len(self.registry),
        }

    # ------------------------------------------------------------------
    # Introspection payloads
    # ------------------------------------------------------------------

    def healthz_payload(self) -> dict:
        started = self.metrics.started_at()
        return {
            "status": "ok",
            "uptime_s": round(time.time() - started, 3) if started else 0.0,
            "resident_schemas": len(self.registry),
        }

    def stats_payload(self) -> dict:
        """Service metrics merged with registry + engine cache counters."""
        return {
            "service": self.metrics.snapshot(),
            "limits": self.runner.stats(),
            "registry": self.registry.stats(),
        }


#: Seconds one socket read or write may wait before the connection is
#: closed: an idle keep-alive peer, a head or body that stops arriving,
#: or a client that stops reading its response.  The computation itself
#: runs between reads and is bounded by the request deadline instead.
CONNECTION_TIMEOUT_S = 30.0


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a keep-alive loop over :meth:`ServiceState.handle`.

    Framing is :class:`~repro.service.framing.RequestHead`'s; this loop
    only reads lines and bodies off the buffered socket file and sends
    each response in one ``sendall``.  A peer that hangs up mid-request,
    or leaves a read or write waiting :data:`CONNECTION_TIMEOUT_S`, ends
    the loop quietly: no dispatch, no metrics, no traceback.
    """

    #: Responses are one small write after a tiny request; with Nagle on,
    #: every keep-alive roundtrip eats a ~40ms delayed-ACK stall.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        # Read per connection, so a test can shorten it; the base class
        # puts it on the socket, and a wait past it raises TimeoutError.
        self.timeout = CONNECTION_TIMEOUT_S
        super().setup()

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except (ConnectionClosed, OSError):
            pass  # the peer went away; there is no one left to answer

    def _serve_one(self) -> bool:
        """Answer one request; False once the connection must close."""
        state: ServiceState = self.server.state  # type: ignore[attr-defined]
        readline = self.rfile.readline
        head = RequestHead()
        try:
            while not head.feed(readline(MAX_LINE_BYTES + 1)):
                pass
            head.frame(state.limits)
        except ServiceError as error:
            self.connection.sendall(head.reject(error, state.metrics))
            self._log(head, error.status)
            return False
        length = head.body_length
        if head.expect_continue:
            self.connection.sendall(CONTINUE)
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            return False  # the peer closed mid-body
        status, envelope = state.handle(head.method, head.target, body)
        self.connection.sendall(head.response(status, encode(envelope)))
        self._log(head, status)
        return head.keep_alive

    def _log(self, head: RequestHead, status: int) -> None:
        if self.server.verbose:  # type: ignore[attr-defined]
            sys.stderr.write(
                f"{self.client_address[0]} - - [{time.strftime('%d/%b/%Y %H:%M:%S')}] "
                f'"{head.method} {head.target} {head.version}" {status} -\n'
            )


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = LISTEN_BACKLOG

    def __init__(self, address: Tuple[str, int], state: ServiceState, verbose: bool):
        self.state = state
        self.verbose = verbose
        super().__init__(address, _Handler)


class TypedQueryService:
    """The long-running server: a thread-per-connection TCP server over one state.

    Usable three ways: :meth:`serve_forever` (blocking, the CLI path),
    :meth:`start` / :meth:`shutdown` (background thread, the test and
    benchmark path), or as a context manager wrapping the latter.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[SchemaRegistry] = None,
        limits: Optional[ServiceLimits] = None,
        verbose: bool = False,
    ):
        self.state = ServiceState(registry=registry, limits=limits)
        self._httpd = _ThreadingServer((host, port), self.state, verbose)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._httpd.server_close()

    def start(self) -> "TypedQueryService":
        """Serve on a background daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
            name="repro-service",
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TypedQueryService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


def serve(
    host: str = "127.0.0.1",
    port: int = 8421,
    registry: Optional[SchemaRegistry] = None,
    limits: Optional[ServiceLimits] = None,
    verbose: bool = False,
) -> None:
    """Blocking entry point used by ``repro serve``."""
    service = TypedQueryService(
        host=host, port=port, registry=registry, limits=limits, verbose=verbose
    )
    print(f"typed-query service listening on {service.address}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
