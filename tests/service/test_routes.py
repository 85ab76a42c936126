"""Unit tests for `repro.service.routes`: one resolver for dispatch and keys.

The daemon dispatches on :func:`~repro.service.routes.resolve` and
records metrics under its template, so the per-endpoint table holds one
entry per route however many distinct paths clients send, and a request
is never counted as one route while being sent to another.
"""

import pytest

from repro.service.daemon import ServiceState
from repro.service.routes import (
    UNMATCHED,
    Route,
    request_path,
    resolve,
    unmatched_error,
)


class TestResolve:
    @pytest.mark.parametrize(
        "method, target, route",
        [
            ("POST", "/satisfiable", Route("POST /satisfiable")),
            ("POST", "/satisfiable/?x=1", Route("POST /satisfiable")),
            ("GET", "/schemas", Route("GET /schemas")),
            ("POST", "/schemas/", Route("POST /schemas")),
            ("DELETE", "/schemas/abc123", Route("DELETE /schemas/{fp}", "abc123")),
            (
                "GET",
                "/schemas/abc123/history",
                Route("GET /schemas/{fp}/history", "abc123"),
            ),
            (
                "POST",
                "/schemas/abc123/migrate",
                Route("POST /schemas/{fp}/migrate", "abc123"),
            ),
            ("GET", "/nosuch", Route(UNMATCHED)),
            ("GET", "/schemas/abc123", Route(UNMATCHED)),
            ("POST", "/healthz", Route(UNMATCHED)),
            ("FROB", "/stats", Route(UNMATCHED)),
            ("GET", "/schemas//history", Route(UNMATCHED)),
            ("POST", "/schemas/a/b/migrate", Route(UNMATCHED)),
            ("DELETE", "/schemas/a/b", Route(UNMATCHED)),
        ],
    )
    def test_resolve(self, method, target, route):
        assert resolve(method, request_path(target)) == route

    @pytest.mark.parametrize(
        "method, path, status, message",
        [
            ("POST", "/healthz", 405, "/healthz only supports GET"),
            ("DELETE", "/schemas", 405, "/schemas only supports GET or POST"),
            ("GET", "/schemas/abc", 405, "/schemas/abc only supports DELETE"),
            ("GET", "/nosuch", 404, "no such endpoint: /nosuch"),
            ("POST", "/schemas/a/b/migrate", 404, "no such endpoint"),
        ],
    )
    def test_unmatched_error(self, method, path, status, message):
        error = unmatched_error(method, path)
        assert error.status == status
        assert message in str(error)


class TestThreadedDispatch:
    def test_state_table_stays_bounded(self):
        """5,000 unknown GETs and 5,000 DELETEs used to leave 10,000
        entries (and a multi-megabyte ``/stats``); now they share keys."""
        state = ServiceState()
        for index in range(300):
            state.handle("GET", f"/unknown/{index}", b"")
            state.handle("DELETE", f"/schemas/{index:040x}", b"")
            state.handle("GET", f"/schemas/{index:040x}/history", b"")
        endpoints = state.metrics.snapshot()["endpoints"]
        assert sorted(endpoints) == [
            "DELETE /schemas/{fp}",
            "GET /schemas/{fp}/history",
            UNMATCHED,
        ]
        assert endpoints[UNMATCHED]["requests"] == 300
        assert endpoints["DELETE /schemas/{fp}"]["by_status"] == {"404": 300}

    def test_envelope_command_keeps_the_raw_path(self):
        status, envelope = ServiceState().handle("DELETE", "/schemas/abc", b"")
        assert status == 404
        assert envelope["command"] == "DELETE /schemas/abc"

    def test_unmatched_path_is_not_dispatched(self):
        """``/schemas/a/b/migrate`` was sent to the migrate handler with
        fingerprint ``a/b`` while being counted as unmatched."""
        state = ServiceState()
        status, envelope = state.handle("POST", "/schemas/a/b/migrate", b"{}")
        assert status == 404
        assert envelope["error"]["code"] == "not-found"
        assert list(state.metrics.snapshot()["endpoints"]) == [UNMATCHED]
