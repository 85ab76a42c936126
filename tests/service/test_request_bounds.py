"""Bounds every request keeps: the witness search, the listen backlog and
the connection timeout.

* ``witness: true`` used to run ``find_witness`` on the connection
  thread, outside the deadline runner: with the verdict memoized, a
  request with a 0.2-s deadline answered 200 after 1.5 s and
  ``timeouts`` stayed 0.  The search now runs on the runner with what is
  left of the request's deadline, and does not start when nothing is.
* The threaded tier listened with socketserver's backlog of 5, so a
  burst of connects that arrived before the accept loop reached them
  was dropped; it now listens with ``socket.SOMAXCONN``.
* No socket timeout was set, so a peer that sent half a request head,
  or a head whose body never came, or an idle keep-alive connection,
  held its server thread for as long as the peer kept the socket open.
  A read or write that waits ``CONNECTION_TIMEOUT_S`` now closes the
  connection.
"""

import socket
import threading
import time

import pytest

from repro.service import (
    ServiceClient,
    ServiceLimits,
    ServiceResponseError,
    TypedQueryService,
    daemon,
)
from repro.service.limits import DeadlineExceeded, DeadlineRunner

SCHEMA = "ROOT = [(a -> ROOT | b -> ROOT)*]"


def blow_up_query(n: int) -> str:
    """``(a|b)*.a.(a|b)^n``: its path determinizes to 2^n states."""
    return "SELECT X WHERE ROOT = [(a|b)*.a" + ".(a|b)" * n + " -> X]"


@pytest.mark.usefixtures("frozen_heap")
class TestWitnessDeadline:
    def test_witness_search_times_out_at_the_request_deadline(self):
        limits = ServiceLimits(max_slots=1, slot_wait_s=0.05)
        with TypedQueryService(port=0, limits=limits) as svc, ServiceClient(
            svc.host, svc.port
        ) as client:
            fp = client.register_schema(SCHEMA)["fingerprint"]
            query = blow_up_query(12)
            assert client.satisfiable(fp, query)["satisfiable"]  # memoize the verdict
            with pytest.raises(ServiceResponseError) as excinfo:
                client.satisfiable(fp, query, witness=True, deadline=0.2)
            assert excinfo.value.status == 503
            assert excinfo.value.code == "timeout"
            assert excinfo.value.error["detail"]["deadline_s"] == 0.2
            assert excinfo.value.envelope["meta"]["elapsed_ms"] < 250
            assert client.stats()["limits"]["timeouts"] == 1
            # The search gave its one slot back with the 503, and with
            # time to spare the route still builds a witness.
            assert client.satisfiable(fp, blow_up_query(1), witness=True)["witness"]

    def test_a_call_with_no_time_left_starts_nothing(self):
        runner = DeadlineRunner(ServiceLimits(max_slots=1))
        started = threading.Event()
        with pytest.raises(DeadlineExceeded):
            runner.call(started.set, 0.0)
        assert not started.wait(0.5)
        assert runner.stats() == {"timeouts": 1, "max_slots": 1}


class TestListenBacklog:
    def test_a_burst_of_connects_waits_for_the_accept_loop(self):
        service = TypedQueryService(port=0)  # bound and listening, never started
        connections = []
        try:
            for _ in range(32):
                connections.append(
                    socket.create_connection((service.host, service.port), timeout=1)
                )
        finally:
            for connection in connections:
                connection.close()
            # No serve loop ran, so there is none to stop: close the listener.
            service._httpd.server_close()
        assert len(connections) == 32


def connection_threads() -> int:
    """Server threads currently serving a connection, in this process."""
    return sum(
        "process_request_thread" in thread.name for thread in threading.enumerate()
    )


class TestConnectionTimeout:
    @pytest.fixture
    def service(self, monkeypatch):
        monkeypatch.setattr(daemon, "CONNECTION_TIMEOUT_S", 0.5)
        with TypedQueryService(port=0) as svc:
            yield svc

    def assert_released(self, service, sends: list) -> None:
        """Each connection sends its bytes and then sees the server close it.

        The client's own 5-s timeout is the failure: without a server-side
        timeout the server waits on these sockets for as long as they stay
        open, and ``recv`` raises instead of reading end of stream.
        """
        baseline = connection_threads()
        sockets = []
        try:
            for sent in sends:
                sock = socket.create_connection((service.host, service.port), timeout=5)
                sockets.append(sock)
                sock.sendall(sent)
            for sock in sockets:
                while sock.recv(65536):
                    pass  # a response to a whole request, then end of stream
        finally:
            for sock in sockets:
                sock.close()
        deadline = time.monotonic() + 5
        while connection_threads() > baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert connection_threads() <= baseline
        # The server still answers a request on a fresh connection.
        with ServiceClient(service.host, service.port) as client:
            assert client.healthz()["status"] == "ok"

    def test_half_open_heads_are_released(self, service):
        half_head = b"POST /satisfiable HTTP/1.1\r\nHost: x\r\n"
        self.assert_released(service, [half_head] * 20)

    def test_a_body_that_never_arrives_is_released(self, service):
        head = b"POST /satisfiable HTTP/1.1\r\nHost: x\r\nContent-Length: 64\r\n\r\n{"
        self.assert_released(service, [head])

    def test_an_idle_keep_alive_connection_is_released(self, service):
        self.assert_released(service, [b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"])

    def test_a_released_connection_counts_no_request(self, service):
        """Closing on the timeout is a hang-up, not a refusal: the half
        request is neither dispatched nor recorded in the metrics."""
        half_head = b"POST /satisfiable HTTP/1.1\r\nHost: x\r\n"
        self.assert_released(service, [half_head])
        with ServiceClient(service.host, service.port) as client:
            endpoints = client.stats()["service"]["endpoints"]
        # Only the health check that proved the server still answers.
        assert {route: row["requests"] for route, row in endpoints.items()} == {
            "GET /healthz": 1
        }
