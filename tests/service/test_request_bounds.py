"""Bounds every request keeps: the witness search and the listen backlog.

* ``witness: true`` used to run ``find_witness`` on the connection
  thread, outside the deadline runner: with the verdict memoized, a
  request with a 0.2-s deadline answered 200 after 1.5 s and
  ``timeouts`` stayed 0.  The search now runs on the runner with what is
  left of the request's deadline, and does not start when nothing is.
* The threaded tier listened with socketserver's backlog of 5, so a
  burst of connects that arrived before the accept loop reached them
  was dropped; both tiers now listen with ``socket.SOMAXCONN``.
"""

import socket
import threading

import pytest

from repro.service import (
    ServiceClient,
    ServiceLimits,
    ServiceResponseError,
    TypedQueryService,
)
from repro.service.limits import DeadlineExceeded, DeadlineRunner

SCHEMA = "ROOT = [(a -> ROOT | b -> ROOT)*]"


def blow_up_query(n: int) -> str:
    """``(a|b)*.a.(a|b)^n``: its path determinizes to 2^n states."""
    return "SELECT X WHERE ROOT = [(a|b)*.a" + ".(a|b)" * n + " -> X]"


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
