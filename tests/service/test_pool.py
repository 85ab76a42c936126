"""Tests for the multi-process serving tier (``repro serve --workers N``).

Covers the pool's contract:

* endpoint parity with the threaded tier (same envelopes, same errors),
* fingerprint-sticky routing with merged ``/stats`` observability,
* frontend-local validation (covered for both tiers by the shared
  framing suite in ``test_content_length.py``), and
* the crash story: a worker SIGKILLed idle or mid-request yields a
  structured 503 ``worker-crashed`` for the affected request, the worker
  is respawned, and — because respawned workers warm their shard from
  the artifact store — the next request on the same fingerprint
  succeeds without re-registering anything.
"""

import os
import signal
import threading
import time

import pytest

from repro.service import PoolService, ServiceClient, WorkerCrashed
from repro.service.pool import shard_of

SCHEMA = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE . (author -> AUTHOR)*];
AUTHOR = [name -> NAME]; NAME = string; TITLE = string
"""
QUERY = "SELECT X WHERE Root = [paper -> X]"
WORKERS = 2


@pytest.fixture(scope="module")
def service():
    # One pool for the whole module: spawning workers costs seconds.
    with PoolService(workers=WORKERS) as svc:
        yield svc


@pytest.fixture(scope="module")
def client(service):
    with ServiceClient(service.host, service.port) as cli:
        yield cli


@pytest.fixture(scope="module")
def fingerprint(client):
    return client.register_schema(SCHEMA)["fingerprint"]


class TestShardRouting:
    def test_shard_of_is_deterministic_and_in_range(self):
        for fp in ("a", "b" * 40, "0123abcd"):
            index = shard_of(fp, 4)
            assert 0 <= index < 4
            assert shard_of(fp, 4) == index

    def test_shard_of_is_hashseed_independent(self):
        # CRC32 is stable across processes; hash() is not.  A fixed
        # expectation pins the cross-process agreement the pool needs.
        import zlib

        assert shard_of("fp", 8) == zlib.crc32(b"fp") % 8


class TestEndpointParity:
    def test_healthz_reports_pool_mode(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["mode"] == "pool"
        assert payload["workers"] == WORKERS
        assert payload["alive"] == WORKERS

    def test_decisions_round_trip(self, client, fingerprint):
        result = client.satisfiable(fingerprint, QUERY)
        assert result == {"satisfiable": True, "fingerprint": fingerprint}
        inferred = client.infer(fingerprint, QUERY)
        assert inferred["count"] >= 1
        assert inferred["fingerprint"] == fingerprint

    def test_list_schemas_merges_all_workers(self, client, fingerprint):
        schemas = client.list_schemas()["schemas"]
        assert fingerprint in [entry["fingerprint"] for entry in schemas]

    def test_stats_merges_workers_and_keeps_engine_counters(
        self, client, fingerprint
    ):
        client.satisfiable(fingerprint, QUERY)
        stats = client.stats()
        pool = stats["pool"]
        assert pool["workers"] == WORKERS
        assert len(pool["per_worker"]) == WORKERS
        assert all(row["alive"] for row in pool["per_worker"])
        # The threaded tier's registry/engine shape survives the merge —
        # benchmarks and dashboards read the same keys in both modes.
        assert stats["registry"]["resident"] >= 1
        assert fingerprint in stats["registry"]["engines"]

    def test_unknown_fingerprint_is_404(self, client):
        status, envelope = client.request(
            "POST", "/satisfiable", {"fingerprint": "nope", "query": QUERY}
        )
        assert status == 404
        assert envelope["error"]["code"] == "unknown-schema"

    def test_unknown_endpoint_is_404(self, client):
        status, envelope = client.request("POST", "/nosuch", {"x": 1})
        assert status == 404
        assert envelope["error"]["code"] == "not-found"

    def test_wrong_method_is_405(self, client):
        status, envelope = client.request("POST", "/healthz", {"x": 1})
        assert status == 405
        assert envelope["error"]["code"] == "method-not-allowed"


class TestWorkerCrash:
    """ISSUE satellite: kill a worker and watch the pool heal itself."""

    def test_killed_idle_worker_yields_503_then_warm_recovery(
        self, service, client, fingerprint
    ):
        owner = service.pool.route(fingerprint)
        victim = service.pool.workers[owner].process
        victim_pid = service.pool.workers[owner].pid
        client.satisfiable(fingerprint, QUERY)  # ensure the shard is warm

        os.kill(victim_pid, signal.SIGKILL)
        _wait_for_death(victim)

        status, envelope = client.request(
            "POST", "/satisfiable", {"fingerprint": fingerprint, "query": QUERY}
        )
        assert status == 503
        assert envelope["error"]["code"] == "worker-crashed"

        # The frontend respawned the worker under the shard lock; the
        # replacement restored the fingerprint from the artifact store,
        # so the retry succeeds WITHOUT re-registering the schema.
        result = client.satisfiable(fingerprint, QUERY)
        assert result["satisfiable"] is True

        stats = client.stats()
        assert stats["pool"]["respawns"] >= 1
        assert stats["registry"]["restored"] >= 1
        new_pid = service.pool.workers[owner].pid
        assert new_pid is not None and new_pid != victim_pid

    def test_kill_mid_request_surfaces_worker_crashed(
        self, service, client, fingerprint
    ):
        owner = service.pool.route(fingerprint)
        outcome = {}

        def held_request():
            try:
                # The ping op sleeps worker-side: a request provably in
                # flight when the SIGKILL lands.
                service.submit(owner, ("ping", 10.0), timeout=30.0)
                outcome["value"] = "completed"
            except WorkerCrashed as error:
                outcome["value"] = error.code

        thread = threading.Thread(target=held_request)
        thread.start()
        deadline = time.time() + 5
        while service.pool.workers[owner].pid is None and time.time() < deadline:
            time.sleep(0.05)
        time.sleep(0.3)  # let the ping reach the worker
        os.kill(service.pool.workers[owner].pid, signal.SIGKILL)
        thread.join(timeout=90)
        assert not thread.is_alive()
        assert outcome["value"] == "worker-crashed"

        # Health restored: same fingerprint, same client, no re-register.
        assert client.satisfiable(fingerprint, QUERY)["satisfiable"] is True
        assert client.healthz()["alive"] == WORKERS


def _wait_for_death(process, timeout: float = 5.0) -> None:
    """Wait until the SIGKILL has actually landed (and reap the zombie)."""
    deadline = time.time() + timeout
    while process.is_alive() and time.time() < deadline:
        time.sleep(0.02)
