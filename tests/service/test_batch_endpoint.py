"""``POST /batch``: one fingerprint, many items, one deadline, one slot.

The endpoint contracts: per-item outcomes in input order with error
isolation, the batch cap answering 413, the *whole-batch* deadline
answering a structured 503 through the shared DeadlineRunner slot
budget, and batch latency/item counters appearing in ``/stats``.
"""

import random
import time

import pytest

from repro.query import query_to_string
from repro.reductions import random_3sat, reduce_formula
from repro.schema import schema_to_string
from repro.service import (
    ServiceClient,
    ServiceLimits,
    ServiceResponseError,
    TypedQueryService,
)
from repro.workloads import document_schema

SCHEMA_TEXT = schema_to_string(document_schema(4))
GOOD_QUERY = "SELECT X WHERE Root = [paper.title -> X]"
BAD_QUERY = "((("
#: A query the 3SAT-reduction schema decides at once.
CHEAP_3SAT_QUERY = "SELECT X WHERE Root = {v1 -> X}"


@pytest.fixture(scope="module")
def service():
    with TypedQueryService(port=0) as svc:
        yield svc


@pytest.fixture(scope="module")
def client(service):
    with ServiceClient(service.host, service.port) as client:
        yield client


@pytest.fixture(scope="module")
def fingerprint(client):
    return client.register_schema(SCHEMA_TEXT)["fingerprint"]


class TestBatchEndpoint:
    def test_per_item_outcomes_in_input_order(self, client, fingerprint):
        items = [
            {"query": GOOD_QUERY},
            {"query": BAD_QUERY},
            {"query": "SELECT X WHERE Root = [paper.nope -> X]"},
        ]
        result = client.batch(fingerprint, "satisfiable", items)
        assert result["fingerprint"] == fingerprint
        envelopes = result["results"]
        assert [e["index"] for e in envelopes] == [0, 1, 2]
        assert envelopes[0]["ok"] and envelopes[0]["result"]["satisfiable"]
        assert not envelopes[1]["ok"]
        assert envelopes[1]["error"]["code"] == "parse-error"
        assert envelopes[2]["ok"] and not envelopes[2]["result"]["satisfiable"]
        summary = result["summary"]
        assert summary["executor"] == "sequential"
        assert summary["items"] == 3
        assert summary["ok"] == 2
        assert summary["errors"] == 1

    def test_batch_counters_surface_in_stats(self, client, fingerprint):
        before = client.stats()["service"]["batch"]
        client.batch(fingerprint, "satisfiable", [{"query": GOOD_QUERY}] * 3)
        after = client.stats()["service"]["batch"]
        assert after["batches"] == before["batches"] + 1
        assert after["items"] == before["items"] + 3
        assert after["latency_ms"]["total"] > before["latency_ms"]["total"]

    def test_unknown_operation_is_a_400(self, client, fingerprint):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.batch(fingerprint, "frobnicate", [{"query": GOOD_QUERY}])
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-request"

    def test_empty_and_non_list_items_are_400(self, client, fingerprint):
        for items in ([], "nope", None):
            status, envelope = client.request(
                "POST",
                "/batch",
                {"fingerprint": fingerprint, "operation": "satisfiable", "items": items},
            )
            assert status == 400
            assert envelope["error"]["code"] == "bad-request"

    def test_unknown_fingerprint_is_a_404(self, client):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.batch("no-such-fp", "satisfiable", [{"query": GOOD_QUERY}])
        assert excinfo.value.status == 404

    def test_boolean_deadline_is_a_400(self, client, fingerprint):
        status, envelope = client.request(
            "POST",
            "/batch",
            {
                "fingerprint": fingerprint,
                "operation": "satisfiable",
                "items": [{"query": GOOD_QUERY}],
                "deadline": True,
            },
        )
        assert status == 400
        assert envelope["error"]["code"] == "bad-request"


class TestBatchLimits:
    def test_over_cap_batches_answer_413(self):
        limits = ServiceLimits(max_batch_items=8)
        with TypedQueryService(port=0, limits=limits) as svc, ServiceClient(
            svc.host, svc.port
        ) as client:
            fp = client.register_schema(SCHEMA_TEXT)["fingerprint"]
            with pytest.raises(ServiceResponseError) as excinfo:
                client.batch(fp, "satisfiable", [{"query": GOOD_QUERY}] * 9)
            assert excinfo.value.status == 413
            assert excinfo.value.code == "payload-too-large"
            # At the cap is fine.
            result = client.batch(fp, "satisfiable", [{"query": GOOD_QUERY}] * 8)
            assert result["summary"]["ok"] == 8

    def test_whole_batch_deadline_times_out_structurally(self):
        """A batch of NP-hard items under one short deadline: one
        structured 503 for the whole batch, server stays responsive."""
        formula = random_3sat(8, n_clauses=32, rng=random.Random(3))
        schema, query = reduce_formula(formula)
        limits = ServiceLimits(max_slots=1, slot_wait_s=0.05)
        with TypedQueryService(port=0, limits=limits) as svc, ServiceClient(
            svc.host, svc.port
        ) as client:
            fp = client.register_schema(schema_to_string(schema))["fingerprint"]
            items = [{"query": query_to_string(query)}] * 4
            started = time.perf_counter()
            with pytest.raises(ServiceResponseError) as excinfo:
                client.batch(fp, "satisfiable", items, deadline=1.0)
            elapsed = time.perf_counter() - started
            assert excinfo.value.status == 503
            assert excinfo.value.code == "timeout"
            assert elapsed < 2.5
            assert client.healthz()["status"] == "ok"
            assert client.stats()["limits"]["timeouts"] == 1
            # The batch held the one computation slot, and gave it back
            # with the 503.
            assert client.satisfiable(fp, CHEAP_3SAT_QUERY)["satisfiable"]

    @pytest.mark.parametrize("endpoint", ["batch", "satisfiable"])
    def test_timed_out_computation_is_cancelled(self, endpoint):
        """The 503 used to leave the computation searching the 3SAT
        reduction until the process ran out of memory; now the search
        stops at its deadline, and its slot is free when the 503 arrives."""
        formula = random_3sat(8, n_clauses=32, rng=random.Random(3))
        schema, query = reduce_formula(formula)
        limits = ServiceLimits(max_slots=1, slot_wait_s=0.05)
        with TypedQueryService(port=0, limits=limits) as svc, ServiceClient(
            svc.host, svc.port
        ) as client:
            fp = client.register_schema(schema_to_string(schema))["fingerprint"]
            with pytest.raises(ServiceResponseError) as excinfo:
                if endpoint == "batch":
                    items = [{"query": query_to_string(query)}] * 4
                    client.batch(fp, "satisfiable", items, deadline=1.0)
                else:
                    client.satisfiable(fp, query_to_string(query), deadline=1.0)
            assert excinfo.value.code == "timeout"
            assert client.stats()["limits"]["timeouts"] == 1
            assert client.satisfiable(fp, CHEAP_3SAT_QUERY)["satisfiable"]
