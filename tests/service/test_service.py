"""End-to-end tests for the typed-query daemon over real HTTP.

One shared server (module scope) backs the happy-path endpoint tests;
the deadline/timeout tests boot their own server so abandoned
computations cannot perturb the shared one's counters.
"""

import random
import time

import pytest

from repro.query import query_to_string
from repro.reductions import random_3sat, reduce_formula
from repro.schema import schema_to_string
from repro.service import (
    DeadlineRunner,
    ServiceBusy,
    ServiceClient,
    ServiceLimits,
    ServiceResponseError,
    TypedQueryService,
)

SCHEMA = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE . (author -> AUTHOR)*];
AUTHOR = [name -> NAME]; NAME = string; TITLE = string
"""

QUERY = "SELECT X WHERE Root = [paper -> X]"

DATA = """
o1 = [paper -> o2];
o2 = [title -> o3, author -> o4];
o3 = "T"; o4 = [name -> o5]; o5 = "Ann"
"""

DTD = """
<!ELEMENT doc (item*)>
<!ELEMENT item #PCDATA>
"""


@pytest.fixture(scope="module")
def service():
    with TypedQueryService() as svc:
        yield svc


@pytest.fixture(scope="module")
def client(service):
    with ServiceClient(service.host, service.port) as client:
        yield client


@pytest.fixture(scope="module")
def fingerprint(client):
    return client.register_schema(SCHEMA)["fingerprint"]


class TestEndpoints:
    def test_healthz(self, client):
        result = client.healthz()
        assert result["status"] == "ok"
        assert result["uptime_s"] >= 0

    def test_register_returns_fingerprint_and_types(self, client):
        result = client.register_schema(SCHEMA)
        assert len(result["fingerprint"]) == 40
        assert result["types"] == ["AUTHOR", "DOCUMENT", "NAME", "PAPER", "TITLE"]
        assert result["warmed_entries"] > 0

    def test_register_is_idempotent(self, client):
        first = client.register_schema(SCHEMA)
        second = client.register_schema(SCHEMA)
        assert first["fingerprint"] == second["fingerprint"]

    def test_register_dtd(self, client):
        result = client.register_schema(DTD, syntax="dtd", wrap=True)
        assert "doc" in " ".join(result["labels"])

    def test_satisfiable(self, client, fingerprint):
        assert client.satisfiable(fingerprint, QUERY)["satisfiable"] is True

    def test_unsatisfiable(self, client, fingerprint):
        result = client.satisfiable(
            fingerprint, "SELECT X WHERE Root = [nothing -> X]"
        )
        assert result["satisfiable"] is False

    def test_satisfiable_with_pins(self, client, fingerprint):
        good = client.satisfiable(fingerprint, QUERY, pins={"X": "PAPER"})
        bad = client.satisfiable(fingerprint, QUERY, pins={"X": "NAME"})
        assert good["satisfiable"] is True
        assert bad["satisfiable"] is False

    def test_satisfiable_witness(self, client, fingerprint):
        result = client.satisfiable(fingerprint, QUERY, witness=True)
        assert result["witness"] is not None
        assert "paper" in result["witness"]

    def test_check(self, client, fingerprint):
        ok = client.check(fingerprint, QUERY, {"X": "PAPER"})
        fail = client.check(fingerprint, QUERY, {"X": "NAME"})
        assert ok["well_typed"] is True
        assert fail["well_typed"] is False

    def test_infer(self, client, fingerprint):
        result = client.infer(fingerprint, QUERY)
        assert result["assignments"] == [{"X": "PAPER"}]
        assert result["count"] == 1

    def test_infer_limit(self, client, fingerprint):
        result = client.infer(fingerprint, "SELECT X WHERE Root = [_.(_*) -> X]", limit=1)
        assert result["count"] == 1
        assert result["truncated"] is True

    def test_feedback(self, client, fingerprint):
        result = client.feedback(fingerprint, "SELECT X WHERE Root = [(_*).name -> X]")
        assert result["satisfiable"] is True
        assert "paper.author.name" in result["query"]

    def test_feedback_unsatisfiable_is_ok_envelope(self, client, fingerprint):
        result = client.feedback(fingerprint, "SELECT X WHERE Root = [nothing -> X]")
        assert result["satisfiable"] is False
        assert result["query"] is None

    def test_classify(self, client, fingerprint):
        result = client.classify(fingerprint, QUERY)
        assert result["schema_row"] == "ordered+tagged"
        assert result["combined_complexity"] == "PTIME"
        assert result["polynomial"] is True

    def test_validate(self, client, fingerprint):
        result = client.validate(fingerprint, data=DATA)
        assert result["valid"] is True
        assert result["assignment"]["o2"] == "PAPER"

    def test_validate_invalid(self, client, fingerprint):
        result = client.validate(fingerprint, data='o1 = [zzz -> o2]; o2 = "x"')
        assert result["valid"] is False
        assert result["assignment"] is None

    def test_evaluate(self, client, fingerprint):
        result = client.evaluate(QUERY, data=DATA, fingerprint=fingerprint)
        assert result["bindings"] == [{"X": "o2"}]
        assert result["conforms"] is True

    def test_evaluate_without_schema(self, client):
        result = client.evaluate(QUERY, data=DATA)
        assert result["count"] == 1
        assert "conforms" not in result

    def test_list_and_evict(self, client):
        extra = client.register_schema("T = [a -> A]; A = string")
        listed = client.list_schemas()["schemas"]
        assert any(s["fingerprint"] == extra["fingerprint"] for s in listed)
        assert client.evict_schema(extra["fingerprint"])["evicted"] == extra[
            "fingerprint"
        ]
        listed = client.list_schemas()["schemas"]
        assert all(s["fingerprint"] != extra["fingerprint"] for s in listed)


class TestErrors:
    def test_unknown_fingerprint_is_404(self, client):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.satisfiable("deadbeef", QUERY)
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown-schema"

    def test_bad_schema_text_is_parse_error(self, client):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.register_schema("THIS IS NOT = [ScmDL")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "parse-error"

    def test_bad_query_text_is_parse_error(self, client, fingerprint):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.satisfiable(fingerprint, "SELECT WHERE = [")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "parse-error"

    def test_missing_field_is_bad_request(self, client, fingerprint):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.call("POST", "/satisfiable", {"fingerprint": fingerprint})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-request"

    def test_non_json_body_is_bad_request(self, service):
        with ServiceClient(service.host, service.port) as client:
            status, envelope = client.request("POST", "/satisfiable", None)
        assert status == 400
        assert envelope["error"]["code"] == "bad-request"

    def test_witness_must_be_a_boolean(self, client, fingerprint):
        # Checked before the verdict: an unsatisfiable query, which never
        # builds a witness, is rejected too.
        for query in (QUERY, "SELECT X WHERE Root = [nothing -> X]"):
            with pytest.raises(ServiceResponseError) as excinfo:
                client.call(
                    "POST",
                    "/satisfiable",
                    {"fingerprint": fingerprint, "query": query, "witness": "false"},
                )
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad-request"
            assert excinfo.value.error["message"] == "'witness' must be a boolean"

    def test_wrap_must_be_a_boolean(self, client):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.register_schema(DTD, syntax="dtd", wrap="false")
        assert excinfo.value.status == 400
        assert excinfo.value.error["message"] == "'wrap' must be a boolean"

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.call("GET", "/nonsense")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not-found"

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.call("POST", "/healthz", {})
        assert excinfo.value.status == 405
        assert excinfo.value.code == "method-not-allowed"

    def test_feedback_with_joins_is_unsupported(self, client, fingerprint):
        join_query = "SELECT &X WHERE Root = [paper -> &X, paper -> &X]"
        with pytest.raises(ServiceResponseError) as excinfo:
            client.feedback(fingerprint, join_query)
        assert excinfo.value.status == 422
        assert excinfo.value.code == "unsupported"

    def test_envelope_shape(self, client):
        status, envelope = client.request("GET", "/healthz")
        assert status == 200
        assert set(envelope) == {"version", "ok", "command", "result", "error", "meta"}
        assert envelope["command"] == "GET /healthz"
        assert "elapsed_ms" in envelope["meta"]


#: (endpoint, its /batch operation, body without the fingerprint).
ANSWERED = [
    ("/satisfiable", "satisfiable", {"query": QUERY, "pins": {"X": "PAPER"}}),
    (
        "/check",
        "check",
        {
            "query": QUERY,
            "assignment": {"Root": "DOCUMENT", "X": "PAPER"},
            "total": True,
        },
    ),
    ("/infer", "infer", {"query": "SELECT X WHERE Root = [_.(_*) -> X]", "limit": 2}),
    ("/classify", "classify", {"query": QUERY}),
    ("/validate", "conforms", {"data": DATA}),
]

REJECTED = [
    pytest.param("/satisfiable", "satisfiable", {}, id="satisfiable-no-query"),
    pytest.param("/check", "check", {"assignment": {}}, id="check-no-query"),
    pytest.param("/infer", "infer", {}, id="infer-no-query"),
    pytest.param("/classify", "classify", {}, id="classify-no-query"),
    # A list is unhashable: the memo key must not be built from it.
    pytest.param(
        "/satisfiable", "satisfiable", {"query": [QUERY]}, id="satisfiable-query-list"
    ),
    pytest.param("/infer", "infer", {"query": [QUERY]}, id="infer-query-list"),
    pytest.param("/check", "check", {"query": [QUERY]}, id="check-query-list"),
    pytest.param(
        "/satisfiable",
        "satisfiable",
        {"query": QUERY, "pins": ["X", "PAPER"]},
        id="satisfiable-pins-list",
    ),
    pytest.param(
        "/infer",
        "infer",
        {"query": QUERY, "pins": ["X", "PAPER"]},
        id="infer-pins-list",
    ),
    pytest.param("/infer", "infer", {"query": QUERY, "limit": True}, id="limit-true"),
    pytest.param(
        "/check",
        "check",
        {"query": QUERY, "assignment": {}, "total": "false"},
        id="total-string",
    ),
    pytest.param("/validate", "conforms", {}, id="validate-no-graph"),
]


class TestOneTable:
    """Each decision endpoint answers a body as the same ``/batch`` item."""

    def _both(self, client, fingerprint, path, operation, body):
        single = client.request("POST", path, {"fingerprint": fingerprint, **body})
        status, batch = client.request(
            "POST",
            "/batch",
            {"fingerprint": fingerprint, "operation": operation, "items": [body]},
        )
        assert status == 200
        return single, batch["result"]["results"][0]

    @pytest.mark.parametrize(
        "path, operation, body", ANSWERED, ids=[case[0] for case in ANSWERED]
    )
    def test_result(self, client, fingerprint, path, operation, body):
        (status, envelope), item = self._both(
            client, fingerprint, path, operation, body
        )
        assert status == 200 and item["ok"]
        result = dict(envelope["result"])
        assert result.pop("fingerprint") == fingerprint
        assert result == item["result"]

    @pytest.mark.parametrize("path, operation, body", REJECTED)
    def test_error(self, client, fingerprint, path, operation, body):
        (status, envelope), item = self._both(
            client, fingerprint, path, operation, body
        )
        assert status == 400 and not item["ok"]
        assert envelope["error"]["code"] == item["error"]["code"] == "bad-request"
        assert envelope["error"]["message"] == item["error"]["message"]


class TestStats:
    def test_stats_merge_service_registry_and_engines(self, client, fingerprint):
        stats = client.stats()
        assert {"service", "registry", "limits"} <= set(stats)
        assert stats["service"]["requests"] > 0
        assert "POST /satisfiable" in stats["service"]["endpoints"]
        assert fingerprint in stats["registry"]["engines"]

    def test_warm_requests_hit_the_decision_memo(self, client, fingerprint):
        """The acceptance shape: repeated satisfiable calls against the
        same fingerprint are answered from the entry's decision memo —
        no recompilation, and after the first answer not even an
        automata walk."""
        client.satisfiable(fingerprint, QUERY)  # seed the memo
        before = client.stats()["registry"]["engines"][fingerprint]
        for _ in range(3):
            client.satisfiable(fingerprint, QUERY)
        after = client.stats()["registry"]["engines"][fingerprint]
        assert after["decisions"]["hits"] >= before["decisions"]["hits"] + 3
        # Schema-side artifacts were prewarmed at registration: the repeat
        # requests add no new engine misses of any kind.
        assert after["misses"] == before["misses"]
        assert (
            after["by_kind"]["restricted-content-nfa"]["misses"]
            == before["by_kind"]["restricted-content-nfa"]["misses"]
        )

    def test_latency_histogram_counts_reconcile(self, client):
        stats = client.stats()["service"]
        for endpoint, metrics in stats["endpoints"].items():
            histogram = metrics["latency_ms"]
            assert sum(histogram["counts"]) == metrics["requests"], endpoint


class TestDeadlines:
    def test_np_hard_request_times_out_structurally(self):
        """A Table-2 NP cell with a short deadline: structured 503 within
        ~1.5s, and the server keeps answering /healthz afterwards."""
        formula = random_3sat(8, n_clauses=32, rng=random.Random(3))
        schema, query = reduce_formula(formula)
        with TypedQueryService() as svc, ServiceClient(svc.host, svc.port) as client:
            fp = client.register_schema(schema_to_string(schema))["fingerprint"]
            started = time.perf_counter()
            with pytest.raises(ServiceResponseError) as excinfo:
                client.satisfiable(fp, query_to_string(query), deadline=1.0)
            elapsed = time.perf_counter() - started
            assert excinfo.value.status == 503
            assert excinfo.value.code == "timeout"
            assert elapsed < 1.5
            # The worker is reclaimed: the server still answers instantly.
            assert client.healthz()["status"] == "ok"
            limits = client.stats()["limits"]
            assert limits["timeouts"] == 1

    def test_deadline_zero_is_rejected(self, client, fingerprint):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.satisfiable(fingerprint, QUERY, deadline=-1)
        assert excinfo.value.status == 400

    def test_oversized_body_is_413(self):
        limits = ServiceLimits(max_body_bytes=256)
        with TypedQueryService(limits=limits) as svc, ServiceClient(
            svc.host, svc.port
        ) as client:
            with pytest.raises(ServiceResponseError) as excinfo:
                client.register_schema("T = [a -> A]; A = string" + " " * 500)
            assert excinfo.value.status == 413
            assert excinfo.value.code == "payload-too-large"


class TestDeadlineRunner:
    def test_result_and_exception_pass_through(self):
        runner = DeadlineRunner(ServiceLimits())
        assert runner.call(lambda: 41 + 1, deadline_s=5) == 42
        with pytest.raises(KeyError):
            runner.call(lambda: {}["missing"], deadline_s=5)

    def test_busy_when_slots_exhausted(self):
        import threading

        limits = ServiceLimits(max_slots=1, slot_wait_s=0.05)
        runner = DeadlineRunner(limits)
        release = threading.Event()
        holder = threading.Thread(
            target=lambda: runner.call(release.wait, deadline_s=10), daemon=True
        )
        holder.start()
        time.sleep(0.1)  # let the holder occupy the only slot
        try:
            with pytest.raises(ServiceBusy):
                runner.call(lambda: None, deadline_s=1)
        finally:
            release.set()
            holder.join(timeout=5)
