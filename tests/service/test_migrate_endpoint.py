"""Service-layer tests for schema evolution: migrate, history, unregister."""

import json
import random

import pytest

from repro.engine import ArtifactStore
from repro.query import query_to_string
from repro.reductions import random_3sat, reduce_formula
from repro.schema import schema_to_string
from repro.service import SchemaRegistry, ServiceLimits
from repro.service.daemon import ServiceState

OLD = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE . (author -> AUTHOR)*];
AUTHOR = [name -> NAME]; NAME = string; TITLE = string
"""

WIDE = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE . (author -> AUTHOR)* . (year -> YEAR)?];
AUTHOR = [name -> NAME]; NAME = string; TITLE = string; YEAR = int
"""

NARROW = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE];
AUTHOR = [name -> NAME]; NAME = string; TITLE = string
"""

QUERIES = [
    "SELECT X WHERE Root = [paper.author.name -> X]",
    "SELECT X WHERE Root = [paper.title -> X]",
]


def post(state, path, payload):
    return state.handle("POST", path, json.dumps(payload).encode())


def register(state, text=OLD):
    status, envelope = post(state, "/schemas", {"schema": text})
    assert status == 200
    return envelope["result"]["fingerprint"]


class TestMigrateAccepted:
    def test_widening_swaps_the_entry_in_place(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        state = ServiceState(registry=SchemaRegistry(store=store))
        fingerprint = register(state)
        status, envelope = post(
            state,
            f"/schemas/{fingerprint}/migrate",
            {"schema": WIDE, "queries": QUERIES, "policy": "compatible"},
        )
        assert status == 200
        result = envelope["result"]
        assert result["accepted"] is True
        assert result["compatibility"] == "widening"
        assert result["version"] == 2
        counts = result["report"]["counts"]
        assert counts == {"survives": 2, "retypes": 0, "breaks": 0, "invalid": 0}

        new_fingerprint = result["new_fingerprint"]
        assert new_fingerprint != fingerprint
        # The old entry is gone; the new one is resident and warm.
        status, _ = state.handle("GET", f"/schemas/{new_fingerprint}/history", b"")
        assert status == 200
        status, envelope = post(
            state,
            "/satisfiable",
            {"fingerprint": fingerprint, "query": QUERIES[0]},
        )
        assert status == 404
        status, envelope = post(
            state,
            "/satisfiable",
            {"fingerprint": new_fingerprint, "query": QUERIES[0]},
        )
        assert status == 200 and envelope["result"]["satisfiable"] is True

        # The store swapped blobs: new persisted, old deleted.
        assert store.contains(new_fingerprint)
        assert not store.contains(fingerprint)

    def test_migrated_artifact_survives_restart(self, tmp_path):
        state = ServiceState(
            registry=SchemaRegistry(store=ArtifactStore(root=tmp_path))
        )
        fingerprint = register(state)
        _, envelope = post(
            state, f"/schemas/{fingerprint}/migrate", {"schema": WIDE}
        )
        new_fingerprint = envelope["result"]["new_fingerprint"]

        restarted = ServiceState(
            registry=SchemaRegistry(store=ArtifactStore(root=tmp_path))
        )
        status, envelope = post(
            restarted,
            "/satisfiable",
            {"fingerprint": new_fingerprint, "query": QUERIES[0]},
        )
        assert status == 200
        assert envelope["result"]["satisfiable"] is True

    def test_history_chain_after_two_migrations(self):
        state = ServiceState()
        fingerprint = register(state)
        _, envelope = post(
            state, f"/schemas/{fingerprint}/migrate", {"schema": WIDE}
        )
        second = envelope["result"]["new_fingerprint"]
        _, envelope = post(
            state, f"/schemas/{second}/migrate", {"schema": OLD, "policy": "any"}
        )
        third = envelope["result"]["new_fingerprint"]
        assert third == fingerprint  # migrated back to the original text

        status, envelope = state.handle("GET", f"/schemas/{third}/history", b"")
        assert status == 200
        result = envelope["result"]
        assert result["version"] == 3
        assert [item["fingerprint"] for item in result["history"]] == [
            fingerprint,
            second,
        ]
        assert [item["version"] for item in result["history"]] == [1, 2]


class TestMigrateRejected:
    def test_narrowing_rejected_with_structured_report(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        state = ServiceState(registry=SchemaRegistry(store=store))
        fingerprint = register(state)
        status, envelope = post(
            state,
            f"/schemas/{fingerprint}/migrate",
            {"schema": NARROW, "queries": QUERIES, "policy": "compatible"},
        )
        assert status == 200  # analysis succeeded; the answer is "no"
        result = envelope["result"]
        assert result["accepted"] is False
        assert result["compatibility"] == "narrowing"
        report = result["report"]
        broken = [q for q in report["queries"] if q["status"] == "breaks"]
        assert len(broken) == 1
        assert broken[0]["query"] == QUERIES[0]
        assert broken[0]["counterexample"] == ["title->TITLE", "author->AUTHOR"]

        # The registry entry is untouched and the candidate blob was
        # cleaned up (a restart must not resurrect a rejected schema).
        status, _ = post(
            state, "/satisfiable", {"fingerprint": fingerprint, "query": QUERIES[0]}
        )
        assert status == 200
        assert store.contains(fingerprint)
        assert len(list(store.fingerprints())) == 1

    def test_any_policy_applies_even_narrowing(self):
        state = ServiceState()
        fingerprint = register(state)
        _, envelope = post(
            state,
            f"/schemas/{fingerprint}/migrate",
            {"schema": NARROW, "queries": QUERIES, "policy": "any"},
        )
        assert envelope["result"]["accepted"] is True
        assert envelope["result"]["version"] == 2

    def test_unknown_fingerprint_404s(self):
        state = ServiceState()
        status, envelope = post(
            state, "/schemas/deadbeef/migrate", {"schema": WIDE}
        )
        assert status == 404
        assert envelope["error"]["code"] == "unknown-schema"

    def test_bad_policy_400s(self):
        state = ServiceState()
        fingerprint = register(state)
        status, envelope = post(
            state,
            f"/schemas/{fingerprint}/migrate",
            {"schema": WIDE, "policy": "yolo"},
        )
        assert status == 400

    def test_wrap_must_be_a_boolean(self):
        state = ServiceState()
        fingerprint = register(state)
        status, envelope = post(
            state,
            f"/schemas/{fingerprint}/migrate",
            {"schema": WIDE, "wrap": "false"},
        )
        assert status == 400
        assert envelope["error"]["message"] == "'wrap' must be a boolean"
        assert state.registry.get(fingerprint).version == 1


class TestMigrateTimedOut:
    """A ``/migrate`` past its deadline answers 503 and changes nothing.

    With one query the cancelled inference used to come back as an
    ``invalid`` query, which the ``compatible`` policy accepts, so the
    swap landed after the client's 503; with more queries the analysis
    raised and skipped the cleanup, leaving the candidate's blob for a
    restart to restore as a registered schema.
    """

    @pytest.mark.parametrize("copies", [1, 2])
    def test_nothing_applied_and_no_candidate_blob(self, tmp_path, copies):
        formula = random_3sat(8, n_clauses=32, rng=random.Random(3))
        candidate, query = reduce_formula(formula)
        state = ServiceState(
            registry=SchemaRegistry(store=ArtifactStore(root=tmp_path)),
            limits=ServiceLimits(max_slots=1, slot_wait_s=0.05),
        )
        # The reduction's query is dead on this schema at once, so only
        # the candidate side of the analysis runs the NP-hard search.
        fingerprint = register(state, "ROOT = [a -> A]; A = string")
        status, envelope = post(
            state,
            f"/schemas/{fingerprint}/migrate",
            {
                "schema": schema_to_string(candidate),
                "queries": [query_to_string(query)] * copies,
                "deadline": 1.0,
            },
        )
        assert status == 503
        assert envelope["error"]["code"] == "timeout"
        # The analysis stopped with the 503: the only slot is free.
        assert state.runner.call(lambda: "free", 1) == "free"
        assert [entry.fingerprint for entry in state.registry.entries()] == [
            fingerprint
        ]
        assert state.registry.stats()["migrations"] == 0
        assert [blob.stem for blob in tmp_path.rglob("*.art")] == [fingerprint]


class TestUnregister:
    def test_delete_removes_entry_and_blob(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        state = ServiceState(registry=SchemaRegistry(store=store))
        fingerprint = register(state)
        assert store.contains(fingerprint)
        status, envelope = state.handle("DELETE", f"/schemas/{fingerprint}", b"")
        assert status == 200
        assert envelope["result"]["evicted"] == fingerprint
        assert not store.contains(fingerprint)
        status, _ = state.handle("DELETE", f"/schemas/{fingerprint}", b"")
        assert status == 404

    def test_stats_counters(self, tmp_path):
        state = ServiceState(
            registry=SchemaRegistry(store=ArtifactStore(root=tmp_path))
        )
        fingerprint = register(state)
        post(state, f"/schemas/{fingerprint}/migrate", {"schema": WIDE})
        _, envelope = post(
            state,
            f"/schemas/{register(state, NARROW)}/migrate",
            {"schema": OLD, "policy": "strict", "queries": QUERIES},
        )
        assert envelope["result"]["accepted"] is False

        status, envelope = state.handle("GET", "/stats", b"")
        assert status == 200
        registry_stats = envelope["result"]["registry"]
        assert registry_stats["migrations"] == 1
        assert registry_stats["migrations_rejected"] == 1
        delta = envelope["result"]["service"]["delta"]
        assert delta["migrations"] == 2
        assert delta["accepted"] == 1
        assert delta["rejected"] == 1
        assert delta["queries_analyzed"] == 2
        assert delta["unregisters"] == 0
        assert registry_stats["store"]["deletes"] >= 1
