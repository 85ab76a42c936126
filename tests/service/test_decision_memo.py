"""Tests for the per-entry decision memo.

With only the engine cache, a warm ``/infer`` was 1.4x faster than a cold
one: every warm request re-entered the engine cache about 1,000 times
(inference enumerates |select| x |domain| satisfiability calls), paying
lock traffic and key hashing on each.  Decision endpoints are pure
functions of ``(schema, query, pins, limit)`` and a registry entry is
immutable for its fingerprint's lifetime (migration registers a *new*
fingerprint), so the registry memoizes whole decision results per
entry, bounded LRU.  A warm repeat is then one memo hit and touches the
engine cache not at all, which is what made warm ``/satisfiable`` and
``/infer`` more than 3x and 2.5x faster than cold.
"""

import pytest

import repro.service.registry as registry_mod
from repro.service.daemon import ServiceState
from repro.service.registry import DECISION_CACHE_SIZE, SchemaRegistry

SCHEMA = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE . (author -> AUTHOR)*];
AUTHOR = [name -> NAME]; NAME = string; TITLE = string
"""
QUERY = "SELECT X WHERE Root = [paper -> X]"


@pytest.fixture()
def state():
    return ServiceState(registry=SchemaRegistry())


def register(state):
    _, envelope = state.handle("POST", "/schemas", _body({"schema": SCHEMA}))
    return envelope["result"]["fingerprint"]


def _body(payload):
    import json

    return json.dumps(payload).encode()


class TestCachedDecision:
    def test_identical_call_computes_once(self, state):
        fp = register(state)
        entry = state.registry.get(fp)
        calls = []
        first = entry.cached_decision(("k", 1), lambda: calls.append(1) or "v")
        second = entry.cached_decision(("k", 1), lambda: calls.append(1) or "v")
        assert first == second == "v"
        assert calls == [1]
        assert entry.decision_hits == 1
        assert entry.decision_misses == 1

    def test_distinct_keys_compute_separately(self, state):
        fp = register(state)
        entry = state.registry.get(fp)
        assert entry.cached_decision(("a",), lambda: 1) == 1
        assert entry.cached_decision(("b",), lambda: 2) == 2
        assert entry.decision_misses == 2

    def test_failed_compute_is_not_cached(self, state):
        fp = register(state)
        entry = state.registry.get(fp)

        def boom():
            raise RuntimeError("transient")

        with pytest.raises(RuntimeError):
            entry.cached_decision(("k",), boom)
        # The failure must not poison the key: a later success is stored.
        assert entry.cached_decision(("k",), lambda: "ok") == "ok"

    def test_lru_bound_holds(self, state, monkeypatch):
        monkeypatch.setattr(registry_mod, "DECISION_CACHE_SIZE", 4)
        fp = register(state)
        entry = state.registry.get(fp)
        for i in range(10):
            entry.cached_decision(("k", i), lambda i=i: i)
        assert len(entry.decisions) == 4
        # Oldest keys were evicted, newest survive.
        assert ("k", 9) in entry.decisions
        assert ("k", 0) not in entry.decisions

    def test_default_bound_is_generous(self):
        assert DECISION_CACHE_SIZE >= 256


class TestEndpointMemoization:
    def _post(self, state, path, payload):
        status, envelope = state.handle("POST", path, _body(payload))
        assert status == 200, envelope
        return envelope["result"]

    def _engine(self, state, fp):
        _, envelope = state.handle("GET", "/stats", b"")
        return envelope["result"]["registry"]["engines"][fp]

    def _decisions(self, state, fp):
        return self._engine(state, fp)["decisions"]

    def _assert_repeats_skip_the_engine(self, state, path, request, repeats=40):
        """``repeats`` more requests add exactly that many memo hits and
        no engine-cache hit or miss of any kind."""
        fp = request["fingerprint"]
        before = self._engine(state, fp)
        for _ in range(repeats):
            self._post(state, path, request)
        after = self._engine(state, fp)
        assert after["decisions"]["hits"] == before["decisions"]["hits"] + repeats
        assert after["decisions"]["misses"] == before["decisions"]["misses"]
        assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])

    def test_repeated_satisfiable_hits_the_memo(self, state):
        fp = register(state)
        request = {"fingerprint": fp, "query": QUERY}
        first = self._post(state, "/satisfiable", request)
        second = self._post(state, "/satisfiable", request)
        assert first == second
        counters = self._decisions(state, fp)
        assert counters["hits"] >= 1
        assert counters["misses"] >= 1
        self._assert_repeats_skip_the_engine(state, "/satisfiable", request)

    def test_repeated_infer_hits_the_memo(self, state):
        fp = register(state)
        request = {"fingerprint": fp, "query": QUERY}
        first = self._post(state, "/infer", request)
        second = self._post(state, "/infer", request)
        assert first == second
        assert self._decisions(state, fp)["hits"] >= 1
        self._assert_repeats_skip_the_engine(state, "/infer", request)

    @pytest.mark.parametrize("path", ["/satisfiable", "/infer"])
    def test_memoized_result_is_a_copy(self, state, path):
        """Handlers hand the result dict to the JSON encoder and callers
        may mutate it; the cached master must not be aliased."""
        fp = register(state)
        request = {"fingerprint": fp, "query": QUERY}
        first = self._post(state, path, request)
        first["tampered"] = True
        second = self._post(state, path, request)
        assert "tampered" not in second

    def test_pins_are_part_of_the_key(self, state):
        fp = register(state)
        free = self._post(state, "/satisfiable", {"fingerprint": fp, "query": QUERY})
        pinned = self._post(
            state,
            "/satisfiable",
            {"fingerprint": fp, "query": QUERY, "pins": {"X": "NAME"}},
        )
        assert free["satisfiable"] is True
        assert pinned["satisfiable"] is False  # papers are not names

    def test_limit_is_part_of_the_infer_key(self, state):
        fp = register(state)
        unlimited = self._post(state, "/infer", {"fingerprint": fp, "query": QUERY})
        limited = self._post(
            state, "/infer", {"fingerprint": fp, "query": QUERY, "limit": 1}
        )
        assert unlimited["truncated"] is False
        assert limited["truncated"] is (limited["count"] == 1)

    def test_memo_hit_does_not_mask_invalid_deadline(self, state):
        """Request validation must not depend on what earlier requests
        cached: a bad deadline is a 400 even when the memo holds the
        answer."""
        fp = register(state)
        request = {"fingerprint": fp, "query": QUERY}
        self._post(state, "/satisfiable", request)  # seed the memo
        for path in ("/satisfiable", "/infer"):
            status, envelope = state.handle(
                "POST", path, _body({**request, "deadline": -1})
            )
            assert status == 400, (path, envelope)
            assert envelope["error"]["code"] == "bad-request"

    def test_migration_does_not_serve_stale_decisions(self, state):
        """A migrated schema gets a new fingerprint and a fresh entry —
        the old entry's memo must not answer for the new schema."""
        fp = register(state)
        self._post(state, "/satisfiable", {"fingerprint": fp, "query": QUERY})
        result = self._post(
            state,
            f"/schemas/{fp}/migrate",
            {
                "schema": SCHEMA.replace("name -> NAME", "name -> NAME . (email -> NAME)?"),
                "policy": "compatible",
            },
        )
        new_fp = result["new_fingerprint"]
        assert new_fp != fp
        fresh = state.registry.get(new_fp)
        assert len(fresh.decisions) == 0

    def test_one_registry_lookup_per_request(self, state):
        """Each request naming a fingerprint looks it up once: memo hits,
        witness searches and whole batches included."""
        fp = register(state)
        data = 'o1 = [paper -> o2]; o2 = [title -> o3]; o3 = "T"'
        requests = [
            ("/satisfiable", {"query": QUERY}),
            ("/satisfiable", {"query": QUERY}),
            ("/satisfiable", {"query": QUERY, "witness": True}),
            ("/infer", {"query": QUERY}),
            ("/check", {"query": QUERY, "assignment": {"X": "PAPER"}}),
            ("/classify", {"query": QUERY}),
            ("/validate", {"data": data}),
            ("/evaluate", {"query": QUERY, "data": data}),
            ("/batch", {"operation": "satisfiable", "items": [{"query": QUERY}] * 3}),
        ]
        before = state.registry.stats()["lookups"]
        for path, body in requests:
            self._post(state, path, {"fingerprint": fp, **body})
        assert state.registry.stats()["lookups"] == before + len(requests)
