"""Tests for the registry's decision memo.

With only the engine cache, a warm ``/infer`` was 1.4x faster than a cold
one: every warm request re-entered the engine cache about 1,000 times
(inference enumerates |select| x |domain| satisfiability calls), paying
lock traffic and key hashing on each.  Decision endpoints are pure
functions of ``(schema, query, pins, limit)``, and the fingerprint names
the schema, so the registry memoizes whole decision results by
fingerprint and request key, bounded LRU.  A warm repeat is then one memo
hit and touches the engine cache not at all.  The memo outlives the
registry entries: a schema evicted under ``max_schemas`` pressure, or
deleted, and then registered again answers a question it has already
answered with one memo hit.
"""

import json
import os
import sys
import threading

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

#: Small schemas with a query each, for the tests that need several
#: fingerprints.
SCHEMAS = [f"T{i} = [(a{i} -> A{i})*]; A{i} = string" for i in range(4)]
QUERIES = [f"SELECT X WHERE Root = [a{i} -> X]" for i in range(4)]

#: Seconds any test thread may take before the test fails.
JOIN_TIMEOUT = 60


@pytest.fixture()
def state():
    return ServiceState(registry=SchemaRegistry())


def register(state, schema=SCHEMA):
    _, envelope = state.handle("POST", "/schemas", _body({"schema": schema}))
    return envelope["result"]["fingerprint"]


def _body(payload):
    return json.dumps(payload).encode()


def _post(state, path, payload):
    status, envelope = state.handle("POST", path, _body(payload))
    assert status == 200, envelope
    return envelope["result"]


def _stats(state):
    _, envelope = state.handle("GET", "/stats", b"")
    return envelope["result"]["registry"]


def _assert_memo_consistent(registry):
    """The memo's size counter matches what it holds, within capacity."""
    with registry._lock:
        held = sum(len(decisions) for decisions in registry._decisions.values())
        assert registry._decision_size == held
        assert all(registry._decisions.values())
    assert held <= registry.decision_capacity


class TestCachedDecision:
    def test_identical_call_computes_once(self, state):
        fp = register(state)
        entry = state.registry.get(fp)
        calls = []
        compute = lambda: calls.append(1) or "v"  # noqa: E731
        first = state.registry.cached_decision(entry, ("k", 1), compute)
        second = state.registry.cached_decision(entry, ("k", 1), compute)
        assert first == second == "v"
        assert calls == [1]
        assert entry.decision_hits == 1
        assert entry.decision_misses == 1

    def test_distinct_keys_compute_separately(self, state):
        fp = register(state)
        entry = state.registry.get(fp)
        assert state.registry.cached_decision(entry, ("a",), lambda: 1) == 1
        assert state.registry.cached_decision(entry, ("b",), lambda: 2) == 2
        assert entry.decision_misses == 2

    def test_failed_compute_is_not_cached(self, state):
        fp = register(state)
        entry = state.registry.get(fp)

        def boom():
            raise RuntimeError("transient")

        with pytest.raises(RuntimeError):
            state.registry.cached_decision(entry, ("k",), boom)
        assert _stats(state)["decisions"]["size"] == 0
        # The failure must not poison the key: a later success is stored.
        assert state.registry.cached_decision(entry, ("k",), lambda: "ok") == "ok"

    def test_lru_bound_holds_across_fingerprints(self, monkeypatch):
        """A fingerprint holds at most ``DECISION_CACHE_SIZE`` results,
        and the whole memo at most ``DECISION_CACHE_SIZE * max_schemas``:
        past that, the least recently used fingerprint loses its least
        recently used result."""
        monkeypatch.setattr(registry_mod, "DECISION_CACHE_SIZE", 2)
        registry = SchemaRegistry(max_schemas=2)
        assert registry.decision_capacity == 4
        first, second, third = (registry.register(text) for text in SCHEMAS[:3])
        for i in range(3):
            registry.cached_decision(first, ("k", i), lambda i=i: i)
        registry.cached_decision(second, ("k", 0), lambda: "second")
        registry.cached_decision(third, ("k", 0), lambda: "third")
        _assert_memo_consistent(registry)
        decisions = registry.stats()["decisions"]
        assert decisions["size"] == decisions["capacity"] == 4
        assert decisions["misses"] == 5 and decisions["hits"] == 0
        held = registry._decisions
        assert list(held[first.fingerprint]) == [("k", 1), ("k", 2)]
        assert list(held) == [first.fingerprint, second.fingerprint, third.fingerprint]
        # A hit refreshes both its fingerprint and its key.
        assert registry.cached_decision(first, ("k", 1), lambda: "unused") == 1
        assert list(held) == [second.fingerprint, third.fingerprint, first.fingerprint]
        assert list(held[first.fingerprint]) == [("k", 2), ("k", 1)]
        # So the next insertion drops second's only result, and second
        # leaves the memo.
        registry.cached_decision(third, ("k", 1), lambda: "third again")
        assert second.fingerprint not in held
        _assert_memo_consistent(registry)

    def test_one_schemas_stream_does_not_evict_anothers_repeats(self, monkeypatch):
        """A fingerprint past its own bound drops its own oldest result.
        A memo that evicted from the least recently used fingerprint
        instead let never-repeated requests on one schema push out the
        results another schema kept asking for: each miss removed the
        other schema's oldest key, which was its next request."""
        monkeypatch.setattr(registry_mod, "DECISION_CACHE_SIZE", 4)
        registry = SchemaRegistry(max_schemas=2)
        hot, stream, filler = (registry.register(text) for text in SCHEMAS[:3])
        for i in range(4):
            registry.cached_decision(filler, ("f", i), lambda i=i: i)
        for i in range(3):
            registry.cached_decision(hot, ("h", i), lambda i=i: i)
        registry.cached_decision(stream, ("s", -1), lambda: -1)
        assert registry.stats()["decisions"]["size"] == registry.decision_capacity

        def recompute():
            pytest.fail("a repeated request was computed again")

        for step in range(3 * registry.decision_capacity):
            registry.cached_decision(stream, ("s", step), lambda step=step: step)
            assert registry.cached_decision(hot, ("h", step % 3), recompute) == step % 3
            _assert_memo_consistent(registry)
        assert (hot.decision_hits, hot.decision_misses) == (3 * 8, 3)
        assert list(registry._decisions[stream.fingerprint]) == [
            ("s", step) for step in range(20, 24)
        ]
        # The idle fingerprint made room instead, oldest result first.
        assert list(registry._decisions[filler.fingerprint]) == [("f", 3)]

    def test_default_bound_is_generous(self):
        assert DECISION_CACHE_SIZE >= 256
        assert SchemaRegistry(max_schemas=3).decision_capacity == 3 * DECISION_CACHE_SIZE


class TestEndpointMemoization:
    def _engine(self, state, fp):
        return _stats(state)["engines"][fp]

    def _decisions(self, state, fp):
        return self._engine(state, fp)["decisions"]

    def _assert_repeats_skip_the_engine(self, state, path, request, repeats=40):
        """``repeats`` more requests add exactly that many memo hits and
        no engine-cache hit or miss of any kind."""
        fp = request["fingerprint"]
        before = self._engine(state, fp)
        for _ in range(repeats):
            _post(state, path, request)
        after = self._engine(state, fp)
        assert after["decisions"]["hits"] == before["decisions"]["hits"] + repeats
        assert after["decisions"]["misses"] == before["decisions"]["misses"]
        assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])

    def test_repeated_satisfiable_hits_the_memo(self, state):
        fp = register(state)
        request = {"fingerprint": fp, "query": QUERY}
        first = _post(state, "/satisfiable", request)
        second = _post(state, "/satisfiable", request)
        assert first == second
        counters = self._decisions(state, fp)
        assert counters["hits"] >= 1
        assert counters["misses"] >= 1
        self._assert_repeats_skip_the_engine(state, "/satisfiable", request)

    def test_repeated_infer_hits_the_memo(self, state):
        fp = register(state)
        request = {"fingerprint": fp, "query": QUERY}
        first = _post(state, "/infer", request)
        second = _post(state, "/infer", request)
        assert first == second
        assert self._decisions(state, fp)["hits"] >= 1
        self._assert_repeats_skip_the_engine(state, "/infer", request)

    @pytest.mark.parametrize("path", ["/satisfiable", "/infer"])
    def test_memoized_result_is_a_copy(self, state, path):
        """Handlers hand the result dict to the JSON encoder and callers
        may mutate it; the cached master must not be aliased."""
        fp = register(state)
        request = {"fingerprint": fp, "query": QUERY}
        first = _post(state, path, request)
        first["tampered"] = True
        second = _post(state, path, request)
        assert "tampered" not in second

    def test_pins_are_part_of_the_key(self, state):
        fp = register(state)
        free = _post(state, "/satisfiable", {"fingerprint": fp, "query": QUERY})
        pinned = _post(
            state,
            "/satisfiable",
            {"fingerprint": fp, "query": QUERY, "pins": {"X": "NAME"}},
        )
        assert free["satisfiable"] is True
        assert pinned["satisfiable"] is False  # papers are not names

    def test_limit_is_part_of_the_infer_key(self, state):
        fp = register(state)
        unlimited = _post(state, "/infer", {"fingerprint": fp, "query": QUERY})
        limited = _post(state, "/infer", {"fingerprint": fp, "query": QUERY, "limit": 1})
        assert unlimited["truncated"] is False
        assert limited["truncated"] is (limited["count"] == 1)

    def test_memo_hit_does_not_mask_invalid_deadline(self, state):
        """Request validation must not depend on what earlier requests
        cached: a bad deadline is a 400 even when the memo holds the
        answer."""
        fp = register(state)
        request = {"fingerprint": fp, "query": QUERY}
        _post(state, "/satisfiable", request)  # seed the memo
        for path in ("/satisfiable", "/infer"):
            status, envelope = state.handle(
                "POST", path, _body({**request, "deadline": -1})
            )
            assert status == 400, (path, envelope)
            assert envelope["error"]["code"] == "bad-request"

    def test_migration_does_not_serve_stale_decisions(self, state):
        """A migrated schema gets a new fingerprint, and the memo holds
        nothing under it: the old schema's decisions stay the old
        fingerprint's."""
        fp = register(state)
        _post(state, "/satisfiable", {"fingerprint": fp, "query": QUERY})
        result = _post(
            state,
            f"/schemas/{fp}/migrate",
            {
                "schema": SCHEMA.replace("name -> NAME", "name -> NAME . (email -> NAME)?"),
                "policy": "compatible",
            },
        )
        new_fp = result["new_fingerprint"]
        assert new_fp != fp
        assert self._decisions(state, new_fp) == {"hits": 0, "misses": 0, "size": 0}
        _post(state, "/satisfiable", {"fingerprint": new_fp, "query": QUERY})
        assert self._decisions(state, new_fp)["misses"] == 1

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
            _post(state, path, {"fingerprint": fp, **body})
        assert state.registry.stats()["lookups"] == before + len(requests)


class TestDecisionsOutliveTheEntry:
    """A schema that leaves the registry and comes back keeps its
    decisions: each repeat is one memo hit on the new entry and touches
    its engine not at all."""

    def _decide_both(self, state, fp):
        return [
            _post(state, path, {"fingerprint": fp, "query": QUERY})
            for path in ("/satisfiable", "/infer")
        ]

    def _assert_answered_from_the_memo(self, state, fp, answers):
        before = _stats(state)
        engine = before["engines"][fp]
        assert engine["decisions"] == {"hits": 0, "misses": 0, "size": 2}
        assert self._decide_both(state, fp) == answers
        after = _stats(state)
        engine_after = after["engines"][fp]
        assert engine_after["decisions"]["hits"] == 2
        assert engine_after["decisions"]["misses"] == 0
        assert (engine_after["hits"], engine_after["misses"]) == (
            engine["hits"],
            engine["misses"],
        )
        assert after["decisions"]["hits"] == before["decisions"]["hits"] + 2
        assert after["decisions"]["misses"] == before["decisions"]["misses"]

    def test_after_lru_eviction_and_reregistration(self):
        state = ServiceState(registry=SchemaRegistry(max_schemas=1))
        fp = register(state)
        answers = self._decide_both(state, fp)
        register(state, SCHEMAS[0])  # evicts fp
        assert fp not in state.registry
        assert register(state) == fp
        self._assert_answered_from_the_memo(state, fp, answers)

    def test_after_delete_and_reregistration(self, state):
        fp = register(state)
        answers = self._decide_both(state, fp)
        status, _ = state.handle("DELETE", f"/schemas/{fp}", b"")
        assert status == 200
        assert register(state) == fp
        self._assert_answered_from_the_memo(state, fp, answers)

    def test_deleted_fingerprint_still_answers_404(self, state):
        fp = register(state)
        self._decide_both(state, fp)
        state.handle("DELETE", f"/schemas/{fp}", b"")
        assert _stats(state)["decisions"]["size"] == 2
        for path in ("/satisfiable", "/infer"):
            status, envelope = state.handle(
                "POST", path, _body({"fingerprint": fp, "query": QUERY})
            )
            assert status == 404, envelope
            assert envelope["error"]["code"] == "unknown-schema"
        assert _stats(state)["decisions"]["hits"] == 0

    def test_memo_stays_within_capacity_across_fingerprints(self, monkeypatch):
        monkeypatch.setattr(registry_mod, "DECISION_CACHE_SIZE", 3)
        state = ServiceState(registry=SchemaRegistry(max_schemas=2))
        capacity = 3 * 2
        for round_ in range(3):
            for i, text in enumerate(SCHEMAS):
                fp = register(state, text)
                for limit in range(1, 4):
                    _post(
                        state,
                        "/infer",
                        {"fingerprint": fp, "query": QUERIES[i], "limit": limit},
                    )
                    _post(
                        state,
                        "/satisfiable",
                        {"fingerprint": fp, "query": QUERIES[(i + limit) % 4]},
                    )
                decisions = _stats(state)["decisions"]
                assert decisions["capacity"] == capacity
                assert decisions["size"] <= capacity
        _assert_memo_consistent(state.registry)
        assert _stats(state)["decisions"]["size"] == capacity


class TestSharedMemoUnderConcurrency:
    def test_deciders_racing_evictions_deletes_and_reregistrations(self, monkeypatch):
        """More threads than cores and a short switch interval: deciders
        on several fingerprints race a thread that evicts, deletes and
        registers them again.  Every answer equals the single-threaded
        one, and the memo never holds more than its capacity."""
        monkeypatch.setattr(registry_mod, "DECISION_CACHE_SIZE", 2)
        requests = [
            (path, i, {"query": query, **extra})
            for i in range(len(SCHEMAS))
            for query in (QUERIES[i], QUERIES[(i + 1) % len(QUERIES)])
            for path, extra in (
                ("/satisfiable", {}),
                ("/infer", {}),
                ("/infer", {"limit": 1}),
            )
        ]
        reference_state = ServiceState(registry=SchemaRegistry())
        fingerprints = [register(reference_state, text) for text in SCHEMAS]
        expected = {
            index: _post(
                reference_state, path, {"fingerprint": fingerprints[i], **payload}
            )
            for index, (path, i, payload) in enumerate(requests)
        }

        state = ServiceState(registry=SchemaRegistry(max_schemas=2))
        registry = state.registry
        for text in SCHEMAS:
            register(state, text)
        n_deciders = 2 * len(os.sched_getaffinity(0)) + 2
        per_thread = 150
        errors, wrong, oversize = [], [], []
        answered = [0]
        done = threading.Event()
        barrier = threading.Barrier(n_deciders + 1, timeout=JOIN_TIMEOUT)

        def decider(seed):
            try:
                barrier.wait()
                for step in range(per_thread):
                    index = (seed * 7 + step) % len(requests)
                    path, i, payload = requests[index]
                    status, envelope = state.handle(
                        "POST", path, _body({"fingerprint": fingerprints[i], **payload})
                    )
                    if status == 404:
                        continue  # not resident at that moment
                    if status != 200 or envelope["result"] != expected[index]:
                        wrong.append((path, payload, status, envelope))
                    else:
                        answered[0] += 1
                    if registry.stats()["decisions"]["size"] > registry.decision_capacity:
                        oversize.append(registry.stats()["decisions"])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def churner():
            try:
                barrier.wait()
                step = 0
                while not done.is_set():
                    step += 1
                    i = step % len(SCHEMAS)
                    if step % 3 == 0:
                        state.handle("DELETE", f"/schemas/{fingerprints[i]}", b"")
                    else:
                        register(state, SCHEMAS[i])  # evicts the LRU entry
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=decider, args=(s,)) for s in range(n_deciders)]
        churn = threading.Thread(target=churner)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            churn.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=JOIN_TIMEOUT)
        finally:
            done.set()
            churn.join(timeout=JOIN_TIMEOUT)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads + [churn])

        assert errors == []
        assert wrong == []
        assert oversize == []
        assert answered[0] > 0
        _assert_memo_consistent(registry)
        assert registry.stats()["decisions"]["hits"] > 0
