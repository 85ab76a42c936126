"""Concurrency tests for the schema registry — and for the daemon's
counters under parallel traffic.

The registry is the service's shared mutable core; these tests hammer it
from many threads (registering, evicting, and querying the same schemas)
and assert the two properties the threaded server depends on: no lost
updates (every thread sees a usable entry; residency never exceeds the
bound) and exact counters (`/stats` reconciles with the request volume).
It also pins the registry's parse memo: a text it holds is not parsed
again, whether its entry is resident, evicted or deleted.
"""

import json
import os
import sys
import threading

import pytest

import repro.service.registry as registry_mod
from repro.engine import ArtifactStore
from repro.service import (
    SchemaRegistry,
    ServiceClient,
    TypedQueryService,
    UnknownSchemaError,
)
from repro.service.daemon import ServiceState

SCHEMAS = [
    f"T{i} = [(a{i} -> A{i})*]; A{i} = string" for i in range(6)
]

QUERY_FOR = {i: f"SELECT X WHERE Root = [a{i} -> X]" for i in range(6)}


#: Seconds any test thread may take before the test fails.
JOIN_TIMEOUT = 60


def _fingerprints(registry):
    return [entry.fingerprint for entry in registry.entries()]


def _run_threads(threads):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    assert not any(thread.is_alive() for thread in threads)


class TestRegistryBasics:
    def test_register_get_evict_roundtrip(self):
        registry = SchemaRegistry()
        entry = registry.register(SCHEMAS[0])
        assert registry.get(entry.fingerprint) is entry
        assert entry.fingerprint in registry
        assert registry.evict(entry.fingerprint)
        with pytest.raises(UnknownSchemaError):
            registry.get(entry.fingerprint)

    def test_reregistration_reuses_compiled_entry(self):
        registry = SchemaRegistry()
        first = registry.register(SCHEMAS[0])
        second = registry.register(SCHEMAS[0])
        assert first is second
        stats = registry.stats()
        assert stats["registered"] == 1
        assert stats["reregistered"] == 1

    def test_lru_bound_evicts_least_recently_used(self):
        registry = SchemaRegistry(max_schemas=2)
        a = registry.register(SCHEMAS[0])
        b = registry.register(SCHEMAS[1])
        registry.get(a.fingerprint)  # refresh a; b is now LRU
        c = registry.register(SCHEMAS[2])
        assert set(_fingerprints(registry)) == {a.fingerprint, c.fingerprint}
        assert registry.stats()["evicted"] == 1

    def test_prewarm_populates_engine(self):
        registry = SchemaRegistry()
        entry = registry.register(SCHEMAS[0])
        kinds = set(entry.engine.stats().by_kind)
        assert {"schema-alphabet", "inhabited", "content-nfa", "reach"} <= kinds
        # The compile pipeline's tables are warmed up front too, so the
        # first request never pays subset construction.
        assert {"compiled-content", "compiled-content-restricted"} <= kinds


class TestRegistryConcurrency:
    def test_parallel_registration_of_same_schema_is_one_entry(self):
        registry = SchemaRegistry()
        entries = []
        barrier = threading.Barrier(8, timeout=JOIN_TIMEOUT)

        def worker():
            barrier.wait()
            entries.append(registry.register(SCHEMAS[0]))

        _run_threads([threading.Thread(target=worker) for _ in range(8)])

        assert len(registry) == 1
        # No lost updates: every thread got the one resident entry's
        # fingerprint, and the counters account for all eight calls.
        assert len({entry.fingerprint for entry in entries}) == 1
        stats = registry.stats()
        assert stats["registered"] == 1
        assert stats["registered"] + stats["reregistered"] == 8

    def test_racing_duplicate_registration_is_counted(self, monkeypatch):
        """Two threads compiling the same fingerprint concurrently: one
        wins, the loser's duplicate compile shows up in register_races.
        A barrier inside prewarm holds both threads in the compile phase
        (outside the lock) until both have passed the fast-path check,
        so the race is deterministic, not scheduler luck."""
        import repro.service.registry as registry_mod

        real_prewarm = registry_mod.prewarm
        barrier = threading.Barrier(2, timeout=10)

        def synced_prewarm(schema, engine):
            barrier.wait()
            return real_prewarm(schema, engine)

        monkeypatch.setattr(registry_mod, "prewarm", synced_prewarm)
        registry = SchemaRegistry()
        entries = []

        def worker():
            entries.append(registry.register(SCHEMAS[0]))

        _run_threads([threading.Thread(target=worker) for _ in range(2)])

        assert len(registry) == 1
        # The loser was handed the winner's entry, not its own duplicate.
        assert entries[0] is entries[1]
        stats = registry.stats()
        assert stats["registered"] == 1
        assert stats["register_races"] == 1
        assert stats["reregistered"] == 1

    def test_register_races_counter_starts_at_zero(self):
        registry = SchemaRegistry()
        registry.register(SCHEMAS[0])
        registry.register(SCHEMAS[0])  # sequential re-register: no race
        stats = registry.stats()
        assert stats["register_races"] == 0
        assert stats["reregistered"] == 1

    def test_register_evict_query_storm(self):
        """N threads registering/evicting/querying the same schema pool:
        residency never exceeds the bound and counters reconcile."""
        registry = SchemaRegistry(max_schemas=4)
        errors = []
        lookups = [0]
        lookup_lock = threading.Lock()
        barrier = threading.Barrier(8, timeout=JOIN_TIMEOUT)

        def worker(seed):
            barrier.wait()
            try:
                for i in range(30):
                    text = SCHEMAS[(seed + i) % len(SCHEMAS)]
                    entry = registry.register(text)
                    try:
                        found = registry.get(entry.fingerprint)
                        with lookup_lock:
                            lookups[0] += 1
                        assert found.fingerprint == entry.fingerprint
                    except UnknownSchemaError:
                        # A racing eviction beat us; count it and move on.
                        with lookup_lock:
                            lookups[0] += 1
                    if i % 7 == 0:
                        registry.evict(entry.fingerprint)
                    assert len(registry) <= 4
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        _run_threads([threading.Thread(target=worker, args=(s,)) for s in range(8)])

        assert errors == []
        stats = registry.stats()
        assert stats["resident"] <= 4
        assert stats["lookups"] == lookups[0]
        assert stats["registered"] + stats["reregistered"] == 8 * 30
        # Every fingerprint still resident has a live, warmed engine.
        for entry in registry.entries():
            assert len(entry.engine.cache) > 0


class TestServiceConcurrency:
    def test_stats_reconcile_with_request_volume(self):
        """Parallel clients hammering one daemon: /stats request counts
        equal the requests actually sent, and every answer is correct."""
        with TypedQueryService() as service, ServiceClient(
            service.host, service.port
        ) as client:
            fingerprints = {
                i: client.register_schema(SCHEMAS[i])["fingerprint"]
                for i in range(4)
            }
            per_thread = 20
            n_threads = 6
            failures = []
            barrier = threading.Barrier(n_threads, timeout=JOIN_TIMEOUT)

            def worker(seed):
                with ServiceClient(service.host, service.port) as mine:
                    barrier.wait()
                    try:
                        for i in range(per_thread):
                            idx = (seed + i) % 4
                            result = mine.satisfiable(
                                fingerprints[idx], QUERY_FOR[idx]
                            )
                            assert result["satisfiable"] is True
                    except Exception as error:  # pragma: no cover - failure path
                        failures.append(error)

            _run_threads(
                [threading.Thread(target=worker, args=(s,)) for s in range(n_threads)]
            )

            assert failures == []
            stats = client.stats()
            satisfiable = stats["service"]["endpoints"]["POST /satisfiable"]
            assert satisfiable["requests"] == n_threads * per_thread
            assert satisfiable["errors"] == 0
            # Registry lookups reconcile: one per satisfiable request.
            assert stats["registry"]["lookups"] == n_threads * per_thread
            # Engine caches only accumulated hits after warmup: each
            # fingerprint's engine saw hits from its repeat requests.
            for fingerprint in fingerprints.values():
                engine = stats["registry"]["engines"][fingerprint]
                assert engine["hits"] > 0


@pytest.fixture
def parses(monkeypatch):
    """Every text ``repro.service.registry.parse_schema_text`` parses."""
    seen = []
    real = registry_mod.parse_schema_text

    def counting(text, syntax="scmdl", wrap=False):
        seen.append((text, syntax, wrap))
        return real(text, syntax=syntax, wrap=wrap)

    monkeypatch.setattr(registry_mod, "parse_schema_text", counting)
    return seen


def _post(state, path, payload):
    return state.handle("POST", path, json.dumps(payload).encode())


class TestParseMemo:
    def test_resident_reregistration_skips_the_parse(self, parses):
        registry = SchemaRegistry()
        first = registry.register(SCHEMAS[0])
        assert registry.register(SCHEMAS[0]) is first
        assert len(parses) == 1
        assert registry.stats()["parse_memo"] == {"hits": 1, "misses": 1, "size": 1}

    def test_reregistration_after_eviction_reloads_without_parsing(
        self, parses, tmp_path
    ):
        registry = SchemaRegistry(max_schemas=1, store=ArtifactStore(root=tmp_path))
        first = registry.register(SCHEMAS[0])
        registry.register(SCHEMAS[1])  # evicts SCHEMAS[0]
        assert first.fingerprint not in registry
        again = registry.register(SCHEMAS[0])
        assert again.info.get("store_hit") is True
        assert again.schema is first.schema
        assert [text for text, _, _ in parses] == SCHEMAS[:2]

    def test_reregistration_after_delete_recompiles_without_parsing(
        self, parses, monkeypatch, tmp_path
    ):
        prewarms = []
        real_prewarm = registry_mod.prewarm

        def counting_prewarm(schema, engine):
            prewarms.append(schema.fingerprint())
            return real_prewarm(schema, engine)

        monkeypatch.setattr(registry_mod, "prewarm", counting_prewarm)
        registry = SchemaRegistry(store=ArtifactStore(root=tmp_path))
        state = ServiceState(registry=registry)
        status, envelope = _post(state, "/schemas", {"schema": SCHEMAS[0]})
        assert status == 200
        fingerprint = envelope["result"]["fingerprint"]
        assert state.handle("DELETE", f"/schemas/{fingerprint}", b"")[0] == 200
        status, envelope = _post(state, "/schemas", {"schema": SCHEMAS[0]})
        assert status == 200 and envelope["result"]["fingerprint"] == fingerprint
        assert prewarms == [fingerprint, fingerprint]
        assert len(parses) == 1

    def test_parse_errors_are_not_memoized(self, parses):
        registry = SchemaRegistry()
        for _ in range(2):
            with pytest.raises(SyntaxError):
                registry.register("T = [a -> ")
        assert len(parses) == 2
        assert registry.stats()["parse_memo"] == {"hits": 0, "misses": 2, "size": 0}

    def test_texts_over_the_cap_are_parsed_every_time(self, parses):
        registry = SchemaRegistry()
        padding = registry_mod.SCHEMA_MEMO_MAX_CHARS - len(SCHEMAS[0]) - 1
        at_cap = SCHEMAS[0] + "\n#" + "x" * (padding - 1)
        over_cap = at_cap + "x"
        assert len(at_cap) == registry_mod.SCHEMA_MEMO_MAX_CHARS
        for _ in range(2):
            registry.register(at_cap)
            registry.register(over_cap)
        assert [text for text, _, _ in parses] == [at_cap, over_cap, over_cap]
        assert len(registry) == 1
        # A text over the cap bypasses the memo and its counters.
        assert registry.stats()["parse_memo"] == {"hits": 1, "misses": 1, "size": 1}

    def test_syntax_and_wrap_are_part_of_the_key(self, parses):
        registry = SchemaRegistry()
        dtd = "<!ELEMENT doc (item*)> <!ELEMENT item #PCDATA>"
        plain = registry.register(dtd, syntax="dtd")
        wrapped = registry.register(dtd, syntax="dtd", wrap=True)
        assert plain.fingerprint != wrapped.fingerprint
        # ScmDL ignores wrap, so both keys parse to the one resident schema.
        registry.register(SCHEMAS[0])
        registry.register(SCHEMAS[0], wrap=True)
        assert parses == [
            (dtd, "dtd", False),
            (dtd, "dtd", True),
            (SCHEMAS[0], "scmdl", False),
            (SCHEMAS[0], "scmdl", True),
        ]
        assert len(registry) == 3

    def test_bound_evicts_the_least_recently_used_parse(self, parses, monkeypatch):
        monkeypatch.setattr(registry_mod, "SCHEMA_MEMO_ENTRIES", 2)
        registry = SchemaRegistry()
        for index in (0, 1, 0, 2, 0, 1):
            registry.register(SCHEMAS[index])
        # SCHEMAS[1] was the least recently used when SCHEMAS[2] came in.
        assert [text for text, _, _ in parses] == [SCHEMAS[i] for i in (0, 1, 2, 1)]
        assert registry.stats()["parse_memo"] == {"hits": 2, "misses": 4, "size": 2}

    def test_stats_counters_reconcile(self, parses):
        state = ServiceState()
        bodies = [{"schema": SCHEMAS[i % 3]} for i in range(7)]
        bodies.append({"schema": "T = [a -> "})
        bodies.append({"schema": SCHEMAS[0], "syntax": "xsd"})
        statuses = [_post(state, "/schemas", body)[0] for body in bodies]
        assert statuses == [200] * 7 + [400, 400]
        status, envelope = state.handle("GET", "/stats", b"")
        registry = envelope["result"]["registry"]
        memo = registry["parse_memo"]
        assert memo["hits"] + memo["misses"] == len(bodies)
        assert memo["misses"] == len(parses) == 5
        assert memo["size"] == 3
        assert registry["registered"] + registry["reregistered"] == 7
        # /stats keeps its shape: every engines entry is an engine.
        resident = {entry.fingerprint for entry in state.registry.entries()}
        assert set(registry["engines"]) == resident
        assert all("decisions" in engine for engine in registry["engines"].values())


class TestParseMemoStress:
    def test_many_threads_reregistering_few_texts(self):
        """More threads than cores and a short switch interval: a lost
        update in the memo or the registry would break the counts."""
        registry = SchemaRegistry()
        texts = SCHEMAS[:3]
        n_threads = 2 * len(os.sched_getaffinity(0)) + 2
        per_thread = 40
        errors = []
        barrier = threading.Barrier(n_threads, timeout=JOIN_TIMEOUT)

        def worker(seed):
            try:
                barrier.wait()
                for i in range(per_thread):
                    registry.register(texts[(seed + i) % len(texts)])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(
                [threading.Thread(target=worker, args=(s,)) for s in range(n_threads)]
            )
        finally:
            sys.setswitchinterval(interval)

        assert errors == []
        calls = n_threads * per_thread
        stats = registry.stats()
        assert len(registry) == len(set(_fingerprints(registry))) == len(texts)
        assert stats["registered"] == len(texts)
        # register_races are counted inside reregistered.
        assert stats["registered"] + stats["reregistered"] == calls
        memo = stats["parse_memo"]
        assert memo["hits"] + memo["misses"] == calls
        assert memo["size"] == len(texts)
