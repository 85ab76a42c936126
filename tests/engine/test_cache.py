"""The compilation engine: cache behavior, fingerprints, freeze guard."""

import pytest

from repro.automata.syntax import star, sym
from repro.data import parse_data
from repro.engine import (
    BACKENDS,
    Engine,
    EngineCache,
    get_default_engine,
    set_default_engine,
)
from repro.schema import SchemaError, conforms, parse_schema
from repro.typing.traces import trace_product

SCHEMA_TEXT = """
ROOT = [(paper -> PAPER)*];
PAPER = [title -> TITLE . (author -> AUTHOR)*];
TITLE = string;
AUTHOR = string
"""

DATA_TEXT = """
o1 = [paper -> o2];
o2 = [title -> o3, author -> o4];
o3 = "Types";
o4 = "Milo"
"""


class TestEngineCacheBasics:
    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            EngineCache(max_entries=0)
        with pytest.raises(ValueError):
            EngineCache(max_entries=-1)

    def test_computes_once_then_hits(self):
        cache = EngineCache()
        calls = []
        for _ in range(3):
            value = cache.get_or_compute(("k", 1), lambda: calls.append(1) or "v")
        assert value == "v"
        assert calls == [1]
        stats = cache.stats()
        assert stats.hits == 2
        assert stats.misses == 1

    def test_contains_len_clear(self):
        cache = EngineCache()
        cache.get_or_compute(("a",), lambda: 1)
        cache.get_or_compute(("b",), lambda: 2)
        assert ("a",) in cache
        assert len(cache) == 2
        cache.clear()
        assert ("a",) not in cache
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = EngineCache(max_entries=2)
        cache.get_or_compute(("a",), lambda: 1)
        cache.get_or_compute(("b",), lambda: 2)
        cache.get_or_compute(("a",), lambda: 1)  # refresh "a"
        cache.get_or_compute(("c",), lambda: 3)  # evicts "b", the LRU entry
        assert ("a",) in cache
        assert ("b",) not in cache
        assert ("c",) in cache
        assert cache.stats().evictions == 1

    def test_per_kind_stats(self):
        cache = EngineCache()
        cache.get_or_compute(("thompson", "x"), lambda: 1)
        cache.get_or_compute(("thompson", "x"), lambda: 1)
        cache.get_or_compute(("reach", "y"), lambda: 2)
        by_kind = cache.stats().by_kind
        assert by_kind["thompson"].hits == 1
        assert by_kind["thompson"].misses == 1
        assert by_kind["reach"].misses == 1


class TestFingerprint:
    def test_stable_across_equal_parses(self):
        first = parse_schema(SCHEMA_TEXT)
        second = parse_schema(SCHEMA_TEXT)
        assert first is not second
        assert first.fingerprint() == second.fingerprint()

    def test_insensitive_to_definition_order(self):
        reordered = parse_schema(
            """
            ROOT = [(paper -> PAPER)*];
            PAPER = [title -> TITLE . (author -> AUTHOR)*];
            AUTHOR = string;
            TITLE = string
            """
        )
        assert reordered.fingerprint() == parse_schema(SCHEMA_TEXT).fingerprint()

    def test_differs_for_different_schemas(self):
        other = parse_schema("ROOT = [(paper -> PAPER)*]; PAPER = string")
        assert other.fingerprint() != parse_schema(SCHEMA_TEXT).fingerprint()

    def test_mutation_after_fingerprint_raises(self):
        schema = parse_schema(SCHEMA_TEXT)
        schema.fingerprint()
        with pytest.raises(SchemaError):
            schema.root = "PAPER"
        with pytest.raises(TypeError):
            schema.types["NEW"] = schema.types["PAPER"]

    def test_typedef_always_immutable(self):
        schema = parse_schema(SCHEMA_TEXT)
        with pytest.raises(AttributeError):
            schema.type("PAPER").tid = "OTHER"


class TestEngineMemoization:
    def test_repeated_conformance_hits_content_cache(self):
        engine = Engine()
        schema = parse_schema(SCHEMA_TEXT)
        graph = parse_data(DATA_TEXT)
        assert conforms(graph, schema, engine)
        assert conforms(graph, schema, engine)
        by_kind = engine.stats().by_kind
        # Ordered-node support runs on the backend's content automaton.
        kind = "compiled-content" if engine.backend == "compiled" else "content-nfa"
        assert by_kind[kind].hits > 0

    def test_repeated_trace_product_hits_cache(self):
        engine = Engine()
        schema = parse_schema(SCHEMA_TEXT)
        arms = (sym("paper"),)
        allowed = (("PAPER",),)

        first = trace_product(schema, ("ROOT",), arms, allowed, engine=engine)
        misses_after_first = engine.stats().by_kind["trace-product"].misses
        second = trace_product(schema, ("ROOT",), arms, allowed, engine=engine)

        assert first is second
        by_kind = engine.stats().by_kind
        assert by_kind["trace-product"].hits == 1
        assert by_kind["trace-product"].misses == misses_after_first == 1

    def test_thompson_memoized_per_alphabet(self):
        engine = Engine()
        regex = star(sym("a"))
        alphabet = frozenset({"a", "b"})
        assert engine.thompson(regex, alphabet) is engine.thompson(regex, alphabet)
        assert engine.thompson(regex, frozenset({"a"})) is not engine.thompson(
            regex, alphabet
        )

    def test_engines_are_isolated(self):
        schema = parse_schema(SCHEMA_TEXT)
        one, two = Engine(), Engine()
        one.content_nfa(schema, "PAPER")
        assert two.stats().calls == 0

    def test_default_engine_swap(self):
        previous = set_default_engine(Engine())
        try:
            fresh = get_default_engine()
            schema = parse_schema(SCHEMA_TEXT)
            graph = parse_data(DATA_TEXT)
            assert conforms(graph, schema)
            assert fresh.stats().misses > 0
        finally:
            set_default_engine(previous)


class TestBackends:
    def test_compiled_is_the_default(self):
        assert Engine().backend == "compiled"
        assert Engine(backend="nfa").backend == "nfa"

    def test_an_unknown_backend_is_refused(self):
        with pytest.raises(ValueError, match="unknown backend"):
            Engine(backend="quantum")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_content_runner_offers_only_inhabited_targets(self, backend):
        # ``B`` needs a ``B`` child forever, so no instance holds one.
        schema = parse_schema("R = [(a -> A | b -> B)*]; A = string; B = [b -> B]")
        runner = Engine(backend=backend).content_runner(schema, "R")
        assert set(runner.available_symbols(runner.initial())) == {("a", "A")}


class TestEngineCacheThreadSafety:
    def test_concurrent_get_or_compute_single_flight(self):
        """Racing callers of the same key compute it once; counters exact."""
        import threading

        cache = EngineCache()
        computes = []
        barrier = threading.Barrier(8)
        keys = [("k", i) for i in range(4)]

        def worker():
            barrier.wait()
            for _ in range(50):
                for key in keys:
                    cache.get_or_compute(
                        key, lambda key=key: computes.append(key) or key[1]
                    )

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(computes) == len(keys)  # each key computed exactly once
        stats = cache.stats()
        assert stats.misses == len(keys)
        assert stats.hits + stats.misses == 8 * 50 * len(keys)

    def test_concurrent_lru_bookkeeping_stays_bounded(self):
        """Heavy churn from many threads never exceeds the LRU bound and
        never loses an eviction in the counters."""
        import threading

        cache = EngineCache(max_entries=16)
        barrier = threading.Barrier(6)

        def worker(seed):
            barrier.wait()
            for i in range(200):
                cache.get_or_compute(("churn", seed, i), lambda: i)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = cache.stats()
        assert len(cache) <= 16
        assert stats.misses == 6 * 200
        assert stats.evictions == stats.misses - len(cache)

    def test_concurrent_engine_use_shares_artifacts(self):
        """Many threads running conformance through one engine agree and
        reconcile: per-kind hits+misses equals the call volume."""
        import threading

        engine = Engine()
        schema = parse_schema(SCHEMA_TEXT)
        graph = parse_data(DATA_TEXT)
        verdicts = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(5):
                verdicts.append(conforms(graph, schema, engine))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert verdicts == [True] * 40
        stats = engine.stats()
        by_kind = stats.by_kind
        # Each artifact kind was built at most once per (schema, tid) key.
        assert by_kind["content-nfa"].misses <= len(schema.tids())
        assert stats.hits + stats.misses == stats.calls
