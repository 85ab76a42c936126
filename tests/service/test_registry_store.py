"""Registry ↔ artifact store: persist on register, restore on construction.

The daemon-restart contract: everything a registry compiled in one
process life is resident — already compiled — in the next, and the
service surfaces the store's counters through ``/stats``.
"""

import json

import repro.service.registry as registry_mod
from repro.engine import ArtifactStore, EngineArtifact
from repro.query import parse_query
from repro.schema import schema_to_string
from repro.service import SchemaRegistry
from repro.service.daemon import ServiceState
from repro.typing import is_satisfiable
from repro.workloads import chain_schema, document_schema, domain_corpus, schema_corpus

SCHEMA_TEXT = schema_to_string(document_schema(3))
QUERY_TEXT = "SELECT X WHERE Root = [_ -> X]"
QUERY = parse_query(QUERY_TEXT)

#: The engine-cache kinds compiled for the schema itself, as opposed to
#: the paths its queries name.
SCHEMA_SIDE_KINDS = (
    "schema-alphabet",
    "content-nfa",
    "restricted-content-nfa",
    "inhabited",
    "possible-edges",
    "compiled-content",
    "compiled-content-restricted",
)


def post(state, path, payload):
    return state.handle("POST", path, json.dumps(payload).encode())


class TestPersistOnRegister:
    def test_register_writes_the_artifact(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        registry = SchemaRegistry(store=store)
        entry = registry.register(SCHEMA_TEXT)
        assert store.contains(entry.fingerprint)
        assert store.get(entry.fingerprint).syntax == "scmdl"

    def test_reregister_after_evict_is_a_store_hit(self, tmp_path):
        registry = SchemaRegistry(store=ArtifactStore(root=tmp_path))
        fingerprint = registry.register(SCHEMA_TEXT).fingerprint
        registry.evict(fingerprint)
        entry = registry.register(SCHEMA_TEXT)
        assert entry.info.get("store_hit") is True

    def test_storeless_registry_is_unchanged(self):
        registry = SchemaRegistry()
        entry = registry.register(SCHEMA_TEXT)
        assert "store_hit" not in entry.info
        assert "store" not in registry.stats()


class TestRestoreOnConstruction:
    def test_restart_restores_every_registered_schema(self, tmp_path):
        first_life = SchemaRegistry(store=ArtifactStore(root=tmp_path))
        texts = [schema_to_string(s) for s in schema_corpus(4)]
        fingerprints = [first_life.register(t).fingerprint for t in texts]

        second_life = SchemaRegistry(store=ArtifactStore(root=tmp_path))
        assert len(second_life) == len(texts)
        assert second_life.stats()["restored"] == len(texts)
        for fingerprint in fingerprints:
            entry = second_life.get(fingerprint)
            assert entry.info.get("restored") is True
            assert is_satisfiable(QUERY, entry.schema, None, entry.engine)

    def test_first_wave_after_a_restart_compiles_nothing_schema_side(
        self, tmp_path, monkeypatch
    ):
        """The restarted registry's first request wave parses no schema
        text and misses no schema-side cache kind: only the query's own
        path is compiled.  This is what made that wave more than 3x faster
        than the same wave on a cold daemon."""
        first_life = SchemaRegistry(store=ArtifactStore(root=tmp_path))
        texts = [schema_to_string(s) for s in schema_corpus(4)]
        fingerprints = [first_life.register(t).fingerprint for t in texts]

        parses = []
        parse = registry_mod.parse_schema_text
        monkeypatch.setattr(
            registry_mod,
            "parse_schema_text",
            lambda *args, **kwargs: parses.append(args) or parse(*args, **kwargs),
        )
        state = ServiceState(registry=SchemaRegistry(store=ArtifactStore(root=tmp_path)))
        for fingerprint in fingerprints:
            status, envelope = post(
                state, "/satisfiable", {"fingerprint": fingerprint, "query": QUERY_TEXT}
            )
            assert status == 200, envelope
            assert envelope["result"]["satisfiable"] is True
        stats = state.registry.stats()
        assert stats["restored"] == len(texts)
        assert parses == []
        for fingerprint in fingerprints:
            by_kind = stats["engines"][fingerprint]["by_kind"]
            missed = [k for k in SCHEMA_SIDE_KINDS if by_kind.get(k, {}).get("misses")]
            assert missed == [], fingerprint

    def test_restart_reports_a_dtd_registrations_syntax(self, tmp_path):
        dtd = "<!ELEMENT doc (title, para*)>\n<!ELEMENT title #PCDATA>\n<!ELEMENT para #PCDATA>"
        first_life = ServiceState(registry=SchemaRegistry(store=ArtifactStore(root=tmp_path)))
        status, envelope = post(
            first_life, "/schemas", {"schema": dtd, "syntax": "dtd", "wrap": True}
        )
        assert status == 200, envelope
        assert envelope["result"]["syntax"] == "dtd"
        second_life = ServiceState(registry=SchemaRegistry(store=ArtifactStore(root=tmp_path)))
        status, envelope = second_life.handle("GET", "/schemas", b"")
        assert status == 200, envelope
        [restored] = envelope["result"]["schemas"]
        assert restored["syntax"] == "dtd"
        assert restored["restored"] is True

    def test_a_migration_stores_the_candidates_syntax(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        registry = SchemaRegistry(store=store)
        old = registry.register(SCHEMA_TEXT).fingerprint
        entry, report = registry.migrate(
            old, "<!ELEMENT doc (title)> <!ELEMENT title #PCDATA>", syntax="dtd", policy="any"
        )
        assert report.accepted
        assert store.get(entry.fingerprint).syntax == "dtd"
        assert not store.contains(old)
        restarted = SchemaRegistry(store=ArtifactStore(root=tmp_path))
        assert [e.syntax for e in restarted.entries()] == ["dtd"]

    def test_restore_respects_the_lru_bound(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        first_life = SchemaRegistry(store=store)
        for schema in schema_corpus(5):
            first_life.register(schema_to_string(schema))
        bounded = SchemaRegistry(max_schemas=2, store=ArtifactStore(root=tmp_path))
        assert len(bounded) == 2

    def test_restore_skips_corrupt_blobs(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        first_life = SchemaRegistry(store=store)
        fingerprint = first_life.register(SCHEMA_TEXT).fingerprint
        store.path_for(fingerprint).write_bytes(b"shredded")
        second_life = SchemaRegistry(store=ArtifactStore(root=tmp_path))
        assert len(second_life) == 0
        assert second_life.stats()["restored"] == 0

    def test_restore_off_means_cold(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        SchemaRegistry(store=store).register(SCHEMA_TEXT)
        cold = SchemaRegistry(store=ArtifactStore(root=tmp_path), restore=False)
        assert len(cold) == 0


class TestCachePressure:
    def test_rotation_past_the_bound_reloads_from_the_store(self, tmp_path):
        """Ten schemas queried in rotation through a 3-schema registry: each
        ``unknown-schema`` 404 is answered by registering the schema again,
        which the store serves.  No answer is a 5xx, and every answer is
        the one a registry holding all ten gives."""
        corpora = domain_corpus(seed=2)
        bounded = ServiceState(
            registry=SchemaRegistry(max_schemas=3, store=ArtifactStore(root=tmp_path))
        )
        unbounded = ServiceState(registry=SchemaRegistry())
        for corpus in corpora:
            for state in (bounded, unbounded):
                status, envelope = post(state, "/schemas", {"schema": corpus.schema_text})
                assert status == 200, envelope
        reregistered = 0
        for _lap in range(2):
            for corpus in corpora:
                for path in ("/satisfiable", "/infer"):
                    body = {"fingerprint": corpus.fingerprint, "query": corpus.queries[0]}
                    status, envelope = post(bounded, path, body)
                    if status == 404:
                        assert envelope["error"]["code"] == "unknown-schema"
                        reregistered += 1
                        status, _ = post(bounded, "/schemas", {"schema": corpus.schema_text})
                        assert status == 200
                        status, envelope = post(bounded, path, body)
                    assert status == 200, envelope
                    expected = post(unbounded, path, body)[1]["result"]
                    assert envelope["result"] == expected
        stats = bounded.registry.stats()
        assert reregistered > 0
        assert stats["evicted"] > 0
        assert stats["store_hits"] > 0
        endpoints = bounded.metrics.snapshot()["endpoints"]
        statuses = {code for block in endpoints.values() for code in block["by_status"]}
        assert statuses == {"200", "404"}


class TestStatsSurface:
    def test_stats_reports_store_counters(self, tmp_path):
        state = ServiceState(
            registry=SchemaRegistry(store=ArtifactStore(root=tmp_path))
        )
        status, envelope = state.handle(
            "POST", "/schemas", json.dumps({"schema": SCHEMA_TEXT}).encode()
        )
        assert status == 200
        status, envelope = state.handle("GET", "/stats", b"")
        assert status == 200
        store_stats = envelope["result"]["registry"]["store"]
        assert store_stats["puts"] == 1
        assert store_stats["artifacts"] == 1
        for counter in ("hits", "misses", "evictions", "invalidations", "corrupt"):
            assert counter in store_stats

    def test_restored_registry_serves_satisfiable_over_http_state(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        fingerprint = (
            SchemaRegistry(store=store).register(SCHEMA_TEXT).fingerprint
        )
        restarted = ServiceState(
            registry=SchemaRegistry(store=ArtifactStore(root=tmp_path))
        )
        status, envelope = restarted.handle(
            "POST",
            "/satisfiable",
            json.dumps(
                {"fingerprint": fingerprint, "query": "SELECT X WHERE Root = [_ -> X]"}
            ).encode(),
        )
        assert status == 200
        assert envelope["result"]["satisfiable"] is True


class TestBatchViaStore:
    def test_process_executor_results_match_sequential(self, tmp_path):
        from repro.batch import BatchPlan, run_batch

        items = tuple(
            {"query": "SELECT X WHERE Root = [_ -> X]"} for _ in range(8)
        )
        plan = BatchPlan(
            operation="satisfiable",
            items=items,
            schema_text=schema_to_string(chain_schema(3)),
        )
        store = ArtifactStore(root=tmp_path)
        via_store = run_batch(plan, executor="process", store=store)
        sequential = run_batch(plan, executor="sequential")
        assert via_store.results == sequential.results
        # The parent persisted exactly one artifact for the workers.
        assert len(store) == 1

    def test_a_worker_installs_the_stored_artifact(self, tmp_path, monkeypatch):
        from repro.batch import BatchPlan, executors

        plan = BatchPlan(
            operation="satisfiable", items=({"query": QUERY_TEXT},), schema_text=SCHEMA_TEXT
        )
        schema, engine = plan.compile()
        ArtifactStore(root=tmp_path).put(EngineArtifact.capture(engine, schema))
        monkeypatch.setattr(executors, "_WORKER", {})
        # No schema text to fall back on: the worker must load the blob.
        reference = {
            "cache_dir": str(tmp_path),
            "fingerprint": schema.fingerprint(),
            "schema_text": None,
            "syntax": "scmdl",
            "wrap": False,
        }
        executors._process_init("satisfiable", reference)
        assert executors._WORKER["schema"].fingerprint() == schema.fingerprint()
        worker = executors._WORKER["engine"]
        assert worker.backend == "compiled"
        assert len(worker.cache) == len(EngineArtifact.capture(engine, schema))
