"""Registry ↔ artifact store: persist on register, restore on construction.

The daemon-restart contract: everything a registry compiled in one
process life is resident — already compiled — in the next, and the
service surfaces the store's counters through ``/stats``.
"""

import json

from repro.engine import ArtifactStore
from repro.query import parse_query
from repro.schema import schema_to_string
from repro.service import SchemaRegistry
from repro.service.daemon import ServiceState
from repro.typing import is_satisfiable
from repro.workloads import chain_schema, document_schema, schema_corpus

SCHEMA_TEXT = schema_to_string(document_schema(3))
QUERY = parse_query("SELECT X WHERE Root = [_ -> X]")


class TestPersistOnRegister:
    def test_register_writes_the_artifact(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        registry = SchemaRegistry(store=store)
        entry = registry.register(SCHEMA_TEXT)
        assert store.contains(entry.fingerprint)
        assert store.meta(entry.fingerprint)["syntax"] == "scmdl"

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

    def test_registration_over_an_nfa_store_builds_an_nfa_engine(self, tmp_path):
        # The engine used to take the process default backend, whose
        # artifact an nfa store refused: every registration answered 400.
        state = ServiceState(
            registry=SchemaRegistry(store=ArtifactStore(root=tmp_path, backend="nfa"))
        )
        status, envelope = state.handle(
            "POST", "/schemas", json.dumps({"schema": SCHEMA_TEXT}).encode()
        )
        assert status == 200, envelope
        fingerprint = envelope["result"]["fingerprint"]
        engines = state.handle("GET", "/stats", b"")[1]["result"]["registry"]["engines"]
        assert engines[fingerprint]["backend"] == "nfa"

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
