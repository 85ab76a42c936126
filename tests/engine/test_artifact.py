"""Shippable engine artifacts: capture → bytes → install round-trips.

The process executor's whole speedup rests on these invariants: the
payload carries only process-independent pure data, survives an honest
pickle round-trip with identity-interned regexes and a stable schema
fingerprint, and a worker seeded from it answers decisions without
recompiling the schema's automata.
"""

import pickle

import pytest

from repro.engine import (
    ARTIFACT_VERSION,
    ArtifactError,
    Engine,
    EngineArtifact,
    prewarm,
)
from repro.schema import parse_schema, schema_to_string
from repro.workloads import document_schema

SCHEMA = document_schema(3)


def _captured():
    engine = Engine()
    prewarm(SCHEMA, engine)
    return engine, EngineArtifact.capture(engine, SCHEMA)


class TestCapture:
    def test_capture_ships_only_shippable_kinds(self):
        _engine, artifact = _captured()
        assert len(artifact) > 0
        kinds = {key[0] for key in artifact.entries}
        assert "compiled-content" in kinds
        # Runner wrappers and raw NFAs hold process-local references
        # and must never ship.
        assert not kinds & {"content-runner", "path-runner", "content-nfa"}


class TestRoundTrip:
    def test_bytes_round_trip_preserves_entries(self):
        _engine, artifact = _captured()
        clone = EngineArtifact.from_bytes(artifact.to_bytes())
        assert clone.syntax == artifact.syntax == "scmdl"
        assert set(clone.entries) == set(artifact.entries)
        assert clone.schema.fingerprint() == SCHEMA.fingerprint()

    def test_the_payload_carries_the_schemas_syntax(self):
        engine, _artifact = _captured()
        dtd = EngineArtifact.capture(engine, SCHEMA, "dtd")
        assert EngineArtifact.from_bytes(dtd.to_bytes()).syntax == "dtd"

    def test_version_mismatch_is_rejected(self):
        _engine, artifact = _captured()
        payload = pickle.loads(artifact.to_bytes())
        payload["version"] = ARTIFACT_VERSION + 1
        with pytest.raises(ValueError, match="version mismatch"):
            EngineArtifact.from_bytes(pickle.dumps(payload))

    def test_capture_order_is_canonical(self):
        # Two captures of independently compiled engines list their
        # entries identically, which is what makes re-baked artifacts
        # byte-deterministic (`repro warm --check`).
        _e1, first = _captured()
        _e2, second = _captured()
        assert list(first.entries) == list(second.entries)
        assert first.to_bytes() == second.to_bytes()


class TestCorruptPayloads:
    """`from_bytes` on bad bytes raises the *typed* ArtifactError.

    Regression: a truncated or version-mismatched payload used to escape
    as a raw `pickle` error / `KeyError`, which the service rendered as
    an opaque 500 instead of a 400 and the CLI as a stack trace.
    """

    def test_version_mismatch_is_an_artifact_error(self):
        _engine, artifact = _captured()
        payload = pickle.loads(artifact.to_bytes())
        payload["version"] = ARTIFACT_VERSION + 1
        with pytest.raises(ArtifactError, match="version mismatch"):
            EngineArtifact.from_bytes(pickle.dumps(payload))

    def test_truncated_payload_is_an_artifact_error(self):
        _engine, artifact = _captured()
        data = artifact.to_bytes()
        for cut in (0, 1, 17, len(data) // 2, len(data) - 1):
            with pytest.raises(ArtifactError, match="corrupt or truncated"):
                EngineArtifact.from_bytes(data[:cut])

    def test_garbage_bytes_are_an_artifact_error(self):
        with pytest.raises(ArtifactError):
            EngineArtifact.from_bytes(b"\x00\x01 definitely not a pickle")

    def test_wrong_shape_payload_is_an_artifact_error(self):
        with pytest.raises(ArtifactError, match="wrong shape"):
            EngineArtifact.from_bytes(pickle.dumps(["not", "a", "dict"]))
        with pytest.raises(ArtifactError, match="missing field"):
            EngineArtifact.from_bytes(
                pickle.dumps({"version": ARTIFACT_VERSION, "syntax": "scmdl"})
            )

    def test_wrong_typed_fields_are_an_artifact_error(self):
        # Regression: a well-formed dict whose fields hold the wrong
        # *types* used to construct fine and blow up later (e.g.
        # fingerprint() raising AttributeError inside the store's
        # validated-read path).  from_bytes refuses it up front.
        with pytest.raises(ArtifactError, match="not a Schema"):
            EngineArtifact.from_bytes(
                pickle.dumps(
                    {
                        "version": ARTIFACT_VERSION,
                        "syntax": "scmdl",
                        "schema": "not a schema",
                        "entries": {},
                    }
                )
            )
        _engine, artifact = _captured()
        payload = pickle.loads(artifact.to_bytes())
        payload["entries"] = ["not", "a", "dict"]
        with pytest.raises(ArtifactError, match="not a dict"):
            EngineArtifact.from_bytes(pickle.dumps(payload))
        payload = pickle.loads(artifact.to_bytes())
        payload["syntax"] = 7
        with pytest.raises(ArtifactError, match="not a str"):
            EngineArtifact.from_bytes(pickle.dumps(payload))

    def test_artifact_error_maps_to_exit_2_and_http_400(self):
        # ArtifactError is a ValueError: the CLI's uniform error path
        # exits 2 on it and the service envelope maps it to HTTP 400.
        from repro.service.envelope import as_service_error

        assert issubclass(ArtifactError, ValueError)
        mapped = as_service_error(ArtifactError("payload is corrupt"))
        assert mapped.status == 400
        assert mapped.code == "parse-error"

    def test_regex_identity_survives_the_trip(self):
        # Hash-consed regexes re-intern on unpickle, so the shipped
        # schema's regexes are identical (is) to locally parsed ones —
        # the property that makes shipped cache keys match local keys.
        _engine, artifact = _captured()
        clone = EngineArtifact.from_bytes(artifact.to_bytes())
        local = parse_schema(schema_to_string(SCHEMA))
        for type_def in clone.schema:
            if type_def.regex is not None:
                assert type_def.regex is local.type(type_def.tid).regex


class TestInstall:
    def test_installed_engine_answers_without_recompiling(self):
        parent, artifact = _captured()
        worker = EngineArtifact.from_bytes(artifact.to_bytes()).install()
        assert worker.backend == parent.backend
        schema = artifact.schema
        tid = next(t.tid for t in schema if not t.is_atomic)
        worker_dfa = worker.compiled_content(schema, tid)
        after = worker.cache.stats()
        kind = after.by_kind["compiled-content"]
        assert kind.hits > 0 and kind.misses == 0
        # The shipped table decides identically to a cold local build.
        cold = Engine(backend="compiled").compiled_content(schema, tid)
        assert worker_dfa.table == cold.table
        assert worker_dfa.symbols == cold.symbols
        assert worker_dfa.accepting == cold.accepting

    def test_install_into_existing_engine_keeps_its_entries(self):
        _parent, artifact = _captured()
        target = Engine(backend="compiled")
        target.symbol_alphabet(SCHEMA)
        seeded = artifact.install(target)
        assert seeded is target
        assert len(target.cache) >= len(artifact)


#: ``B`` needs a ``B`` child forever, so it is uninhabited and
#: restriction drops the ``(b, B)`` arcs of ``R`` and ``B``.
UNINHABITED = parse_schema("R = [(a -> A | b -> B)*]; A = string; B = [b -> B]")


def _collection_tids(schema):
    return [type_def.tid for type_def in schema if not type_def.is_atomic]


@pytest.fixture
def compiles(monkeypatch):
    """The NFAs ``repro.engine.core.compile_nfa`` compiles."""
    import repro.engine.core as core

    seen = []
    real = core.compile_nfa

    def counting(nfa):
        seen.append(nfa)
        return real(nfa)

    monkeypatch.setattr(core, "compile_nfa", counting)
    return seen


class TestSharedContentTables:
    def test_fully_inhabited_type_has_one_table(self, compiles):
        engine = Engine(backend="compiled")
        prewarm(SCHEMA, engine)
        tids = _collection_tids(SCHEMA)
        assert len(compiles) == len(tids)
        for tid in tids:
            assert engine.restricted_content_nfa(SCHEMA, tid) is engine.content_nfa(
                SCHEMA, tid
            )
            assert engine.compiled_restricted_content(
                SCHEMA, tid
            ) is engine.compiled_content(SCHEMA, tid)

    def test_uninhabited_target_keeps_two_tables(self, compiles):
        engine = Engine(backend="compiled")
        prewarm(UNINHABITED, engine)
        assert engine.inhabited_types(UNINHABITED) == {"R", "A"}
        assert len(compiles) == 2 * len(_collection_tids(UNINHABITED))
        full = engine.compiled_content(UNINHABITED, "R")
        restricted = engine.compiled_restricted_content(UNINHABITED, "R")
        assert restricted is not full
        assert full.member([("b", "B")])
        assert not restricted.member([("b", "B")])
        assert full.member([("a", "A")]) and restricted.member([("a", "A")])

    def test_round_trip_keeps_one_shared_table(self):
        # Pickle stores an object it meets twice once, so the clone's two
        # keys name one table too.
        _engine, artifact = _captured()
        clone = EngineArtifact.from_bytes(artifact.to_bytes())
        fingerprint = SCHEMA.fingerprint()
        for tid in _collection_tids(SCHEMA):
            assert (
                clone.entries[("compiled-content-restricted", fingerprint, tid)]
                is clone.entries[("compiled-content", fingerprint, tid)]
            )
