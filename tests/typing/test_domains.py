"""Tests for the multi-domain replay corpora (`repro.workloads.domains`).

The load-bearing property is determinism: the replay harness, the CI
smoke job, and the artifact store all assume that a given
``(domain, seed, scale)`` names *one* corpus, byte-for-byte, in every
process — including processes with different ``PYTHONHASHSEED``.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.data import parse_data
from repro.query import parse_query
from repro.schema import find_type_assignment, parse_schema
from repro.workloads.domains import (
    DOMAIN_NAMES,
    build_domain,
    corpus_records,
    corpus_to_ndjson,
    domain_corpus,
    pressure_variants,
)

_HASH_SNIPPET = """
import hashlib, sys
from repro.workloads.domains import corpus_to_ndjson, domain_corpus
text = corpus_to_ndjson(domain_corpus(seed=7))
sys.stdout.write(hashlib.sha256(text.encode()).hexdigest())
"""


class TestDeterminism:
    def test_same_seed_same_bytes_in_process(self):
        first = corpus_to_ndjson(domain_corpus(seed=3))
        second = corpus_to_ndjson(domain_corpus(seed=3))
        assert first == second

    def test_different_seeds_differ(self):
        assert corpus_to_ndjson(domain_corpus(seed=0)) != corpus_to_ndjson(
            domain_corpus(seed=1)
        )

    @pytest.mark.parametrize("hash_seeds", [("0", "1"), ("1", "12345")])
    def test_byte_identical_across_hash_seeds(self, hash_seeds):
        # Two fresh interpreters with *different* PYTHONHASHSEED values
        # must print the same corpus digest: nothing in the generation
        # path may iterate a set or rely on str hash order.
        digests = []
        for hash_seed in hash_seeds:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            result = subprocess.run(
                [sys.executable, "-c", _HASH_SNIPPET],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.append(result.stdout.strip())
        assert digests[0] == digests[1]
        assert len(digests[0]) == 64

    def test_ndjson_lines_are_sorted_key_json(self):
        lines = corpus_to_ndjson(domain_corpus(seed=0)).splitlines()
        assert len(lines) == len(corpus_records(domain_corpus(seed=0)))
        for line in lines[:20]:
            record = json.loads(line)
            assert line == json.dumps(record, sort_keys=True)


class TestCorpusShape:
    def test_all_ten_domains_build_and_parse(self):
        corpora = domain_corpus(seed=7)
        assert [c.name for c in corpora] == list(DOMAIN_NAMES)
        assert len(corpora) == 10
        for corpus in corpora:
            schema = parse_schema(corpus.schema_text)
            assert schema.fingerprint() == corpus.fingerprint
            for query in corpus.queries:
                parse_query(query)
            tids = set(schema.tids())
            for check_query, assignment in corpus.checks:
                parse_query(check_query)
                for _var, tid in assignment:
                    assert tid in tids

    def test_zipf_skew_head_larger_than_tail(self):
        corpora = domain_corpus(seed=0)
        assert corpora[0].scale > corpora[-1].scale
        assert len(corpora[0].queries) > len(corpora[-1].queries)

    def test_long_tail_query_depth(self):
        corpus = build_domain("social", seed=5, scale=6, n_queries=200)
        depths = [query.count(".") + 1 for query in corpus.queries]
        # Geometric: the bulk is shallow, the tail runs deep.
        assert min(depths) == 1
        assert max(depths) >= 4
        shallow = sum(1 for depth in depths if depth <= 2)
        assert shallow > len(depths) // 2

    def test_documents_conform_to_their_schema(self):
        for name in ("telemetry", "config", "orgchart"):
            corpus = build_domain(name, seed=2, scale=2, n_documents=2)
            schema = parse_schema(corpus.schema_text)
            for document in corpus.documents:
                graph = parse_data(document)
                assert find_type_assignment(graph, schema) is not None, (
                    f"{name} document does not conform to its own schema"
                )

    def test_seed_varies_every_domain_fingerprint(self):
        for name in DOMAIN_NAMES:
            fingerprints = {
                build_domain(
                    name, seed=seed, scale=3, n_queries=1, n_checks=1,
                    n_documents=0,
                ).fingerprint
                for seed in range(6)
            }
            assert len(fingerprints) > 1, f"{name} ignores its seed"

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="unknown domain"):
            build_domain("nosuch", seed=0)
        with pytest.raises(ValueError, match="unknown domains"):
            domain_corpus(seed=0, names=["social", "nosuch"])


class TestPressureVariants:
    def test_fingerprints_pairwise_distinct(self):
        variants = pressure_variants(40, seed=11)
        fingerprints = [variant.fingerprint for variant in variants]
        assert len(set(fingerprints)) == len(variants) == 40

    def test_cycles_all_domains(self):
        variants = pressure_variants(len(DOMAIN_NAMES) * 2, seed=0)
        assert {variant.name for variant in variants} == set(DOMAIN_NAMES)

    def test_deterministic(self):
        first = [v.fingerprint for v in pressure_variants(15, seed=4)]
        second = [v.fingerprint for v in pressure_variants(15, seed=4)]
        assert first == second
