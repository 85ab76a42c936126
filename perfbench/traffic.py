"""The three workloads: request pools, reference answers and guards.

Every input is a deterministic function of the benchmark seed; the
server only ever sees the generated requests.  Reference answers come
from the generator process, never from the server under test: a private
``Engine(backend="nfa")`` (the independent differential path) for
satisfiable / check / infer, and ``repro.oracle.naive_evaluate`` for
evaluate bindings.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from harness import wire_request
from repro import data_to_string, parse_data, parse_query, parse_schema
from repro.engine import Engine
from repro.oracle import naive_evaluate
from repro.typing import check_types, is_satisfiable
from repro.typing.inference import iterate_inferred_types
from repro.workloads.domains import DOMAIN_NAMES, build_domain, domain_corpus
from repro.workloads.instances import random_instance

#: ``/infer`` asks for at most this many assignments (4, as replay does;
#: serve-unique also asks for 2, which doubles its distinct keys).
INFER_LIMIT = 4
INFER_LIMITS = (2, INFER_LIMIT)
#: Items per ``/batch`` request.
BATCH_ITEMS = 4
#: Item kinds a ``/batch`` request rotates through (as replay does).
BATCH_KINDS = ("satisfiable", "check", "evaluate")


class PoolExhausted(RuntimeError):
    """A workload ran out of never-used request keys mid-run."""


@dataclass(frozen=True)
class Request:
    """One prepared request: the wire form plus what checking it needs."""

    op: str  # metric family: satisfiable, infer, check, evaluate, batch, ...
    method: str
    path: str
    wire: bytes  # the whole HTTP request
    fingerprint: str
    #: Identity of the work asked for; serve-unique never repeats one.
    key: tuple
    #: Compare the answer with the reference answer.
    verify: bool
    #: JSON payload the reference answer is computed from.
    payload: Optional[dict] = None


def _post(op: str, path: str, payload: dict, fp: str, key: tuple, verify: bool) -> Request:
    wire = wire_request("POST", path, json.dumps(payload).encode())
    return Request(op, "POST", path, wire, fp, key, verify, payload)


# ----------------------------------------------------------------------
# Reference answers
# ----------------------------------------------------------------------


def canonical_bindings(bindings: List[dict]) -> List[str]:
    return sorted(json.dumps(binding, sort_keys=True) for binding in bindings)


class Oracle:
    """Reference answers, computed in the generator process."""

    def __init__(self, schema_texts: Dict[str, str]):
        self._texts = schema_texts
        self._schemas: Dict[str, object] = {}
        self._engine = Engine(backend="nfa")

    def _schema(self, fingerprint: str):
        schema = self._schemas.get(fingerprint)
        if schema is None:
            schema = self._schemas[fingerprint] = parse_schema(self._texts[fingerprint])
        return schema

    def expected(self, op: str, fingerprint: str, payload: dict):
        """The canonical answer ``op`` must give on ``payload``."""
        if op == "batch":
            return [
                self.expected(payload["operation"], fingerprint, item)
                for item in payload["items"]
            ]
        if op in ("register", "unregister"):
            return fingerprint
        query = parse_query(payload["query"])
        if op == "evaluate":
            return canonical_bindings(naive_evaluate(query, parse_data(payload["data"])))
        schema = self._schema(fingerprint)
        if op == "satisfiable":
            return bool(
                is_satisfiable(query, schema, payload.get("pins") or None, self._engine)
            )
        if op == "check":
            return bool(check_types(query, schema, payload["assignment"], self._engine))
        if op == "infer":
            found = []
            for pins in iterate_inferred_types(query, schema, None, self._engine):
                found.append(dict(pins))
                if len(found) >= payload["limit"]:
                    break
            return found
        raise ValueError(f"no reference for {op!r}")


def canonical(op: str, result: dict, payload: Optional[dict] = None):
    """The part of a server ``result`` that :meth:`Oracle.expected` predicts.

    Raises KeyError/TypeError on a malformed result (counted as wrong).
    """
    if op == "satisfiable":
        return result["satisfiable"]
    if op == "check":
        return result["well_typed"]
    if op == "infer":
        return result["assignments"]
    if op == "evaluate":
        # A document drawn from the schema must also conform to it.
        if "fingerprint" in (payload or {}) and result.get("conforms") is not True:
            return None
        return canonical_bindings(result["bindings"])
    if op == "batch":
        kind = payload["operation"]
        return [
            canonical(kind, item["result"]) if item["ok"] else None
            for item in result["results"]
        ]
    if op == "register":
        return result["fingerprint"]
    if op == "unregister":
        return result["evicted"]
    raise ValueError(f"no canonical form for {op!r}")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """What one named workload registers, sends and asserts."""

    name = ""
    connections = 1
    #: The server gets a fresh ``--cache-dir`` store per start.
    uses_store = False
    #: Untimed closed-loop traffic before the timed window.
    warmup_seconds = 1.0
    max_schemas = 64

    def __init__(self, seed: int):
        self.seed = seed
        #: ``(schema text, fingerprint)`` registered during set-up.
        self.schemas: List[Tuple[str, str]] = []

    def server_args(self) -> List[str]:
        return ["--max-schemas", str(self.max_schemas)]

    def oracle(self) -> Oracle:
        return Oracle({fingerprint: text for text, fingerprint in self.schemas})

    def prime_requests(self) -> List[Request]:
        """Sent once, in order, after set-up and before the warm-up."""
        return []

    def streams(self) -> List[Iterator[Request]]:
        """One endless request stream per connection (fresh keys)."""
        return [self._stream(index) for index in range(self.connections)]

    def _stream(self, index: int) -> Iterator[Request]:
        raise NotImplementedError

    def guards(self, window: dict) -> List[Tuple[str, bool, str]]:
        """``(guard, held, detail)`` for the property the workload exists for."""
        raise NotImplementedError


class ServeHot(Workload):
    """Zipf traffic over the ten-domain corpus's small pools; memo hits."""

    name = "serve-hot"
    connections = 2
    max_schemas = 16
    mix = {"satisfiable": 6.0, "infer": 2.0, "check": 2.0}
    #: Guard: share of memoized requests (satisfiable + infer) in the
    #: window that the decision memo answered.
    min_memo_hit_ratio = 0.99

    def __init__(self, seed: int):
        super().__init__(seed)
        corpora = domain_corpus(seed)
        self.schemas = [(c.schema_text, c.fingerprint) for c in corpora]
        #: Per domain, per operation: the distinct requests, built once.
        self.pools: List[Dict[str, List[Request]]] = []
        for corpus in corpora:
            fp = corpus.fingerprint
            queries = list(dict.fromkeys(corpus.queries))
            checks = list(dict.fromkeys(corpus.checks))
            self.pools.append({
                "satisfiable": [
                    _post("satisfiable", "/satisfiable",
                          {"fingerprint": fp, "query": q}, fp, ("satisfiable", fp, q), True)
                    for q in queries
                ],
                "infer": [
                    _post("infer", "/infer",
                          {"fingerprint": fp, "query": q, "limit": INFER_LIMIT},
                          fp, ("infer", fp, q), True)
                    for q in queries
                ],
                "check": [
                    _post("check", "/check",
                          {"fingerprint": fp, "query": q, "assignment": dict(a),
                           "total": False},
                          fp, ("check", fp, q, a), True)
                    for q, a in checks
                ],
            })
        # Zipf over domain rank: rank k draws weight 1/k.
        self.domain_weights = [1.0 / rank for rank in range(1, len(self.pools) + 1)]

    def prime_requests(self) -> List[Request]:
        # Fill the decision memo so the window measures the steady state.
        return [request for pool in self.pools for ops in pool.values() for request in ops]

    def _stream(self, index: int) -> Iterator[Request]:
        rng = random.Random(f"hot:{self.seed}:{index}")
        ops, weights = list(self.mix), list(self.mix.values())
        while True:
            pool = rng.choices(self.pools, self.domain_weights)[0]
            yield rng.choice(pool[rng.choices(ops, weights)[0]])

    def guards(self, window: dict) -> List[Tuple[str, bool, str]]:
        ratio = window["memo_hit_ratio"]
        return [(
            "memo hit ratio of memoized requests >= %.2f" % self.min_memo_hit_ratio,
            ratio >= self.min_memo_hit_ratio,
            f"{ratio:.4f}",
        )]


def _distinct_domain_pool(
    seed: int, scales: Sequence[int], variants: int, size: int, **build
) -> list:
    """Up to ``size`` corpora with pairwise-distinct fingerprints.

    Seeds alone give few distinct schemas per domain, so the pool is
    drawn over a range of ``build_domain`` scales as well.
    """
    corpora, seen = [], set()
    for variant in range(variants):
        for scale in scales:
            for name in DOMAIN_NAMES:
                corpus = build_domain(name, seed=seed * 97 + variant, scale=scale, **build)
                if corpus.fingerprint not in seen:
                    seen.add(corpus.fingerprint)
                    corpora.append(corpus)
    rng = random.Random(f"pool:{seed}")
    rng.shuffle(corpora)
    return corpora[:size]


class ServeUnique(Workload):
    """Never-repeated requests: every one pays parsing and the typing walks."""

    name = "serve-unique"
    connections = 2
    mix = {"satisfiable": 4.0, "infer": 2.0, "check": 2.0, "evaluate": 1.0, "batch": 1.0}
    pool_size = 64
    max_schemas = 2 * pool_size
    queries_per_schema = 240
    documents_per_schema = 3
    #: Share of requests whose answer is checked against the reference.
    verify_share = 1.0 / 16

    def __init__(self, seed: int):
        super().__init__(seed)
        corpora = _distinct_domain_pool(
            seed, scales=range(2, 10), variants=2, size=self.pool_size,
            n_queries=self.queries_per_schema, n_checks=0, n_documents=0,
        )
        self.schemas = [(c.schema_text, c.fingerprint) for c in corpora]
        rng = random.Random(f"unique:{seed}")
        #: fingerprint -> family -> list of keys (the request payload
        #: minus the fingerprint); every key is distinct.
        self.families: Dict[str, Dict[str, List[dict]]] = {}
        for corpus in corpora:
            schema = parse_schema(corpus.schema_text)
            tids = sorted(schema.tids())
            queries = list(dict.fromkeys(corpus.queries))
            documents = list(dict.fromkeys(
                data_to_string(
                    random_instance(schema, rng, max_depth=rng.randint(2, 5), max_repeat=2)
                )
                for _ in range(self.documents_per_schema)
            ))
            sat, infer, check, evaluate = [], [], [], []
            for query in queries:
                select = parse_query(query).select
                sat.append({"query": query})
                for tid in rng.sample(tids, min(2, len(tids))):
                    sat.append({"query": query, "pins": {select[0]: tid}})
                infer.extend({"query": query, "limit": limit} for limit in INFER_LIMITS)
                for _ in range(2):
                    check.append({
                        "query": query,
                        "assignment": {var: rng.choice(tids) for var in select},
                    })
                evaluate.extend({"query": query, "data": doc} for doc in documents)
            self.families[corpus.fingerprint] = {
                "satisfiable": _distinct(sat),
                "infer": infer,
                "check": _distinct(check),
                "evaluate": evaluate,
            }

    def _stream(self, index: int) -> Iterator[Request]:
        rng = random.Random(f"unique-stream:{self.seed}:{index}")
        # Each connection owns a disjoint, shuffled share of every pool.
        mine: Dict[str, Dict[str, List[dict]]] = {}
        for fp, families in self.families.items():
            mine[fp] = {}
            for family, keys in families.items():
                share = keys[index :: self.connections]
                rng.shuffle(share)
                mine[fp][family] = share
        fingerprints = sorted(mine)
        ops, weights = list(self.mix), list(self.mix.values())
        while True:
            op = rng.choices(ops, weights)[0]
            family = rng.choice(BATCH_KINDS) if op == "batch" else op
            need = BATCH_ITEMS if op == "batch" else 1
            fp = self._pick(rng, fingerprints, mine, family, need)
            keys = [mine[fp][family].pop() for _ in range(need)]
            verify = rng.random() < self.verify_share
            if op == "batch":
                payload = {"fingerprint": fp, "operation": family, "items": keys}
                key = ("batch", fp, family, tuple(_freeze(k) for k in keys))
            else:
                payload = {"fingerprint": fp, **keys[0]}
                key = (op, fp, _freeze(keys[0]))
            yield _post(op, "/" + op, payload, fp, key, verify)

    @staticmethod
    def _pick(rng, fingerprints, mine, family, need) -> str:
        start = rng.randrange(len(fingerprints))
        for offset in range(len(fingerprints)):
            fp = fingerprints[(start + offset) % len(fingerprints)]
            if len(mine[fp][family]) >= need:
                return fp
        raise PoolExhausted(f"serve-unique ran out of unused {family} keys")

    def guards(self, window: dict) -> List[Tuple[str, bool, str]]:
        keys = window["keys"]
        repeated = len(keys) - len(set(keys))
        return [
            ("zero repeated request keys", repeated == 0, f"{repeated} repeated"),
            (
                "registry.memo_hit_ratio == 0",
                window["memo_hits"] == 0,
                f"{window['memo_hits']} memo hits",
            ),
        ]


def _freeze(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


def _distinct(keys: List[dict]) -> List[dict]:
    return list({_freeze(key): key for key in keys}.values())


class SchemaChurn(Workload):
    """Registry writes: register, query, sometimes unregister, repeat."""

    name = "schema-churn"
    connections = 1
    uses_store = True
    pool_size = 24
    #: Smaller than the pool, so re-registrations reload from the store.
    max_schemas = 8
    delete_share = 0.2
    verify_share = 1.0 / 8

    def __init__(self, seed: int):
        super().__init__(seed)
        self.corpora = _distinct_domain_pool(
            seed, scales=(3, 5, 7), variants=1, size=self.pool_size,
            n_queries=12, n_checks=0, n_documents=0,
        )
        self.schemas = [(c.schema_text, c.fingerprint) for c in self.corpora]

    def _stream(self, index: int) -> Iterator[Request]:
        rng = random.Random(f"churn:{self.seed}")
        step = 0
        while True:
            step += 1
            corpus = rng.choice(self.corpora)
            fp = corpus.fingerprint
            yield _post("register", "/schemas", {"schema": corpus.schema_text},
                        fp, ("register", fp, step), True)
            query = rng.choice(corpus.queries)
            yield _post("satisfiable", "/satisfiable", {"fingerprint": fp, "query": query},
                        fp, ("satisfiable", fp, query), rng.random() < self.verify_share)
            if rng.random() < self.delete_share:
                path = f"/schemas/{fp}"
                yield Request("unregister", "DELETE", path, wire_request("DELETE", path, None),
                              fp, ("unregister", fp, step), True, {})

    def guards(self, window: dict) -> List[Tuple[str, bool, str]]:
        return [
            (f"{name} > 0 in the window", window[name] > 0, str(window[name]))
            for name in ("store.puts", "store.hits", "registry.evictions")
        ]


WORKLOADS = {cls.name: cls for cls in (ServeHot, ServeUnique, SchemaChurn)}
