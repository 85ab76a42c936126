"""Multi-domain schema/query corpora for service traffic.

Ten themed domains — social graph, bibliography, commerce, telemetry,
filesystem, org chart, geo, citation, config, messaging — each a
deterministic function of ``(seed, scale)``: a themed ordered tree
grammar in the paper's type language, a pool of queries over it, a pool
of partial type assignments for ``/check``, and a pool of conforming
documents for ``/evaluate``.  This is the corpus layer the ROADMAP asks
for in the spirit of text2typeql's 15-domain validated query set: the
single-family synthetic generators in :mod:`repro.workloads.schemas`
measure one shape at a time, while traffic over these domains (the
request pools of ``perfbench``'s workloads) exercises the service the
way mixed production traffic would.

Realism knobs:

* **Zipf-ish size skew across domains** — :func:`domain_corpus` assigns
  rank ``k`` (1-based) the scale ``max(1, base_scale // k)`` plus seeded
  jitter, so the first domains are an order of magnitude larger than the
  tail, and the per-domain query-pool sizes follow the same skew.
* **Long-tail query depth** — query paths are random walks over the
  schema graph whose depth is geometric (most queries are 1–2 labels,
  a few run the full chain), mixing plain label chains, wildcard steps,
  ``(_*)`` suffix patterns, and multi-arm fan-outs.
* **Hash-seed independence** — everything iterates sorted or
  insertion-ordered structures, so equal seeds produce *byte-identical*
  corpus NDJSON across processes regardless of ``PYTHONHASHSEED``
  (a regression test holds this; the artifact store relies on
  cross-process fingerprint agreement).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..automata.syntax import ANY, EPSILON, Regex, Sym, alt, concat, opt, star, word
from ..data import data_to_string
from ..query import parse_query, query_to_string
from ..query.model import PatternArm, PatternDef, PatternKind, Query
from ..schema import schema_to_string
from ..schema.model import Schema, TypeDef, TypeKind
from .instances import random_instance

#: The themed domains, in Zipf rank order (first = largest corpus).
DOMAIN_NAMES: Tuple[str, ...] = (
    "social",
    "bibliography",
    "commerce",
    "telemetry",
    "filesystem",
    "orgchart",
    "geo",
    "citation",
    "config",
    "messaging",
)


@dataclass(frozen=True)
class DomainCorpus:
    """One domain's deterministic corpus: schema + request pools."""

    name: str
    seed: int
    scale: int
    schema_text: str
    fingerprint: str
    #: Query texts for ``/satisfiable``, ``/infer``, ``/classify``.
    queries: Tuple[str, ...]
    #: ``(query, assignment)`` pairs for ``/check``.
    checks: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...]
    #: Conforming documents (Table-1 text) for ``/evaluate``.
    documents: Tuple[str, ...]

    def check_payloads(self) -> List[Dict[str, object]]:
        """The ``/check`` request bodies (JSON-able) for this domain."""
        return [
            {"query": query, "assignment": dict(assignment)}
            for query, assignment in self.checks
        ]


# ----------------------------------------------------------------------
# Schema builders, one per domain
# ----------------------------------------------------------------------


def _sym(label: str, tid: str) -> Regex:
    return Sym((label, tid))


def _jitter(rng: random.Random, width: int) -> int:
    """A draw in ``[0, width)`` via ``random()``.

    Not ``randint``: the *first* ``_randbelow`` draw after seeding
    ``Random`` with consecutive strings is visibly biased toward 0
    (MT19937's first output word mixes slowly), which made several
    domains produce identical structure for runs of adjacent seeds.
    The float path consumes two well-tempered words and varies properly.
    """
    return min(width - 1, int(rng.random() * width))


def _social_schema(rng: random.Random, scale: int) -> Schema:
    n_tags = max(2, scale + _jitter(rng, 3))
    tag_options = [_sym(f"tag{i}", f"TAG{i}") for i in range(n_tags)]
    types = [
        TypeDef("NETWORK", TypeKind.ORDERED, regex=star(_sym("user", "USER"))),
        TypeDef(
            "USER",
            TypeKind.ORDERED,
            regex=concat(
                _sym("handle", "HANDLE"),
                opt(_sym("bio", "BIO")),
                star(_sym("post", "POST")),
                star(_sym("follows", "HANDLE")),
            ),
        ),
        TypeDef(
            "POST",
            TypeKind.ORDERED,
            regex=concat(
                _sym("text", "TEXT"),
                star(alt(*tag_options)),
                star(_sym("comment", "COMMENT")),
            ),
        ),
        TypeDef(
            "COMMENT",
            TypeKind.ORDERED,
            regex=concat(_sym("text", "TEXT"), star(_sym("reply", "COMMENT"))),
        ),
        TypeDef("HANDLE", TypeKind.ATOMIC, atomic="string"),
        TypeDef("BIO", TypeKind.ATOMIC, atomic="string"),
        TypeDef("TEXT", TypeKind.ATOMIC, atomic="string"),
    ]
    types += [
        TypeDef(f"TAG{i}", TypeKind.ATOMIC, atomic="string") for i in range(n_tags)
    ]
    return Schema(types)


def _bibliography_schema(rng: random.Random, scale: int) -> Schema:
    depth = max(1, scale + _jitter(rng, 2))
    types = [
        TypeDef(
            "LIBRARY",
            TypeKind.ORDERED,
            regex=star(alt(_sym("book", "BOOK"), _sym("article", "ARTICLE"))),
        ),
        TypeDef(
            "BOOK",
            TypeKind.ORDERED,
            regex=concat(
                _sym("title", "TITLE"),
                star(_sym("author", "AUTHOR")),
                opt(_sym("publisher", "PUBLISHER")),
                star(_sym("chapter", "CH1")) if depth >= 1 else EPSILON,
            ),
        ),
        TypeDef(
            "ARTICLE",
            TypeKind.ORDERED,
            regex=concat(
                _sym("title", "TITLE"),
                star(_sym("author", "AUTHOR")),
                _sym("journal", "JOURNAL"),
                _sym("year", "YEAR"),
            ),
        ),
        TypeDef(
            "AUTHOR",
            TypeKind.ORDERED,
            regex=concat(_sym("name", "NAME"), opt(_sym("orcid", "ORCID"))),
        ),
    ]
    for level in range(1, depth + 1):
        inner = (
            star(_sym(f"ch{level + 1}", f"CH{level + 1}"))
            if level < depth
            else EPSILON
        )
        types.append(
            TypeDef(
                f"CH{level}",
                TypeKind.ORDERED,
                regex=concat(_sym("heading", "HEADING"), inner),
            )
        )
    types += [
        TypeDef(name, TypeKind.ATOMIC, atomic=atomic)
        for name, atomic in (
            ("TITLE", "string"), ("PUBLISHER", "string"), ("JOURNAL", "string"),
            ("YEAR", "int"), ("NAME", "string"), ("ORCID", "string"),
            ("HEADING", "string"),
        )
    ]
    return Schema(types)


def _commerce_schema(rng: random.Random, scale: int) -> Schema:
    cat_depth = max(1, scale // 2 + _jitter(rng, 2))
    types = [
        TypeDef(
            "STORE",
            TypeKind.ORDERED,
            regex=concat(
                star(_sym("product", "PRODUCT")), star(_sym("order", "ORDER"))
            ),
        ),
        TypeDef(
            "PRODUCT",
            TypeKind.ORDERED,
            regex=concat(
                _sym("sku", "SKU"),
                _sym("pname", "PNAME"),
                _sym("price", "PRICE"),
                _sym("category", "CAT1"),
                star(_sym("review", "REVIEW")),
            ),
        ),
        TypeDef(
            "REVIEW",
            TypeKind.ORDERED,
            regex=concat(_sym("stars", "STARS"), opt(_sym("text", "RTEXT"))),
        ),
        TypeDef(
            "ORDER",
            TypeKind.ORDERED,
            regex=concat(
                _sym("customer", "CUSTOMER"),
                _sym("line", "LINE"),
                star(_sym("line", "LINE")),
            ),
        ),
        TypeDef(
            "LINE",
            TypeKind.ORDERED,
            regex=concat(_sym("sku", "SKU"), _sym("qty", "QTY")),
        ),
        TypeDef(
            "CUSTOMER",
            TypeKind.ORDERED,
            regex=concat(_sym("cname", "CNAME"), _sym("email", "EMAIL")),
        ),
    ]
    for level in range(1, cat_depth + 1):
        inner = (
            opt(_sym("sub", f"CAT{level + 1}")) if level < cat_depth else EPSILON
        )
        types.append(
            TypeDef(
                f"CAT{level}",
                TypeKind.ORDERED,
                regex=concat(_sym("label", "CLABEL"), inner),
            )
        )
    types += [
        TypeDef(name, TypeKind.ATOMIC, atomic=atomic)
        for name, atomic in (
            ("SKU", "string"), ("PNAME", "string"), ("PRICE", "float"),
            ("STARS", "int"), ("RTEXT", "string"), ("QTY", "int"),
            ("CNAME", "string"), ("EMAIL", "string"), ("CLABEL", "string"),
        )
    ]
    return Schema(types)


def _telemetry_schema(rng: random.Random, scale: int) -> Schema:
    n_levels = max(2, scale + _jitter(rng, 2))
    level_options = [_sym(f"lvl{i}", f"LEVEL{i}") for i in range(n_levels)]
    types = [
        TypeDef(
            "FEED",
            TypeKind.ORDERED,
            regex=star(alt(_sym("metric", "METRIC"), _sym("event", "EVENT"))),
        ),
        TypeDef(
            "METRIC",
            TypeKind.ORDERED,
            regex=concat(_sym("mname", "MNAME"), star(_sym("sample", "SAMPLE"))),
        ),
        TypeDef(
            "SAMPLE",
            TypeKind.ORDERED,
            regex=concat(_sym("ts", "TS"), _sym("value", "VALUE")),
        ),
        TypeDef(
            "EVENT",
            TypeKind.ORDERED,
            regex=concat(
                _sym("ts", "TS"), alt(*level_options), _sym("message", "MESSAGE")
            ),
        ),
        TypeDef("MNAME", TypeKind.ATOMIC, atomic="string"),
        TypeDef("TS", TypeKind.ATOMIC, atomic="int"),
        TypeDef("VALUE", TypeKind.ATOMIC, atomic="float"),
        TypeDef("MESSAGE", TypeKind.ATOMIC, atomic="string"),
    ]
    types += [
        TypeDef(f"LEVEL{i}", TypeKind.ATOMIC, atomic="string")
        for i in range(n_levels)
    ]
    return Schema(types)


def _filesystem_schema(rng: random.Random, scale: int) -> Schema:
    n_attrs = max(1, scale // 2 + _jitter(rng, 2))
    types = [
        TypeDef("FS", TypeKind.ORDERED, regex=_sym("root", "DIR")),
        TypeDef(
            "DIR",
            TypeKind.ORDERED,
            regex=concat(
                _sym("dname", "DNAME"),
                star(alt(_sym("dir", "DIR"), _sym("file", "FILE"))),
            ),
        ),
        TypeDef(
            "FILE",
            TypeKind.ORDERED,
            regex=concat(
                _sym("fname", "FNAME"),
                _sym("size", "SIZE"),
                star(_sym("attr", "ATTR")),
            ),
        ),
        TypeDef(
            "ATTR",
            TypeKind.ORDERED,
            regex=concat(
                alt(*[_sym(f"key{i}", "KEY") for i in range(n_attrs)]),
                _sym("aval", "AVAL"),
            ),
        ),
        TypeDef("DNAME", TypeKind.ATOMIC, atomic="string"),
        TypeDef("FNAME", TypeKind.ATOMIC, atomic="string"),
        TypeDef("SIZE", TypeKind.ATOMIC, atomic="int"),
        TypeDef("KEY", TypeKind.ATOMIC, atomic="string"),
        TypeDef("AVAL", TypeKind.ATOMIC, atomic="string"),
    ]
    return Schema(types)


def _orgchart_schema(rng: random.Random, scale: int) -> Schema:
    n_titles = max(2, scale + _jitter(rng, 3))
    title_options = [_sym(f"title{i}", "ETITLE") for i in range(n_titles)]
    types = [
        TypeDef("ORG", TypeKind.ORDERED, regex=star(_sym("dept", "DEPT"))),
        TypeDef(
            "DEPT",
            TypeKind.ORDERED,
            regex=concat(
                _sym("dname", "DNAME"),
                _sym("head", "EMP"),
                star(_sym("team", "TEAM")),
            ),
        ),
        TypeDef(
            "TEAM",
            TypeKind.ORDERED,
            regex=concat(_sym("tname", "TNAME"), star(_sym("member", "EMP"))),
        ),
        TypeDef(
            "EMP",
            TypeKind.ORDERED,
            regex=concat(
                _sym("ename", "ENAME"),
                alt(*title_options),
                star(_sym("report", "EMP")),
            ),
        ),
        TypeDef("DNAME", TypeKind.ATOMIC, atomic="string"),
        TypeDef("TNAME", TypeKind.ATOMIC, atomic="string"),
        TypeDef("ENAME", TypeKind.ATOMIC, atomic="string"),
        TypeDef("ETITLE", TypeKind.ATOMIC, atomic="string"),
    ]
    return Schema(types)


def _geo_schema(rng: random.Random, scale: int) -> Schema:
    n_kinds = max(2, scale // 2 + 1 + _jitter(rng, 2))
    types = [
        TypeDef("WORLD", TypeKind.ORDERED, regex=star(_sym("region", "REGION"))),
        TypeDef(
            "REGION",
            TypeKind.ORDERED,
            regex=concat(
                _sym("rname", "RNAME"),
                star(alt(_sym("region", "REGION"), _sym("city", "CITY"))),
            ),
        ),
        TypeDef(
            "CITY",
            TypeKind.ORDERED,
            regex=concat(
                _sym("cname", "CNAME"),
                _sym("population", "POP"),
                star(_sym("poi", "POI")),
            ),
        ),
        TypeDef(
            "POI",
            TypeKind.ORDERED,
            regex=concat(
                _sym("pname", "PNAME"),
                alt(*[_sym(f"kind{i}", "PKIND") for i in range(n_kinds)]),
            ),
        ),
        TypeDef("RNAME", TypeKind.ATOMIC, atomic="string"),
        TypeDef("CNAME", TypeKind.ATOMIC, atomic="string"),
        TypeDef("POP", TypeKind.ATOMIC, atomic="int"),
        TypeDef("PNAME", TypeKind.ATOMIC, atomic="string"),
        TypeDef("PKIND", TypeKind.ATOMIC, atomic="string"),
    ]
    return Schema(types)


def _citation_schema(rng: random.Random, scale: int) -> Schema:
    n_venues = max(2, scale + _jitter(rng, 3))
    venue_options = [_sym(f"venue{i}", f"VENUE{i}") for i in range(n_venues)]
    types = [
        TypeDef("GRAPH", TypeKind.ORDERED, regex=star(_sym("paper", "PAPER"))),
        TypeDef(
            "PAPER",
            TypeKind.ORDERED,
            regex=concat(
                _sym("title", "TITLE"),
                _sym("year", "YEAR"),
                alt(*venue_options),
                star(_sym("author", "AUTHOR")),
                star(_sym("cites", "CITATION")),
            ),
        ),
        TypeDef(
            "AUTHOR",
            TypeKind.ORDERED,
            regex=concat(_sym("name", "NAME"), opt(_sym("affiliation", "AFFIL"))),
        ),
        TypeDef(
            "CITATION",
            TypeKind.ORDERED,
            regex=concat(_sym("reftitle", "TITLE"), opt(_sym("refyear", "YEAR"))),
        ),
        TypeDef("TITLE", TypeKind.ATOMIC, atomic="string"),
        TypeDef("YEAR", TypeKind.ATOMIC, atomic="int"),
        TypeDef("NAME", TypeKind.ATOMIC, atomic="string"),
        TypeDef("AFFIL", TypeKind.ATOMIC, atomic="string"),
    ]
    types += [
        TypeDef(f"VENUE{i}", TypeKind.ATOMIC, atomic="string")
        for i in range(n_venues)
    ]
    return Schema(types)


def _config_schema(rng: random.Random, scale: int) -> Schema:
    n_nums = max(1, scale // 2 + _jitter(rng, 2))
    value_options = [
        _sym("str", "SVAL"),
        _sym("flag", "FVAL"),
    ] + [_sym(f"num{i}", "NVAL") for i in range(n_nums)]
    types = [
        TypeDef("CONFIG", TypeKind.ORDERED, regex=star(_sym("section", "SECTION"))),
        TypeDef(
            "SECTION",
            TypeKind.ORDERED,
            regex=concat(
                _sym("sname", "SNAME"),
                star(alt(_sym("option", "OPTION"), _sym("section", "SECTION"))),
            ),
        ),
        TypeDef(
            "OPTION",
            TypeKind.ORDERED,
            regex=concat(
                _sym("key", "OKEY"),
                alt(*value_options),
            ),
        ),
        TypeDef("SNAME", TypeKind.ATOMIC, atomic="string"),
        TypeDef("OKEY", TypeKind.ATOMIC, atomic="string"),
        TypeDef("SVAL", TypeKind.ATOMIC, atomic="string"),
        TypeDef("NVAL", TypeKind.ATOMIC, atomic="int"),
        TypeDef("FVAL", TypeKind.ATOMIC, atomic="string"),
    ]
    return Schema(types)


def _messaging_schema(rng: random.Random, scale: int) -> Schema:
    n_mimes = max(1, scale // 2 + _jitter(rng, 2))
    types = [
        TypeDef("MAILBOX", TypeKind.ORDERED, regex=star(_sym("thread", "THREAD"))),
        TypeDef(
            "THREAD",
            TypeKind.ORDERED,
            regex=concat(
                _sym("subject", "SUBJECT"),
                _sym("message", "MESSAGE"),
                star(_sym("message", "MESSAGE")),
            ),
        ),
        TypeDef(
            "MESSAGE",
            TypeKind.ORDERED,
            regex=concat(
                _sym("sender", "ADDR"),
                _sym("to", "ADDR"),
                star(_sym("to", "ADDR")),
                _sym("body", "BODY"),
                star(_sym("attachment", "ATTACHMENT")),
                star(_sym("reply", "MESSAGE")),
            ),
        ),
        TypeDef(
            "ATTACHMENT",
            TypeKind.ORDERED,
            regex=concat(
                _sym("aname", "ANAME"),
                alt(*[_sym(f"mime{i}", "MIME") for i in range(n_mimes)]),
            ),
        ),
        TypeDef("SUBJECT", TypeKind.ATOMIC, atomic="string"),
        TypeDef("ADDR", TypeKind.ATOMIC, atomic="string"),
        TypeDef("BODY", TypeKind.ATOMIC, atomic="string"),
        TypeDef("ANAME", TypeKind.ATOMIC, atomic="string"),
        TypeDef("MIME", TypeKind.ATOMIC, atomic="string"),
    ]
    return Schema(types)


_BUILDERS: Dict[str, Callable[[random.Random, int], Schema]] = {
    "social": _social_schema,
    "bibliography": _bibliography_schema,
    "commerce": _commerce_schema,
    "telemetry": _telemetry_schema,
    "filesystem": _filesystem_schema,
    "orgchart": _orgchart_schema,
    "geo": _geo_schema,
    "citation": _citation_schema,
    "config": _config_schema,
    "messaging": _messaging_schema,
}


# ----------------------------------------------------------------------
# Query generation: seeded walks over the schema graph
# ----------------------------------------------------------------------


def _adjacency(schema: Schema) -> Dict[str, List[Tuple[str, str]]]:
    """``tid -> sorted [(label, target)]`` — sorted for hash-seed stability."""
    edges: Dict[str, List[Tuple[str, str]]] = {}
    for tid in schema.tids():
        type_def = schema.type(tid)
        if type_def.is_atomic:
            continue
        edges[tid] = sorted(set(type_def.symbols()))
    return edges


def _long_tail_depth(rng: random.Random, cap: int) -> int:
    """Geometric depth: most walks stop at 1–2, a few run to ``cap``."""
    depth = 1
    while depth < cap and rng.random() < 0.55:
        depth += 1
    return depth


def _walk(
    schema: Schema,
    adjacency: Dict[str, List[Tuple[str, str]]],
    rng: random.Random,
    max_depth: int = 8,
) -> Tuple[List[str], str]:
    """A random label path from the root; returns ``(labels, end_tid)``."""
    labels: List[str] = []
    tid = schema.root
    for _ in range(_long_tail_depth(rng, max_depth)):
        options = adjacency.get(tid)
        if not options:
            break
        label, tid = rng.choice(options)
        labels.append(label)
    if not labels:
        label, tid = rng.choice(adjacency[schema.root])
        labels.append(label)
    return labels, tid


def _chain_query(labels: Sequence[str]) -> Query:
    root = PatternDef(
        "Root", PatternKind.ORDERED, arms=[PatternArm(word(list(labels)), "X")]
    )
    return Query(["X"], [root])


def _render_query(
    schema: Schema,
    adjacency: Dict[str, List[Tuple[str, str]]],
    rng: random.Random,
) -> str:
    """One seeded query: chain, wildcard-step, ``(_*)`` suffix, or fan-out."""
    labels, _tid = _walk(schema, adjacency, rng)
    roll = rng.random()
    if roll < 0.50:
        query = _chain_query(labels)
    elif roll < 0.70:
        # One step blurred to the wildcard: `a._.c`.
        pieces: List[Regex] = [Sym(label) for label in labels]
        pieces[rng.randrange(len(pieces))] = ANY
        root = PatternDef(
            "Root", PatternKind.ORDERED, arms=[PatternArm(concat(*pieces), "X")]
        )
        query = Query(["X"], [root])
    elif roll < 0.85:
        # Constant-suffix form `(_*).l` — the R.l restriction of Table 2.
        path = concat(star(ANY), Sym(labels[-1]))
        root = PatternDef(
            "Root", PatternKind.ORDERED, arms=[PatternArm(path, "X")]
        )
        query = Query(["X"], [root])
    else:
        # Two-arm fan-out from the root over distinct first labels.
        other, _ = _walk(schema, adjacency, rng)
        arms = [
            PatternArm(word(list(labels)), "X1"),
            PatternArm(word(list(other)), "X2"),
        ]
        root = PatternDef("Root", PatternKind.ORDERED, arms=arms)
        query = Query(["X1", "X2"], [root])
    return query_to_string(query)


def _sampled_query(
    schema: Schema,
    adjacency: Dict[str, List[Tuple[str, str]]],
    rng: random.Random,
    attempts: int = 16,
) -> str:
    """Draw queries until one round-trips through the parser."""
    for _ in range(attempts):
        text = _render_query(schema, adjacency, rng)
        try:
            parse_query(text)
        except (ValueError, SyntaxError):
            continue
        return text
    raise RuntimeError(
        f"domain query generator produced {attempts} consecutive "
        f"unparsable queries — generator/printer mismatch"
    )


# ----------------------------------------------------------------------
# Corpus assembly
# ----------------------------------------------------------------------


def build_domain(
    name: str,
    seed: int = 0,
    scale: int = 4,
    n_queries: int = 12,
    n_checks: int = 4,
    n_documents: int = 2,
) -> DomainCorpus:
    """The deterministic corpus for one named domain.

    Equal ``(name, seed, scale, ...)`` tuples produce byte-identical
    corpora in any process; different seeds vary the schema structure
    (and therefore the fingerprint), so a workload can mint arbitrarily
    many distinct schemas.
    """
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ValueError(
            f"unknown domain {name!r} (expected one of {', '.join(DOMAIN_NAMES)})"
        )
    if scale < 1:
        raise ValueError("scale must be >= 1")
    rng = random.Random(f"{name}:{seed}:{scale}")
    schema = builder(rng, scale)
    adjacency = _adjacency(schema)

    queries = tuple(
        _sampled_query(schema, adjacency, rng) for _ in range(max(1, n_queries))
    )
    checks = []
    for _ in range(max(0, n_checks)):
        labels, end_tid = _walk(schema, adjacency, rng)
        checks.append(
            (query_to_string(_chain_query(labels)), (("X", end_tid),))
        )
    documents = tuple(
        data_to_string(random_instance(schema, rng, max_depth=5, max_repeat=2))
        for _ in range(max(0, n_documents))
    )
    return DomainCorpus(
        name=name,
        seed=seed,
        scale=scale,
        schema_text=schema_to_string(schema),
        fingerprint=schema.fingerprint(),
        queries=queries,
        checks=tuple(checks),
        documents=documents,
    )


def domain_corpus(
    seed: int = 0,
    names: Optional[Sequence[str]] = None,
    base_scale: int = 8,
    base_queries: int = 24,
) -> List[DomainCorpus]:
    """All (or the named) domains with Zipf-ish size skew by rank.

    Rank ``k`` (1-based) gets scale ``max(1, base_scale // k)`` plus a
    seeded jitter of 0–1 and a query pool of ``max(4, base_queries // k)``
    — so the head domains carry most of the corpus mass and the tail
    stays cheap, the shape real multi-tenant registries have.
    """
    chosen = tuple(names) if names is not None else DOMAIN_NAMES
    unknown = [name for name in chosen if name not in _BUILDERS]
    if unknown:
        raise ValueError(
            f"unknown domains {unknown}; choose from {', '.join(DOMAIN_NAMES)}"
        )
    jitter = random.Random(f"corpus:{seed}")
    corpora = []
    for rank, name in enumerate(chosen, start=1):
        scale = max(1, base_scale // rank) + jitter.randint(0, 1)
        corpora.append(
            build_domain(
                name,
                seed=seed,
                scale=scale,
                n_queries=max(4, base_queries // rank),
                n_checks=max(2, 6 // rank),
                n_documents=2,
            )
        )
    return corpora


def corpus_records(corpora: Sequence[DomainCorpus]) -> List[Dict[str, object]]:
    """Flatten corpora into JSON-able NDJSON records (schemas first)."""
    records: List[Dict[str, object]] = []
    for corpus in corpora:
        records.append(
            {
                "kind": "schema",
                "domain": corpus.name,
                "seed": corpus.seed,
                "scale": corpus.scale,
                "fingerprint": corpus.fingerprint,
                "schema": corpus.schema_text,
            }
        )
    for corpus in corpora:
        for query in corpus.queries:
            records.append(
                {"kind": "query", "domain": corpus.name, "query": query}
            )
        for payload in corpus.check_payloads():
            records.append({"kind": "check", "domain": corpus.name, **payload})
        for document in corpus.documents:
            records.append(
                {"kind": "document", "domain": corpus.name, "data": document}
            )
    return records


def corpus_to_ndjson(corpora: Sequence[DomainCorpus]) -> str:
    """Deterministic NDJSON rendering (sorted keys, stable order).

    Byte-identical for equal seeds across processes and hash seeds —
    the property the determinism regression test pins.
    """
    return "".join(
        json.dumps(record, sort_keys=True) + "\n"
        for record in corpus_records(corpora)
    )
