"""Unit tests for the schema model and Table-2 classifiers."""

import contextvars
import random
import time

import pytest

import repro.schema.model as model
from repro.automata import EPSILON, alt, concat, star, sym
from repro.cancellation import Cancelled, bind
from repro.engine import Engine
from repro.schema import Schema, SchemaError, TypeDef, TypeKind, parse_schema
from repro.workloads import domain_corpus, random_schema, schema_corpus

DOCUMENT_SCHEMA = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE . (author -> AUTHOR)*];
AUTHOR = [name -> NAME . email -> EMAIL];
NAME = [firstname -> FIRSTNAME . lastname -> LASTNAME];
TITLE = string;
FIRSTNAME = string;
LASTNAME = string;
EMAIL = string
"""


def _chain(n: int, end: str) -> str:
    """``T0 = [a -> T1]; ...; T(n-1) = [a -> Tn]; Tn = <end>``."""
    return "; ".join([f"T{i} = [a -> T{i + 1}]" for i in range(n)] + [f"T{n} = {end}"])


def _round_robin_ranks(schema, engine):
    """The reference for the worklist fixpoint: each round re-checks every
    type not yet inhabited against the types ranked in earlier rounds."""
    ranks = {t.tid: 0 for t in schema if t.is_atomic}
    round_index = 0
    changed = True
    while changed:
        changed = False
        round_index += 1
        known = set(ranks)
        for type_def in schema:
            if type_def.tid in ranks or type_def.is_atomic:
                continue
            nfa = engine.content_nfa(schema, type_def.tid)
            if not model._restrict_to_targets(nfa, known).is_empty():
                ranks[type_def.tid] = round_index
                changed = True
    return ranks


def _past_deadline(fn):
    """Run ``fn`` with a passed deadline bound in a copied context."""

    def run():
        bind(time.monotonic() - 1)
        return fn()

    return contextvars.copy_context().run(run)


class TestTypeDef:
    def test_atomic(self):
        t = TypeDef("T", TypeKind.ATOMIC, atomic="string")
        assert t.is_atomic
        assert not t.is_referenceable

    def test_unknown_atomic_rejected(self):
        with pytest.raises(ValueError):
            TypeDef("T", TypeKind.ATOMIC, atomic="bool")

    def test_collection_requires_regex(self):
        with pytest.raises(ValueError):
            TypeDef("T", TypeKind.ORDERED)

    def test_regex_atoms_must_be_pairs(self):
        with pytest.raises(ValueError):
            TypeDef("T", TypeKind.ORDERED, regex=sym("a"))

    def test_referenceable(self):
        t = TypeDef("&T", TypeKind.ORDERED, regex=EPSILON)
        assert t.is_referenceable

    def test_homogeneous_unordered(self):
        homogeneous = TypeDef("T", TypeKind.UNORDERED, regex=star(sym(("a", "U"))))
        assert homogeneous.is_homogeneous_unordered()
        union = TypeDef(
            "T", TypeKind.UNORDERED, regex=star(alt(sym(("a", "U")), sym(("b", "V"))))
        )
        assert union.is_homogeneous_unordered()
        other = TypeDef(
            "T", TypeKind.UNORDERED, regex=concat(sym(("a", "U")), sym(("b", "V")))
        )
        assert not other.is_homogeneous_unordered()
        ordered = TypeDef("T", TypeKind.ORDERED, regex=star(sym(("a", "U"))))
        assert not ordered.is_homogeneous_unordered()


class TestSchema:
    def test_document_schema(self):
        schema = parse_schema(DOCUMENT_SCHEMA)
        assert schema.root == "DOCUMENT"
        assert len(schema) == 8
        assert schema.labels() == {
            "paper",
            "title",
            "author",
            "name",
            "email",
            "firstname",
            "lastname",
        }

    def test_undefined_reference_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema("T = [(a -> MISSING)]")

    def test_duplicate_tid_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema("T = string; T = int")

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])


class TestClassifiers:
    def test_document_schema_is_dtd_minus(self):
        schema = parse_schema(DOCUMENT_SCHEMA)
        assert schema.is_ordered()
        assert schema.is_tagged()
        assert schema.is_tree()
        assert schema.is_dtd_minus()
        assert schema.is_dtd_plus()

    def test_unordered_not_ordered(self):
        schema = parse_schema("T = {(a -> U)*}; U = string")
        assert not schema.is_ordered()
        assert schema.is_ordered(allow_homogeneous=True)

    def test_non_homogeneous_unordered(self):
        schema = parse_schema("T = {a -> U . b -> U}; U = string")
        assert not schema.is_ordered(allow_homogeneous=True)

    def test_untagged_label_to_two_types(self):
        schema = parse_schema("T = [a -> U | a -> V]; U = string; V = int")
        assert not schema.is_tagged()

    def test_untagged_two_labels_one_type(self):
        # One-to-one means injective too: two labels sharing a type break it.
        schema = parse_schema("T = [a -> U . b -> U]; U = string")
        assert not schema.is_tagged()

    def test_tag_of(self):
        schema = parse_schema(DOCUMENT_SCHEMA)
        assert schema.tag_of("paper") == "PAPER"
        assert schema.tag_of("title") == "TITLE"
        assert schema.tag_of("unknown") is None

    def test_referenceable_schema_not_tree(self):
        schema = parse_schema("T = [(a -> &U)*]; &U = string")
        assert not schema.is_tree()
        assert not schema.is_dtd_minus()
        assert schema.is_dtd_plus()


class TestInhabitation:
    def test_all_inhabited(self):
        schema = parse_schema(DOCUMENT_SCHEMA)
        assert schema.inhabited_types() == frozenset(schema.tids())

    def test_uninhabited_recursive_type(self):
        # T requires an 'a' child of type T: no finite instance exists.
        schema = parse_schema("ROOT = [b -> U | a -> T]; T = [a -> T]; U = string")
        inhabited = schema.inhabited_types()
        assert "T" not in inhabited
        assert "ROOT" in inhabited  # via the b -> U branch
        assert "U" in inhabited

    def test_recursive_with_base_case(self):
        schema = parse_schema("TREE = [(child -> TREE)*]")
        assert schema.inhabited_types() == {"TREE"}

    def test_chain_is_inhabited_back_from_its_end(self):
        """Each round of the fixpoint inhabits one more link of a chain
        declared root first, so this needs all 20 rounds."""
        schema = parse_schema(_chain(20, "string"))
        assert schema.inhabited_types() == frozenset(schema.tids())
        # A chain ending in a type with no finite instance has none at all.
        schema = parse_schema(_chain(20, "[a -> T20]"))
        assert schema.inhabited_types() == frozenset()

    def test_chain_checks_each_type_at_most_twice(self, monkeypatch):
        """The round-robin fixpoint re-checked every uninhabited type in
        each round, n^2 / 2 checks for a chain of n: 2.5 s to register
        a chain of 1,000.  The worklist checks each type in the first
        round and once more when its target gains a rank."""
        checks = []
        real = model._restrict_to_targets
        monkeypatch.setattr(
            model,
            "_restrict_to_targets",
            lambda nfa, allowed: checks.append(1) or real(nfa, allowed),
        )
        n = 200
        schema = parse_schema(_chain(n, "string"))
        ranks = schema.inhabitation_ranks(Engine())
        assert ranks == {f"T{i}": n - i for i in range(n + 1)}
        assert len(checks) <= 2 * n
        checks.clear()
        assert Engine().inhabited_types(schema) == frozenset(ranks)
        assert len(checks) <= 2 * n

    @pytest.mark.parametrize(
        "corpus",
        [
            "schema_corpus",
            "domain_corpus-0",
            "domain_corpus-1",
            "domain_corpus-2",
            "random",
            "bottom-up",
        ],
    )
    def test_ranks_equal_the_round_robin_fixpoint(self, corpus):
        if corpus == "schema_corpus":
            schemas = schema_corpus(24)
        elif corpus == "bottom-up":
            # Chains declared leaf first, interleaved with leaves: a
            # fixpoint that let a type count for later types of its own
            # round would rank a whole chain 1, not one more per link.
            schemas = [
                parse_schema(
                    f"S{k}0 = string; "
                    + "; ".join(
                        f"S{k}{i} = [a -> S{k}{i - 1}]; L{k}{i} = [b -> S{k}0]"
                        for i in range(1, 11)
                    )
                )
                for k in range(30)
            ]
        elif corpus == "random":
            rng = random.Random(0)
            schemas = [random_schema(rng, n_types=rng.randint(2, 7)) for _ in range(60)]
            schemas += [
                parse_schema("ROOT = [b -> U | a -> T]; T = [a -> T]; U = string"),
                parse_schema(_chain(12, "[a -> T12]")),
                parse_schema(
                    "R = [x -> A . y -> B]; A = [(z -> B)*]; B = [w -> C | v -> R];"
                    " C = int"
                ),
            ]
        else:
            seed = int(corpus.rsplit("-", 1)[1])
            schemas = [parse_schema(c.schema_text) for c in domain_corpus(seed)]
        for schema in schemas:
            engine = Engine()
            expected = _round_robin_ranks(schema, engine)
            assert schema.inhabitation_ranks(engine) == expected
            assert engine.inhabited_types(schema) == frozenset(expected)

    def test_fixpoint_polls_the_bound_deadline(self):
        engine = Engine()
        schema = parse_schema(_chain(5, "string"))
        with pytest.raises(Cancelled):
            _past_deadline(lambda: engine.inhabited_types(schema))
        assert engine.inhabited_types(schema) == frozenset(schema.tids())


class TestSchemaGraph:
    def test_possible_edges(self):
        schema = parse_schema(DOCUMENT_SCHEMA)
        edges = schema.possible_edges()
        assert ("paper", "PAPER") in edges["DOCUMENT"]
        assert ("title", "TITLE") in edges["PAPER"]
        assert edges["TITLE"] == frozenset()

    def test_uninhabited_edges_pruned(self):
        schema = parse_schema("ROOT = [b -> U | a -> T]; T = [a -> T]; U = string")
        edges = schema.possible_edges()
        assert ("a", "T") not in edges["ROOT"]
        assert ("b", "U") in edges["ROOT"]

    def test_possible_edges_polls_the_bound_deadline(self):
        """With inhabitation already cached, only the schema-graph loop
        is left to stop at the passed deadline."""
        engine = Engine()
        schema = parse_schema(DOCUMENT_SCHEMA)
        engine.inhabited_types(schema)
        with pytest.raises(Cancelled):
            _past_deadline(lambda: engine.possible_edges(schema))
        assert ("paper", "PAPER") in engine.possible_edges(schema)["DOCUMENT"]

    def test_reachable_types(self):
        schema = parse_schema(
            "ROOT = [a -> U]; U = string; ORPHAN = [b -> U]"
        )
        assert schema.reachable_types() == {"ROOT", "U"}
