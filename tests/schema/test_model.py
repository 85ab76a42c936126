"""Unit tests for the schema model and Table-2 classifiers."""

import contextvars
import time

import pytest

from repro.automata import EPSILON, alt, concat, star, sym
from repro.cancellation import Cancelled, bind
from repro.engine import Engine
from repro.schema import Schema, SchemaError, TypeDef, TypeKind, parse_schema

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
