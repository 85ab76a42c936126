"""Unit tests for the schema textual syntax and the DTD bridge."""

import contextvars
import time

import pytest

from repro.cancellation import Cancelled, bind
from repro.schema import (
    DtdError,
    parse_dtd,
    parse_schema,
    schema_to_dtd,
    schema_to_string,
)

PAPER_DTD = """
<!ELEMENT Document (paper*) >
<!ELEMENT paper (title,(author)*)>
<!ELEMENT title #PCDATA >
<!ELEMENT author (name, email)>
<!ELEMENT name (firstname,lastname)>
<!ELEMENT firstname #PCDATA >
<!ELEMENT lastname #PCDATA >
<!ELEMENT email #PCDATA >
"""


class TestSchemaParser:
    def test_example_t_schema(self):
        # From Table 1: T1={(a->T2,b->T3)|(d->T4)}; ... (comma = concat here
        # rendered with '.'):
        schema = parse_schema(
            "T1 = {(a -> T2 . b -> T3) | (d -> T4)};"
            "T2 = [a -> T5 . (c -> T6)*];"
            "T3 = float; T4 = int; T5 = string; T6 = float"
        )
        assert schema.root == "T1"
        assert schema.type("T1").is_unordered
        assert schema.type("T2").is_ordered
        assert schema.type("T4").atomic == "int"

    def test_empty_collections(self):
        schema = parse_schema("T = []; U = {}", validate=True)
        assert schema.type("T").regex.nullable()
        assert schema.type("U").regex.nullable()

    def test_round_trip(self):
        from tests.schema.test_model import DOCUMENT_SCHEMA

        schema = parse_schema(DOCUMENT_SCHEMA)
        assert parse_schema(schema_to_string(schema)) == schema

    def test_round_trip_unordered(self):
        schema = parse_schema("T = {(a -> U)* | b -> V}; U = string; V = int")
        assert parse_schema(schema_to_string(schema)) == schema

    def test_bad_atomic(self):
        with pytest.raises(SyntaxError):
            parse_schema("T = boolean")

    def test_missing_arrow(self):
        with pytest.raises(SyntaxError):
            parse_schema("T = [a]")


class TestDtd:
    def test_paper_dtd(self):
        schema = parse_dtd(PAPER_DTD)
        assert schema.root == "DOCUMENT"
        assert schema.is_dtd_minus()
        assert schema.type("TITLE").is_atomic
        assert schema.type("PAPER").is_ordered
        # Content model (title,(author)*) gives the expected symbols.
        assert schema.type("PAPER").symbols() == {
            ("title", "TITLE"),
            ("author", "AUTHOR"),
        }

    def test_equivalent_to_section2_schema(self):
        from tests.schema.test_model import DOCUMENT_SCHEMA

        dtd_schema = parse_dtd(PAPER_DTD)
        scmdl_schema = parse_schema(DOCUMENT_SCHEMA)
        assert dtd_schema.types.keys() == scmdl_schema.types.keys()
        for tid in dtd_schema.tids():
            assert dtd_schema.type(tid).kind == scmdl_schema.type(tid).kind

    def test_empty_and_any(self):
        schema = parse_dtd(
            "<!ELEMENT a (b?, c+)><!ELEMENT b EMPTY><!ELEMENT c ANY>"
        )
        assert schema.type("B").regex.nullable()
        assert ("a", "A") in schema.type("C").symbols()

    def test_choice_content(self):
        schema = parse_dtd("<!ELEMENT a (b | c)*><!ELEMENT b #PCDATA><!ELEMENT c #PCDATA>")
        regex = schema.type("A").regex
        assert regex.nullable()
        assert regex.symbols() == {("b", "B"), ("c", "C")}

    def test_undeclared_element_rejected(self):
        with pytest.raises(DtdError):
            parse_dtd("<!ELEMENT a (b)>")

    def test_duplicate_rejected(self):
        with pytest.raises(DtdError):
            parse_dtd("<!ELEMENT a EMPTY><!ELEMENT a EMPTY>")

    def test_duplicate_message_names_each_duplicate_once(self):
        text = "".join(
            f"<!ELEMENT {name} EMPTY>" for name in ["b", "a", "c", "b", "a", "b"]
        )
        with pytest.raises(DtdError) as caught:
            parse_dtd(text)
        assert str(caught.value) == "duplicate element declarations: ['a', 'b']"

    def test_parse_polls_the_bound_deadline(self):
        """The declaration loop stops at a passed deadline; the binding
        lives in a copied context, so this thread's stays unbound."""

        def parse_past_deadline():
            bind(time.monotonic() - 1)
            return parse_dtd(PAPER_DTD)

        with pytest.raises(Cancelled):
            contextvars.copy_context().run(parse_past_deadline)
        assert parse_dtd(PAPER_DTD).root == "DOCUMENT"

    def test_no_declarations(self):
        with pytest.raises(DtdError):
            parse_dtd("<!-- nothing here -->")

    def test_comments_ignored(self):
        schema = parse_dtd("<!-- c --><!ELEMENT a EMPTY>")
        assert schema.root == "A"

    def test_name_collision_disambiguated(self):
        schema = parse_dtd("<!ELEMENT a (A?)><!ELEMENT A EMPTY>")
        assert set(schema.tids()) == {"A", "A_1"}

    def test_dtd_round_trip(self):
        schema = parse_dtd(PAPER_DTD)
        regenerated = parse_dtd(schema_to_dtd(schema))
        assert regenerated.types.keys() == schema.types.keys()
        for tid in schema.tids():
            left, right = schema.type(tid), regenerated.type(tid)
            assert left.kind == right.kind
            if not left.is_atomic:
                from repro.automata import equivalent, thompson

                alphabet = left.symbols() | right.symbols() | {("~", "~")}
                assert equivalent(
                    thompson(left.regex, alphabet), thompson(right.regex, alphabet)
                ), tid

    def test_export_requires_dtd_minus(self):
        schema = parse_schema("T = {(a -> U)*}; U = string")
        with pytest.raises(DtdError):
            schema_to_dtd(schema)
