"""Tests for the migration compatibility analyzer (``repro.schema.migrate``)."""

import threading

from repro.engine import Engine
from repro.schema import (
    POLICIES,
    QUERY_STATUSES,
    analyze_migration,
    parse_schema,
)
from repro.schema.delta import NARROWING, WIDENING

OLD = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE . (author -> AUTHOR)*];
AUTHOR = [name -> NAME]; NAME = string; TITLE = string
"""

WIDE = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE . (author -> AUTHOR)* . (year -> YEAR)?];
AUTHOR = [name -> NAME]; NAME = string; TITLE = string; YEAR = int
"""

NARROW = """
DOCUMENT = [(paper -> PAPER)*];
PAPER = [title -> TITLE];
AUTHOR = [name -> NAME]; NAME = string; TITLE = string
"""

QUERIES = (
    "SELECT X WHERE Root = [paper.author.name -> X]",
    "SELECT X WHERE Root = [paper.title -> X]",
)


def analyze(old_text, new_text, queries=(), policy="compatible"):
    return analyze_migration(
        parse_schema(old_text),
        parse_schema(new_text),
        queries=queries,
        policy=policy,
        engine_old=Engine(),
        engine_new=Engine(),
    )


class TestConstants:
    def test_policy_and_status_vocabularies(self):
        assert POLICIES == ("any", "compatible", "strict")
        assert QUERY_STATUSES == ("survives", "retypes", "breaks", "invalid")


class TestWidening:
    def test_all_queries_survive_and_every_policy_accepts(self):
        for policy in POLICIES:
            report = analyze(OLD, WIDE, queries=QUERIES, policy=policy)
            assert report.compatibility == WIDENING
            assert report.accepted, policy
            assert report.counts == {
                "survives": 2,
                "retypes": 0,
                "breaks": 0,
                "invalid": 0,
            }
            assert all(q.status == "survives" for q in report.queries)

    def test_report_serializes(self):
        report = analyze(OLD, WIDE, queries=QUERIES)
        payload = report.to_dict()
        assert payload["compatibility"] == WIDENING
        assert payload["accepted"] is True
        assert payload["policy"] == "compatible"
        assert len(payload["queries"]) == 2
        assert payload["delta"]["compatibility"] == WIDENING


class TestNarrowing:
    def test_broken_query_named_with_counterexample(self):
        report = analyze(OLD, NARROW, queries=QUERIES, policy="compatible")
        assert report.compatibility == NARROWING
        assert not report.accepted
        assert report.counts["breaks"] == 1
        (broken,) = report.broken()
        assert broken.query == QUERIES[0]
        assert broken.satisfiable_before and not broken.satisfiable_after
        # The concrete word: a PAPER content word legal before, not after.
        assert broken.counterexample == ["title->TITLE", "author->AUTHOR"]
        assert broken.counterexample_change

    def test_any_policy_accepts_even_broken_migrations(self):
        report = analyze(OLD, NARROW, queries=QUERIES, policy="any")
        assert report.accepted

    def test_strict_policy_rejects_narrowing_without_queries(self):
        assert not analyze(OLD, NARROW, policy="strict").accepted
        assert not analyze(OLD, NARROW, policy="compatible").accepted
        assert analyze(OLD, WIDE, policy="compatible").accepted


class TestQueryStatuses:
    def test_invalid_query_reported_not_raised(self):
        report = analyze(OLD, WIDE, queries=("((( zzz9",))
        (bad,) = report.queries
        assert bad.status == "invalid"
        assert bad.error
        assert report.counts["invalid"] == 1

    def test_retypes_when_assignments_change(self):
        # The variable keeps satisfiable but its inferred type changes:
        # AUTHOR's content moves from name->NAME to name->PEN.
        retyped = OLD.replace(
            "AUTHOR = [name -> NAME]; NAME = string",
            "AUTHOR = [name -> PEN]; PEN = int; NAME = string",
        )
        report = analyze(
            OLD,
            retyped,
            queries=("SELECT X WHERE Root = [paper.author.name -> X]",),
            policy="any",
        )
        (query,) = report.queries
        assert query.status == "retypes"
        assert query.types_before != query.types_after

    def test_queries_are_inferred_on_the_calling_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        queries = QUERIES + ("SELECT X WHERE Root = [paper -> X]",)
        report = analyze(OLD, WIDE, queries=queries)
        assert [query.status for query in report.queries] == ["survives"] * 3

    def test_no_queries_counts_are_zero(self):
        report = analyze(OLD, WIDE)
        assert report.queries == ()
        assert report.counts == {
            "survives": 0,
            "retypes": 0,
            "breaks": 0,
            "invalid": 0,
        }


class TestValidation:
    def test_unknown_policy_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            analyze(OLD, WIDE, policy="yolo")
