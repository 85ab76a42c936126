"""The parsed-query memo inside ``parse_query``.

Repeated query texts (an editor re-checking the query being written, a
``/batch`` of items over one query, Zipf-skewed service traffic) return
the same shared :class:`Query` instead of being lexed again.
"""

import pytest

from repro.query import parse_query, query_to_string
from repro.query import parser as parser_mod
from repro.query.model import QueryError

TEXT = "SELECT X WHERE Root = [paper.title -> X]"


@pytest.fixture(autouse=True)
def empty_memo():
    parser_mod._parse_memoized.cache_clear()
    yield
    parser_mod._parse_memoized.cache_clear()


def _memo_size():
    return parser_mod._parse_memoized.cache_info().currsize


def test_same_text_returns_the_same_query():
    first = parse_query(TEXT)
    assert parse_query(TEXT) is first
    assert parse_query(TEXT, validate=True) is first
    assert _memo_size() == 1


def test_validate_is_part_of_the_key():
    checked = parse_query(TEXT)
    unchecked = parse_query(TEXT, validate=False)
    assert unchecked is not checked
    assert parse_query(TEXT, validate=False) is unchecked
    # An unvalidated parse never answers a validating call.
    bad = "SELECT Y WHERE Root = [a -> X]"
    parse_query(bad, validate=False)
    with pytest.raises(QueryError):
        parse_query(bad)


@pytest.mark.parametrize(
    "text, error",
    [("SELECT X WHERE Root = [a -> ", SyntaxError), ("SELECT Y WHERE R = [a -> X]", QueryError)],
)
def test_errors_are_not_memoized(text, error):
    for _ in range(2):
        with pytest.raises(error):
            parse_query(text)
    assert _memo_size() == 0


def test_long_texts_are_not_memoized():
    arms = ", ".join(f"l{i} -> X{i}" for i in range(40))
    text = f"SELECT X0 WHERE Root = [{arms}]"
    assert len(text) > parser_mod.PARSE_MEMO_MAX_CHARS
    first = parse_query(text)
    second = parse_query(text)
    assert second is not first
    assert query_to_string(second) == query_to_string(first)
    assert _memo_size() == 0


def test_the_entry_bound_holds_and_evicts_the_least_recent():
    bound = parser_mod.PARSE_MEMO_ENTRIES
    texts = [f"SELECT X WHERE Root = [l{i} -> X]" for i in range(bound + 1)]
    oldest = parse_query(texts[0])
    kept = parse_query(texts[1])
    for text in texts[2:bound]:
        parse_query(text)
    assert parse_query(texts[0]) is oldest  # refreshed: texts[1] is now oldest
    parse_query(texts[bound])
    assert _memo_size() == bound
    assert parse_query(texts[0]) is oldest
    assert parse_query(texts[1]) is not kept
    assert _memo_size() == bound
