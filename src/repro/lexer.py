"""Shared tokenizer for the Table-1 textual grammars.

The paper uses one surface syntax family for data graphs, schemas, and
patterns (Table 1); this lexer serves all three parsers.  Tokens:

====================  =========================================
kind                  examples
====================  =========================================
``IDENT``             ``paper``, ``T5``, ``&o4`` (referenceable)
``STRING``            ``"John"`` (double-quoted, ``\\`` escapes)
``NUMBER``            ``3``, ``3.14``
``ARROW``             ``->``
``OP``                ``. | * + ? ( ) { } [ ] , ; = $ <``
``EOF``               end of input
====================  =========================================

A standalone ``_`` lexes as ``IDENT`` with value ``"_"``; the regex parser
interprets it as the wildcard, so labels cannot literally be named ``_``
(the paper reserves it for the wildcard too).
"""

from __future__ import annotations

import re
from typing import Iterator, List, NamedTuple, Optional, Union

from .cancellation import POLL_EVERY, current_deadline, raise_if_cancelled


class Token(NamedTuple):
    """A lexed token: ``kind`` is IDENT/STRING/NUMBER/ARROW/OP/EOF."""

    kind: str
    value: Union[str, int, float]
    position: int
    line: int
    column: int


class LexError(ValueError):
    """Raised on characters that cannot start a token."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<arrow>->)
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<ident>&?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<op>[.|*+?(){}\[\],;=$<])
    """,
    re.VERBOSE,
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; ``#`` starts a comment running to end of line.

    A text can be as long as a request body, so the sweep polls the
    calling context's deadline every :data:`~repro.cancellation.POLL_EVERY`
    tokens.

    Raises:
        LexError: on an unrecognized character, with line/column info.
        Cancelled: once the calling context's deadline has passed.
    """
    tokens: List[Token] = []
    append = tokens.append
    position = 0
    line = 1
    line_start = 0
    cancel = current_deadline()
    # One finditer sweep; a gap between consecutive matches is exactly an
    # unlexable character (every token pattern is anchored by the gap check).
    for count, match in enumerate(_TOKEN_RE.finditer(text), 1):
        if count % POLL_EVERY == 0:
            raise_if_cancelled(cancel)
        if match.start() != position:
            raise LexError(
                f"unexpected character {text[position]!r} at line {line}, "
                f"column {position - line_start + 1}"
            )
        group = match.lastgroup
        if group == "ident":
            append(Token("IDENT", match.group(), position, line, position - line_start + 1))
        elif group == "op":
            append(Token("OP", match.group(), position, line, position - line_start + 1))
        elif group == "ws":
            raw = match.group()
            if "\n" in raw:
                line += raw.count("\n")
                line_start = match.start() + raw.rfind("\n") + 1
        elif group == "arrow":
            append(Token("ARROW", "->", position, line, position - line_start + 1))
        elif group == "number":
            raw = match.group()
            value: Union[int, float] = float(raw) if "." in raw else int(raw)
            append(Token("NUMBER", value, position, line, position - line_start + 1))
        else:  # string
            raw = match.group()[1:-1]
            value = re.sub(
                r"\\(.)", lambda m: _ESCAPES.get(m.group(1), m.group(1)), raw
            )
            append(Token("STRING", value, position, line, position - line_start + 1))
        position = match.end()
    if position != len(text):
        raise LexError(
            f"unexpected character {text[position]!r} at line {line}, "
            f"column {position - line_start + 1}"
        )
    append(Token("EOF", "", position, line, position - line_start + 1))
    return tokens


class TokenStream:
    """A cursor over a token list with one-token lookahead helpers."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.index = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def peek(self, offset: int = 0) -> Token:
        """Return the token ``offset`` positions ahead (clamped to EOF)."""
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        """Consume and return the current token."""
        token = self.current
        if token.kind != "EOF":
            self.index += 1
        return token

    def match(self, kind: str, value: Optional[object] = None) -> Optional[Token]:
        """Consume and return the current token if it matches, else None."""
        token = self.current
        if token.kind != kind:
            return None
        if value is not None and token.value != value:
            return None
        return self.advance()

    def expect(self, kind: str, value: Optional[object] = None) -> Token:
        """Consume a token of the given kind (and value), or raise."""
        token = self.match(kind, value)
        if token is None:
            want = f"{kind} {value!r}" if value is not None else kind
            got = self.current
            raise SyntaxError(
                f"expected {want}, found {got.kind} {got.value!r} "
                f"at line {got.line}, column {got.column}"
            )
        return token

    def at_end(self) -> bool:
        return self.current.kind == "EOF"
